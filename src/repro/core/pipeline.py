"""End-to-end Translator: Cleaning → Annotation → Complementing.

"The framework takes each individual positioning sequence as input and
generates the corresponding mobility semantics sequence" — with every
intermediate retained, because the Viewer must be able to "trace the
input, output and intermediate data involved in the translation".
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from ..dsm.graph import IndoorGraph
from ..dsm.model import DigitalSpaceModel
from .annotation import SEMANTICS_COLUMNS, SEMANTICS_SCHEMA, annotate_sequence
from .cleaning import CLEANED_COLUMNS, CLEANED_SCHEMA, clean_sequence
from .complement import complement_sequence
from .events import EventModel
from .knowledge import KNOWLEDGE_SCHEMA, count_transitions, knowledge_to_dict
from .stage import per_device, per_device_in_place

#: The first pass's output: a device's cleaned records and its semantics
#: rows in one frame. ``seq`` is null on the record rows.
FIRST_PASS_SCHEMA = T.StructType(
    [CLEANED_SCHEMA["device_id"]]
    + [
        T.StructField(f.name, f.dataType, True)
        for f in CLEANED_SCHEMA.fields + SEMANTICS_SCHEMA.fields
        if f.name != "device_id"
    ]
)


@dataclass
class TranslationResult:
    """All data sequences involved in one translation task.

    ``first_pass`` is the translation's one cached frame; ``cleaned`` and
    ``semantics`` are views of it, so unpersisting them frees nothing.
    Unpersist ``first_pass`` to free the translation.
    """

    raw: DataFrame
    cleaned: DataFrame
    semantics: DataFrame  # original (pre-complement) mobility semantics
    knowledge: DataFrame  # region transition probabilities
    complemented: DataFrame  # final mobility semantics sequence
    first_pass: DataFrame  # cleaned records and semantics rows, cached


def clean_annotate_sequence(
    pdf: pd.DataFrame,
    dsm: DigitalSpaceModel,
    graph: IndoorGraph,
    model: EventModel,
) -> pd.DataFrame:
    """``clean_sequence`` then ``annotate_sequence`` on one device's raw
    records: the cleaned records followed by the semantics rows."""
    cleaned = clean_sequence(pdf, dsm, graph)[CLEANED_COLUMNS]
    semantics = annotate_sequence(cleaned, dsm, model)
    return pd.concat([cleaned, semantics], ignore_index=True)


def translate(
    raw: DataFrame, dsm: DigitalSpaceModel, model: EventModel
) -> TranslationResult:
    """Run the three-layer translation over all selected sequences.

    Knowledge Construction aggregates over *all* annotated sequences, so
    the per-device work runs in two passes, one on each side of it. The
    first shuffles the raw records by device and cleans and annotates
    each device in one task; its output is cached, and ``cleaned`` and
    ``semantics`` are views of it. Counting the knowledge on the driver
    scans the semantics, which fills the cache. The second pass, the
    Complementor, runs on the cached semantics where each device already
    sits, with the knowledge broadcast, so the translation shuffles once.
    """
    first_pass = per_device(
        raw, clean_annotate_sequence, FIRST_PASS_SCHEMA, dsm, IndoorGraph(dsm), model
    ).cache()
    is_record = F.col("seq").isNull()
    cleaned = first_pass.where(is_record).select(*CLEANED_COLUMNS)
    semantics = first_pass.where(~is_record).select(*SEMANTICS_COLUMNS)
    transitions = count_transitions(semantics)
    knowledge = raw.sparkSession.createDataFrame(transitions, KNOWLEDGE_SCHEMA)
    complemented = per_device_in_place(
        semantics,
        complement_sequence,
        SEMANTICS_SCHEMA,
        dsm,
        dsm.region_adjacency(),
        knowledge_to_dict(transitions),
    )
    return TranslationResult(
        raw=raw,
        cleaned=cleaned,
        semantics=semantics,
        knowledge=knowledge,
        complemented=complemented,
        first_pass=first_pass,
    )
