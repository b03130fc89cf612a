"""Correctness gate: every translation must equal a serial reference.

The reference runs the per-device kernels one device at a time, with no
Spark in the per-device path: ``clean_sequence`` -> ``annotate_sequence``
-> ``build_knowledge``/``knowledge_to_dict`` over all devices ->
``complement_sequence``. A translation passes when its complemented
semantics equal the reference row for row, after sorting by
``(device_id, seq)``.
"""
from __future__ import annotations

import sys
import traceback

import pandas as pd
from pyspark.sql import SparkSession

from repro.core import (
    SEMANTICS_COLUMNS,
    SEMANTICS_SCHEMA,
    annotate_sequence,
    build_knowledge,
    clean_sequence,
    complement_sequence,
    knowledge_to_dict,
)
from repro.dsm import IndoorGraph
from spans import untraced

CLEANED_COLUMNS = ["device_id", "record_id", "ts", "x", "y", "floor", "repair"]
_INT_COLUMNS = ("seq", "n_records")
_STR_COLUMNS = ("device_id", "event", "region_id", "tag")


def _per_device(pdf: pd.DataFrame, fn) -> list[pd.DataFrame]:
    return [fn(g) for _, g in pdf.groupby("device_id", sort=True)]


def serial_reference(
    spark: SparkSession, raw_pdf: pd.DataFrame, dsm, model, span=untraced
) -> pd.DataFrame:
    """Translate ``raw_pdf`` device by device with the serial kernels;
    returns the complemented semantics in ``canonical`` form."""
    with span("dsm.graph_build"):
        graph = IndoorGraph(dsm)
    with span("cleaning.kernel"):
        cleaned = pd.concat(
            _per_device(
                raw_pdf,
                lambda g: clean_sequence(g, dsm, graph)[CLEANED_COLUMNS],
            ),
            ignore_index=True,
        )
    with span("annotation.kernel"):
        parts = [
            s
            for s in _per_device(cleaned, lambda g: annotate_sequence(g, dsm, model))
            if len(s)
        ]
        semantics = pd.concat(parts, ignore_index=True)[SEMANTICS_COLUMNS]
    with span("knowledge.reference"):
        trans_counts = knowledge_to_dict(
            build_knowledge(spark.createDataFrame(semantics, SEMANTICS_SCHEMA))
        )
    with span("complement.kernel"):
        adjacency = dsm.region_adjacency()
        complemented = pd.concat(
            _per_device(
                semantics,
                lambda g: complement_sequence(g, dsm, adjacency, trans_counts),
            ),
            ignore_index=True,
        )
    return canonical(complemented)


def canonical(sem: pd.DataFrame) -> pd.DataFrame:
    """Semantics rows sorted by ``(device_id, seq)`` with one dtype per
    column, so that frames from Spark and from pandas compare exactly."""
    out = sem[SEMANTICS_COLUMNS].copy()
    for c in _INT_COLUMNS:
        out[c] = out[c].astype("int64")
    for c in _STR_COLUMNS:
        out[c] = out[c].astype(object).where(out[c].notna(), None)
    for c in ("t_start", "t_end"):
        out[c] = out[c].astype("float64")
    out["inferred"] = out["inferred"].astype(bool)
    return out.sort_values(["device_id", "seq"], kind="mergesort").reset_index(
        drop=True
    )


def mismatch(out: pd.DataFrame, ref: pd.DataFrame) -> str | None:
    """Why ``out`` differs from the canonical reference, or None."""
    got = canonical(out)
    if len(got) != len(ref):
        return f"{len(got)} rows, reference has {len(ref)}"
    try:
        pd.testing.assert_frame_equal(got, ref, check_exact=True)
    except AssertionError as e:
        return str(e).splitlines()[0]
    return None


class Tally:
    """Attempted and failed translations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, translation, ref: pd.DataFrame):
        """Run ``translation()``, which returns a tuple whose first item
        is the complemented semantics, and gate that output against
        ``ref``. An exception or a mismatch counts as a failure and is
        reported on stderr. Returns the tuple, or None if it raised."""
        self.attempted += 1
        try:
            got = translation()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        why = mismatch(got[0], ref)
        if why is not None:
            self.failed += 1
            print(f"correctness gate: translation differs: {why}", file=sys.stderr)
        return got

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
