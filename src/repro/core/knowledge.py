"""Knowledge Construction — first step of the Complementing layer.

"A knowledge construction aggregates the mobility semantics already
annotated to build the prior mobility knowledge that captures the
transition probabilities between semantic regions." The annotated
semantics are a few rows per device visit, so the counting runs on the
driver: one narrow scan collects each row's ``(device_id, seq,
region_id)``, pandas pairs each region with the next one of its device,
counts the pairs and normalizes per ``from_region``. No shuffle is
planned. The DuckDB oracle tests verify the counts and probabilities.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

KNOWLEDGE_SCHEMA = T.StructType(
    [
        T.StructField("from_region", T.StringType(), True),
        T.StructField("to_region", T.StringType(), True),
        T.StructField("cnt", T.LongType(), False),
        T.StructField("prob", T.DoubleType(), True),
    ]
)


def count_transitions(semantics: DataFrame) -> pd.DataFrame:
    """The knowledge table of ``build_knowledge``, collected: one row per
    region→region transition seen between consecutive (by ``seq``)
    non-null regions of a device, with its count and its probability
    given ``from_region``."""
    rows = semantics.select("device_id", "seq", "region_id").toPandas()
    rows = rows[rows["region_id"].notna()].sort_values(
        ["device_id", "seq"], kind="stable"
    )
    pairs = pd.DataFrame(
        {
            "from_region": rows["region_id"],
            "to_region": rows.groupby("device_id")["region_id"].shift(-1),
        }
    )
    pairs = pairs[
        pairs["to_region"].notna() & (pairs["to_region"] != pairs["from_region"])
    ]
    counts = (
        pairs.groupby(["from_region", "to_region"]).size().rename("cnt").reset_index()
    )
    counts["prob"] = counts["cnt"] / counts.groupby("from_region")["cnt"].transform(
        "sum"
    )
    return counts


def build_knowledge(semantics: DataFrame) -> DataFrame:
    """Region→region transition counts and probabilities from annotated
    semantics sequences. Returns columns ``from_region, to_region, cnt,
    prob`` where ``prob`` is row-normalized per ``from_region``."""
    return semantics.sparkSession.createDataFrame(
        count_transitions(semantics), KNOWLEDGE_SCHEMA
    )


def knowledge_to_dict(knowledge: DataFrame | pd.DataFrame) -> dict[tuple[str, str], float]:
    """Collect the knowledge table into a broadcastable
    ``{(from, to): count}`` dict for the Complementor's MAP inference."""
    pdf = knowledge.toPandas() if isinstance(knowledge, DataFrame) else knowledge
    return {
        (f, t): float(c)
        for f, t, c in zip(pdf["from_region"], pdf["to_region"], pdf["cnt"])
    }
