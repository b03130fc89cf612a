"""Knowledge Construction — first step of the Complementing layer.

"A knowledge construction aggregates the mobility semantics already
annotated to build the prior mobility knowledge that captures the
transition probabilities between semantic regions." Pure DataFrame
aggregation (self-join on consecutive ``seq`` per device, groupBy,
normalize) so Catalyst plans it and the DuckDB oracle can verify it.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F


def build_knowledge(semantics: DataFrame) -> DataFrame:
    """Region→region transition counts and probabilities from annotated
    semantics sequences. Returns columns ``from_region, to_region, cnt,
    prob`` where ``prob`` is row-normalized per ``from_region``."""
    w = Window.partitionBy("device_id").orderBy("seq")
    pairs = (
        semantics.where(F.col("region_id").isNotNull())
        .withColumn("to_region", F.lead("region_id").over(w))
        .where(F.col("to_region").isNotNull())
        .where(F.col("to_region") != F.col("region_id"))
        .select(F.col("region_id").alias("from_region"), "to_region")
    )
    counts = pairs.groupBy("from_region", "to_region").agg(
        F.count(F.lit(1)).alias("cnt")
    )
    totals = Window.partitionBy("from_region")
    return counts.withColumn(
        "prob", F.col("cnt") / F.sum("cnt").over(totals)
    )


def knowledge_to_dict(knowledge: DataFrame | pd.DataFrame) -> dict[tuple[str, str], float]:
    """Collect the knowledge table into a broadcastable
    ``{(from, to): count}`` dict for the Complementor's MAP inference."""
    pdf = knowledge.toPandas() if isinstance(knowledge, DataFrame) else knowledge
    return {
        (f, t): float(c)
        for f, t, c in zip(pdf["from_region"], pdf["to_region"], pdf["cnt"])
    }
