"""Viewer abstraction of mobility data sequences.

§3 of the paper: "We abstract each data sequence as a timeline of
entries, each consists of a display point and a time range." A
positioning record's entry is its own location/timestamp; a mobility
semantics' entry takes its temporal annotation as the range and picks
its display point from the covered raw records — "the temporally middle
or the spatially central positioning location according to the user
configuration" (footnote 1). The unified entry schema is what lets the
Mobility Data Visualizer render every source generically.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F
from pyspark.sql import types as T

ENTRY_SCHEMA = T.StructType(
    [
        T.StructField("source", T.StringType(), False),
        T.StructField("device_id", T.StringType(), False),
        T.StructField("x", T.DoubleType(), True),
        T.StructField("y", T.DoubleType(), True),
        T.StructField("floor", T.IntegerType(), True),
        T.StructField("t_start", T.DoubleType(), False),
        T.StructField("t_end", T.DoubleType(), False),
        T.StructField("label", T.StringType(), True),
    ]
)

ENTRY_COLUMNS = [f.name for f in ENTRY_SCHEMA.fields]

#: Display-point policies for semantics entries (paper footnote 1).
TEMPORAL_MIDDLE = "temporal_middle"
SPATIAL_CENTER = "spatial_center"


def entries_from_records(records: DataFrame, source: str) -> DataFrame:
    """Timeline entries of a positioning sequence (raw / cleaned /
    ground truth): display point = the record location, time range = the
    record timestamp (degenerate range)."""
    return records.select(
        F.lit(source).alias("source"),
        "device_id",
        F.col("x").cast("double"),
        F.col("y").cast("double"),
        F.col("floor").cast("int"),
        F.col("ts").cast("double").alias("t_start"),
        F.col("ts").cast("double").alias("t_end"),
        F.lit(None).cast("string").alias("label"),
    )


def entries_from_semantics(
    semantics: DataFrame,
    records: DataFrame,
    *,
    source: str = "semantics",
    display_point: str = TEMPORAL_MIDDLE,
) -> DataFrame:
    """Timeline entries of a mobility semantics sequence.

    The display point comes from the positioning records covered by the
    semantics' time range: either the temporally middle record or the
    spatially central one (closest to the covered records' centroid).
    Semantics that cover no records (inferred ones inside a gap) get a
    null display point; the Visualizer shows them on the timeline only.
    """
    if display_point not in (TEMPORAL_MIDDLE, SPATIAL_CENTER):
        raise ValueError(f"unknown display_point policy {display_point!r}")
    rec = records.select(
        F.col("device_id").alias("_rec_device"), "ts", "x", "y", "floor"
    )
    # One left range join: every semantics row meets the records in its
    # time range, and one that covers none keeps a row of nulls.
    j = semantics.join(
        rec,
        (F.col("device_id") == F.col("_rec_device"))
        & (F.col("ts") >= F.col("t_start"))
        & (F.col("ts") <= F.col("t_end")),
        how="left",
    )
    per_sem = Window.partitionBy("device_id", "seq")
    if display_point == TEMPORAL_MIDDLE:
        score = F.abs(F.col("ts") - (F.col("t_start") + F.col("t_end")) / 2.0)
    else:
        cx = F.avg("x").over(per_sem)
        cy = F.avg("y").over(per_sem)
        score = F.sqrt((F.col("x") - cx) ** 2 + (F.col("y") - cy) ** 2)
    order = per_sem.orderBy(score.asc(), F.col("ts").asc())
    best = j.withColumn("_rank", F.row_number().over(order)).where(F.col("_rank") == 1)
    return best.select(
        F.lit(source).alias("source"),
        "device_id",
        F.col("x").cast("double"),
        F.col("y").cast("double"),
        F.col("floor").cast("int"),
        F.col("t_start").cast("double"),
        F.col("t_end").cast("double"),
        F.concat_ws(
            " ", F.col("event"), F.coalesce(F.col("tag"), F.col("region_id"))
        ).alias("label"),
    )


def combine_sources(*entry_frames: DataFrame) -> DataFrame:
    """Union entry frames from different sources into the single timeline
    the Visualizer renders."""
    out = entry_frames[0]
    for f in entry_frames[1:]:
        out = out.unionByName(f)
    return out


def entries_covered_by(
    entries: DataFrame, device_id: str, t_start: float, t_end: float
) -> DataFrame:
    """Timeline navigation: "when clicking a mobility semantics entry on
    the timeline, all relevant data entries covered by its time range
    will be displayed on map view synchronously"."""
    return entries.where(
        (F.col("device_id") == device_id)
        & (F.col("t_end") >= t_start)
        & (F.col("t_start") <= t_end)
    )


def toggle_sources(entries: DataFrame, visible: list[str]) -> DataFrame:
    """Visibility control: keep only the sources the legend has toggled on."""
    return entries.where(F.col("source").isin(visible))


def playback_order(entries: pd.DataFrame) -> pd.DataFrame:
    """Order entries for the animated, semantics-enriched movement replay
    (slide-the-timeline feature): by start time, then range length."""
    return entries.sort_values(["t_start", "t_end"], kind="mergesort").reset_index(
        drop=True
    )
