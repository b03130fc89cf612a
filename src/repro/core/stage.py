"""The per-device stage runner shared by every Translator layer.

TRIPS "takes each individual positioning sequence as input" (§3), so
each layer is a pandas kernel over one device's rows.
``per_device_in_place`` is the one place that maps such a kernel over a
Spark frame: it broadcasts the kernel's side data (DSM, indoor graph,
event model, knowledge) once and, through ``mapInPandas``, runs the
kernel on each device of each partition. It needs every device's rows
in one partition.

``per_device`` first shuffles its input into ``defaultParallelism``
partitions by ``device_id``: one task per core, whatever
``spark.sql.shuffle.partitions`` says, and exactly one exchange per
stage. A count read from the cluster matters because adaptive execution
may not coalesce the partitions of a cached stage's plan
(``spark.sql.optimizer.canChangeCachedPlanOutputPartitioning`` is off),
so a cached stage would otherwise run one task per shuffle partition,
most of them empty for a few long sequences. A frame that a stage has
already partitioned, such as the translation's cached first pass, goes
to ``per_device_in_place`` directly and is not shuffled again.
"""
from __future__ import annotations

from typing import Callable, Iterator

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T


def per_device_in_place(
    df: DataFrame,
    kernel: Callable[..., pd.DataFrame],
    schema: T.StructType,
    *side,
) -> DataFrame:
    """Run ``kernel(pdf, *side)`` on each device's rows of ``df``, whose
    devices each sit in one partition already.

    The output keeps ``df``'s partitions. ``side`` is broadcast once.
    Within a partition the kernel sees the devices in sorted order, each
    as a frame with a fresh index and its rows in partition order. The
    kernel's output is projected to ``schema``'s columns, in schema
    order; Arrow casts each column to its schema type.

    A Python worker holds one partition's input at a time, not one
    device's, and a column's pandas dtype is decided over the partition
    (an integer column with a null anywhere in it arrives as float).
    """
    bc = df.sparkSession.sparkContext.broadcast(side)
    columns = schema.fieldNames()

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        parts = list(batches)
        if not parts:
            return
        pdf = pd.concat(parts, ignore_index=True)
        for _, g in pdf.groupby("device_id", sort=True):
            yield kernel(g.reset_index(drop=True), *bc.value)[columns]

    return df.mapInPandas(run, schema=schema)


def per_device(
    df: DataFrame,
    kernel: Callable[..., pd.DataFrame],
    schema: T.StructType,
    *side,
) -> DataFrame:
    """``per_device_in_place`` after one shuffle of ``df`` by
    ``device_id``: the output has ``defaultParallelism`` partitions and
    each device's rows sit in one of them."""
    n_partitions = df.sparkSession.sparkContext.defaultParallelism
    return per_device_in_place(
        df.repartition(n_partitions, "device_id"), kernel, schema, *side
    )
