"""The per-device stage runner shared by every Translator layer.

TRIPS "takes each individual positioning sequence as input" (§3), so
each layer is a pandas kernel over one device's rows. ``per_device`` is
the one place that maps such a kernel over a Spark frame: it broadcasts
the kernel's side data (DSM, indoor graph, event model, knowledge) once
and runs the kernel per device through ``applyInPandas``.

Every stage shuffles its input into ``defaultParallelism`` partitions by
``device_id``: one task per core, whatever ``spark.sql.shuffle.partitions``
says. The grouping is then already satisfied, so a stage adds exactly
one exchange. A count read from the cluster matters because adaptive
execution may not coalesce the partitions of a cached stage's plan
(``spark.sql.optimizer.canChangeCachedPlanOutputPartitioning`` is off),
so a cached stage would otherwise run one task per shuffle partition,
most of them empty for a few long sequences.
"""
from __future__ import annotations

from typing import Callable

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T


def per_device(
    df: DataFrame,
    kernel: Callable[..., pd.DataFrame],
    schema: T.StructType,
    *side,
) -> DataFrame:
    """Run ``kernel(pdf, *side)`` on each device's rows of ``df``.

    The output has ``defaultParallelism`` partitions and each device's
    rows sit in one of them. ``side`` is broadcast once. The kernel's
    output is projected to ``schema``'s columns, in schema order; Arrow
    casts each column to its schema type.
    """
    bc = df.sparkSession.sparkContext.broadcast(side)
    n_partitions = df.sparkSession.sparkContext.defaultParallelism
    columns = schema.fieldNames()

    def run(pdf: pd.DataFrame) -> pd.DataFrame:
        return kernel(pdf, *bc.value)[columns]

    return (
        df.repartition(n_partitions, "device_id")
        .groupBy("device_id")
        .applyInPandas(run, schema=schema)
    )
