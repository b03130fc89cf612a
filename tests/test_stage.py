"""Tests of the per-device stage runner and of its being the only one."""
import pathlib
import re

import pandas as pd
import pytest
from pyspark.sql import types as T

from repro.core.stage import per_device

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def test_kernel_gets_side_data_and_output_is_projected(spark):
    df = spark.createDataFrame(
        pd.DataFrame({"device_id": ["a", "a", "b"], "v": [1.0, 2.0, 5.0]})
    )
    schema = T.StructType(
        [
            T.StructField("device_id", T.StringType(), False),
            T.StructField("total", T.DoubleType(), False),
        ]
    )

    def kernel(pdf, scale, offset):
        return pd.DataFrame(
            {
                "extra": [0],
                "total": [pdf["v"].sum() * scale + offset],
                "device_id": [pdf["device_id"].iloc[0]],
            }
        )

    out = per_device(df, kernel, schema, 10.0, 1.0).toPandas()
    assert list(out.columns) == ["device_id", "total"]
    assert dict(zip(out["device_id"], out["total"])) == {"a": 31.0, "b": 51.0}


@pytest.mark.parametrize("shuffle_partitions", ["1", "200"])
def test_one_partition_per_core_and_device(spark, shuffle_partitions):
    """A stage's output has ``defaultParallelism`` partitions, whatever
    the session's shuffle partitions, and each device sits in one."""
    df = spark.createDataFrame(
        pd.DataFrame(
            {"device_id": [f"d{i % 12}" for i in range(96)], "v": range(96)}
        )
    )
    schema = T.StructType(
        [
            T.StructField("device_id", T.StringType(), False),
            T.StructField("v", T.LongType(), False),
        ]
    )
    before = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", shuffle_partitions)
    try:
        parts = per_device(df, lambda pdf: pdf, schema).rdd.glom().collect()
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", before)
    assert len(parts) == spark.sparkContext.defaultParallelism
    homes: dict[str, set[int]] = {}
    for i, rows in enumerate(parts):
        for row in rows:
            homes.setdefault(row["device_id"], set()).add(i)
    assert sum(map(len, parts)) == 96
    assert {d: len(h) for d, h in homes.items()} == {f"d{i}": 1 for i in range(12)}


def test_only_the_stage_runner_maps_kernels_over_devices():
    """Broadcasting side data and running pandas kernels per group happen
    in ``core/stage.py`` alone; no stage repartitions by device itself."""
    calls = re.compile(
        r"\.applyInPandas\(|sparkContext\.broadcast\(|repartition\(\s*[\"']device_id"
    )
    offenders = [
        f"{path.relative_to(SRC)}:{n}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).as_posix() != "core/stage.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if calls.search(line)
    ]
    assert offenders == []
    assert calls.search((SRC / "core" / "stage.py").read_text())
