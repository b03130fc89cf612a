"""Tests of the per-device stage runner and of its being the only one."""
import pathlib
import re

import pandas as pd
import pytest
from pyspark.sql import types as T

from repro.core.stage import per_device, per_device_in_place

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

_SCHEMA = T.StructType(
    [
        T.StructField("device_id", T.StringType(), False),
        T.StructField("v", T.LongType(), False),
    ]
)


def _homes(parts) -> dict[str, set[int]]:
    homes: dict[str, set[int]] = {}
    for i, rows in enumerate(parts):
        for row in rows:
            homes.setdefault(row["device_id"], set()).add(i)
    return homes


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
    before = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", shuffle_partitions)
    try:
        parts = per_device(df, lambda pdf: pdf, _SCHEMA).rdd.glom().collect()
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", before)
    assert len(parts) == spark.sparkContext.defaultParallelism
    assert sum(map(len, parts)) == 96
    assert {d: len(h) for d, h in _homes(parts).items()} == {
        f"d{i}": 1 for i in range(12)
    }


def test_empty_frame(spark):
    df = spark.createDataFrame([], _SCHEMA)
    calls = []

    def kernel(pdf):
        calls.append(len(pdf))
        return pdf

    out = per_device(df, kernel, _SCHEMA)
    assert out.collect() == []
    assert out.schema == _SCHEMA
    assert calls == []


def test_fewer_devices_than_partitions(spark):
    """With one device, every partition but one is empty: those yield
    nothing, and the device's rows reach one kernel call in order."""
    df = spark.createDataFrame(pd.DataFrame({"device_id": ["a"] * 5, "v": range(5)}))
    n = spark.sparkContext.defaultParallelism
    assert n > 1

    def kernel(pdf):
        assert list(pdf.index) == list(range(len(pdf)))
        return pdf.assign(v=pdf["v"] * 10 + len(pdf))

    parts = per_device(df, kernel, _SCHEMA).rdd.glom().collect()
    assert len(parts) == n
    assert sorted(map(len, parts)) == [0] * (n - 1) + [5]
    assert [r["v"] for r in sum(parts, [])] == [5, 15, 25, 35, 45]


def test_in_place_keeps_partitions_and_sorts_devices(spark):
    """``per_device_in_place`` adds no exchange: the output keeps the
    input's partitions, each device once, in sorted order within its
    partition, with a fresh index and its rows in partition order."""
    pdf = pd.DataFrame(
        {"device_id": ["c", "a", "c", "b", "a"], "v": [1, 2, 3, 4, 5]}
    )
    df = spark.createDataFrame(pdf).coalesce(1)
    seen = []

    def kernel(g, offset):
        assert list(g.index) == list(range(len(g)))
        seen.append((g["device_id"].iloc[0], list(g["v"])))
        return g.assign(v=g["v"] + offset)

    parts = per_device_in_place(df, kernel, _SCHEMA, 100).rdd.glom().collect()
    assert len(parts) == 1
    assert [(r["device_id"], r["v"]) for r in parts[0]] == [
        ("a", 102), ("a", 105), ("b", 104), ("c", 101), ("c", 103)
    ]


def test_in_place_after_a_stage_keeps_devices_together(spark):
    df = spark.createDataFrame(
        pd.DataFrame({"device_id": [f"d{i % 5}" for i in range(40)], "v": range(40)})
    )
    first = per_device(df, lambda pdf: pdf, _SCHEMA)
    second = per_device_in_place(first, lambda pdf: pdf.iloc[:1], _SCHEMA)
    parts = second.rdd.glom().collect()
    assert len(parts) == spark.sparkContext.defaultParallelism
    assert {d: len(h) for d, h in _homes(parts).items()} == {
        f"d{i}": 1 for i in range(5)
    }
    assert sum(map(len, parts)) == 5


def test_only_the_stage_runner_maps_kernels_over_devices():
    """Broadcasting side data and running pandas kernels over partitions
    happen in ``core/stage.py`` alone; no stage repartitions by device
    itself, and nothing groups through ``applyInPandas``."""
    calls = re.compile(
        r"\.mapInPandas\(|\.applyInPandas\(|sparkContext\.broadcast\("
        r"|repartition\(\s*[\"']device_id"
    )
    offenders = [
        f"{path.relative_to(SRC)}:{n}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).as_posix() != "core/stage.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if calls.search(line)
    ]
    assert offenders == []
    stage = (SRC / "core" / "stage.py").read_text()
    assert ".mapInPandas(" in stage
    assert not any(
        ".applyInPandas(" in path.read_text() for path in SRC.rglob("*.py")
    )
