"""Knowledge Construction tests — oracle-checked counts and probabilities."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import Window
from pyspark.sql import functions as F

from repro.core import SEMANTICS_SCHEMA
from repro.core.knowledge import build_knowledge, knowledge_to_dict
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def semantics(translation):
    return translation.semantics


@pytest.fixture(scope="module")
def semantics_pdf(semantics):
    return semantics.toPandas()


class TestBuildKnowledge:
    def test_counts_match_duckdb(self, semantics, semantics_pdf):
        out = build_knowledge(semantics).select("from_region", "to_region", "cnt")
        assert_equivalent(
            out,
            """
            WITH pairs AS (
                SELECT region_id AS from_region,
                       lead(region_id) OVER (PARTITION BY device_id ORDER BY seq)
                           AS to_region
                FROM sem WHERE region_id IS NOT NULL)
            SELECT from_region, to_region, count(*) AS cnt
            FROM pairs
            WHERE to_region IS NOT NULL AND to_region <> from_region
            GROUP BY from_region, to_region
            """,
            sem=semantics_pdf,
        )

    def test_probs_match_duckdb(self, semantics, semantics_pdf):
        out = build_knowledge(semantics)
        assert_equivalent(
            out,
            """
            WITH pairs AS (
                SELECT region_id AS from_region,
                       lead(region_id) OVER (PARTITION BY device_id ORDER BY seq)
                           AS to_region
                FROM sem WHERE region_id IS NOT NULL),
            counts AS (
                SELECT from_region, to_region, count(*) AS cnt
                FROM pairs
                WHERE to_region IS NOT NULL AND to_region <> from_region
                GROUP BY from_region, to_region)
            SELECT from_region, to_region, cnt,
                   cnt / sum(cnt) OVER (PARTITION BY from_region) AS prob
            FROM counts
            """,
            sem=semantics_pdf,
        )

    def test_probs_normalized(self, semantics):
        sums = (
            build_knowledge(semantics)
            .groupBy("from_region")
            .agg(F.sum("prob").alias("s"))
            .collect()
        )
        for row in sums:
            assert row["s"] == pytest.approx(1.0)

    def test_no_self_transitions(self, semantics):
        k = build_knowledge(semantics)
        assert k.where(F.col("from_region") == F.col("to_region")).count() == 0

    def test_transitions_nonempty(self, semantics):
        assert build_knowledge(semantics).count() > 0


class TestKnowledgeDict:
    def test_dict_matches_frame(self, semantics):
        k = build_knowledge(semantics)
        d = knowledge_to_dict(k)
        rows = k.collect()
        assert len(d) == len(rows)
        for row in rows:
            assert d[(row["from_region"], row["to_region"])] == row["cnt"]

    def test_accepts_pandas(self, semantics):
        pdf = build_knowledge(semantics).toPandas()
        assert knowledge_to_dict(pdf) == knowledge_to_dict(build_knowledge(semantics))


def _reference_build_knowledge(semantics):
    """``build_knowledge`` as a Spark plan (a device window, a groupBy and
    a window per ``from_region``), the implementation the driver-side
    count replaced."""
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
    return counts.withColumn("prob", F.col("cnt") / F.sum("cnt").over(totals))


def _random_semantics(rng) -> pd.DataFrame:
    """Devices of 1-30 rows over a few regions (so A->A repeats are
    common) with some ``None`` regions, ``seq`` a per-device permutation,
    and rows shuffled across devices."""
    regions = ["A", "B", "C", "D", None]
    rows = []
    for d in range(int(rng.integers(1, 8))):
        n = 1 if d == 0 else int(rng.integers(1, 31))
        for seq in rng.permutation(n):
            rid = regions[rng.choice(5, p=[0.3, 0.25, 0.2, 0.1, 0.15])]
            rows.append(
                (f"d{d}", int(seq), "stay", rid, None, 0.0, 1.0, 1, False)
            )
    sem = pd.DataFrame(rows, columns=SEMANTICS_SCHEMA.fieldNames())
    return sem.sample(frac=1.0, random_state=int(rng.integers(2**31)))


class TestBuildKnowledgeAgainstReference:
    @staticmethod
    def _assert_same(spark, sem_pdf):
        sem = spark.createDataFrame(sem_pdf, SEMANTICS_SCHEMA).repartition(3)
        got, want = build_knowledge(sem), _reference_build_knowledge(sem)
        assert got.schema == want.schema
        assert [f.nullable for f in got.schema] == [f.nullable for f in want.schema]
        key = ["from_region", "to_region"]
        g = got.toPandas().sort_values(key).reset_index(drop=True)
        w = want.toPandas().sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(g, w, check_exact=True)
        return g

    @pytest.mark.parametrize("seed", range(12))
    def test_random_semantics(self, spark, seed):
        self._assert_same(spark, _random_semantics(np.random.default_rng(seed)))

    def test_none_regions_and_repeats_are_skipped(self, spark):
        sem = pd.DataFrame(
            [
                ("a", 3, "stay", "B", None, 0.0, 1.0, 1, False),
                ("a", 0, "stay", "A", None, 0.0, 1.0, 1, False),
                ("a", 1, "stay", None, None, 0.0, 1.0, 1, False),
                ("a", 2, "stay", "A", None, 0.0, 1.0, 1, False),
                ("b", 0, "stay", "A", None, 0.0, 1.0, 1, False),
                ("b", 1, "stay", "C", None, 0.0, 1.0, 1, False),
                ("c", 0, "stay", "B", None, 0.0, 1.0, 1, False),
            ],
            columns=SEMANTICS_SCHEMA.fieldNames(),
        )
        out = self._assert_same(spark, sem)
        assert list(zip(out["from_region"], out["to_region"], out["cnt"])) == [
            ("A", "B", 1),
            ("A", "C", 1),
        ]
        assert list(out["prob"]) == [0.5, 0.5]

    def test_empty_frame(self, spark):
        out = self._assert_same(
            spark, pd.DataFrame(columns=SEMANTICS_SCHEMA.fieldNames())
        )
        assert out.empty
