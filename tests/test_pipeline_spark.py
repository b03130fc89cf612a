"""Integration tests of the distributed three-layer Translator."""
import numpy as np
import pandas as pd
import pytest
from pyspark import StorageLevel
from pyspark.sql import functions as F

from repro.core import (
    SEMANTICS_COLUMNS,
    SEMANTICS_SCHEMA,
    annotate_sequence,
    build_knowledge,
    clean_sequence,
    complement_sequence,
    find_gaps,
    knowledge_to_dict,
    stop_move_baseline,
    violation_stats,
)
from repro.core.cleaning import CLEANED_COLUMNS, CLEANED_SCHEMA
from repro.core.evaluate import (
    condensation_ratio,
    error_summary,
    positioning_error,
    semantics_scores,
)
from repro.dsm import IndoorGraph


class TestCleanedOutput:
    def test_no_records_lost(self, scenario, translation):
        assert translation.cleaned.count() == scenario["raw"].count()

    def test_repair_values(self, translation):
        vals = {
            r["repair"]
            for r in translation.cleaned.select("repair").distinct().collect()
        }
        assert vals <= {"none", "floor", "interp"}
        assert "none" in vals

    def test_cleaning_reduces_floor_errors(self, scenario, translation):
        before = error_summary(positioning_error(scenario["raw"], scenario["gt"]))
        after = error_summary(positioning_error(translation.cleaned, scenario["gt"]))
        assert after["floor_err_rate"] < before["floor_err_rate"] / 2

    def test_cleaning_reduces_planar_error(self, scenario, translation):
        before = error_summary(positioning_error(scenario["raw"], scenario["gt"]))
        after = error_summary(positioning_error(translation.cleaned, scenario["gt"]))
        assert after["mean_err"] < before["mean_err"]

    def test_cleaning_reduces_speed_violations(self, scenario, translation):
        dsm = scenario["dsm"]
        before = (
            violation_stats(scenario["raw"], dsm)
            .agg(F.sum("n_violations"))
            .collect()[0][0]
        )
        after = (
            violation_stats(
                translation.cleaned.select(
                    "device_id", "record_id", "ts", "x", "y", "floor"
                ),
                dsm,
            )
            .agg(F.sum("n_violations"))
            .collect()[0][0]
        )
        assert after < before


class TestSemanticsOutput:
    def test_columns(self, translation):
        assert translation.semantics.columns == SEMANTICS_COLUMNS

    def test_every_device_annotated(self, scenario, translation):
        n_dev = scenario["raw"].select("device_id").distinct().count()
        assert translation.semantics.select("device_id").distinct().count() == n_dev

    def test_events_vocabulary(self, translation):
        evs = {
            r["event"]
            for r in translation.semantics.select("event").distinct().collect()
        }
        assert evs <= {"stay", "pass-by"}

    def test_seq_dense_per_device(self, translation):
        pdf = translation.semantics.toPandas()
        for _, g in pdf.groupby("device_id"):
            assert sorted(g["seq"]) == list(range(len(g)))

    def test_accuracy_beats_baseline(self, scenario, translation, event_model):
        """The T3 claim: the full TRIPS pipeline out-scores the GPS-style
        stop/move baseline on event identification."""
        gt_sem = scenario["gt_semantics_pdf"]
        trips = semantics_scores(translation.semantics.toPandas(), gt_sem)
        base = semantics_scores(
            stop_move_baseline(scenario["raw"], scenario["dsm"]).toPandas(), gt_sem
        )
        assert trips["macro_f1"] > base["macro_f1"]
        assert trips["event_accuracy"] > base["event_accuracy"]

    def test_condensation(self, scenario, translation):
        """Semantics must be far more condensed than raw records."""
        ratio = condensation_ratio(scenario["raw"], translation.semantics)
        assert ratio > 5.0


class TestComplementedOutput:
    def test_gaps_filled_or_untouched(self, translation):
        comp = translation.complemented.toPandas()
        orig = translation.semantics.toPandas()
        assert len(comp) >= len(orig)
        inferred = comp[comp["inferred"]]
        assert (inferred["event"] == "pass-by").all()
        assert (inferred["n_records"] == 0).all()

    def test_original_rows_preserved(self, translation):
        comp = translation.complemented.toPandas()
        orig = translation.semantics.toPandas()
        kept = comp[~comp["inferred"]]
        assert len(kept) == len(orig)

    def test_find_gaps_relational(self, translation):
        gaps = find_gaps(translation.semantics).toPandas()
        pdf = translation.semantics.toPandas()
        expected = 0
        for _, g in pdf.groupby("device_id"):
            g = g.sort_values("seq")
            expected += int(
                (g["t_start"].shift(-1) - g["t_end"] > 60.0).sum()
            )
        assert len(gaps) == expected

    def test_knowledge_available(self, translation):
        assert translation.knowledge.count() > 0


class TestTranslationResult:
    def test_all_stages_exposed(self, translation):
        for attr in ("raw", "cleaned", "semantics", "knowledge", "complemented"):
            assert getattr(translation, attr) is not None

    def test_one_cached_frame(self, translation):
        """Only the first pass is cached; the per-layer frames are views
        of it or computed from it."""
        assert translation.first_pass.storageLevel != StorageLevel.NONE
        for attr in ("cleaned", "semantics", "knowledge", "complemented"):
            assert getattr(translation, attr).storageLevel == StorageLevel.NONE


def _canonical(sem: pd.DataFrame) -> pd.DataFrame:
    """Semantics sorted by ``(device_id, seq)`` with one dtype per
    column, so frames from Spark and from pandas compare exactly."""
    out = sem[SEMANTICS_COLUMNS].astype(
        {
            "seq": "int64",
            "n_records": "int64",
            "t_start": "float64",
            "t_end": "float64",
            "inferred": bool,
        }
    )
    for c in ("device_id", "event", "region_id", "tag"):
        out[c] = out[c].astype(object).where(out[c].notna(), None)
    return out.sort_values(["device_id", "seq"]).reset_index(drop=True)


def _canonical_cleaned(cleaned: pd.DataFrame) -> pd.DataFrame:
    """Cleaned records sorted by ``(device_id, record_id)`` with the
    dtypes Spark gives ``CLEANED_SCHEMA``."""
    out = cleaned[CLEANED_COLUMNS].astype({"record_id": "int64", "floor": "int32"})
    return out.sort_values(["device_id", "record_id"]).reset_index(drop=True)


def _shuffle_partitions(df) -> list[int]:
    """Partition counts of the shuffle exchanges in the final plan that
    materialised ``df``, including the plans of the cached stages it
    reads."""
    seen: dict[int, int] = {}

    def walk(node) -> None:
        kind = node.getClass().getSimpleName()
        if kind == "AdaptiveSparkPlanExec":
            return walk(node.executedPlan())
        if kind == "InMemoryTableScanExec":
            walk(node.relation().cachedPlan())
        elif kind.endswith("QueryStageExec"):
            return walk(node.plan())
        elif kind == "ShuffleExchangeExec":
            seen[node.id()] = node.outputPartitioning().numPartitions()
        children = node.children()
        for i in range(children.size()):
            walk(children.apply(i))

    walk(df._jdf.queryExecution().executedPlan())
    return list(seen.values())


@pytest.fixture(scope="module")
def serial(spark, scenario, event_model):
    """The translation by the per-device kernels run one device at a
    time: cleaned records, semantics, knowledge and complemented
    semantics."""
    dsm = scenario["dsm"]
    graph = IndoorGraph(dsm)
    by_device = scenario["raw_pdf"].groupby("device_id", sort=True)
    cleaned = [clean_sequence(g, dsm, graph)[CLEANED_COLUMNS] for _, g in by_device]
    semantics = pd.concat(
        [annotate_sequence(c, dsm, event_model) for c in cleaned], ignore_index=True
    )[SEMANTICS_COLUMNS]
    trans_counts = knowledge_to_dict(
        build_knowledge(spark.createDataFrame(semantics, SEMANTICS_SCHEMA))
    )
    adjacency = dsm.region_adjacency()
    complemented = pd.concat(
        [
            complement_sequence(g, dsm, adjacency, trans_counts)
            for _, g in semantics.groupby("device_id", sort=True)
        ],
        ignore_index=True,
    )
    return {
        "cleaned": pd.concat(cleaned, ignore_index=True),
        "semantics": semantics,
        "knowledge": trans_counts,
        "complemented": complemented,
    }


class TestSparkEqualsSerial:
    """The distributed translation equals the per-device kernels run
    one device at a time, row for row."""

    def test_cleaned(self, translation, serial):
        got = _canonical_cleaned(translation.cleaned.toPandas())
        want = _canonical_cleaned(serial["cleaned"])
        pd.testing.assert_frame_equal(got, want, check_exact=True)

    def test_semantics(self, translation, serial):
        got = _canonical(translation.semantics.toPandas())
        pd.testing.assert_frame_equal(
            got, _canonical(serial["semantics"]), check_exact=True
        )

    def test_knowledge(self, translation, serial):
        assert knowledge_to_dict(translation.knowledge) == serial["knowledge"]

    def test_complemented_equals_serial_kernels(self, translation, serial):
        got = _canonical(translation.complemented.toPandas())
        pd.testing.assert_frame_equal(
            got, _canonical(serial["complemented"]), check_exact=True
        )

    @pytest.mark.parametrize(
        "attr, schema", [("cleaned", CLEANED_SCHEMA), ("semantics", SEMANTICS_SCHEMA)]
    )
    def test_column_names_and_types(self, translation, attr, schema):
        got = getattr(translation, attr).schema
        assert [(f.name, f.dataType) for f in got] == [
            (f.name, f.dataType) for f in schema
        ]


class TestPlan:
    def test_one_shuffle_per_device_stage(self, spark, translation):
        """Only the first pass shuffles, by device into one partition per
        core; the Complementor runs on its cached output in place, and no
        other exchange is in the plan."""
        translation.complemented.toPandas()
        n = spark.sparkContext.defaultParallelism
        assert _shuffle_partitions(translation.complemented) == [n]

    def test_first_pass_keeps_each_device_in_one_partition(self, spark, translation):
        parts = translation.first_pass.select("device_id").rdd.glom().collect()
        assert len(parts) == spark.sparkContext.defaultParallelism
        homes: dict[str, set[int]] = {}
        for i, rows in enumerate(parts):
            for row in rows:
                homes.setdefault(row["device_id"], set()).add(i)
        assert homes and all(len(h) == 1 for h in homes.values())
