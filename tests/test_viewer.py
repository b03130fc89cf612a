"""Viewer tests: timeline abstraction, navigation, visibility, export."""
import json

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import Window
from pyspark.sql import functions as F

from repro.core import SEMANTICS_SCHEMA
from repro.oracle import assert_equivalent
from repro.viewer import (
    SPATIAL_CENTER,
    TEMPORAL_MIDDLE,
    combine_sources,
    entries_covered_by,
    entries_from_records,
    entries_from_semantics,
    map_view_payload,
    playback_order,
    toggle_sources,
    translation_result_payload,
    write_translation_result,
)

from .test_pipeline_spark import _shuffle_partitions


@pytest.fixture(scope="module")
def record_entries(scenario):
    return entries_from_records(scenario["raw"], "raw")


@pytest.fixture(scope="module")
def semantic_entries(translation):
    return entries_from_semantics(
        translation.semantics, translation.cleaned, display_point=TEMPORAL_MIDDLE
    )


class TestRecordEntries:
    def test_degenerate_ranges(self, record_entries, scenario):
        assert record_entries.count() == scenario["raw"].count()
        assert record_entries.where(F.col("t_start") != F.col("t_end")).count() == 0

    def test_oracle(self, record_entries, scenario):
        # `label` is all-NULL for record entries; compare the data columns
        # (None-vs-NaN equality of an all-null column is undefined).
        assert_equivalent(
            record_entries.drop("label"),
            """SELECT 'raw' AS source, device_id, x, y, floor,
                      ts AS t_start, ts AS t_end
               FROM raw""",
            raw=scenario["raw_pdf"],
        )


class TestSemanticEntries:
    def test_one_entry_per_semantics(self, semantic_entries, translation):
        assert semantic_entries.count() == translation.semantics.count()

    def test_time_ranges_are_temporal_annotations(self, semantic_entries, translation):
        a = semantic_entries.select("device_id", "t_start", "t_end")
        b = translation.semantics.select("device_id", "t_start", "t_end")
        assert a.exceptAll(b).count() == 0

    def test_temporal_middle_point_covered(self, translation):
        ent = entries_from_semantics(
            translation.semantics, translation.cleaned, display_point=TEMPORAL_MIDDLE
        ).toPandas()
        # The display point is a real cleaned-record location within range.
        cleaned = translation.cleaned.toPandas()
        sample = ent.dropna(subset=["x"]).head(20)
        for _, e in sample.iterrows():
            dev = cleaned[cleaned["device_id"] == e["device_id"]]
            hit = dev[
                (dev["ts"] >= e["t_start"])
                & (dev["ts"] <= e["t_end"])
                & np.isclose(dev["x"], e["x"])
                & np.isclose(dev["y"], e["y"])
            ]
            assert len(hit) >= 1

    def test_spatial_center_policy_differs_sometimes(self, translation):
        mid = entries_from_semantics(
            translation.semantics, translation.cleaned, display_point=TEMPORAL_MIDDLE
        ).toPandas()
        cen = entries_from_semantics(
            translation.semantics, translation.cleaned, display_point=SPATIAL_CENTER
        ).toPandas()
        assert len(mid) == len(cen)
        # Policies agree on time ranges but may pick different points.
        assert (mid["t_start"].sort_values().to_numpy() == cen["t_start"].sort_values().to_numpy()).all()

    def test_labels_describe_semantics(self, semantic_entries):
        labels = [r["label"] for r in semantic_entries.select("label").collect()]
        assert all(l.startswith(("stay", "pass-by")) for l in labels)

    def test_unknown_policy_raises(self, translation):
        with pytest.raises(ValueError, match="display_point"):
            entries_from_semantics(
                translation.semantics, translation.cleaned, display_point="nope"
            )


class TestTimelineOps:
    def test_combine_sources(self, record_entries, semantic_entries):
        both = combine_sources(record_entries, semantic_entries)
        assert both.count() == record_entries.count() + semantic_entries.count()
        assert set(
            r["source"] for r in both.select("source").distinct().collect()
        ) == {"raw", "semantics"}

    def test_entries_covered_by_click(self, semantic_entries, record_entries, translation):
        """Clicking a semantics entry shows all entries in its range."""
        sem = translation.semantics.toPandas().iloc[0]
        both = combine_sources(record_entries, semantic_entries)
        covered = entries_covered_by(
            both, sem["device_id"], sem["t_start"], sem["t_end"]
        ).toPandas()
        assert (covered["device_id"] == sem["device_id"]).all()
        assert (covered["t_end"] >= sem["t_start"]).all()
        assert (covered["t_start"] <= sem["t_end"]).all()
        assert {"raw", "semantics"} <= set(covered["source"])

    def test_toggle_sources(self, record_entries, semantic_entries):
        both = combine_sources(record_entries, semantic_entries)
        only_sem = toggle_sources(both, ["semantics"])
        assert only_sem.select("source").distinct().count() == 1

    def test_playback_order(self, semantic_entries):
        pdf = semantic_entries.toPandas().sample(frac=1.0, random_state=0)
        ordered = playback_order(pdf)
        assert (np.diff(ordered["t_start"]) >= 0).all()


class TestExport:
    def test_translation_result_payload(self, translation):
        payload = translation_result_payload(translation.complemented)
        assert payload["devices"]
        for dev, trace in payload["devices"].items():
            starts = [t["t_start"] for t in trace]
            assert starts == sorted(starts)
            for t in trace:
                assert t["event"] in ("stay", "pass-by")
                assert t["t_end"] >= t["t_start"]

    def test_write_translation_result(self, translation, tmp_path):
        path = str(tmp_path / "result.json")
        write_translation_result(translation.complemented, path)
        payload = json.load(open(path))
        assert payload["devices"]

    def test_map_view_payload_grouped(self, record_entries, semantic_entries):
        both = combine_sources(record_entries, semantic_entries)
        payload = map_view_payload(both)
        assert payload["floors"]
        for floor, sources in payload["floors"].items():
            assert int(floor) in (1, 2, 3)
            for source, pts in sources.items():
                assert source in ("raw", "semantics")
                starts = [p["t_start"] for p in pts]
                assert starts == sorted(starts)


# ----------------------------------------------------------------------
# Earlier formulations, kept as references for the column-wise payloads
# and the single range join.
# ----------------------------------------------------------------------
def _translation_result_payload_iterrows(pdf: pd.DataFrame) -> dict:
    out: dict = {"devices": {}}
    for dev, grp in pdf.sort_values(["device_id", "seq"]).groupby("device_id"):
        out["devices"][dev] = [
            {
                "event": r["event"],
                "region": r["tag"] if pd.notna(r["tag"]) else r["region_id"],
                "t_start": float(r["t_start"]),
                "t_end": float(r["t_end"]),
                "inferred": bool(r["inferred"]),
            }
            for _, r in grp.iterrows()
        ]
    return out


def _map_view_payload_iterrows(pdf: pd.DataFrame) -> dict:
    out: dict = {"floors": {}}
    with_floor = pdf[pdf["floor"].notna()]
    for floor, fgrp in with_floor.groupby("floor"):
        fkey = str(int(floor))
        out["floors"][fkey] = {}
        for source, sgrp in fgrp.groupby("source"):
            out["floors"][fkey][source] = [
                {
                    "x": float(r["x"]),
                    "y": float(r["y"]),
                    "t_start": float(r["t_start"]),
                    "t_end": float(r["t_end"]),
                    "label": r["label"] if pd.notna(r["label"]) else None,
                }
                for _, r in sgrp.sort_values("t_start").iterrows()
            ]
    return out


def _entries_from_semantics_join_window_join(semantics, records, display_point):
    """Inner device join -> best covered record per semantics -> left
    join back onto the semantics."""
    rec = records.select("device_id", "ts", "x", "y", "floor")
    j = semantics.join(rec, on="device_id").where(
        (F.col("ts") >= F.col("t_start")) & (F.col("ts") <= F.col("t_end"))
    )
    per_sem = Window.partitionBy("device_id", "seq")
    if display_point == TEMPORAL_MIDDLE:
        score = F.abs(F.col("ts") - (F.col("t_start") + F.col("t_end")) / 2.0)
    else:
        cx = F.avg("x").over(per_sem)
        cy = F.avg("y").over(per_sem)
        score = F.sqrt((F.col("x") - cx) ** 2 + (F.col("y") - cy) ** 2)
    order = per_sem.orderBy(score.asc(), F.col("ts").asc())
    best = (
        j.withColumn("_rank", F.row_number().over(order))
        .where(F.col("_rank") == 1)
        .select("device_id", "seq", "x", "y", "floor")
    )
    return semantics.join(best, on=["device_id", "seq"], how="left").select(
        F.lit("semantics").alias("source"),
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


def _sorted(pdf: pd.DataFrame) -> pd.DataFrame:
    return pdf.sort_values(["device_id", "t_start", "t_end"]).reset_index(drop=True)


@pytest.fixture(scope="module")
def complemented_pdf(translation):
    return translation.complemented.toPandas()


class TestAgainstReferences:
    def test_translation_result_payload(self, complemented_pdf):
        assert json.dumps(translation_result_payload(complemented_pdf)) == json.dumps(
            _translation_result_payload_iterrows(complemented_pdf)
        )

    def test_map_view_payload(self, translation, record_entries):
        entries = combine_sources(
            record_entries,
            entries_from_records(translation.cleaned, "cleaned"),
            entries_from_semantics(translation.complemented, translation.cleaned),
        ).toPandas()
        assert entries["label"].isna().any() and entries["floor"].isna().any()
        assert json.dumps(map_view_payload(entries)) == json.dumps(
            _map_view_payload_iterrows(entries)
        )

    def test_temporal_middle_entries(self, translation, complemented_pdf):
        args = (translation.complemented, translation.cleaned)
        got = _sorted(entries_from_semantics(*args).toPandas())
        ref = _sorted(
            _entries_from_semantics_join_window_join(*args, TEMPORAL_MIDDLE).toPandas()
        )
        pd.testing.assert_frame_equal(got, ref, check_exact=True)
        # One entry per semantics; those covering no record (inferred
        # ones inside a gap) keep theirs, with no point.
        assert len(got) == len(complemented_pdf)
        assert got["x"].isna().any()

    def test_spatial_center_entries(self, translation):
        args = (translation.complemented, translation.cleaned)
        got = _sorted(
            entries_from_semantics(*args, display_point=SPATIAL_CENTER).toPandas()
        )
        ref = _sorted(
            _entries_from_semantics_join_window_join(*args, SPATIAL_CENTER).toPandas()
        )
        exact = ["source", "device_id", "floor", "t_start", "t_end", "label"]
        pd.testing.assert_frame_equal(got[exact], ref[exact], check_exact=True)
        for c in ("x", "y"):
            assert np.isclose(got[c], ref[c], equal_nan=True).all()

    def test_two_fewer_shuffles(self, spark, translation, complemented_pdf):
        """On an opened translation result, as the Viewer reads it (the
        live ``complemented`` plan would be run twice by the reference)."""
        semantics = spark.createDataFrame(complemented_pdf, SEMANTICS_SCHEMA)
        args = (semantics, translation.cleaned)
        got = entries_from_semantics(*args)
        ref = _entries_from_semantics_join_window_join(*args, TEMPORAL_MIDDLE)
        got.toPandas()
        ref.toPandas()
        assert len(_shuffle_partitions(got)) == len(_shuffle_partitions(ref)) - 2


@pytest.mark.parametrize("policy", [TEMPORAL_MIDDLE, SPATIAL_CENTER])
def test_score_ties_go_to_the_earliest_record(spark, policy):
    """Two covered records equally close to the middle (and to the
    centroid), given latest first: the earlier one is the display point.
    Records on the range's bounds are covered."""
    sem = spark.createDataFrame(
        [("d", 0, "stay", "r1", None, 10.0, 20.0, 2, False)], SEMANTICS_SCHEMA
    )
    rec = spark.createDataFrame(
        [("d", 20.0, 2.0, 0.0, 1), ("d", 10.0, 0.0, 0.0, 1), ("d", 30.0, 9.0, 9.0, 1)],
        "device_id string, ts double, x double, y double, floor int",
    ).coalesce(1)
    ent = entries_from_semantics(sem, rec, display_point=policy).collect()
    assert [(e["x"], e["y"]) for e in ent] == [(0.0, 0.0)]
