"""Unit tests for the Mobility Semantics Annotator (driver-side logic)."""
import sys

import numpy as np
import pandas as pd
import pytest

from repro.core.annotation import (
    SEMANTICS_COLUMNS,
    annotate_sequence,
    dominant_region,
)
from repro.core.baselines import stop_move_sequence
from repro.core.events import train_event_model
from repro.configurator.event_editor import EventEditor, designate_from_ground_truth
from repro.dsm import IndoorGraph, build_mall
from repro.positioning import simulate_population


@pytest.fixture(scope="module")
def mall():
    return build_mall(n_floors=3, shops_per_side=4)


@pytest.fixture(scope="module")
def sim(mall):
    return simulate_population(mall, n_devices=4, duration_s=2400, period_s=5.0, seed=5)


@pytest.fixture(scope="module")
def model(mall, sim):
    gt, sem = sim
    ed = EventEditor()
    ed.define_pattern("stay")
    ed.define_pattern("pass-by")
    designate_from_ground_truth(ed, sem, list(gt["device_id"].unique()[:2]))
    return train_event_model(ed.training_segments(gt))


def _records(rows):
    return pd.DataFrame(
        rows, columns=["device_id", "record_id", "ts", "x", "y", "floor"]
    )


def _regions(mall, grp):
    return mall.locate_regions(
        grp["x"].to_numpy(), grp["y"].to_numpy(), grp["floor"].to_numpy()
    )


def _walk(points):
    """Floor-1 records 5 s apart at ``points``: a walk, so one move snippet."""
    return _records([["d", i, i * 5.0, x, y, 1] for i, (x, y) in enumerate(points)])


class TestDominantRegion:
    def test_all_in_one_shop(self, mall):
        grp = _records([["d", i, i * 5.0, 15.0, 4.0, 1] for i in range(5)])
        assert dominant_region(_regions(mall, grp)) == "R-F1-S1"

    def test_majority_wins(self, mall):
        rows = [["d", i, i * 5.0, 15.0, 4.0, 1] for i in range(4)]
        rows += [["d", 9, 45.0, 15.0, 10.0, 1]]  # one hall record
        assert dominant_region(_regions(mall, _records(rows))) == "R-F1-S1"

    def test_all_outside_returns_none(self, mall):
        grp = _records([["d", 0, 0.0, -9.0, -9.0, 1]])
        assert dominant_region(_regions(mall, grp)) is None


class TestVisitLabels:
    """Visits of a move snippet: runs of the records' own regions."""

    HALL = [(1.0 + 1.5 * i, 11.0) for i in range(26)]  # hall0 → hall1 → hall2

    def test_mid_snippet_flicker_absorbed(self, mall, model):
        points = list(self.HALL)
        points[13] = (points[13][0], 4.0)  # one record in shop S2 mid-hall1
        out = annotate_sequence(_walk(points), mall, model)
        assert list(out["region_id"]) == ["R-F1-hall0", "R-F1-hall1", "R-F1-hall2"]
        assert out["n_records"].sum() == len(points)

    def test_first_run_of_snippet_not_absorbed(self, mall, model):
        # A dwell in hall2, then, after more than the density window, a
        # walk whose first record lies in shop S0.
        dwell = [["d", i, i * 5.0, 35.0, 11.0, 1] for i in range(12)]
        walk = _walk([(1.0, 4.0)] + self.HALL[1:])
        walk["ts"] += 120.0
        out = annotate_sequence(pd.concat([_records(dwell), walk]), mall, model)
        assert list(out["region_id"][:3]) == ["R-F1-hall2", "R-F1-S0", "R-F1-hall0"]
        assert list(out["n_records"][:2]) == [12, 1]

    def test_records_without_region_form_one_visit(self, mall, model):
        points = list(self.HALL)
        points[12:15] = [(x, -5.0) for x, _ in points[12:15]]  # outside
        out = annotate_sequence(_walk(points), mall, model)
        outside = out[out["region_id"].isna()]
        assert len(outside) == 1
        assert outside.iloc[0]["n_records"] == 3


class TestLocateOnce:
    """Each kernel locates one device's records in the DSM in one call."""

    @pytest.mark.parametrize("kernel", ["annotate", "stop_move"])
    def test_one_locate_call_per_device(self, mall, model, sim, monkeypatch, kernel):
        gt, _ = sim
        pdf = gt[gt["device_id"] == gt["device_id"].unique()[2]]
        calls = []
        locate = mall.locate_entities

        def counting(*args):
            calls.append(1)
            return locate(*args)

        monkeypatch.setattr(mall, "locate_entities", counting)
        if kernel == "annotate":
            out = annotate_sequence(pdf, mall, model)
        else:
            out = stop_move_sequence(pdf, mall)
        assert len(out) > 1
        assert len(calls) == 1

    def test_one_sort_per_device(self, mall, model, sim, monkeypatch):
        """Visits are bounds into the split's time-ordered records, so
        nothing after ``split_sequence`` sorts again."""
        gt, _ = sim
        pdf = gt[gt["device_id"] == gt["device_id"].unique()[2]]
        callers = []
        sort_values = pd.DataFrame.sort_values

        def counting(self, *args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return sort_values(self, *args, **kwargs)

        monkeypatch.setattr(pd.DataFrame, "sort_values", counting)
        out = annotate_sequence(pdf, mall, model)
        assert len(out) > 1
        assert callers == ["split_sequence"]


class TestAnnotateSequence:
    def test_scripted_walkthrough(self, mall, model):
        """Dwell in S1, walk the hall, dwell in S2 → stay, pass-by, stay."""
        rows = []
        rid = 0
        for i in range(36):  # 180 s dwell in S1
            rows.append(["d", rid, rid * 5.0, 15.0 + 0.1 * (i % 3), 4.0, 1])
            rid += 1
        # Walk S1 -> hall -> S2 (about 40 s).
        path = [(15, 6), (15, 8), (17, 10), (20, 10.5), (23, 10.5), (25, 9), (25, 7)]
        for x, y in path:
            rows.append(["d", rid, rid * 5.0, float(x), float(y), 1])
            rid += 1
        for i in range(36):  # 180 s dwell in S2
            rows.append(["d", rid, rid * 5.0, 25.0 + 0.1 * (i % 3), 4.0, 1])
            rid += 1
        out = annotate_sequence(_records(rows), mall, model)
        assert list(out.columns) == SEMANTICS_COLUMNS
        regions = list(out["region_id"])
        assert regions[0] == "R-F1-S1"
        assert regions[-1] == "R-F1-S2"
        assert "R-F1-hall1" in regions
        assert out.iloc[0]["event"] == "stay"
        assert out.iloc[-1]["event"] == "stay"
        hall = out[out["region_id"] == "R-F1-hall1"].iloc[0]
        assert hall["event"] == "pass-by"

    def test_tags_resolved(self, mall, model):
        rows = [["d", i, i * 5.0, 15.0, 4.0, 1] for i in range(40)]
        out = annotate_sequence(_records(rows), mall, model)
        assert out.iloc[0]["tag"] == mall.regions["R-F1-S1"].tag

    def test_seq_consecutive_and_time_ordered(self, mall, model, sim):
        gt, _ = sim
        dev = gt["device_id"].unique()[2]
        out = annotate_sequence(gt[gt["device_id"] == dev], mall, model)
        assert list(out["seq"]) == list(range(len(out)))
        assert (np.diff(out["t_start"]) > 0).all()

    def test_no_consecutive_duplicate_regions(self, mall, model, sim):
        gt, _ = sim
        dev = gt["device_id"].unique()[2]
        out = annotate_sequence(gt[gt["device_id"] == dev], mall, model)
        r = out["region_id"].to_numpy()
        assert (r[1:] != r[:-1]).all()

    def test_empty_input(self, mall, model):
        out = annotate_sequence(_records([]), mall, model)
        assert len(out) == 0
        assert list(out.columns) == SEMANTICS_COLUMNS

    def test_n_records_sums_to_input(self, mall, model, sim):
        gt, _ = sim
        dev = gt["device_id"].unique()[3]
        pdf = gt[gt["device_id"] == dev]
        out = annotate_sequence(pdf, mall, model)
        assert out["n_records"].sum() == len(pdf)

    def test_intervals_within_input_span(self, mall, model, sim):
        gt, _ = sim
        dev = gt["device_id"].unique()[3]
        pdf = gt[gt["device_id"] == dev]
        out = annotate_sequence(pdf, mall, model)
        assert out["t_start"].min() >= pdf["ts"].min()
        assert out["t_end"].max() <= pdf["ts"].max()


class TestQualityOnCleanData:
    """On uncorrupted ground truth the Annotator should nearly recover
    the ground-truth semantics."""

    def test_scores(self, mall, model, sim):
        from repro.core.evaluate import semantics_scores

        gt, sem = sim
        test_devs = gt["device_id"].unique()[2:]
        pred = pd.concat(
            [
                annotate_sequence(gt[gt["device_id"] == d], mall, model)
                for d in test_devs
            ]
        )
        scores = semantics_scores(pred, sem[sem["device_id"].isin(test_devs)])
        assert scores["stay_recall"] >= 0.9
        assert scores["event_accuracy"] >= 0.8
        assert scores["region_accuracy"] >= 0.8
