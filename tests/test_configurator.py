"""Unit tests for the Space Modeler and Event Editor (GUI-workflow APIs)."""
import numpy as np
import pandas as pd
import pytest

from repro.configurator import EventEditor, SpaceModeler, designate_from_ground_truth
from repro.configurator.event_editor import SEGMENT_COLUMNS
from repro.dsm import CORRIDOR, ROOM, DigitalSpaceModel, build_mall
from repro.positioning import simulate_population


class TestSpaceModeler:
    def _drawn(self):
        sm = SpaceModeler()
        sm.import_floorplan("floor1.png", 1, 40.0, 22.0)
        sm.draw_polygon("shopA", ROOM, [[0, 0], [10, 0], [10, 8], [0, 8]])
        sm.draw_polygon("hall", CORRIDOR, [[0, 8], [40, 8], [40, 14], [0, 14]])
        sm.place_door("dA", 5.0, 8.0, "shopA", "hall")
        sm.attach_tag("rA", "Nike", ["shopA"])
        sm.attach_tag("rH", "Center Hall", ["hall"])
        return sm

    def test_three_step_workflow(self):
        dsm = self._drawn().save()
        assert set(dsm.entities) == {"shopA", "hall"}
        assert dsm.regions["rA"].tag == "Nike"
        assert dsm.entity_neighbors("shopA") == ["hall"]
        assert dsm.locate_region(5.0, 4.0, 1) == "rA"

    def test_drawing_requires_floorplan(self):
        sm = SpaceModeler()
        with pytest.raises(ValueError, match="floorplan"):
            sm.draw_polygon("x", ROOM, [[0, 0], [1, 0], [1, 1]])

    def test_polygon_needs_three_points(self):
        sm = SpaceModeler()
        sm.import_floorplan("f.png", 1, 10, 10)
        with pytest.raises(ValueError, match="3 points"):
            sm.draw_polygon("x", ROOM, [[0, 0], [1, 0]])

    def test_undo_removes_last_op(self):
        sm = self._drawn()
        n = sm.op_count
        sm.undo()
        assert sm.op_count == n - 1
        dsm = sm.save()
        assert "rH" not in dsm.regions

    def test_undo_empty_raises(self):
        with pytest.raises(ValueError, match="undo"):
            SpaceModeler().undo()

    def test_dangling_door_rejected_at_save(self):
        sm = SpaceModeler()
        sm.import_floorplan("f.png", 1, 10, 10)
        sm.draw_polygon("a", ROOM, [[0, 0], [4, 0], [4, 4], [0, 4]])
        sm.place_door("d", 4.0, 2.0, "a", "ghost")
        with pytest.raises(ValueError, match="unknown entity"):
            sm.save()

    def test_multi_floor_switch(self):
        sm = SpaceModeler()
        sm.import_floorplan("f1.png", 1, 10, 10)
        sm.draw_polygon("a1", ROOM, [[0, 0], [4, 0], [4, 4], [0, 4]])
        sm.import_floorplan("f2.png", 2, 10, 10)
        sm.draw_polygon("a2", ROOM, [[0, 0], [4, 0], [4, 4], [0, 4]])
        sm.switch_floor(1)
        sm.draw_polygon("b1", ROOM, [[4, 0], [8, 0], [8, 4], [4, 4]])
        dsm = sm.save()
        assert dsm.entities["a1"].floor == 1
        assert dsm.entities["a2"].floor == 2
        assert dsm.entities["b1"].floor == 1

    def test_switch_to_unimported_floor_raises(self):
        sm = SpaceModeler()
        sm.import_floorplan("f1.png", 1, 10, 10)
        with pytest.raises(ValueError, match="no floorplan"):
            sm.switch_floor(9)

    def test_save_json_roundtrip(self, tmp_path):
        path = str(tmp_path / "dsm.json")
        dsm = self._drawn().save_json(path)
        clone = DigitalSpaceModel.from_json(open(path).read())
        assert set(clone.entities) == set(dsm.entities)
        assert clone.region_adjacency() == dsm.region_adjacency()

    def test_staircase_between_floors(self):
        sm = SpaceModeler()
        sm.import_floorplan("f1.png", 1, 10, 10)
        sm.draw_polygon("h1", CORRIDOR, [[0, 0], [10, 0], [10, 4], [0, 4]])
        sm.import_floorplan("f2.png", 2, 10, 10)
        sm.draw_polygon("h2", CORRIDOR, [[0, 0], [10, 0], [10, 4], [0, 4]])
        sm.place_staircase("s", 1.0, 2.0, 1, 2, "h1", "h2")
        dsm = sm.save()
        assert dsm.entity_neighbors("h1") == ["h2"]


class TestEventEditor:
    @pytest.fixture(scope="class")
    def sim(self):
        mall = build_mall(n_floors=2, shops_per_side=4)
        return simulate_population(mall, n_devices=3, duration_s=1200, period_s=5.0, seed=9)

    def test_designate_requires_defined_pattern(self):
        ed = EventEditor()
        with pytest.raises(ValueError, match="undefined pattern"):
            ed.designate("d", 0.0, 10.0, "stay")

    def test_designate_rejects_empty_range(self):
        ed = EventEditor()
        ed.define_pattern("stay")
        with pytest.raises(ValueError, match="empty"):
            ed.designate("d", 10.0, 10.0, "stay")

    def test_training_segments_slice_records(self, sim):
        rec, _ = sim
        dev = rec["device_id"].iloc[0]
        ed = EventEditor()
        ed.define_pattern("stay")
        ed.designate(dev, 0.0, 100.0, "stay")
        segs = ed.training_segments(rec)
        assert (segs["label"] == "stay").all()
        assert segs["ts"].between(0.0, 100.0).all()
        assert (segs["device_id"] == dev).all()
        assert len(segs) == 21  # inclusive 0..100 at 5 s

    def test_designation_outside_data_yields_nothing(self, sim):
        rec, _ = sim
        ed = EventEditor()
        ed.define_pattern("stay")
        ed.designate("no-such-device", 0.0, 100.0, "stay")
        assert len(ed.training_segments(rec)) == 0

    def test_designate_from_ground_truth(self, sim):
        rec, sem = sim
        devs = list(rec["device_id"].unique()[:2])
        ed = EventEditor()
        ed.define_pattern("stay")
        ed.define_pattern("pass-by")
        n = designate_from_ground_truth(ed, sem, devs)
        assert n == len(ed.designations)
        assert n == (sem["device_id"].isin(devs) & (sem["t_end"] > sem["t_start"])).sum()
        segs = ed.training_segments(rec)
        assert set(segs["label"]) <= {"stay", "pass-by"}
        # Each designation produced one segment id.
        assert segs["segment_id"].nunique() <= n

    def test_max_per_device_cap(self, sim):
        rec, sem = sim
        dev = rec["device_id"].iloc[0]
        ed = EventEditor()
        ed.define_pattern("stay")
        ed.define_pattern("pass-by")
        n = designate_from_ground_truth(ed, sem, [dev], max_per_device=3)
        assert n <= 3

    def test_designations_frame(self):
        ed = EventEditor()
        ed.define_pattern("stay")
        ed.designate("d", 0.0, 50.0, "stay")
        pdf = ed.designations_frame()
        assert list(pdf.columns) == ["device_id", "t_start", "t_end", "pattern"]
        assert len(pdf) == 1


def _reference_training_segments(designations, records):
    """``EventEditor.training_segments`` filtering the whole records frame
    once per designation, the implementation the per-device
    ``searchsorted`` slices replaced."""
    out = []
    for i, d in enumerate(designations):
        seg = records[
            (records["device_id"] == d.device_id)
            & (records["ts"] >= d.t_start)
            & (records["ts"] <= d.t_end)
        ].copy()
        if seg.empty:
            continue
        seg["segment_id"] = i
        seg["label"] = d.pattern
        out.append(seg[SEGMENT_COLUMNS])
    if not out:
        return pd.DataFrame(columns=SEGMENT_COLUMNS)
    return pd.concat(out, ignore_index=True)


def _reference_designate(editor, gt_semantics, devices, *, max_per_device=None, rng=None):
    """``designate_from_ground_truth`` walking the rows with ``iterrows``."""
    rng = rng or np.random.default_rng(0)
    added = 0
    for dev in devices:
        rows = gt_semantics[gt_semantics["device_id"] == dev]
        if max_per_device is not None and len(rows) > max_per_device:
            rows = rows.sample(max_per_device, random_state=int(rng.integers(2**31)))
        for _, r in rows.iterrows():
            if r["t_end"] <= r["t_start"]:
                continue
            editor.designate(r["device_id"], r["t_start"], r["t_end"], r["event"])
            added += 1
    return added


def _editor():
    ed = EventEditor()
    ed.define_pattern("stay")
    ed.define_pattern("pass-by")
    return ed


class TestEditorAgainstReference:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_designations(self, seed):
        """Shuffled records of three devices on a 5 s grid (with repeated
        timestamps); designations on unknown devices, over ranges between
        two samples and with bounds exactly on a record's ``ts``."""
        rng = np.random.default_rng(seed)
        n = 90
        records = pd.DataFrame(
            {
                "device_id": np.array(["a", "b", "c"])[rng.integers(0, 3, n)],
                "record_id": np.arange(n),
                "ts": 5.0 * rng.integers(0, 30, n),
                "x": rng.normal(size=n),
                "y": rng.normal(size=n),
                "floor": rng.integers(1, 3, n),
            },
            index=rng.permutation(n) + 1000,
        )
        ed = _editor()
        for _ in range(25):
            dev = ("a", "b", "c", "ghost")[rng.integers(4)]
            t0 = 5.0 * int(rng.integers(0, 32)) + (0.0, 1.0)[rng.integers(2)]
            t1 = t0 + 5.0 * int(rng.integers(0, 6)) + (0.0, 2.0, 3.0)[rng.integers(3)]
            if t1 > t0:
                ed.designate(dev, t0, t1, ("stay", "pass-by")[rng.integers(2)])
        for recs in (records, records.sort_values(["device_id", "ts"])):
            pd.testing.assert_frame_equal(
                ed.training_segments(recs),
                _reference_training_segments(ed.designations, recs),
                check_exact=True,
            )

    def test_no_record_covered(self):
        ed = _editor()
        ed.designate("a", 1.0, 4.0, "stay")
        records = pd.DataFrame(
            {"device_id": ["a", "a"], "record_id": [0, 1], "ts": [0.0, 5.0],
             "x": [0.0, 1.0], "y": [0.0, 1.0], "floor": [1, 1]}
        )
        pd.testing.assert_frame_equal(
            ed.training_segments(records),
            _reference_training_segments(ed.designations, records),
        )

    def test_bounds_on_a_record_are_inclusive(self):
        ed = _editor()
        ed.designate("a", 5.0, 10.0, "pass-by")
        records = pd.DataFrame(
            {"device_id": ["a"] * 4, "record_id": range(4), "ts": [10.0, 0.0, 5.0, 15.0],
             "x": 0.0, "y": 0.0, "floor": 1}
        )
        segs = ed.training_segments(records)
        assert list(segs["ts"]) == [10.0, 5.0]
        pd.testing.assert_frame_equal(
            segs, _reference_training_segments(ed.designations, records), check_exact=True
        )

    @pytest.mark.parametrize("cap", [None, 3])
    def test_designations_from_ground_truth(self, cap):
        mall = build_mall(n_floors=2, shops_per_side=4)
        _, sem = simulate_population(mall, n_devices=3, duration_s=1800, period_s=5.0, seed=4)
        devs = sorted(sem["device_id"].unique())
        got, want = _editor(), _editor()
        n = designate_from_ground_truth(
            got, sem, devs, max_per_device=cap, rng=np.random.default_rng(1)
        )
        assert n == _reference_designate(
            want, sem, devs, max_per_device=cap, rng=np.random.default_rng(1)
        )
        assert got.designations == want.designations
