"""Event Editor: define mobility event patterns and collect training data.

In the paper, the analyst browses raw sequences on the map and
designates segments that exemplify each user-defined event pattern
(Figure 5(3)); the designated segments train the learning-based event
identification model. We reproduce the artifact the GUI produces: a set
of defined patterns plus labeled ``(device, time-range)`` designations,
and the extraction of the corresponding positioning sub-sequences as
training segments, sliced from each device's time-sorted records.
``designate_from_ground_truth`` plays the analyst,
designating segments for a subset of devices from the simulator's
ground-truth semantics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

SEGMENT_COLUMNS = ["segment_id", "label", "device_id", "ts", "x", "y", "floor"]


@dataclass(frozen=True)
class Designation:
    """One analyst-designated training example."""

    device_id: str
    t_start: float
    t_end: float
    pattern: str


class EventEditor:
    """Collects event-pattern definitions and segment designations."""

    def __init__(self) -> None:
        self.patterns: dict[str, str] = {}
        self.designations: list[Designation] = []

    def define_pattern(self, name: str, description: str = "") -> None:
        """Register a mobility event pattern (e.g. ``stay``, ``pass-by``)."""
        self.patterns[name] = description

    def designate(
        self, device_id: str, t_start: float, t_end: float, pattern: str
    ) -> None:
        """Designate one positioning sub-sequence as an example of
        ``pattern`` — must have been defined first."""
        if pattern not in self.patterns:
            raise ValueError(f"undefined pattern {pattern!r}")
        if t_end <= t_start:
            raise ValueError("empty designation time range")
        self.designations.append(Designation(device_id, t_start, t_end, pattern))

    def designations_frame(self) -> pd.DataFrame:
        return pd.DataFrame(
            [d.__dict__ for d in self.designations],
            columns=["device_id", "t_start", "t_end", "pattern"],
        )

    def training_segments(self, records: pd.DataFrame) -> pd.DataFrame:
        """Slice the positioning records covered by each designation into
        labeled segments (the model's training set). Each device's records
        are sorted by ``ts`` once; a designation takes the slice between two
        ``searchsorted`` bounds (inclusive), in original row order."""
        ts = records["ts"].to_numpy()
        by_device = {}
        for dev, pos in records.groupby("device_id").indices.items():
            pos = pos[np.argsort(ts[pos], kind="stable")]
            by_device[dev] = pos, ts[pos]
        no_records = (np.empty(0, dtype=int), np.empty(0))
        rows = []
        for d in self.designations:
            pos, dev_ts = by_device.get(d.device_id, no_records)
            lo = np.searchsorted(dev_ts, d.t_start, side="left")
            hi = np.searchsorted(dev_ts, d.t_end, side="right")
            rows.append(np.sort(pos[lo:hi]))
        sizes = [len(r) for r in rows]
        if not sum(sizes):
            return pd.DataFrame(columns=SEGMENT_COLUMNS)
        segs = records.iloc[np.concatenate(rows)].assign(
            segment_id=np.repeat(np.arange(len(rows)), sizes),
            label=np.repeat([d.pattern for d in self.designations], sizes),
        )
        return segs[SEGMENT_COLUMNS].reset_index(drop=True)


def designate_from_ground_truth(
    editor: EventEditor,
    gt_semantics: pd.DataFrame,
    devices: list[str],
    *,
    max_per_device: int | None = None,
    rng: np.random.Generator | None = None,
) -> int:
    """Simulate the analyst's designation work: every ground-truth
    semantic interval of the chosen ``devices`` becomes a designation of
    its event pattern. Returns the number of designations added."""
    rng = rng or np.random.default_rng(0)
    added = 0
    for dev in devices:
        rows = gt_semantics[gt_semantics["device_id"] == dev]
        if max_per_device is not None and len(rows) > max_per_device:
            rows = rows.sample(max_per_device, random_state=int(rng.integers(2**31)))
        cols = ("device_id", "t_start", "t_end", "event")
        for dev_id, t0, t1, event in zip(*(rows[c] for c in cols)):
            if t1 <= t0:
                continue
            editor.designate(dev_id, t0, t1, event)
            added += 1
    return added
