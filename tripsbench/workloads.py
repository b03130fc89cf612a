"""The benchmark's workloads and the Event Editor training step.

Every workload is generated from the run's seed with the public
``positioning`` functions, over the same ``build_mall`` DSM. The event
model is trained on the first 30% of sorted device ids and scored on the
rest, the split experiment T3 uses.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.configurator import EventEditor, designate_from_ground_truth
from repro.core import EventModel, train_event_model
from repro.dsm import DigitalSpaceModel, build_mall
from repro.positioning import (
    CorruptionConfig,
    corrupt,
    from_pandas,
    simulate_population,
)
from spans import untraced

PERIOD_S = 5.0
N_FLOORS = 3
SHOPS_PER_SIDE = 4
TRAIN_FRAC = 0.3


@dataclass(frozen=True)
class Workload:
    n_devices: int
    duration_s: float
    #: Ground-truth intervals the analyst designates on each training
    #: device. A fixed count keeps the training work the same across seeds.
    designations_per_device: int
    corruption: dict = field(default_factory=dict)


WORKLOADS = {
    # Long sequences under default noise: annotation does most of the work.
    "mall": Workload(n_devices=8, duration_s=7200.0, designations_per_device=40),
    # Same population, harsh noise: cleaning's repair path does most of it.
    "noisy": Workload(
        n_devices=8,
        duration_s=7200.0,
        designations_per_device=40,
        corruption=dict(
            sigma_xy=3.0,
            p_floor_error=0.05,
            p_outlier=0.05,
            n_dropouts=6,
            dropout_s=(60.0, 240.0),
        ),
    ),
    # Many short sequences: per-group and Spark overhead dominate.
    "crowd": Workload(n_devices=24, duration_s=600.0, designations_per_device=3),
}

#: Size every workload shrinks to under ``--size tiny`` (smoke test).
TINY = dict(n_devices=3, duration_s=900.0)


@dataclass
class Inputs:
    dsm: DigitalSpaceModel
    gt_pdf: pd.DataFrame  # ground-truth records
    gt_sem_pdf: pd.DataFrame  # ground-truth semantics
    raw_pdf: pd.DataFrame  # corrupted records, the translator's input
    raw: DataFrame | None = None  # ``raw_pdf`` ingested and cached


def generate(wl: Workload, seed: int, span=untraced) -> Inputs:
    """DSM build, simulation and corruption of one workload."""
    with span("dsm.build"):
        dsm = build_mall(n_floors=N_FLOORS, shops_per_side=SHOPS_PER_SIDE)
    with span("positioning.simulate"):
        gt_pdf, gt_sem_pdf = simulate_population(
            dsm,
            n_devices=wl.n_devices,
            duration_s=wl.duration_s,
            period_s=PERIOD_S,
            seed=seed,
        )
    with span("positioning.corrupt"):
        cfg = CorruptionConfig(seed=seed + 7, **wl.corruption)
        raw_pdf = corrupt(gt_pdf, cfg, n_floors=N_FLOORS)
    return Inputs(dsm, gt_pdf, gt_sem_pdf, raw_pdf)


def build(spark: SparkSession, wl: Workload, seed: int, span=untraced) -> Inputs:
    """``generate``, then ingestion of the raw records into a cached frame."""
    inputs = generate(wl, seed, span)
    with span("positioning.ingest") as counts:
        inputs.raw = from_pandas(spark, inputs.raw_pdf).cache()
        counts["records"] = inputs.raw.count()
    return inputs


def train(
    inputs: Inputs, per_device: int, span=untraced
) -> tuple[EventModel, list[str]]:
    """Event Editor designations (``per_device`` on each training device)
    -> training segments -> event model.

    Returns the model and the held-out device ids it is scored on.
    """
    devs = sorted(inputs.gt_pdf["device_id"].unique())
    n_train = max(1, int(len(devs) * TRAIN_FRAC))
    with span("configurator.designations") as counts:
        ed = EventEditor()
        ed.define_pattern("stay")
        ed.define_pattern("pass-by")
        counts["designations"] = designate_from_ground_truth(
            ed, inputs.gt_sem_pdf, devs[:n_train], max_per_device=per_device
        )
    with span("configurator.segments"):
        segments = ed.training_segments(inputs.gt_pdf)
    with span("core.events.fit"):
        model = train_event_model(segments)
    return model, devs[n_train:]
