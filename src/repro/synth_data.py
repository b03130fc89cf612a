"""The TRIPS mall scenario at a configurable scale factor.

The paper's 7-floor Hangzhou Wi-Fi dataset is proprietary, so
:func:`mall_scenario` synthesizes a mall DSM, ground-truth trajectories
and semantics, and Wi-Fi-degraded raw positioning records (see
DESIGN.md). SF=0.01 simulates 4 devices and SF=0.1 40, each for 2 h of
mall time. Generation is deterministic in ``seed``.
"""
from pyspark.sql import SparkSession

_DEVICES_PER_SF = 400  # SF=0.01 -> 4 devices, SF=0.1 -> 40 devices
_SIM_DURATION_S = 7200.0  # 2 h of mall time per device
_SIM_PERIOD_S = 5.0  # Wi-Fi positioning period


def mall_scenario(
    spark: SparkSession,
    *,
    sf: float = 0.01,
    seed: int = 0,
    n_floors: int = 3,
    shops_per_side: int = 4,
    corruption=None,
):
    """Full TRIPS input bundle at a scale factor.

    Returns a dict with the DSM, Spark frames for ground-truth records
    (``gt``), raw (corrupted) records (``raw``) and ground-truth
    semantics (``gt_semantics``), plus the pandas originals (``*_pdf``)
    for driver-side work (Event Editor designation, scoring).
    """
    from .dsm import build_mall
    from .positioning import (
        CorruptionConfig,
        corrupt,
        from_pandas,
        simulate_population,
    )

    dsm = build_mall(n_floors=n_floors, shops_per_side=shops_per_side)
    n_devices = max(2, int(_DEVICES_PER_SF * sf))
    gt_pdf, sem_pdf = simulate_population(
        dsm,
        n_devices=n_devices,
        duration_s=_SIM_DURATION_S,
        period_s=_SIM_PERIOD_S,
        seed=seed,
    )
    cfg = corruption or CorruptionConfig(seed=seed + 7)
    raw_pdf = corrupt(gt_pdf, cfg, n_floors=n_floors)
    sem_spark = spark.createDataFrame(sem_pdf)
    return {
        "dsm": dsm,
        "period_s": _SIM_PERIOD_S,
        "n_devices": n_devices,
        "gt": from_pandas(spark, gt_pdf),
        "raw": from_pandas(spark, raw_pdf),
        "gt_semantics": sem_spark,
        "gt_pdf": gt_pdf,
        "raw_pdf": raw_pdf,
        "gt_semantics_pdf": sem_pdf,
    }
