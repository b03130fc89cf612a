"""Viewer export: translation-result files and map-view payloads.

Step (4) of the demo workflow exports a translation result file per
device ("a device 3a.*.14's indoor positioning records have been
translated into a trace of mobility semantics"); step (5) opens it and
renders the map view. We reproduce both artifacts as JSON payloads.
"""
from __future__ import annotations

import json

import pandas as pd
from pyspark.sql import DataFrame


def translation_result_payload(semantics: pd.DataFrame | DataFrame) -> dict:
    """The translation-result file content: per device, the ordered trace
    of mobility semantics triplets (event, region tag, time range)."""
    pdf = semantics.toPandas() if isinstance(semantics, DataFrame) else semantics
    out: dict = {"devices": {}}
    for dev, grp in pdf.sort_values(["device_id", "seq"]).groupby("device_id"):
        region = grp["tag"].where(grp["tag"].notna(), grp["region_id"])
        out["devices"][dev] = [
            {
                "event": event,
                "region": reg,
                "t_start": float(t0),
                "t_end": float(t1),
                "inferred": bool(inf),
            }
            for event, reg, t0, t1, inf in zip(
                grp["event"].tolist(),
                region.tolist(),
                grp["t_start"].tolist(),
                grp["t_end"].tolist(),
                grp["inferred"].tolist(),
            )
        ]
    return out


def write_translation_result(semantics: pd.DataFrame | DataFrame, path: str) -> None:
    with open(path, "w") as f:
        json.dump(translation_result_payload(semantics), f, indent=2)


def map_view_payload(entries: pd.DataFrame | DataFrame) -> dict:
    """Map-view payload: entries grouped by floor then source, so the
    Indoor Map Visualizer can switch floors and the legend can toggle
    sources."""
    pdf = entries.toPandas() if isinstance(entries, DataFrame) else entries
    out: dict = {"floors": {}}
    with_floor = pdf[pdf["floor"].notna()]
    for floor, fgrp in with_floor.groupby("floor"):
        fkey = str(int(floor))
        out["floors"][fkey] = {}
        for source, sgrp in fgrp.groupby("source"):
            sgrp = sgrp.sort_values("t_start")
            labels = sgrp["label"].astype(object).where(sgrp["label"].notna(), None)
            out["floors"][fkey][source] = [
                {
                    "x": float(x),
                    "y": float(y),
                    "t_start": float(t0),
                    "t_end": float(t1),
                    "label": label,
                }
                for x, y, t0, t1, label in zip(
                    sgrp["x"].tolist(),
                    sgrp["y"].tolist(),
                    sgrp["t_start"].tolist(),
                    sgrp["t_end"].tolist(),
                    labels.tolist(),
                )
            ]
    return out
