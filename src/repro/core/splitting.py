"""Density-based splitting — first step of the Annotation layer.

Per the paper: "a density-based splitting obtains a number of data
snippets by clustering positioning records with respect to their
spatio-temporal attributes." A record is *dense* when the records of its
surrounding time window stay within a spatial radius (people dwelling
produce dense clusters; people walking spread out). Maximal runs of
dense records become stay-candidate snippets, the sparse runs between
them become move-candidate snippets; micro-snippets are merged into
their predecessor so downstream annotations stay readable.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

#: Spatial radius (m), temporal half-window (s) and in-radius fraction
#: defining density. The fraction keeps metre-scale positioning noise
#: from fragmenting a dwell into many snippets.
DEFAULT_EPS_M = 4.0
DEFAULT_WINDOW_S = 30.0
DEFAULT_MIN_SNIPPET_S = 10.0
DEFAULT_DENSE_FRAC = 0.8


def split_sequence(
    pdf: pd.DataFrame,
    *,
    eps_m: float = DEFAULT_EPS_M,
    min_snippet_s: float = DEFAULT_MIN_SNIPPET_S,
) -> pd.DataFrame:
    """Assign a ``snippet_id`` (0-based, time-ordered) to every record of
    one device's cleaned sequence."""
    g = pdf.sort_values("ts").reset_index(drop=True)
    n = len(g)
    if n == 0:
        return g.assign(snippet_id=pd.Series(dtype="int64"))
    x = g["x"].to_numpy(dtype=float)
    y = g["y"].to_numpy(dtype=float)
    ts = g["ts"].to_numpy(dtype=float)
    fl = g["floor"].to_numpy(dtype=int)

    # Row i of idx is record i's time window g[lo[i]:hi[i]], padded to the
    # widest window; the padding is masked out of near.
    lo = np.searchsorted(ts, ts - DEFAULT_WINDOW_S, side="left")
    hi = np.searchsorted(ts, ts + DEFAULT_WINDOW_S, side="right")
    idx = lo[:, None] + np.arange((hi - lo).max())
    inside = idx < hi[:, None]
    idx = np.minimum(idx, n - 1)
    d = np.hypot(x[idx] - x[:, None], y[idx] - y[:, None])
    near = (d <= eps_m) & (fl[idx] == fl[:, None]) & inside
    dense = near.sum(axis=1) / (hi - lo) >= DEFAULT_DENSE_FRAC

    # Runs of equal density state and floor → snippets, as [start, end).
    change = np.flatnonzero((dense[1:] != dense[:-1]) | (fl[1:] != fl[:-1])) + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [n]])

    # Merge snippets shorter than min_snippet_s into their predecessor.
    durations = ts[ends - 1] - ts[starts]
    target = np.arange(len(starts))
    for s in range(1, len(starts)):
        if durations[s] < min_snippet_s:
            target[s] = target[s - 1]
    merged = np.repeat(target, ends - starts)
    # Renumber to consecutive 0..k.
    _, merged = np.unique(merged, return_inverse=True)

    out = g.copy()
    out["snippet_id"] = merged.astype("int64")
    # A snippet is a stay-candidate iff the majority of its records are
    # dense (merging may fold a few sparse records into a dense run).
    snippet_dense = np.bincount(merged, weights=dense) / np.bincount(merged) >= 0.5
    out["dense"] = snippet_dense[merged]
    return out
