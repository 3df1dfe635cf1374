"""The Chiu-Jain balance index and its windowed series.

Section III.B of the paper quantifies load balance among the ``n`` APs of
one controller with Jain's fairness index over per-AP throughput::

    beta = (sum T_i)^2 / (n * sum T_i^2)          in [1/n, 1]

and normalizes it to [0, 1]::

    beta_norm = (beta - 1/n) / (1 - 1/n)

Section III.C additionally defines the *variance of balance index*
``S_i = (beta_i - beta_{i-1}) / beta_{i-1}`` over sub-periods of an hour to
show that with a fixed user population the index barely moves (Fig. 3).

This module computes per-AP throughput (bytes served inside a window over
the window length, attributing each session's bytes uniformly over its
lifetime), per-AP *user-seconds* (the time-integral of the concurrent user
count, for the Fig. 4 user-number index), and the windowed index series
used by Figs. 2-4 and the evaluation section.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.sim.timeline import Timeline
from repro.trace.records import SessionRecord


def balance_index(loads: Sequence[float]) -> float:
    """Jain's fairness / balance index of a load vector.

    Ranges from ``1/n`` (all load on one AP) to 1 (perfectly even).  An
    all-zero vector is *perfectly balanced* by convention (returns 1.0) —
    an idle controller domain is not an unbalanced one.
    """
    return float(balance_index_rows(_one_row(loads))[0])


def normalized_balance_index(loads: Sequence[float]) -> float:
    """The paper's normalized index: maps [1/n, 1] onto [0, 1].

    For a single-AP domain (n = 1) the index is defined as 1.0 — one AP is
    trivially balanced.
    """
    return float(normalized_balance_index_rows(_one_row(loads))[0])


def balance_index_rows(loads: np.ndarray) -> np.ndarray:
    """:func:`balance_index` of every row of a 2-D ``(rows, n)`` array.

    The scalar index is this function on one row, so each row's value is
    the same float as ``balance_index(row)``.
    """
    values = np.ascontiguousarray(loads, dtype=float)
    if values.ndim != 2 or values.shape[1] == 0:
        raise ValueError("balance index of an empty load vector")
    if values.size and values.min() < 0:
        raise ValueError("negative load")
    peak = values.max(axis=1)
    idle = peak <= 0
    if idle.any():
        # An all-ones row scores exactly 1.0 under the same arithmetic,
        # which is the all-zero convention, without dividing by zero.
        values = np.where(idle[:, None], 1.0, values)
        peak = np.where(idle, 1.0, peak)
    # The index is scale-invariant; normalizing by the peak load keeps the
    # squares well inside float range for arbitrarily tiny or huge loads.
    scaled = values / peak[:, None]
    total = scaled.sum(axis=1)
    beta: np.ndarray = total * total / (values.shape[1] * np.square(scaled).sum(axis=1))
    return beta


def normalized_balance_index_rows(loads: np.ndarray) -> np.ndarray:
    """:func:`normalized_balance_index` of every row of a 2-D array."""
    beta = balance_index_rows(loads)
    n = np.shape(loads)[1]
    if n == 1:
        return np.ones_like(beta)
    floor = 1.0 / n
    return (beta - floor) / (1.0 - floor)


def _one_row(loads: Sequence[float]) -> np.ndarray:
    return np.asarray(list(loads), dtype=float).reshape(1, -1)


def ap_throughputs(
    sessions: Iterable[SessionRecord],
    ap_ids: Sequence[str],
    lo: float,
    hi: float,
) -> Dict[str, float]:
    """Per-AP throughput (bytes/second) over the window ``[lo, hi)``.

    Every AP in ``ap_ids`` appears in the result (zero if idle), because the
    balance index must count idle APs — an AP nobody uses *is* imbalance.
    """
    if hi <= lo:
        raise ValueError(f"empty window [{lo}, {hi})")
    width = hi - lo
    loads: Dict[str, float] = {ap_id: 0.0 for ap_id in ap_ids}
    for record in sessions:
        if record.ap_id not in loads:
            continue
        loads[record.ap_id] += record.bytes_in(lo, hi) / width
    return loads


def ap_user_seconds(
    sessions: Iterable[SessionRecord],
    ap_ids: Sequence[str],
    lo: float,
    hi: float,
) -> Dict[str, float]:
    """Per-AP user-seconds (integral of concurrent user count) in a window."""
    if hi <= lo:
        raise ValueError(f"empty window [{lo}, {hi})")
    totals: Dict[str, float] = {ap_id: 0.0 for ap_id in ap_ids}
    for record in sessions:
        if record.ap_id not in totals:
            continue
        totals[record.ap_id] += record.overlap(lo, hi)
    return totals


def balance_series(
    sessions: Sequence[SessionRecord],
    ap_ids: Sequence[str],
    timeline: Timeline,
    window: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Normalized traffic-balance index per window across ``timeline``.

    Returns ``(window_midpoints, indices)``; windows with no traffic yield
    index 1.0 per the all-zero convention.
    """
    times: List[float] = []
    indices: List[float] = []
    relevant = [s for s in sessions if s.ap_id in set(ap_ids)]
    for lo, hi in timeline.windows(window):
        loads = ap_throughputs(relevant, ap_ids, lo, hi)
        times.append((lo + hi) / 2.0)
        indices.append(normalized_balance_index(list(loads.values())))
    return np.asarray(times), np.asarray(indices)


def user_count_balance_series(
    sessions: Sequence[SessionRecord],
    ap_ids: Sequence[str],
    timeline: Timeline,
    window: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Normalized user-number balance index per window (Fig. 4 companion)."""
    times: List[float] = []
    indices: List[float] = []
    relevant = [s for s in sessions if s.ap_id in set(ap_ids)]
    for lo, hi in timeline.windows(window):
        counts = ap_user_seconds(relevant, ap_ids, lo, hi)
        times.append((lo + hi) / 2.0)
        indices.append(normalized_balance_index(list(counts.values())))
    return np.asarray(times), np.asarray(indices)


def variation_series(betas: Sequence[float]) -> np.ndarray:
    """The paper's S statistic: successive relative changes of the index.

    ``S_i = (beta_i - beta_{i-1}) / beta_{i-1}``.  Steps whose predecessor is
    zero are skipped (the relative change is undefined), matching how an
    idle-to-active transition would be excluded from Fig. 3.  Returns the
    magnitudes ``|S_i|``, which is what the CDF in Fig. 3 aggregates.
    """
    values = np.asarray(list(betas), dtype=float)
    if values.size < 2:
        return np.empty(0)
    prev = values[:-1]
    curr = values[1:]
    mask = prev > 0
    return np.abs((curr[mask] - prev[mask]) / prev[mask])


def churn_filtered_sessions(
    sessions: Sequence[SessionRecord], lo: float, hi: float
) -> List[SessionRecord]:
    """Sessions that span the whole window ``[lo, hi)`` — the fixed-user
    population of Section III.C.1.

    The paper "removes the traffic amount generated by users who just came
    or left during a time period" before measuring S; this helper performs
    that removal.
    """
    return [s for s in sessions if s.connect <= lo and s.disconnect >= hi]
