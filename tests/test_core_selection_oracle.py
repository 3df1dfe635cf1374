"""Differential tests: S³ batch placement against a literal Algorithm-1 oracle.

``reference_place_exhaustive`` is the clique-placement step written the way
the paper's pseudocode reads — one Python iteration per user->AP
distribution, in ``itertools.product`` order: sum the added social cost,
drop distributions that break an AP's bandwidth, sort by
``(cost, -beta)``, keep the cheapest ``top_fraction``, and pick the one
with the best balance index (cost, then distribution, as tie-breaks).  It
lives in the test suite only.  The library's vectorized kernel must make
exactly its choices, ties included, so the generated instances use
duplicated integer rates and loads, zero social signal, bandwidth-tight
APs and the all-infeasible fallback on purpose.
"""

import itertools
import math
import warnings

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.analysis.balance import (
    normalized_balance_index,
    normalized_balance_index_rows,
)
from repro.core.demand import DemandEstimator
from repro.core.selection import APState, S3Selector, SelectionConfig
from repro.core.social import PairStats, SocialModel
from repro.core.typing import TypeModel

RESIDENTS = tuple(f"r{i}" for i in range(6))


def reference_place_exhaustive(selector, members, aps):
    """Algorithm 1's clique placement, one distribution at a time."""
    rates = [selector.demand.estimate(user) for user in members]
    internal = {
        (i, j): selector.social.social_index(members[i], members[j])
        for i in range(len(members))
        for j in range(i + 1, len(members))
    }
    scored = []
    for combo in itertools.product(range(len(aps)), repeat=len(members)):
        cost = 0.0
        added_load = [0.0] * len(aps)
        feasible = True
        for i, ap_index in enumerate(combo):
            cost += selector.added_social_cost(members[i], aps[ap_index])
            added_load[ap_index] += rates[i]
        for (i, j), delta in internal.items():
            if combo[i] == combo[j]:
                cost += delta
        for ap_index, extra in enumerate(added_load):
            ap = aps[ap_index]
            if extra > 0 and ap.load + extra > ap.bandwidth:
                feasible = False
                break
        if not feasible:
            continue
        loads_after = [ap.load + added_load[k] for k, ap in enumerate(aps)]
        beta = normalized_balance_index(loads_after)
        scored.append((cost, -beta, combo))

    if not scored:
        return selector._place_greedy(members, aps, ignore_bandwidth=True)

    scored.sort(key=lambda item: (item[0], item[1]))
    keep = max(1, int(math.ceil(len(scored) * selector.config.top_fraction)))
    best = min(scored[:keep], key=lambda item: (item[1], item[0], item[2]))
    return {members[i]: aps[k].ap_id for i, k in enumerate(best[2])}


class OracleSelector(S3Selector):
    """S3Selector whose enumeration step is the literal reference."""

    def _place_exhaustive(self, members, aps):
        return reference_place_exhaustive(self, members, aps)


def reference_normalized_beta(loads):
    """The scalar normalized Chiu-Jain index as a 1-D computation."""
    values = np.asarray(list(loads), dtype=float)
    peak = values.max()
    if peak <= 0:
        beta = 1.0
    else:
        scaled = values / peak
        total = scaled.sum()
        beta = float(total * total / (values.size * np.square(scaled).sum()))
    if values.size == 1:
        return 1.0
    floor = 1.0 / values.size
    return float((beta - floor) / (1.0 - floor))


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


# ---------------------------------------------------------------- instances


@st.composite
def instances(draw, max_aps=4, max_members=5):
    """A clique, its candidate APs and a selector, built to force ties."""
    n_aps = draw(st.integers(1, max_aps))
    n_members = draw(st.integers(1, max_members))
    members = [f"u{i}" for i in range(n_members)]
    integral = draw(st.booleans())
    if integral:
        rate = st.integers(1, 3).map(float)
        load = st.integers(0, 6).map(float)
    else:
        rate = st.floats(0.01, 50.0)
        load = st.floats(0.0, 60.0)
    rates = {user: draw(rate) for user in members}
    # headroom 0 makes an AP bandwidth-tight: it takes no new user at all.
    headroom = st.one_of(st.just(0.0), st.integers(1, 8).map(float))
    aps = []
    for k in range(n_aps):
        ap_load = draw(load)
        bandwidth = max(ap_load + draw(headroom), 1.0)
        residents = draw(st.lists(st.sampled_from(RESIDENTS), max_size=3, unique=True))
        aps.append(APState(f"ap{k}", bandwidth, ap_load, tuple(residents)))
    if draw(st.booleans()):
        social = make_social({}, affinity=0.0)  # zero social signal
    else:
        pairs = {}
        for a, b in itertools.combinations(members + list(RESIDENTS), 2):
            if draw(st.booleans()):
                pairs[(a, b)] = (draw(st.sampled_from([2, 4])), draw(st.integers(0, 4)))
        social = make_social(pairs, affinity=draw(st.sampled_from([0.0, 1.0])))
    top_fraction = draw(
        st.one_of(st.sampled_from([0.3, 0.5, 1.0]), st.floats(1e-3, 1.0))
    )
    demand = DemandEstimator(smoothing=1.0, default_rate=1.0)
    for user, value in rates.items():
        demand.observe(user, value)
    return members, aps, social, demand, SelectionConfig(top_fraction=top_fraction)


def make_social(pairs, affinity):
    types = TypeModel(
        centroids=np.zeros((2, 6)), assignments={}, affinity=np.full((2, 2), affinity)
    )
    stats = {
        (a, b) if a < b else (b, a): PairStats(encounters=enc, co_leavings=col)
        for (a, b), (enc, col) in pairs.items()
    }
    return SocialModel(stats, types, alpha=0.3)


def scaled(instance, k):
    """The same instance with every rate, load and bandwidth times 2**k."""
    members, aps, social, demand, config = instance
    factor = 2.0**k
    grown = DemandEstimator(smoothing=1.0, default_rate=demand.default_rate * factor)
    for user in members:
        grown.observe(user, demand.estimate(user) * factor)
    aps = [
        APState(ap.ap_id, ap.bandwidth * factor, ap.load * factor, ap.users)
        for ap in aps
    ]
    return members, aps, social, grown, config


# ------------------------------------------------------------------- tests


@settings(max_examples=300, deadline=None)
@given(instances())
def test_exhaustive_kernel_matches_reference(instance):
    members, aps, social, demand, config = instance
    selector = S3Selector(social, demand, config)
    expected = reference_place_exhaustive(selector, members, aps)
    assert selector._place_exhaustive(members, aps) == expected


@settings(max_examples=150, deadline=None)
@given(instances())
def test_assign_batch_matches_reference(instance):
    members, aps, social, demand, config = instance
    expected = OracleSelector(social, demand, config).assign_batch(members, aps)
    assert S3Selector(social, demand, config).assign_batch(members, aps) == expected


def test_all_infeasible_falls_back_to_greedy():
    members = ["u0", "u1", "u2"]
    aps = [APState(f"ap{k}", 5.0, 5.0) for k in range(3)]  # no headroom anywhere
    demand = DemandEstimator(smoothing=1.0, default_rate=2.0)
    selector = S3Selector(make_social({}, 0.0), demand)
    placement = selector._place_exhaustive(members, aps)
    assert placement == reference_place_exhaustive(selector, members, aps)
    assert placement == selector._place_greedy(members, aps, ignore_bandwidth=True)


@settings(max_examples=60, deadline=None)
@given(instances(), st.sampled_from([-12, -3, -1, 1, 2, 7, 20]))
@example(
    (
        ["u0", "u1"],
        [APState("ap0", 4.0, 2.0), APState("ap1", 4.0, 2.0)],
        make_social({}, 0.0),
        DemandEstimator(smoothing=1.0, default_rate=2.0),
        SelectionConfig(),
    ),
    -1,
)
def test_power_of_two_scaling_leaves_decisions_unchanged(instance, k):
    members, aps, social, demand, config = instance
    baseline = S3Selector(social, demand, config)
    members2, aps2, social2, demand2, config2 = scaled(instance, k)
    grown = S3Selector(social2, demand2, config2)
    assert grown.assign_batch(members2, aps2) == baseline.assign_batch(members, aps)
    assert grown._place_exhaustive(members2, aps2) == baseline._place_exhaustive(
        members, aps
    )


def test_row_wise_beta_is_bit_identical_to_scalar():
    rng = np.random.default_rng(20120704)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in range(1, 41):
            rows = rng.random((60, n)) * rng.choice([1e-6, 1.0, 1e6], size=(60, 1))
            rows[rng.random((60, n)) < 0.3] = 0.0  # idle APs
            rows[:3] = 0.0  # whole idle domains
            rows[3] = rng.integers(0, 3, size=n)  # integer loads, duplicated
            got = normalized_balance_index_rows(rows)
            expected = [reference_normalized_beta(row) for row in rows]
            assert bits(got) == bits(expected), n
            assert bits([normalized_balance_index(row) for row in rows]) == bits(
                expected
            ), n
        # A grid-sized batch reduces each row the same way as one row.
        for n in (3, 9, 17):
            rows = rng.integers(0, 4, size=(4096, n)) * rng.random((4096, 1))
            got = normalized_balance_index_rows(rows)
            assert bits(got) == bits([reference_normalized_beta(r) for r in rows]), n
