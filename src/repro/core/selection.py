"""Algorithm 1: the S³ AP selection algorithm.

The controller distributes users to APs so that the total social relation
index *within* each AP is minimized — socially tight users, who tend to
co-leave, are spread across APs so their joint departure cannot crater any
single AP's load.  Secondary objective: do not degrade the balance index;
hard constraint: per-AP bandwidth.

For a batch of waiting users the paper's pseudocode is followed exactly:

1. build the graph over waiting users (edges where delta > 0.3);
2. iteratively extract the maximum clique (edge-weight tie-break);
3. for the clique, search the space of user->AP distributions, sort by the
   added social cost  sum_i C(AP_i), keep the top 30% cheapest, and among
   them pick the distribution with the best predicted balance index;
4. update AP state, erase the clique, repeat;

with LLF (least loaded first) as the fall-back when there is no social
information to exploit — empty APs, strangers, ties (Section IV.B: "if
S(AP) is empty or there are multiple candidate APs to choose, we simply
apply LLF").

The algorithm sees APs only through :class:`APState` snapshots, so it is
reusable by the trace-driven simulator and the message-level prototype
alike; it never mutates caller state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.balance import (
    normalized_balance_index,
    normalized_balance_index_rows,
)
from repro.core.demand import DemandEstimator
from repro.core.social import SocialModel
from repro.graph.clique import clique_cover

INFEASIBLE = math.inf


@dataclass(frozen=True)
class APState:
    """A snapshot of one AP as the selection algorithm sees it."""

    ap_id: str
    bandwidth: float
    load: float
    users: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"AP {self.ap_id}: non-positive bandwidth")
        if self.load < 0:
            raise ValueError(f"AP {self.ap_id}: negative load")

    @property
    def user_count(self) -> int:
        """Number of currently associated users."""
        return len(self.users)

    def headroom(self) -> float:
        """Remaining bandwidth (bytes/second)."""
        return self.bandwidth - self.load

    def with_user(self, user_id: str, rate: float) -> "APState":
        """The state after associating ``user_id`` at ``rate`` bytes/s."""
        return replace(self, load=self.load + rate, users=self.users + (user_id,))


@dataclass(frozen=True)
class SelectionConfig:
    """Tunables of Algorithm 1, defaulting to the paper's operating point."""

    #: Social-graph edge threshold (Section IV.A).
    edge_threshold: float = 0.3
    #: Fraction of cheapest distributions re-ranked by balance index
    #: (line 6 of the pseudocode: "find the top 30% distribution").
    top_fraction: float = 0.3
    #: Exhaustive enumeration cap; larger cliques fall back to the greedy
    #: placement (the paper's own search is heuristic at this point).
    max_enumeration: int = 20000

    def __post_init__(self) -> None:
        if not 0.0 < self.top_fraction <= 1.0:
            raise ValueError("top_fraction must be in (0, 1]")
        if self.max_enumeration < 1:
            raise ValueError("max_enumeration must be >= 1")
        if self.edge_threshold < 0:
            raise ValueError("edge_threshold must be non-negative")


def least_loaded(aps: Sequence[APState]) -> APState:
    """LLF: the AP with the least traffic load (user count, then id as
    deterministic tie-breaks)."""
    if not aps:
        raise ValueError("no candidate APs")
    return min(aps, key=lambda ap: (ap.load, ap.user_count, ap.ap_id))


class S3Selector:
    """The trained S³ decision engine."""

    def __init__(
        self,
        social: SocialModel,
        demand: DemandEstimator,
        config: Optional[SelectionConfig] = None,
    ) -> None:
        self.social = social
        self.demand = demand
        self.config = config if config is not None else SelectionConfig()

    # -------------------------------------------------------------- scoring

    def added_social_cost(self, user_id: str, ap: APState) -> float:
        """C(AP) increment of adding ``user_id``: sum of delta to residents."""
        return sum(
            self.social.social_index(user_id, resident)
            for resident in ap.users
            if resident != user_id
        )

    # ------------------------------------------------------- single arrival

    def select(self, user_id: str, aps: Sequence[APState]) -> str:
        """Online assignment of one arriving user; returns the AP id.

        This is Algorithm 1 for a singleton clique: rank feasible APs by
        the added social cost C, keep the cheapest ``top_fraction`` of
        them, and among those pick the AP whose post-assignment balance
        index is best (load as the final deterministic tie-break).  When
        the bandwidth constraint rules out every AP the user is still
        admitted at the least-loaded AP — rejecting association is not an
        option the paper considers.
        """
        if not aps:
            raise ValueError("no candidate APs")
        rate = self.demand.estimate(user_id)
        feasible = [ap for ap in aps if ap.load + rate <= ap.bandwidth]
        if not feasible:
            return least_loaded(aps).ap_id
        ranked = sorted(
            feasible,
            key=lambda ap: (self.added_social_cost(user_id, ap), ap.load, ap.ap_id),
        )
        keep = max(1, int(math.ceil(len(ranked) * self.config.top_fraction)))
        top = ranked[:keep]
        loads = {ap.ap_id: ap.load for ap in aps}

        def balance_after(candidate: APState) -> float:
            after = [
                load + rate if ap_id == candidate.ap_id else load
                for ap_id, load in loads.items()
            ]
            return normalized_balance_index(after)

        return min(
            top,
            key=lambda ap: (-balance_after(ap), ap.load, ap.user_count, ap.ap_id),
        ).ap_id

    # --------------------------------------------------------- batch arrival

    def assign_batch(
        self, user_ids: Sequence[str], aps: Sequence[APState]
    ) -> Dict[str, str]:
        """Algorithm 1 over a batch of waiting users.

        Returns user id -> AP id.  AP snapshots are updated internally as
        cliques are placed so later cliques see earlier placements.
        """
        if not aps:
            raise ValueError("no candidate APs")
        waiting = list(dict.fromkeys(user_ids))  # preserve order, dedupe
        if not waiting:
            return {}
        if len(waiting) == 1:
            return {waiting[0]: self.select(waiting[0], aps)}

        states: Dict[str, APState] = {ap.ap_id: ap for ap in aps}
        graph = self.social.build_graph(waiting, threshold=self.config.edge_threshold)
        cover = clique_cover(graph)

        assignment: Dict[str, str] = {}
        for clique in cover.cliques:
            placement = self._place_clique(clique, list(states.values()))
            for user_id, ap_id in placement.items():
                rate = self.demand.estimate(user_id)
                states[ap_id] = states[ap_id].with_user(user_id, rate)
                assignment[user_id] = ap_id
        return assignment

    # ---------------------------------------------------------- clique step

    def _place_clique(
        self, members: Sequence[str], aps: Sequence[APState]
    ) -> Dict[str, str]:
        """Place one clique: enumerate (or greedily construct) distributions,
        rank by social cost, re-rank the top fraction by balance index."""
        members = list(members)
        if len(members) == 1:
            return {members[0]: self.select(members[0], aps)}

        n_combinations = len(aps) ** len(members)
        if n_combinations <= self.config.max_enumeration:
            return self._place_exhaustive(members, aps)
        return self._place_greedy(members, aps)

    def _place_exhaustive(
        self, members: List[str], aps: Sequence[APState]
    ) -> Dict[str, str]:
        """Score every user->AP distribution at once.

        Column ``r`` of the grid is the ``r``-th distribution in
        ``itertools.product`` order.  Costs are accumulated in the order a
        per-distribution sum would use (member terms, then internal pairs
        lexicographically), so each is the same float; the balance index
        is computed only for rows that can reach the top fraction.
        """
        size, width = len(members), len(aps)
        # C(AP) increments: one per (member, AP), shared by all distributions.
        table = np.array(
            [[self.added_social_cost(user, ap) for ap in aps] for user in members],
            dtype=float,
        )
        grid = np.indices((width,) * size).reshape(size, -1)
        rows = np.arange(grid.shape[1])
        cost = np.zeros(rows.size)
        for i in range(size):
            cost += table[i, grid[i]]
        for i in range(size):
            for j in range(i + 1, size):
                delta = self.social.social_index(members[i], members[j])
                cost += np.where(grid[i] == grid[j], delta, 0.0)
        added = np.zeros((rows.size, width))
        for i, user in enumerate(members):
            added[rows, grid[i]] += self.demand.estimate(user)
        after = np.array([ap.load for ap in aps]) + added
        bandwidth = np.array([ap.bandwidth for ap in aps])
        feasible = ~np.any((added > 0) & (after > bandwidth), axis=1)

        count = int(np.count_nonzero(feasible))
        if count == 0:
            # Bandwidth rules everything out; admit greedily anyway.
            return self._place_greedy(members, aps, ignore_bandwidth=True)
        keep = max(1, int(math.ceil(count * self.config.top_fraction)))
        # Rows above the keep-th smallest feasible cost can neither enter
        # the top fraction nor break its cost ties.
        cutoff = np.partition(cost[feasible], keep - 1)[keep - 1]
        (candidates,) = np.nonzero(feasible & (cost <= cutoff))
        scores = cost[candidates]
        beta = normalized_balance_index_rows(after[candidates])
        # The cheapest ``keep`` by (cost, -beta, row); among them maximize
        # the balance index, breaking remaining ties by cost then row.
        top = np.lexsort((candidates, -beta, scores))[:keep]
        best = top[np.lexsort((candidates[top], scores[top], -beta[top]))[0]]
        combo = grid[:, candidates[best]]
        return {user: aps[int(k)].ap_id for user, k in zip(members, combo)}

    def _place_greedy(
        self,
        members: List[str],
        aps: Sequence[APState],
        ignore_bandwidth: bool = False,
    ) -> Dict[str, str]:
        """Sequential fallback for cliques too large to enumerate: heaviest
        demand first, each user to the (feasible) AP with the smallest
        added social cost, load as the tie-break."""
        states: Dict[str, APState] = {ap.ap_id: ap for ap in aps}
        order = sorted(members, key=lambda u: -self.demand.estimate(u))
        placement: Dict[str, str] = {}
        for user_id in order:
            rate = self.demand.estimate(user_id)
            candidates = list(states.values())
            if not ignore_bandwidth:
                feasible = [
                    ap for ap in candidates if ap.load + rate <= ap.bandwidth
                ]
                if feasible:
                    candidates = feasible
            ranked = sorted(
                candidates,
                key=lambda ap: (
                    self.added_social_cost(user_id, ap),
                    ap.load,
                    ap.ap_id,
                ),
            )
            keep = max(1, int(math.ceil(len(ranked) * self.config.top_fraction)))
            top = ranked[:keep]

            def balance_after(candidate: APState) -> float:
                after = [
                    state.load + rate if state.ap_id == candidate.ap_id else state.load
                    for state in states.values()
                ]
                return normalized_balance_index(after)

            chosen = min(
                top,
                key=lambda ap: (-balance_after(ap), ap.load, ap.user_count, ap.ap_id),
            )
            placement[user_id] = chosen.ap_id
            states[chosen.ap_id] = states[chosen.ap_id].with_user(user_id, rate)
        return placement
