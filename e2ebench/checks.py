"""Output checks for the three workloads.

Each check function returns ``[(name, ok, detail), ...]``; the benchmark
counts every entry as attempted and every ``ok=False`` as failed.  The
functions are pure, so the tests feed them deliberately corrupted
outputs (a shifted gain, a duplicated commit, a missing recovery).

References live in ``references.json`` keyed by workload and seed; a seed
without a reference is checked against the invariants alone.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

REFERENCES = Path(__file__).resolve().parent / "references.json"

#: Fig. 12 numbers are deterministic for a seed, so the reference
#: tolerance only absorbs float formatting: balances are compared to
#: 1e-9 absolute, the percentages to 1e-6 percentage points.
BALANCE_TOL = 1e-9
PERCENT_TOL = 1e-6

FIG12_PERCENTS = ("gain_percent", "peak_gain_percent", "errorbar_reduction_percent")

Check = Tuple[str, bool, str]


def load_references(workload: str, seed: int) -> Optional[Dict[str, Any]]:
    """The recorded reference outputs of ``workload`` at ``seed``, if any."""
    if not REFERENCES.exists():
        return None
    table = json.loads(REFERENCES.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def pairs_digest(pairs: Iterable[Tuple[str, str]]) -> str:
    """sha256 over ``user:ap`` pairs in the order given."""
    digest = hashlib.sha256()
    for user, ap in pairs:
        digest.update(f"{user}:{ap};".encode("utf-8"))
    return digest.hexdigest()


def check_fig12(outputs: Dict[str, Any], reference: Optional[Dict[str, Any]]) -> List[Check]:
    """S³ beats LLF overall; every number matches the seed's reference.

    The error-bar reduction changes sign across seeds, so it is compared
    with the reference only, never checked as an invariant.
    """
    balances = outputs["mean_balance"]
    checks: List[Check] = [
        (
            "fig12.strategies",
            bool(
                sorted(balances) == ["llf", "llf-users", "rssi", "s3"]
                and all(math.isfinite(v) for v in balances.values())
            ),
            f"strategies {sorted(balances)}",
        ),
        (
            "fig12.s3_beats_llf",
            bool(outputs["gain_percent"] > 0.0 and balances["s3"] > balances["llf"]),
            f"gain {outputs['gain_percent']:.3f}%",
        ),
    ]
    if reference is None:
        return checks
    for name, ref in sorted(reference["mean_balance"].items()):
        got = balances.get(name, float("nan"))
        checks.append(
            (
                f"fig12.ref.mean_balance.{name}",
                bool(abs(got - ref) <= BALANCE_TOL),
                f"{got!r} vs {ref!r}",
            )
        )
    for key in FIG12_PERCENTS:
        got, ref = outputs[key], reference[key]
        checks.append(
            (f"fig12.ref.{key}", bool(abs(got - ref) <= PERCENT_TOL), f"{got!r} vs {ref!r}")
        )
    return checks


def check_stream(outputs: Dict[str, Any], reference: Optional[Dict[str, Any]]) -> List[Check]:
    """Every join commits exactly once; the commit digest matches."""
    joins = outputs["join_seqs"]
    commits = outputs["commit_seqs"]
    checks: List[Check] = [
        (
            "stream.commit_once",
            len(commits) == len(set(commits)) and sorted(commits) == sorted(joins),
            f"{len(commits)} commits ({len(set(commits))} distinct) for {len(joins)} joins",
        ),
        (
            "stream.decisions",
            outputs["decisions"] == len(joins),
            f"{outputs['decisions']} decisions for {len(joins)} joins",
        ),
    ]
    if reference is not None:
        checks.append(
            (
                "stream.ref.digest",
                outputs["digest"] == reference["digest"],
                f"{outputs['digest'][:12]} vs {reference['digest'][:12]}",
            )
        )
    return checks


def check_chaos(outputs: Dict[str, Any], reference: Optional[Dict[str, Any]]) -> List[Check]:
    """Recoveries equal the planned crashes; the digest matches."""
    checks: List[Check] = [
        (
            "chaos.recoveries",
            outputs["recoveries"] == outputs["planned_crashes"],
            f"{outputs['recoveries']} recoveries for {outputs['planned_crashes']} crashes",
        ),
        (
            "chaos.events",
            outputs["events_processed"] == outputs["events"],
            f"{outputs['events_processed']} of {outputs['events']} events processed",
        ),
    ]
    if reference is not None:
        checks.append(
            (
                "chaos.ref.digest",
                outputs["digest"] == reference["digest"],
                f"{outputs['digest'][:12]} vs {reference['digest'][:12]}",
            )
        )
    return checks


def check_crash_free_parity(digest: str, crash_free_digest: str) -> List[Check]:
    """A crashed-and-recovered run decides exactly as the crash-free run."""
    return [
        (
            "chaos.crash_free_parity",
            digest == crash_free_digest,
            f"{digest[:12]} vs {crash_free_digest[:12]}",
        )
    ]
