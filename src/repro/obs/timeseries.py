"""Per-round time-series: a bounded ring buffer of routing-round samples.

Every completed resource-sharing round appends one :func:`round_sample`
dict to the router's :class:`RoundSeries` -- the quantities an operator
watches to judge convergence of the divide-and-conquer flow (per-round
overflow and priced congestion cost, oracle-call and cache counts, the
per-region/seam walltime split of sharded rounds, and the pool/IPC
overhead of region-parallel execution).

The series is always on: one small dict per *round* (not per net) costs
nothing against a round's routing work and observes only -- it never feeds
back into prices, ordering, or RNG streams, so recorded and unrecorded
runs stay bit-identical.  The buffer is bounded (drop-oldest) so
long-lived daemon sessions cannot grow without bound; ``total_recorded``
keeps the lifetime count.

Timestamps: the ``t`` field is a *monotonic* offset from the series'
creation (durations and offsets never come from the wall clock); samples
carry no wall-clock stamp of their own -- the job records they are
persisted into already have wall stamps.

Consumers: the serve daemon's per-round hook copies the latest sample
into the job record (``history`` op), publishes it as a ``round`` event on
the bus, and ``RoutingSession.series`` exposes the last flow's series for
in-process callers.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, List, Optional

import numpy as np

__all__ = ["DEFAULT_SERIES_MAXLEN", "RoundSeries", "round_sample"]

#: Default ring-buffer bound: generous for any real flow (rounds are
#: single digits), finite for a daemon session replaying ECOs forever.
DEFAULT_SERIES_MAXLEN = 512


class RoundSeries:
    """A thread-safe bounded ring buffer of per-round sample dicts."""

    def __init__(self, maxlen: int = DEFAULT_SERIES_MAXLEN) -> None:
        if maxlen < 1:
            raise ValueError("series maxlen must be positive")
        self.maxlen = maxlen
        self._lock = threading.Lock()
        self._samples: deque = deque(maxlen=maxlen)
        self._t0 = time.monotonic()
        #: Lifetime sample count (keeps counting past the buffer bound).
        self.total_recorded = 0

    def record(self, sample: Dict[str, object]) -> Dict[str, object]:
        """Stamp ``sample`` with its monotonic offset and append it."""
        stamped = dict(sample)
        stamped.setdefault("t", round(time.monotonic() - self._t0, 6))
        with self._lock:
            self._samples.append(stamped)
            self.total_recorded += 1
        return dict(stamped)

    def samples(self) -> List[Dict[str, object]]:
        """Detached copies of the retained samples, oldest first."""
        with self._lock:
            return [dict(s) for s in self._samples]

    def latest(self) -> Optional[Dict[str, object]]:
        """The most recent sample (detached copy), or ``None`` when empty."""
        with self._lock:
            if not self._samples:
                return None
            return dict(self._samples[-1])

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def clear(self) -> None:
        with self._lock:
            self._samples.clear()


def round_sample(router, round_index: int) -> Dict[str, object]:
    """One plain-dict sample of ``router``'s state right after a round.

    ``router`` is a :class:`repro.router.router.GlobalRouter` (typed as
    ``object`` here to keep this module import-light); everything read is
    part of its public round contract: the engine's last
    :class:`~repro.engine.engine.RoundReport`, the congestion map, the
    prices, the timing report, and -- for sharded flows -- the
    coordinator's ``last_round_timings`` split.  All values are plain
    Python scalars/dicts, safe to JSON-persist into job records.
    """
    reports = router.engine.round_reports
    report = reports[-1] if reports else None
    timings = router.engine.last_round_timings
    congestion = router.congestion
    # The priced congestion cost of the current solution: usage weighted by
    # the live edge costs -- the per-round convergence quantity next to
    # overflow.  One O(E) dot per round, same order as the price update.
    cost = float(np.dot(router.prices.edge_costs(congestion), congestion.usage))
    timing_report = router.timing_report
    sample: Dict[str, object] = {
        "round": round_index + 1,
        "rounds_total": int(router.config.num_rounds),
        "overflow": float(congestion.overflow()),
        "cost": round(cost, 6),
        "worst_slack": (
            float(timing_report.worst_slack) if timing_report is not None else None
        ),
        "oracle_calls": int(report.nets_routed) if report else 0,
        "nets_cached": int(report.nets_cached) if report else 0,
        "nets_replayed": int(report.nets_replayed) if report else 0,
        "num_batches": int(report.num_batches) if report else 0,
        "walltime_seconds": (
            round(float(report.walltime_seconds), 6) if report else 0.0
        ),
        # Sharded flows only (empty/zero in the single-region flow): the
        # per-region walltime split, the seam pass, and the pool/IPC
        # overhead of the interior pass.
        "region_seconds": {
            str(key): round(float(value), 6)
            for key, value in (timings.get("regions") or {}).items()
        },
        "seam_seconds": round(float(timings.get("seam_seconds", 0.0)), 6),
        "overhead_seconds": round(float(timings.get("overhead_seconds", 0.0)), 6),
    }
    return sample
