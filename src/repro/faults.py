"""Deterministic fault injection for chaos testing the routing stack.

A :class:`FaultPlan` is a small set of scripted faults -- "kill a region
pool worker in round 2", "slow every oracle call by 50 ms" -- that the
executors and the router honor at instrumented choke points.  The plan is
the *script* of a chaos experiment; the recovery machinery under test
(worker-loss retry in the executors, checkpoint/resume in the serve layer)
must absorb every scripted fault without changing a single bit of the
routed result.

Like the tracer (:mod:`repro.obs.trace`), injection is **zero-cost when
disabled**: :func:`get_plan` is a module-global check and every choke
point is guarded by ``plan is not None``.  Unlike the tracer, a plan is
*process-safe*: :func:`install_plan` mirrors the plan into the
``REPRO_FAULTS`` environment variable, so pool workers -- under ``fork``,
``spawn``, and ``forkserver`` alike -- lazily re-parse the same plan and
honor worker-side faults (``slow-oracle``).

Fault vocabulary (the spec syntax is ``kind[:arg=value[,arg=value]]``,
multiple specs separated by ``;`` or whitespace; ``round`` arguments are
1-based, matching the round numbers shown to users)::

    kill-region-worker[:round=N]   SIGKILL one region-pool worker as round
                                   N dispatches (parent-side, one-shot)
    kill-pool-worker[:round=N]     SIGKILL one engine-pool worker as a
                                   batch of round N dispatches (one-shot)
    drop-outcome[:round=N]         discard one region outcome after a
                                   clean pool round (one-shot; exercises
                                   the in-process re-execution path alone)
    slow-oracle:ms=K               sleep K ms before every oracle call
                                   (continuous, honored inside workers)
    crash-run[:round=N]            hard-exit the process (``os._exit``)
                                   at the end of round N, *after* the
                                   ``on_round_end`` hooks ran -- i.e.
                                   after the checkpoint of round N was
                                   durably written

Faults that fire are observable: ``fault.injected`` /
``fault.injected.<kind>`` counters, a ``fault`` bus event, and a WARNING
log record.  The recovery paths they trigger report themselves under
``recovery.*`` (see the executors).
"""

from __future__ import annotations

import os
import re
import signal
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import obs

__all__ = [
    "ENV_VAR",
    "FAULT_KINDS",
    "CRASH_EXIT_CODE",
    "FaultError",
    "FaultSpec",
    "FaultPlan",
    "parse_fault_plan",
    "get_plan",
    "install_plan",
    "clear_plan",
    "set_round",
    "current_round",
    "kill_pool_worker",
    "pool_sabotage",
    "hard_crash",
]

#: Environment variable carrying the installed plan into worker processes.
ENV_VAR = "REPRO_FAULTS"

#: Exit code of a scripted ``crash-run`` (distinguishable from a Python
#: traceback's exit 1 and a SIGKILL's -9 in tests and CI).
CRASH_EXIT_CODE = 13

#: ``kind -> allowed argument names`` of the fault vocabulary.
FAULT_KINDS: Dict[str, frozenset] = {
    "kill-region-worker": frozenset({"round"}),
    "kill-pool-worker": frozenset({"round"}),
    "drop-outcome": frozenset({"round"}),
    "slow-oracle": frozenset({"ms"}),
    "crash-run": frozenset({"round"}),
}


class FaultError(ValueError):
    """A fault spec string could not be parsed."""


@dataclass
class FaultSpec:
    """One scripted fault: a kind plus its (validated) arguments.

    ``round`` is 1-based (``None`` = the first opportunity); ``fired``
    is the one-shot latch of round-scoped faults.  ``slow-oracle`` is
    continuous and never latches (``counted`` only gates its metrics so
    the per-net sleep does not flood the counters).
    """

    kind: str
    round: Optional[int] = None
    ms: float = 0.0
    fired: bool = field(default=False, compare=False)
    counted: bool = field(default=False, compare=False)

    def describe(self) -> str:
        """The spec back as parseable text (the env round-trip format)."""
        args = []
        if self.round is not None:
            args.append(f"round={self.round}")
        if self.kind == "slow-oracle":
            args.append(f"ms={self.ms:g}")
        return self.kind + (":" + ",".join(args) if args else "")


def _parse_spec(chunk: str) -> FaultSpec:
    kind, _, arg_text = chunk.partition(":")
    allowed = FAULT_KINDS.get(kind)
    if allowed is None:
        raise FaultError(f"unknown fault {kind!r}; available: {sorted(FAULT_KINDS)}")
    args: Dict[str, str] = {}
    if arg_text:
        for pair in arg_text.split(","):
            name, sep, value = pair.partition("=")
            if not sep or not name or not value:
                raise FaultError(f"malformed fault argument {pair!r} in {chunk!r}")
            if name not in allowed:
                raise FaultError(
                    f"fault {kind!r} does not take {name!r} (allowed: {sorted(allowed)})"
                )
            args[name] = value
    round_number: Optional[int] = None
    if "round" in args:
        try:
            round_number = int(args["round"])
        except ValueError as exc:
            raise FaultError(f"fault round must be an integer: {chunk!r}") from exc
        if round_number < 1:
            raise FaultError(f"fault rounds are 1-based: {chunk!r}")
    ms = 0.0
    if kind == "slow-oracle":
        if "ms" not in args:
            raise FaultError("slow-oracle requires ms=N (e.g. slow-oracle:ms=50)")
        try:
            ms = float(args["ms"])
        except ValueError as exc:
            raise FaultError(f"fault ms must be a number: {chunk!r}") from exc
        if ms < 0:
            raise FaultError(f"fault ms must be non-negative: {chunk!r}")
    return FaultSpec(kind=kind, round=round_number, ms=ms)


def parse_fault_plan(text: str) -> "FaultPlan":
    """Parse a plan from spec text (``;``/whitespace-separated specs)."""
    specs = [_parse_spec(chunk) for chunk in re.split(r"[;\s]+", text.strip()) if chunk]
    if not specs:
        raise FaultError("empty fault plan")
    return FaultPlan(specs)


class FaultPlan:
    """A parsed set of scripted faults, queried at the choke points.

    Thread-safe: the serve daemon runs jobs on a thread pool, and a
    one-shot fault must fire exactly once across all of them.
    """

    def __init__(self, specs: Sequence[FaultSpec]) -> None:
        self.specs: List[FaultSpec] = list(specs)
        self._lock = threading.Lock()

    def describe(self) -> str:
        """The whole plan as parseable text (see :data:`ENV_VAR`)."""
        return ";".join(spec.describe() for spec in self.specs)

    def __repr__(self) -> str:
        return f"FaultPlan({self.describe()!r})"

    # ------------------------------------------------------------- queries
    def should(self, kind: str, round_index: Optional[int] = None) -> bool:
        """Whether a ``kind`` fault fires at this choke point (one-shot).

        ``round_index`` is the 0-based round of the choke point; specs
        carry 1-based rounds.  A spec without a round fires at the first
        opportunity.  Firing latches the spec and reports itself
        (counters, bus event, WARNING log).
        """
        with self._lock:
            for spec in self.specs:
                if spec.kind != kind or spec.fired:
                    continue
                if spec.round is not None:
                    if round_index is None or round_index + 1 != spec.round:
                        continue
                spec.fired = True
                _report_fired(spec, round_index)
                return True
        return False

    def delay_ms(self, kind: str = "slow-oracle") -> float:
        """The continuous delay of ``kind`` in ms (0.0 when not planned)."""
        for spec in self.specs:
            if spec.kind == kind:
                if not spec.counted:
                    with self._lock:
                        if not spec.counted:
                            spec.counted = True
                            _report_fired(spec, None)
                return spec.ms
        return 0.0

    def sleep(self, kind: str = "slow-oracle") -> None:
        """Honor a continuous delay fault (no-op when not planned)."""
        ms = self.delay_ms(kind)
        if ms > 0:
            import time

            time.sleep(ms / 1000.0)


def _report_fired(spec: FaultSpec, round_index: Optional[int]) -> None:
    obs.inc("fault.injected")
    obs.inc(f"fault.injected.{spec.kind}")
    payload: Dict[str, object] = {"kind": spec.kind}
    if round_index is not None:
        payload["round"] = round_index + 1
    if spec.kind == "slow-oracle":
        payload["ms"] = spec.ms
    obs.publish("fault", **payload)
    obs.get_logger("faults").warning(
        "injecting fault %s", spec.describe(), extra={"fault": spec.describe()}
    )


# --------------------------------------------------------------------------
# The installed plan.  Mirrors the tracer's module-global pattern; the env
# mirror is what makes the plan reach spawned/forked pool workers.
# --------------------------------------------------------------------------

_PLAN: Optional[FaultPlan] = None
_ENV_CHECKED = False

#: The 0-based round the parent flow is currently routing (set by
#: :meth:`repro.router.router.GlobalRouter.run`); choke points that do not
#: receive the round explicitly (the engine's batch path) read it here.
_ROUND: Optional[int] = None


def get_plan() -> Optional[FaultPlan]:
    """The installed plan, or ``None`` (the common, zero-cost case).

    The first call of a process consults :data:`ENV_VAR`, which is how a
    plan installed in the CLI parent reaches pool workers under every
    multiprocessing start method.
    """
    global _ENV_CHECKED, _PLAN
    if not _ENV_CHECKED:
        _ENV_CHECKED = True
        if _PLAN is None:
            text = os.environ.get(ENV_VAR)
            if text:
                _PLAN = parse_fault_plan(text)
    return _PLAN


def install_plan(plan) -> FaultPlan:
    """Install a plan (object or spec text) process-wide and return it.

    The plan is mirrored into :data:`ENV_VAR` so worker processes started
    *after* this call observe it too.  Install before creating pools.
    """
    global _PLAN, _ENV_CHECKED
    if isinstance(plan, str):
        plan = parse_fault_plan(plan)
    _PLAN = plan
    _ENV_CHECKED = True
    os.environ[ENV_VAR] = plan.describe()
    return plan


def clear_plan() -> None:
    """Remove the installed plan (and its env mirror)."""
    global _PLAN, _ENV_CHECKED, _ROUND
    _PLAN = None
    _ENV_CHECKED = True
    _ROUND = None
    os.environ.pop(ENV_VAR, None)


def set_round(round_index: Optional[int]) -> None:
    """Record the 0-based round the flow is currently routing."""
    global _ROUND
    _ROUND = round_index


def current_round() -> Optional[int]:
    """The 0-based round last recorded by :func:`set_round`."""
    return _ROUND


# --------------------------------------------------------------------------
# Fault actions (called by the choke points once ``should`` fired).
# --------------------------------------------------------------------------


def kill_pool_worker(pool) -> Optional[int]:
    """SIGKILL one live worker of a ``multiprocessing`` pool.

    Returns the victim's pid, or ``None`` when the pool has no live
    workers (the fault then degenerates to a no-op, which is fine -- the
    collection loop it was meant to exercise still runs).
    """
    for process in list(getattr(pool, "_pool", None) or []):
        if process.exitcode is None and process.pid is not None:
            os.kill(process.pid, signal.SIGKILL)
            return process.pid
    return None


def pool_sabotage(kind: str, round_index: Optional[int]):
    """The ``sabotage`` hook of a pool dispatch: :func:`kill_pool_worker`
    when a ``kind`` fault fires at this choke point, else ``None``."""
    plan = get_plan()
    if plan is not None and plan.should(kind, round_index):
        return kill_pool_worker
    return None


def hard_crash(round_index: Optional[int] = None) -> None:
    """Exit the process the way a crash would: no cleanup, no teardown.

    ``os._exit`` skips ``atexit``/``finally`` on purpose -- the point of
    the ``crash-run`` fault is proving that the *durably written* state
    (the checkpoint renamed into place before this choke) is enough to
    resume, not that an orderly shutdown is.
    """
    obs.get_logger("faults").warning("crash-run fault: hard-exiting with code %d", CRASH_EXIT_CODE)
    os._exit(CRASH_EXIT_CODE)
