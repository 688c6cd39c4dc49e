"""The ledger's four workloads.

Every workload makes its inputs from the seed, runs operations against the
program's public API, and checks what came back.  The program only ever
sees generated graphs, netlists, ECO ops and job parameters.

Why the seed perturbs a stock design instead of re-drawing it: a router is
chaotic in its input (moving a tenth of the pins by one tile moves the
route time of ``dense_route`` by +-10%), and re-drawing the netlist moves
it by +-15% and the worst slack tenfold.  The benchmark's bounds are
tighter than that, so the seed keeps the design (net sizes, clustering,
timing stages) and re-legalises every sink by at most one tile, each
operation of a run gets its own such instance, and timings are reported
over all operations of the run.
"""

from __future__ import annotations

import gc
import os
import random
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.cost_distance import CostDistanceSolver
from repro.grid.congestion import CongestionMap
from repro.grid.graph import RoutingGraph
from repro.instances.chips import CHIP_SUITE, build_chip, large_chip, smoke_chip
from repro.instances.eco import MovePin, apply_eco
from repro.router.metrics import PARITY_FIELDS, RoutingResult
from repro.router.netlist import Netlist
from repro.router.router import GlobalRouter, GlobalRouterConfig
from repro.serve.client import ServeClient
from repro.serve.daemon import ServeDaemon
from repro.serve.jobs import JobState
from repro.serve.session import RoutingSession

from .layers import median, percentile

Stop = Callable[[int], bool]
Check = Tuple[str, bool]


@dataclass(frozen=True)
class Scale:
    """Instance sizes and operation counts of the four workloads.

    ``FULL`` is what the benchmark measures.  ``SMOKE`` exists only so the
    tier-1 smoke test can drive every code path in seconds.
    """

    dense: Callable[[], Tuple[RoutingGraph, Netlist]]
    xl: Callable[[], Tuple[RoutingGraph, Netlist]]
    shards: int
    rounds: int
    job: Dict[str, object]
    #: Operations a run measures at least, however short ``--seconds`` is.
    min_ops: Dict[str, int]
    #: Operations of the traced pass (fixed, so count metrics repeat exactly).
    traced_ops: Dict[str, int]
    setup_reps: Dict[str, int]
    #: Work per micro-benchmark.
    micro_seconds: float
    #: Pings timed against the idle daemon.
    pings: int
    #: Repetitions of the host calibration loop (the fastest counts).
    calib_reps: int


FULL = Scale(
    dense=lambda: build_chip(CHIP_SUITE[-1]),
    xl=lambda: large_chip(1.0),
    shards=4,
    rounds=3,
    job={"chip": "c1", "net_scale": 0.2, "rounds": 1},
    min_ops={"dense_route": 2, "xl_shard_route": 3, "eco_local_xl": 10, "serve_jobs": 100},
    traced_ops={"dense_route": 1, "xl_shard_route": 1, "eco_local_xl": 5, "serve_jobs": 60},
    setup_reps={"dense_route": 15, "xl_shard_route": 9, "eco_local_xl": 3, "serve_jobs": 9},
    micro_seconds=1.0,
    pings=200,
    calib_reps=5,
)

SMOKE = Scale(
    dense=lambda: build_chip(smoke_chip(0.2)),
    xl=lambda: build_chip(smoke_chip(0.2)),
    shards=2,
    rounds=2,
    job={"chip": "c1", "net_scale": 0.2, "rounds": 1},
    min_ops={"dense_route": 1, "xl_shard_route": 1, "eco_local_xl": 2, "serve_jobs": 4},
    traced_ops={"dense_route": 1, "xl_shard_route": 1, "eco_local_xl": 1, "serve_jobs": 2},
    setup_reps={"dense_route": 1, "xl_shard_route": 1, "eco_local_xl": 1, "serve_jobs": 1},
    micro_seconds=0.01,
    pings=5,
    calib_reps=1,
)


def time_box(seconds: float, min_ops: int) -> Stop:
    """Stop once ``seconds`` have passed and ``min_ops`` operations ran."""
    deadline = time.perf_counter() + seconds
    return lambda done: done >= min_ops and time.perf_counter() >= deadline


def fixed_ops(count: int) -> Stop:
    return lambda done: done >= count


@dataclass
class Op:
    """One measured operation."""

    seconds: float
    ok: bool
    #: ``time.time()`` window of the operation; trace events carry the same
    #: clock, which is how the traced pass assigns them to operations.
    wall: Tuple[float, float]
    result: Optional[RoutingResult] = None
    info: Dict[str, object] = field(default_factory=dict)


def _rng(*parts: object) -> random.Random:
    # A string seed is hashed with SHA-512, so streams are stable across
    # processes and Python hash randomisation.
    return random.Random(":".join(str(p) for p in parts))


def _nudged(graph: RoutingGraph, position, rng: random.Random) -> Tuple[int, int]:
    x = min(graph.nx - 1, max(0, position.x + rng.choice((-1, 0, 1))))
    y = min(graph.ny - 1, max(0, position.y + rng.choice((-1, 0, 1))))
    return x, y


def jittered(graph: RoutingGraph, netlist: Netlist, rng: random.Random) -> Netlist:
    """``netlist`` with every sink moved by -1, 0 or +1 tiles in x and y."""
    ops = []
    for net in netlist.nets:
        for pin in net.sinks:
            x, y = _nudged(graph, pin.position, rng)
            ops.append(MovePin(net.name, pin.name, x, y, pin.position.layer))
    return apply_eco(netlist, ops).netlist


def trees_valid(graph: RoutingGraph, netlist: Netlist, router: GlobalRouter) -> bool:
    """Every tree spans its net's terminals, and the congestion map holds
    exactly the usage of those trees."""
    fresh = CongestionMap(graph)
    for index, tree in enumerate(router.trees):
        if tree is None:
            return False
        root, sinks = netlist.net_terminals(graph, index)
        try:
            tree.validate(root, sinks)
        except ValueError:
            return False
        fresh.add_usage(tree.edges)
    return bool(np.allclose(fresh.usage, router.congestion.usage, rtol=0.0, atol=1e-9))


def parity(a: RoutingResult, b: RoutingResult) -> bool:
    return all(getattr(a, f) == getattr(b, f) for f in PARITY_FIELDS)


class Workload:
    """What the harness drives: ``setup`` (timed), ``run_ops`` until a stop
    rule says so, ``checks`` on what came back, ``own_layers`` for the
    per-layer metrics only this workload has, and ``subject``, a finished
    router for the micro-benchmarks."""

    #: Whether operation ``k`` can run twice with the same outcome; if so the
    #: traced pass repeats the plain pass's operations, else it continues.
    stateless = False

    def __init__(self, name: str, seed: int, scale: Scale, workdir: str) -> None:
        self.name = name
        self.seed = seed
        self.scale = scale
        self.workdir = workdir

    def teardown(self) -> None:
        pass

    def checks(self, ops: List[Op]) -> List[Check]:
        return []

    def own_layers(
        self, plain: List[Op], traced: List[Op], nets: List[Dict[str, object]]
    ) -> Tuple[Dict[str, float], List[Check]]:
        return {}, []


class RouteWorkload(Workload):
    """Cold ``GlobalRouter(...).run()`` per operation, one caller."""

    stateless = True

    def __init__(self, name: str, seed: int, scale: Scale, workdir: str) -> None:
        super().__init__(name, seed, scale, workdir)
        dense = name == "dense_route"
        self._build = scale.dense if dense else scale.xl
        # dense: bifurcation penalties on (Table V regime), unsharded.
        # xl: penalties off (Table IV regime), sharded, serial regions.
        self.config = GlobalRouterConfig(
            num_rounds=scale.rounds,
            dbif=None if dense else 0.0,
            shards=1 if dense else scale.shards,
        )
        self.router: Optional[GlobalRouter] = None

    def setup(self) -> None:
        self.graph, self.stock = self._build()
        self.first = self.instance(0)

    def instance(self, k: int) -> Netlist:
        return jittered(self.graph, self.stock, _rng(self.name, self.seed, k))

    def route(self, netlist: Netlist, config: GlobalRouterConfig) -> Op:
        gc.collect()
        wall = time.time()
        started = time.perf_counter()
        router = GlobalRouter(self.graph, netlist, CostDistanceSolver(), config)
        constructed = time.perf_counter()
        result = router.run()
        seconds = time.perf_counter() - started
        self.router = router
        return Op(
            seconds,
            trees_valid(self.graph, netlist, router),
            (wall, time.time()),
            result,
            {
                "construct_s": constructed - started,
                "rounds": router.series.samples(),
                "period": netlist.clock_period,
            },
        )

    def run_ops(self, stop: Stop, start: int = 0) -> List[Op]:
        ops: List[Op] = []
        while not stop(len(ops)):
            k = start + len(ops)
            ops.append(self.route(self.first if k == 0 else self.instance(k), self.config))
        return ops

    def own_layers(self, plain, traced, nets):
        """Sharded only: the same instance once more on a two-worker region
        pool, over the serial-region time (informational: it decides
        whether the pool backend earns its keep)."""
        if self.config.shards == 1:
            return {}, []
        serial = self.router
        pooled = self.route(self.first, replace(self.config, shard_workers=2))
        self.router = serial
        same = pooled.ok and parity(pooled.result, plain[0].result)
        return {"shard.pool_ratio": pooled.seconds / plain[0].seconds}, [
            ("pooled_matches_serial", same)
        ]

    def subject(self) -> GlobalRouter:
        return self.router


class EcoWorkload(Workload):
    """A sharded ``RoutingSession``: cold route in set-up, then batches of
    two one-tile pin moves through ``apply_eco``; closed loop, one caller."""

    def __init__(self, name: str, seed: int, scale: Scale, workdir: str) -> None:
        super().__init__(name, seed, scale, workdir)
        self.config = GlobalRouterConfig(
            num_rounds=scale.rounds, dbif=0.0, shards=scale.shards
        )

    def setup(self) -> None:
        self.graph, stock = self.scale.xl()
        netlist = jittered(self.graph, stock, _rng(self.name, self.seed, "design"))
        self.session = RoutingSession(self.graph, netlist, CostDistanceSolver(), self.config)
        self.session.route()

    def batch(self, k: int) -> List[MovePin]:
        rng = _rng(self.name, self.seed, "eco", k)
        ops = []
        for _ in range(2):
            net = rng.choice(self.session.netlist.nets)
            pin = rng.choice(net.sinks)
            x, y = _nudged(self.graph, pin.position, rng)
            ops.append(MovePin(net.name, pin.name, x, y, pin.position.layer))
        return ops

    def run_ops(self, stop: Stop, start: int = 0) -> List[Op]:
        ops: List[Op] = []
        while not stop(len(ops)):
            batch = self.batch(start + len(ops))
            gc.collect()
            wall = time.time()
            started = time.perf_counter()
            try:
                report = self.session.apply_eco(batch)
            except Exception as exc:  # a batch that raises is a failed operation
                seconds = time.perf_counter() - started
                ops.append(Op(seconds, False, (wall, time.time()), info={"error": repr(exc)}))
                continue
            seconds = time.perf_counter() - started
            ops.append(
                Op(
                    seconds,
                    trees_valid(self.graph, self.session.netlist, self.session.router),
                    (wall, time.time()),
                    report.result,
                    {
                        "nets_rerouted": report.nets_rerouted,
                        "nets_reused": report.nets_reused,
                        "rounds": self.session.series.samples(),
                        "period": self.session.netlist.clock_period,
                    },
                )
            )
        return ops

    def checks(self, ops: List[Op]) -> List[Check]:
        """The replayed state must equal a cold route of the edited netlist."""
        cold = GlobalRouter(
            self.graph, self.session.netlist, CostDistanceSolver(), self.session.config
        ).run()
        return [("eco_matches_cold_route", parity(cold, self.session.last_result))]

    def own_layers(self, plain, traced, nets):
        done = [op for op in traced if op.ok]
        # A batch's latency minus the oracle time of the nets it re-routed:
        # what replaying costs (delta, memo remap, signatures, subgraphs, STA).
        overheads = [
            op.seconds
            - sum(
                float(event["attrs"]["seconds"])
                for event in nets
                if op.wall[0] <= float(event["time"]) <= op.wall[1]
            )
            for op in done
        ]
        rerouted = sum(op.info["nets_rerouted"] for op in done)
        reused = sum(op.info["nets_reused"] for op in done)
        return {
            "serve.session.batch_p75_ms": percentile([op.seconds for op in done], 75) * 1e3,
            "serve.session.replay_overhead_ms_p50": median(overheads) * 1e3,
            "serve.session.reuse_fraction": reused / (reused + rerouted) if done else 0.0,
            "serve.session.nets_rerouted": float(rerouted),
        }, []

    def subject(self) -> GlobalRouter:
        return self.session.router


class ServeWorkload(Workload):
    """An in-process ``ServeDaemon`` with two job workers and two closed-loop
    clients (= ``nproc`` of the reference box): submit a tiny route job,
    poll ``status`` every 2 ms, fetch ``result``; every tenth iteration also
    reads ``metrics``, ``health`` and ``history``."""

    CLIENTS = 2
    POLL_SECONDS = 0.002

    def __init__(self, name: str, seed: int, scale: Scale, workdir: str) -> None:
        super().__init__(name, seed, scale, workdir)
        self.daemon: Optional[ServeDaemon] = None
        self._setups = 0
        #: Every job routes the same chip; its clock period turns a job's
        #: worst slack into the critical path delay.
        self.period = self.chip()[1].clock_period
        self._cpus = os.sched_getaffinity(0)

    def setup(self) -> None:
        """Daemon start to the first job served (so that lazy start-up
        work, now or after a later change, counts as set-up)."""
        self._setups += 1
        # One CPU for the daemon and its clients (threads inherit it).  The
        # GIL serialises them anyway, and hand-offs between the vCPUs of a
        # shared VM made identical runs wander by +-20% over minutes.
        os.sched_setaffinity(0, {max(self._cpus)})
        state_dir = os.path.join(self.workdir, f"serve-state-{self._setups}")
        self.daemon = ServeDaemon(port=0, job_workers=self.CLIENTS, state_dir=state_dir)
        host, port = self.daemon.start()
        self.client = ServeClient(host, port)
        self.client.wait_until_up()
        self.job(-1, 0)

    def teardown(self) -> None:
        if self.daemon is not None:
            self.daemon.shutdown()
            self.daemon = None
        os.sched_setaffinity(0, self._cpus)

    def params(self, k: int) -> Dict[str, object]:
        return dict(self.scale.job, seed=_rng(self.name, self.seed, k).randrange(2**31))

    def job(self, k: int, iteration: int) -> Op:
        client = self.client
        params = self.params(k)
        wall = time.time()
        started = time.perf_counter()
        job_id = client.submit_route(**params)
        submitted = time.perf_counter()
        polls = 1
        while client.status(job_id)["status"] not in JobState.TERMINAL:
            polls += 1
            time.sleep(self.POLL_SECONDS)
        record = client.result(job_id)
        seconds = time.perf_counter() - started
        done = record["status"] == JobState.DONE
        if iteration % 10 == 9:
            client.metrics()
            client.health()
            client.history(job_id)
        return Op(
            seconds,
            done,
            (wall, time.time()),
            RoutingResult.from_dict(record["result"]["result"]) if done else None,
            {
                "k": k,
                "submit_s": submitted - started,
                "polls": polls,
                "duration_s": record["duration_seconds"],
                "period": self.period,
            },
        )

    def run_ops(self, stop: Stop, start: int = 0) -> List[Op]:
        ops: List[Op] = []
        lock = threading.Lock()
        claimed = 0

        def claim() -> Optional[int]:
            nonlocal claimed
            with lock:
                if stop(claimed):
                    return None
                claimed += 1
                return start + claimed - 1

        def client_loop() -> None:
            iteration = 0
            while (k := claim()) is not None:
                try:
                    op = self.job(k, iteration)
                except Exception as exc:  # a job the daemon refused or lost
                    now = time.time()
                    op = Op(0.0, False, (now, now), info={"k": k, "error": repr(exc)})
                with lock:
                    ops.append(op)
                iteration += 1

        threads = [threading.Thread(target=client_loop) for _ in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ops.sort(key=lambda op: op.info["k"])
        return ops

    def chip(self) -> Tuple[RoutingGraph, Netlist]:
        """The jobs' chip, built the way the daemon reads ``chip``/``net_scale``."""
        spec = next(s for s in CHIP_SUITE if s.name == self.scale.job["chip"])
        return build_chip(spec.scaled(float(self.scale.job["net_scale"])))

    def reroute(self, k: int) -> Tuple[RoutingResult, GlobalRouter]:
        """Job ``k`` routed in-process, the way the daemon reads its params."""
        params = self.params(k)
        config = GlobalRouterConfig(num_rounds=int(params["rounds"]), seed=int(params["seed"]))
        router = GlobalRouter(*self.chip(), CostDistanceSolver(), config)
        return router.run(), router

    def checks(self, ops: List[Op]) -> List[Check]:
        """Three sampled jobs, re-routed in-process, must match the daemon's
        records on every parity field."""
        done = [op for op in ops if op.ok]
        picks = (done[0], done[len(done) // 2], done[-1]) if done else ()
        sampled = {op.info["k"]: op for op in picks}
        matches = []
        for k, op in sampled.items():
            local, router = self.reroute(k)
            matches.append(
                parity(local, op.result) and trees_valid(router.graph, router.netlist, router)
            )
        return [("serve_matches_local_route", bool(matches) and all(matches))]

    def own_layers(self, plain, traced, nets):
        pings = []
        for _ in range(self.scale.pings):  # the daemon is idle by now
            started = time.perf_counter()
            self.client.ping()
            pings.append(time.perf_counter() - started)
        done = [op for op in traced if op.ok]
        return {
            "serve.daemon.job_p95_ms": percentile([op.seconds for op in done], 95) * 1e3,
            "serve.daemon.ping_us_p50": median(pings) * 1e6,
            "serve.daemon.submit_ms_p50": median([op.info["submit_s"] for op in done]) * 1e3,
            "serve.daemon.route_ms_p50": median([op.info["duration_s"] for op in done]) * 1e3,
            "serve.daemon.job_overhead_ms_p50": median(
                [op.seconds - op.info["duration_s"] for op in done]
            )
            * 1e3,
            "serve.daemon.polls_per_job": (
                sum(op.info["polls"] for op in done) / len(done) if done else 0.0
            ),
        }, []

    def subject(self) -> GlobalRouter:
        return self.reroute(0)[1]


WORKLOADS = {
    "dense_route": RouteWorkload,
    "xl_shard_route": RouteWorkload,
    "eco_local_xl": EcoWorkload,
    "serve_jobs": ServeWorkload,
}


def make_workload(name: str, seed: int, scale: Scale, workdir: str):
    return WORKLOADS[name](name, seed, scale, workdir)
