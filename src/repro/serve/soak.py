"""ECO-stream endurance ("soak") harness: chaos in, parity out.

``python -m repro soak`` replays one seeded ECO stream (see
:mod:`repro.instances.eco_stream`) twice against the same design:

* a **clean** run -- same decomposition, serial region execution, no
  faults -- which defines the ground truth, and
* a **chaos** run -- region worker pool plus whatever fault plan
  ``--inject`` installs (killed workers, dropped outcomes, slowed
  oracles) -- which must not be allowed to matter.

After the initial route and after every ECO batch the harness compares
the two runs' :data:`~repro.router.metrics.PARITY_FIELDS`, and at the end
of the stream it compares the per-net embedded trees edge for edge.  Any
difference is a recovery bug: the fault subsystem's contract is that an
injected fault may cost walltime but never changes a bit of the result.

The report is one JSON document on stdout (or ``--output``); the exit
status is 0 only when every comparison matched, so CI can run this as a
single assertion.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro import faults, obs
from repro.argtypes import positive_int
from repro.instances.chips import CHIP_SUITE, build_chip
from repro.instances.eco_stream import EcoStreamConfig, generate_eco_stream
from repro.router.metrics import PARITY_FIELDS, RoutingResult
from repro.router.oracles import ORACLES, make_oracle
from repro.router.router import GlobalRouterConfig
from repro.serve.session import RoutingSession

__all__ = ["build_parser", "run_soak", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro soak",
        description=(
            "Replay a seeded ECO stream against a clean session and a "
            "fault-injected sharded session; assert bit-identical results."
        ),
    )
    parser.add_argument(
        "--chip",
        default="c1",
        choices=[spec.name for spec in CHIP_SUITE],
        help="chip of the synthetic suite",
    )
    parser.add_argument("--oracle", default="CD", choices=sorted(ORACLES), help="Steiner oracle")
    parser.add_argument(
        "--net-scale",
        type=float,
        default=0.15,
        help="scale factor on the chip's net count",
    )
    parser.add_argument("--rounds", type=positive_int, default=2, help="resource-sharing rounds")
    parser.add_argument("--seed", type=int, default=0, help="routing seed")
    parser.add_argument("--ops", type=positive_int, default=60, help="total ECO operations")
    parser.add_argument(
        "--batch-size",
        type=positive_int,
        default=5,
        help="ECO operations per request",
    )
    parser.add_argument(
        "--stream-seed",
        type=int,
        default=None,
        help="ECO stream seed (default: --seed)",
    )
    parser.add_argument(
        "--shards",
        type=positive_int,
        default=2,
        help="regions of the chaos run's decomposition (the clean run reuses it serially)",
    )
    parser.add_argument(
        "--shard-workers",
        type=positive_int,
        default=2,
        help="region worker processes of the chaos run",
    )
    parser.add_argument("--shard-halo", type=int, default=0, help="interior/seam halo tiles")
    parser.add_argument(
        "--inject",
        action="append",
        default=None,
        metavar="SPEC",
        help=(
            "fault plan of the chaos run, e.g. 'kill-region-worker:round=2' "
            "or 'slow-oracle:ms=5'; repeatable (see repro.faults)"
        ),
    )
    parser.add_argument(
        "--output",
        "-o",
        default=None,
        metavar="PATH",
        help="write the JSON report here instead of stdout",
    )
    return parser


def _session_config(args: argparse.Namespace, shard_workers: Optional[int]) -> GlobalRouterConfig:
    return GlobalRouterConfig(
        num_rounds=args.rounds,
        seed=args.seed,
        shards=args.shards,
        shard_halo=args.shard_halo,
        shard_workers=shard_workers,
    )


def _tree_signature(session: RoutingSession) -> Dict[str, Optional[Tuple]]:
    """Per-net ``name -> (root, sinks, edges)`` of the session's trees."""
    router = session.router
    assert router is not None
    signature: Dict[str, Optional[Tuple]] = {}
    for net, tree in zip(session.netlist.nets, router.trees):
        if tree is None:
            signature[net.name] = None
        else:
            signature[net.name] = (int(tree.root), tuple(tree.sinks), tuple(tree.edges))
    return signature


def _replay(
    session: RoutingSession, batches: List[List[Dict[str, object]]], label: str
) -> Tuple[List[RoutingResult], float]:
    """Initial route plus the whole stream; per-flow terminal results."""
    logger = obs.get_logger("serve.soak")
    start = time.perf_counter()
    results = [session.route()]
    for index, batch in enumerate(batches):
        report = session.apply_eco(batch)
        results.append(report.result)
        logger.info(
            "%s: batch %d/%d (%d ops) rerouted=%d reused=%d",
            label,
            index + 1,
            len(batches),
            len(batch),
            report.nets_rerouted,
            report.nets_reused,
        )
    return results, time.perf_counter() - start


def run_soak(args: argparse.Namespace) -> Dict[str, object]:
    """Run the endurance comparison and return the report document."""
    spec = next(s for s in CHIP_SUITE if s.name == args.chip)
    if args.net_scale != 1.0:
        spec = spec.scaled(args.net_scale)
    graph, netlist = build_chip(spec)
    stream_seed = args.seed if args.stream_seed is None else args.stream_seed
    batches = generate_eco_stream(
        netlist,
        graph,
        EcoStreamConfig(ops=args.ops, batch_size=args.batch_size, seed=stream_seed),
    )
    plan_text = ";".join(args.inject) if args.inject else ""

    faults.clear_plan()
    clean = RoutingSession(graph, netlist, make_oracle(args.oracle), _session_config(args, None))
    clean_results, clean_walltime = _replay(clean, batches, "clean")

    if plan_text:
        faults.install_plan(plan_text)
    try:
        chaos = RoutingSession(
            graph,
            netlist,
            make_oracle(args.oracle),
            _session_config(args, args.shard_workers),
        )
        chaos_results, chaos_walltime = _replay(chaos, batches, "chaos")
    finally:
        faults.clear_plan()

    mismatches: List[Dict[str, object]] = []
    for flow, (want, got) in enumerate(zip(clean_results, chaos_results)):
        for name in PARITY_FIELDS:
            expected = getattr(want, name)
            actual = getattr(got, name)
            if expected != actual:
                mismatches.append({"flow": flow, "field": name, "clean": expected, "chaos": actual})
    clean_trees = _tree_signature(clean)
    chaos_trees = _tree_signature(chaos)
    tree_diff = sorted(
        name
        for name in set(clean_trees) | set(chaos_trees)
        if clean_trees.get(name) != chaos_trees.get(name)
    )
    if tree_diff:
        mismatches.append({"flow": len(clean_results) - 1, "trees": tree_diff})

    snapshot = obs.default_registry().snapshot()
    chaos_counters = {
        name: value
        for name, value in snapshot.get("counters", {}).items()  # type: ignore[union-attr]
        if name.startswith(("fault.", "recovery."))
    }
    return {
        "chip": spec.name,
        "nets": netlist.num_nets,
        "oracle": args.oracle,
        "rounds": args.rounds,
        "seed": args.seed,
        "stream_seed": stream_seed,
        "ops": args.ops,
        "batches": len(batches),
        "shards": args.shards,
        "shard_workers": args.shard_workers,
        "inject": plan_text,
        "flows": len(clean_results),
        "clean_walltime": clean_walltime,
        "chaos_walltime": chaos_walltime,
        "fault_counters": chaos_counters,
        "parity": not mismatches,
        "mismatches": mismatches,
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    report = run_soak(args)
    document = json.dumps(report, indent=2, default=float)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document + "\n")
    else:
        print(document)
    if not report["parity"]:
        print(
            f"soak FAILED: {len(report['mismatches'])} mismatch(es) between clean and chaos runs",
            file=sys.stderr,
        )
        return 1
    print(
        f"soak OK: {report['flows']} flows ({report['ops']} ECO ops) "
        "bit-identical under fault plan "
        f"{report['inject'] or '<none>'}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
