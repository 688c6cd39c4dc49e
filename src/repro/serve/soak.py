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

from dataclasses import replace

from repro import faults, obs
from repro.flowparams import (
    POSITIVE_INT,
    add_flow_arguments,
    add_process_arguments,
    build_flow,
    flow_params,
    process_context,
)
from repro.instances.chips import build_chip
from repro.instances.eco_stream import EcoStreamConfig, generate_eco_stream
from repro.router.metrics import PARITY_FIELDS, RoutingResult
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
    # A deliberately small instance and a pooled 2-region chaos run: these
    # three defaults are soak's own; everything else is the table's.
    add_flow_arguments(
        parser,
        ("chip", "oracle", "net_scale", "rounds", "seed", "shards", "shard_workers", "shard_halo"),
        defaults={"net_scale": 0.15, "shards": 2, "shard_workers": 2},
    )
    parser.add_argument(
        "--ops", type=POSITIVE_INT.from_text, default=60, help="total ECO operations"
    )
    parser.add_argument(
        "--batch-size",
        type=POSITIVE_INT.from_text,
        default=5,
        help="ECO operations per request",
    )
    parser.add_argument(
        "--stream-seed",
        type=int,
        default=None,
        help="ECO stream seed (default: --seed)",
    )
    add_process_arguments(parser, tracing=False)
    parser.add_argument(
        "--output",
        "-o",
        default=None,
        metavar="PATH",
        help="write the JSON report here instead of stdout",
    )
    return parser


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
    spec, oracle, config = build_flow(flow_params(args))
    graph, netlist = build_chip(spec)
    stream_seed = config.seed if args.stream_seed is None else args.stream_seed
    batches = generate_eco_stream(
        netlist,
        graph,
        EcoStreamConfig(ops=args.ops, batch_size=args.batch_size, seed=stream_seed),
    )

    # The clean run: same decomposition, serial regions, no faults (not
    # even a plan inherited through the environment).  Oracles hold only
    # configuration, so both sessions share one.
    faults.clear_plan()
    clean = RoutingSession(graph, netlist, oracle, replace(config, shard_workers=None))
    clean_results, clean_walltime = _replay(clean, batches, "clean")

    with process_context(args):  # the --inject plan covers the chaos run only
        chaos = RoutingSession(graph, netlist, oracle, config)
        chaos_results, chaos_walltime = _replay(chaos, batches, "chaos")

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
        "oracle": oracle.name,
        "rounds": config.num_rounds,
        "seed": config.seed,
        "stream_seed": stream_seed,
        "ops": args.ops,
        "batches": len(batches),
        "shards": config.shards,
        "shard_workers": config.shard_workers,
        "inject": ";".join(args.inject or ()),
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
