"""Command-line entry point: one-shot routing plus service subcommands.

The flat flag form routes one chip of the synthetic suite and prints the
Table IV/V style result row; the subcommand form talks to the routing
service (:mod:`repro.serve`).  The flow flags (``--chip`` ... ``--shard-parity``)
and the process flags (``--trace`` / ``--log-level`` / ``--inject``) are
declared once, in :mod:`repro.flowparams`; ``--help`` lists them.

Examples (README "Command-line flags" lists every flag once)::

    python -m repro --chip c3 --oracle L1 --rounds 3
    python -m repro route --chip c8 --shards 4 --shard-workers 2
    python -m repro --chip c2 --checkpoint run.ckpt --checkpoint-every 2 --resume
    python -m repro --list-chips

    python -m repro serve --port 8642
    python -m repro submit --chip c1 --net-scale 0.2 --session s1 --wait
    python -m repro eco --session s1 --ops '[{"op": "move_pin", ...}]' --wait
    python -m repro status --all    # also: watch / history / result JOB_ID, health, metrics
    python -m repro trace summarize run.trace
    python -m repro soak --chip c1 --ops 60 --shards 2 --inject "kill-region-worker:round=2"
    python -m repro shutdown
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.engine.cache import reroute_stats
from repro.flowparams import (
    FLOW_NAMES,
    add_flow_arguments,
    add_process_arguments,
    build_flow,
    flow_params,
    process_context,
)
from repro.instances.chips import build_chip, chip_table
from repro.router.metrics import format_result_row
from repro.router.oracles import ORACLES, make_oracle  # noqa: F401  (re-exported)
from repro.router.router import GlobalRouter


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Timing-constrained global routing of a synthetic chip.",
    )
    add_flow_arguments(parser, FLOW_NAMES + ("checkpoint_every",))
    add_process_arguments(parser)
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the full result record as JSON instead of a table row",
    )
    parser.add_argument(
        "--list-chips",
        action="store_true",
        help="print the chip suite parameters and exit",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="write a resumable checkpoint to PATH after every round",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint PATH when it exists",
    )
    return parser


def main(argv: Optional[list] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "route":
        # Explicit alias of the flat one-shot flow: `python -m repro route ...`.
        argv = argv[1:]
    elif argv and argv[0] == "trace":
        # Trace-file analysis (`python -m repro trace summarize PATH`).
        from repro.obs.summary import main as trace_main

        return trace_main(argv[1:])
    elif argv and argv[0] == "soak":
        # ECO-stream endurance run under a fault plan (`python -m repro soak`).
        from repro.serve.soak import main as soak_main

        return soak_main(argv[1:])
    elif argv and not argv[0].startswith("-"):
        # A word-like first argument may be a service subcommand; the
        # authoritative list lives in serve/cli.py (imported lazily so the
        # one-shot flag form never pays for the serve layer).
        from repro.serve.cli import SERVE_COMMANDS, main as serve_main

        if argv[0] in SERVE_COMMANDS:
            return serve_main(argv)
    args = build_parser().parse_args(argv)
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint PATH", file=sys.stderr)
        return 2
    if args.list_chips:
        for row in chip_table():
            print(
                f"{row['chip']:>4}  nets={row['nets']:<5} "
                f"layers={row['layers']:<3} grid={row['grid']}"
            )
        return 0
    with process_context(args):
        return _route(args)


def _route(args: argparse.Namespace) -> int:
    """The one-shot flow: the same ``build_flow`` call a daemon route job makes."""
    spec, oracle, config = build_flow(flow_params(args))
    graph, netlist = build_chip(spec)
    engine = config.engine
    print(
        f"routing {spec.name}: {netlist.num_nets} nets on {graph} "
        f"[oracle={oracle.name} scheduling={engine.scheduling}"
        f"{' cache' if engine.reroute_cache else ''}"
        f"{f' shards={config.shards}' if config.shards > 1 else ''}"
        f"{f' shard-workers={config.shard_workers}' if config.shard_workers else ''}]",
        file=sys.stderr,
    )
    router = GlobalRouter(graph, netlist, oracle, config)
    if config.shards > 1:
        stats = router.engine.stats
        print(
            f"shards: {stats.num_regions} regions, interior nets "
            f"{list(stats.interior_nets)}, seam nets {stats.seam_nets}"
            f"{' (parity mode)' if stats.parity else ''}"
            f" [regions={router.engine.region_executor.backend}]",
            file=sys.stderr,
        )
    on_round_end = None
    if args.checkpoint:
        from repro.serve.checkpoint import checkpoint_every_hook, resume_router

        if args.resume and resume_router(router, args.checkpoint):
            print(
                f"resumed from {args.checkpoint} at round "
                f"{router.rounds_completed}/{config.num_rounds}",
                file=sys.stderr,
            )
        on_round_end = checkpoint_every_hook(args.checkpoint, args.checkpoint_every or 1)
    result = router.run(on_round_end=on_round_end)
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, default=float))
    else:
        print(format_result_row(result))
    if engine.reroute_cache:
        stats = reroute_stats(router.engine.round_reports)
        print(
            f"re-route cache: {stats.hits}/{stats.lookups} hits "
            f"({100.0 * stats.hit_rate:.1f}%)",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
