"""Command-line entry point: one-shot routing plus service subcommands.

The flat flag form routes one chip of the synthetic suite and prints the
Table IV/V style result row; the subcommand form talks to the routing
service (:mod:`repro.serve`).

Examples::

    python -m repro --chip c1
    python -m repro --chip c3 --oracle L1 --rounds 3
    python -m repro --chip c1 --backend process --workers 4 --cache
    python -m repro --chip c2 --checkpoint run.ckpt --resume
    python -m repro --chip c2 --checkpoint run.ckpt --checkpoint-every 2
    python -m repro --chip c1 --shards 2 --shard-workers 2 \\
        --inject kill-region-worker:round=2
    python -m repro route --chip c8 --shards 4
    python -m repro route --chip c8 --shards 4 --shard-workers 2
    python -m repro --list-chips

    python -m repro serve --port 8642
    python -m repro submit --chip c1 --net-scale 0.2 --session s1 --wait
    python -m repro submit --chip c8 --shards 4 --shard-workers 2 --wait
    python -m repro eco --session s1 --ops '[{"op": "move_pin", ...}]' --wait
    python -m repro status --all
    python -m repro watch JOB_ID
    python -m repro history JOB_ID
    python -m repro health
    python -m repro metrics --format prometheus
    python -m repro trace summarize run.trace
    python -m repro trace export run.trace --format chrome -o run.json
    python -m repro soak --chip c1 --ops 60 --shards 2 \\
        --inject "kill-region-worker:round=2"
    python -m repro shutdown
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.argtypes import positive_float, positive_int
from repro.engine.engine import EngineConfig
from repro.instances.chips import CHIP_SUITE, build_chip, chip_table
from repro.router.metrics import format_result_row
from repro.router.oracles import ORACLES, make_oracle
from repro.router.router import GlobalRouter, GlobalRouterConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Timing-constrained global routing of a synthetic chip.",
    )
    parser.add_argument(
        "--chip",
        default="c1",
        choices=[spec.name for spec in CHIP_SUITE],
        help="chip of the synthetic suite (paper Table III analogue)",
    )
    parser.add_argument(
        "--oracle",
        default="CD",
        choices=sorted(ORACLES),
        help="Steiner tree oracle (CD = cost-distance, L1/SL/PD = baselines)",
    )
    parser.add_argument(
        "--backend",
        default="serial",
        choices=["serial", "process"],
        help="engine executor backend",
    )
    parser.add_argument(
        "--workers",
        type=positive_int,
        default=None,
        help="worker processes for the process backend (default: auto)",
    )
    parser.add_argument(
        "--scheduling",
        default="window",
        choices=["window", "bbox"],
        help="net batching policy",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="enable the incremental re-route cache",
    )
    parser.add_argument(
        "--cache-scope",
        default="bbox",
        choices=["bbox", "global"],
        help=(
            "re-route cache signature scope: 'bbox' digests costs over each "
            "net's bounding region (fast, heuristic), 'global' digests the "
            "full cost vector (guaranteed bit-identical to running without "
            "--cache)"
        ),
    )
    parser.add_argument(
        "--shards",
        type=positive_int,
        default=1,
        help=(
            "route the chip as this many rectangular regions: interior nets "
            "run on per-region subgraphs, seam-crossing nets in a global "
            "stitch pass (1 = classic single-region flow)"
        ),
    )
    parser.add_argument(
        "--shard-workers",
        type=positive_int,
        default=None,
        help=(
            "worker processes for the region-parallel shard pass: route the "
            "K region interiors of each round concurrently on a process "
            "pool (default/1 = serial; results are bit-identical either way)"
        ),
    )
    parser.add_argument(
        "--shard-parity",
        action="store_true",
        help=(
            "shard verification mode: route interior nets on the full graph "
            "and every net against the round-start snapshot, reproducing "
            "the unsharded router bit for bit at a full-round cost window"
        ),
    )
    parser.add_argument(
        "--rounds", type=positive_int, default=2, help="resource-sharing rounds"
    )
    parser.add_argument("--seed", type=int, default=0, help="routing seed")
    parser.add_argument(
        "--net-scale",
        type=positive_float,
        default=1.0,
        help="scale factor on the chip's net count (e.g. 0.3 for a smoke run)",
    )
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
        "--checkpoint-every",
        type=positive_int,
        default=1,
        metavar="N",
        help=(
            "with --checkpoint: save every N rounds instead of every round "
            "(the final round is always saved)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint PATH when it exists",
    )
    parser.add_argument(
        "--inject",
        action="append",
        default=None,
        metavar="SPEC",
        help=(
            "inject a fault for chaos testing, e.g. "
            "'kill-region-worker:round=2', 'kill-pool-worker', "
            "'slow-oracle:ms=20', 'drop-outcome', 'crash-run:round=1'; "
            "repeatable (see repro.faults)"
        ),
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "write a JSON-lines trace (round/region/batch spans, per-net "
            "events, final counters) to PATH; inspect it with "
            "'python -m repro trace summarize PATH'"
        ),
    )
    parser.add_argument(
        "--log-level",
        default=None,
        choices=["debug", "info", "warning", "error"],
        help="stderr logging level for the repro.* logger tree",
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

    if args.log_level is not None:
        from repro import obs

        obs.configure_logging(args.log_level)
    if args.trace is not None:
        from repro import obs

        obs.configure_tracing(args.trace)
    if args.inject:
        from repro import faults

        faults.install_plan(";".join(args.inject))

    spec = next(s for s in CHIP_SUITE if s.name == args.chip)
    if args.net_scale != 1.0:
        spec = spec.scaled(args.net_scale)
    graph, netlist = build_chip(spec)
    oracle = make_oracle(args.oracle)
    config = GlobalRouterConfig(
        num_rounds=args.rounds,
        seed=args.seed,
        engine=EngineConfig(
            backend=args.backend,
            num_workers=args.workers,
            scheduling=args.scheduling,
            reroute_cache=args.cache,
            cache_scope=args.cache_scope,
        ),
        shards=args.shards,
        shard_parity=args.shard_parity,
        shard_workers=args.shard_workers,
    )
    print(
        f"routing {spec.name}: {netlist.num_nets} nets on {graph} "
        f"[oracle={args.oracle} backend={args.backend} scheduling={args.scheduling}"
        f"{' cache' if args.cache else ''}"
        f"{f' shards={args.shards}' if args.shards > 1 else ''}"
        f"{f' shard-workers={args.shard_workers}' if args.shard_workers else ''}]",
        file=sys.stderr,
    )
    router = GlobalRouter(graph, netlist, oracle, config)
    if args.shards > 1:
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
        on_round_end = checkpoint_every_hook(args.checkpoint, args.checkpoint_every)
    try:
        result = router.run(on_round_end=on_round_end)
    finally:
        if args.trace is not None:
            from repro import obs

            obs.close_tracing(obs.default_registry().snapshot())
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, default=float))
    else:
        print(format_result_row(result))
    if router.engine.cache is not None:
        stats = router.engine.cache.stats
        print(
            f"re-route cache: {stats.hits}/{stats.lookups} hits "
            f"({100.0 * stats.hit_rate:.1f}%)",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
