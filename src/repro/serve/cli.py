"""Command-line surface of the routing service.

Implements the ``python -m repro
serve|submit|status|result|watch|history|health|eco|metrics|shutdown``
subcommands on top of :class:`~repro.serve.daemon.ServeDaemon` and
:class:`~repro.serve.client.ServeClient`.  All query output is JSON on
stdout (one document per invocation; ``watch`` streams one JSON event per
line) so shell pipelines and the CI smoke job can consume it; progress
chatter goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro import obs
from repro.argtypes import positive_float, positive_int
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import DEFAULT_HOST, DEFAULT_PORT, ServeDaemon
from repro.serve.jobs import JobState

__all__ = ["SERVE_COMMANDS", "main"]

#: Subcommand names dispatched away from the legacy one-shot CLI.
SERVE_COMMANDS = (
    "serve",
    "submit",
    "status",
    "result",
    "watch",
    "history",
    "health",
    "eco",
    "metrics",
    "shutdown",
)


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _add_endpoint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default=DEFAULT_HOST, help="daemon host")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT, help="daemon port")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Routing service subcommands (see 'python -m repro --help' "
        "for the one-shot flow).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="run the routing daemon in the foreground")
    _add_endpoint_arguments(serve)
    serve.add_argument(
        "--job-workers", type=positive_int, default=2, help="concurrent routing jobs"
    )
    serve.add_argument(
        "--state-dir", default=None, help="persist job records under this directory"
    )
    serve.add_argument(
        "--trace",
        default=None,
        help="write a daemon-wide JSON-lines trace (spans of every job) to this path",
    )
    serve.add_argument(
        "--log-level",
        default=None,
        choices=["debug", "info", "warning", "error"],
        help="stderr logging level for the repro.* logger tree",
    )
    serve.add_argument(
        "--inject",
        action="append",
        default=None,
        metavar="SPEC",
        help=(
            "install a daemon-wide fault plan for chaos testing, e.g. "
            "'kill-region-worker:round=2'; repeatable (see repro.faults)"
        ),
    )

    submit = commands.add_parser("submit", help="submit a routing job")
    _add_endpoint_arguments(submit)
    submit.add_argument("--chip", default="c1", help="chip of the synthetic suite")
    submit.add_argument("--oracle", default="CD", help="Steiner oracle (CD/L1/SL/PD)")
    submit.add_argument("--rounds", type=positive_int, default=2, help="resource-sharing rounds")
    submit.add_argument("--seed", type=int, default=0, help="routing seed")
    submit.add_argument("--net-scale", type=positive_float, default=1.0, help="net count scale")
    submit.add_argument(
        "--backend", default="serial", choices=["serial", "process"], help="engine backend"
    )
    submit.add_argument("--workers", type=positive_int, default=None, help="process-pool size")
    submit.add_argument(
        "--scheduling", default="window", choices=["window", "bbox"], help="batch policy"
    )
    submit.add_argument("--cache", action="store_true", help="enable the re-route cache")
    submit.add_argument(
        "--cache-scope", default="bbox", choices=["bbox", "global"], help="cache scope"
    )
    submit.add_argument(
        "--shards",
        type=positive_int,
        default=1,
        help=(
            "route the design as this many regions through the shard "
            "coordinator -- the same result as `route --shards K` (1 = "
            "classic single-region flow); combined with --session, later "
            "eco jobs replay their memos through the coordinator"
        ),
    )
    submit.add_argument(
        "--shard-halo",
        type=_non_negative_int,
        default=0,
        help="halo tiles around net boxes for interior/seam classification",
    )
    submit.add_argument(
        "--shard-workers",
        type=positive_int,
        default=None,
        help=(
            "worker processes for the region-parallel pass of a --shards "
            "job (default/1 = serial; results are bit-identical either way)"
        ),
    )
    submit.add_argument(
        "--session",
        default=None,
        help="open a persistent session under this name (target of later eco jobs)",
    )
    submit.add_argument(
        "--trace",
        default=None,
        help=(
            "ask the daemon to trace this job to the given path (daemon-side "
            "file; ignored while a daemon-wide --trace is active)"
        ),
    )
    submit.add_argument(
        "--checkpoint-every",
        type=positive_int,
        default=None,
        metavar="N",
        help=(
            "auto-checkpoint the route every N rounds to a daemon-side file "
            "next to the job record; a restarted daemon re-adopts the job "
            "and resumes from the last saved round"
        ),
    )
    submit.add_argument("--wait", action="store_true", help="block until the job finishes")
    submit.add_argument("--timeout", type=float, default=600.0, help="--wait timeout (s)")

    status = commands.add_parser("status", help="query job status")
    _add_endpoint_arguments(status)
    status.add_argument("job_id", nargs="?", help="job id (omit with --all)")
    status.add_argument("--all", action="store_true", help="list all jobs")

    result = commands.add_parser("result", help="fetch a job's result")
    _add_endpoint_arguments(result)
    result.add_argument("job_id", help="job id")
    result.add_argument("--wait", action="store_true", help="block until terminal")
    result.add_argument("--timeout", type=float, default=600.0, help="--wait timeout (s)")

    watch = commands.add_parser(
        "watch", help="stream a job's live events (one JSON line per event)"
    )
    _add_endpoint_arguments(watch)
    watch.add_argument("job_id", help="job id")
    watch.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="give up after this many seconds without any event",
    )

    history = commands.add_parser(
        "history", help="dump a job's per-round time-series samples"
    )
    _add_endpoint_arguments(history)
    history.add_argument("job_id", help="job id")

    health = commands.add_parser(
        "health", help="daemon heartbeat: uptime, queue depth, bus state"
    )
    _add_endpoint_arguments(health)

    eco = commands.add_parser("eco", help="submit an ECO delta against a session")
    _add_endpoint_arguments(eco)
    eco.add_argument("--session", required=True, help="target session name")
    eco.add_argument("--ops", default=None, help="JSON list of ECO ops")
    eco.add_argument("--ops-file", default=None, help="file with a JSON list of ECO ops")
    eco.add_argument(
        "--shards",
        type=positive_int,
        default=None,
        help=(
            "re-point the session's flow at this many regions before "
            "replaying (omit to keep the session's current decomposition)"
        ),
    )
    eco.add_argument(
        "--shard-workers",
        type=positive_int,
        default=None,
        help=(
            "region worker processes for the session's sharded replay "
            "(results are bit-identical for every worker count)"
        ),
    )
    eco.add_argument(
        "--shard-halo",
        type=_non_negative_int,
        default=None,
        help="halo tiles for interior/seam classification of the session's flow",
    )
    eco.add_argument("--wait", action="store_true", help="block until the job finishes")
    eco.add_argument("--timeout", type=float, default=600.0, help="--wait timeout (s)")

    metrics = commands.add_parser(
        "metrics", help="dump the daemon-wide metrics registry"
    )
    _add_endpoint_arguments(metrics)
    metrics.add_argument(
        "--format",
        choices=("json", "prometheus"),
        default="json",
        help="json (default) or the Prometheus text exposition format",
    )

    shutdown = commands.add_parser("shutdown", help="stop the daemon")
    _add_endpoint_arguments(shutdown)

    return parser


def _emit(document: object) -> None:
    print(json.dumps(document, indent=2, default=float))


def _finish(job: Dict[str, object]) -> int:
    _emit(job)
    return 0 if job.get("status") == JobState.DONE else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.log_level is not None:
        obs.configure_logging(args.log_level)
    if args.trace is not None:
        obs.configure_tracing(args.trace)
    if args.inject:
        from repro import faults

        faults.install_plan(";".join(args.inject))
    daemon = ServeDaemon(
        host=args.host,
        port=args.port,
        job_workers=args.job_workers,
        state_dir=args.state_dir,
    )
    host, port = daemon.address
    print(f"repro routing daemon listening on {host}:{port}", file=sys.stderr)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    finally:
        daemon.shutdown()
        if args.trace is not None:
            obs.close_tracing(obs.default_registry().snapshot())
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    client = ServeClient(args.host, args.port)
    params: Dict[str, object] = {
        "chip": args.chip,
        "oracle": args.oracle,
        "rounds": args.rounds,
        "seed": args.seed,
        "net_scale": args.net_scale,
        "backend": args.backend,
        "workers": args.workers,
        "scheduling": args.scheduling,
        "cache": args.cache,
        "cache_scope": args.cache_scope,
    }
    if args.trace is not None:
        params["trace"] = args.trace
    if args.checkpoint_every is not None:
        params["checkpoint_every"] = args.checkpoint_every
    if args.session:
        params["session"] = args.session
    if args.shards > 1:
        # The same shard coordinator as `route --shards K`; with --session
        # the session's later eco jobs replay their memos through it.
        params["shards"] = args.shards
        params["shard_halo"] = args.shard_halo
        if args.shard_workers is not None:
            params["shard_workers"] = args.shard_workers
    job_id = client.submit_route(**params)
    if args.wait:
        return _finish(client.wait(job_id, timeout=args.timeout))
    _emit({"job_id": job_id})
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    client = ServeClient(args.host, args.port)
    if args.all or args.job_id is None:
        _emit(client.jobs())
    else:
        _emit(client.status(args.job_id))
    return 0


def _cmd_result(args: argparse.Namespace) -> int:
    client = ServeClient(args.host, args.port)
    if args.wait:
        return _finish(client.wait(args.job_id, timeout=args.timeout))
    return _finish(client.result(args.job_id))


def _load_ops(args: argparse.Namespace) -> List[Dict[str, object]]:
    if (args.ops is None) == (args.ops_file is None):
        raise ServeError("pass exactly one of --ops or --ops-file")
    if args.ops is not None:
        text = args.ops
    else:
        with open(args.ops_file, "r", encoding="utf-8") as handle:
            text = handle.read()
    ops = json.loads(text)
    if not isinstance(ops, list) or not all(isinstance(op, dict) for op in ops):
        raise ServeError("ECO ops must be a JSON list of objects")
    return ops


def _cmd_eco(args: argparse.Namespace) -> int:
    client = ServeClient(args.host, args.port)
    params: Dict[str, object] = {}
    if args.shards is not None:
        params["shards"] = args.shards
    if args.shard_workers is not None:
        params["shard_workers"] = args.shard_workers
    if args.shard_halo is not None:
        params["shard_halo"] = args.shard_halo
    job_id = client.submit_eco(args.session, _load_ops(args), **params)
    if args.wait:
        return _finish(client.wait(job_id, timeout=args.timeout))
    _emit({"job_id": job_id})
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    client = ServeClient(args.host, args.port)
    final_status: Optional[str] = None
    for event in client.watch(args.job_id, timeout=args.timeout):
        print(json.dumps(event, default=float), flush=True)
        if event.get("event") == "job_state":
            final_status = str(event.get("status"))
    return 0 if final_status == JobState.DONE else 1


def _cmd_history(args: argparse.Namespace) -> int:
    _emit(ServeClient(args.host, args.port).history(args.job_id))
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    _emit(ServeClient(args.host, args.port).health())
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    client = ServeClient(args.host, args.port)
    if args.format == "prometheus":
        sys.stdout.write(str(client.metrics(format="prometheus")))
        sys.stdout.flush()
    else:
        _emit(client.metrics())
    return 0


def _cmd_shutdown(args: argparse.Namespace) -> int:
    ServeClient(args.host, args.port).shutdown()
    print("daemon stopping", file=sys.stderr)
    return 0


_COMMANDS = {
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "result": _cmd_result,
    "watch": _cmd_watch,
    "history": _cmd_history,
    "health": _cmd_health,
    "eco": _cmd_eco,
    "metrics": _cmd_metrics,
    "shutdown": _cmd_shutdown,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ServeError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
