"""Command-line surface of the routing service.

Implements the ``python -m repro
serve|submit|status|result|watch|history|health|eco|metrics|shutdown``
subcommands on top of :class:`~repro.serve.daemon.ServeDaemon` and
:class:`~repro.serve.client.ServeClient`.  All query output is JSON on
stdout (one document per invocation; ``watch`` streams one JSON event per
line) so shell pipelines and the CI smoke job can consume it; progress
chatter goes to stderr.  The flow flags of ``submit`` / ``eco`` are the rows
of :mod:`repro.flowparams`' table -- the same ones ``route`` takes -- and the
job params sent are ``flow_params(args)``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.flowparams import (
    JOB_PARAMS,
    POSITIVE_INT,
    add_flow_arguments,
    add_process_arguments,
    flow_params,
    process_context,
)
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
        "--job-workers", type=POSITIVE_INT.from_text, default=2, help="concurrent routing jobs"
    )
    serve.add_argument(
        "--state-dir", default=None, help="persist job records under this directory"
    )
    add_process_arguments(serve)

    submit = commands.add_parser("submit", help="submit a routing job")
    _add_endpoint_arguments(submit)
    add_flow_arguments(submit, JOB_PARAMS["route"])
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
    # Unset overrides keep the session's current decomposition; the ops
    # have two sources (--ops / --ops-file), declared below.
    add_flow_arguments(
        eco,
        [name for name in JOB_PARAMS["eco"] if name != "ops"],
        defaults={"shards": None, "shard_halo": None},
        required=("session",),
    )
    eco.add_argument("--ops", default=None, help="JSON list of ECO ops")
    eco.add_argument("--ops-file", default=None, help="file with a JSON list of ECO ops")
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
    with process_context(args):
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
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    client = ServeClient(args.host, args.port)
    job_id = client.submit_route(**flow_params(args))
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
    overrides = flow_params(args)
    session = str(overrides.pop("session"))
    job_id = client.submit_eco(session, _load_ops(args), **overrides)
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
