"""``python -m benchmarks.ledger run|compare`` -- the ledger's front end.

``run`` measures every workload (or one), each run in a fresh child
interpreter, one at a time, so peak memory and set-up time are per
workload and nothing warms across them: ``--runs`` untraced runs on
consecutive seeds for the end-to-end metrics, then one traced run for the
per-layer metrics.  ``compare`` applies the bounds of ``BENCHMARK.json``
to two result files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

from .compare import compare, load, metric_values, spread
from .spec import ROOT, host_info, load_spec, remove_scratch, scratch_dir


def child(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, object]:
    """One workload run in a fresh interpreter; returns its full record."""
    scratch = scratch_dir(f"record-{workload}-{seed}-{trace}")
    out = scratch / "record.json"
    command = [
        sys.executable, str(ROOT / "benchmarks" / "ledger" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", str(out),
    ]
    try:
        subprocess.run(command, cwd=ROOT, check=True)
        return load(str(out))
    finally:
        remove_scratch(scratch)


def summary(document: Dict, spec: Dict) -> List[str]:
    """Median, quartile spread and bound of every end-to-end metric."""
    lines = []
    for workload in document["workloads"]:
        lines.append(f"{workload}")
        values = metric_values(document, workload, "runs")
        for metric in spec["end_to_end"]:
            samples = values[metric["name"]]
            wide = spread(samples)
            lines.append(
                f"  {metric['name']:<16} median {statistics.median(samples):>14.4f} {metric['unit']:<6}"
                f" n={len(samples):<3} spread {'n/a' if wide is None else format(wide, '.2%'):>7}"
                f"  bound {metric['bound']:.0%}"
            )
    return lines


def run_command(args: argparse.Namespace, spec: Dict) -> int:
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    document = {
        "host": host_info(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    for name in names:
        runs = [child(name, args.seed + i, args.seconds, 0) for i in range(args.runs)]
        document["workloads"][name] = {
            "runs": runs,
            "traced": child(name, args.seed, args.seconds, 1),
        }
    print("\n".join(summary(document, spec)))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    records = [
        record
        for entry in document["workloads"].values()
        for record in entry["runs"] + [entry["traced"]]
    ]
    for record in records:
        if not record["correct"]:
            failed = [c for c, ok in record["checks"].items() if not ok]
            print(
                f"FAILED {record['workload']} seed {record['seed']} trace {record['trace']}: "
                f"{record['failed']} of {record['attempted']} ({', '.join(failed) or 'operations'})"
            )
    return 0 if all(record["correct"] for record in records) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure the workloads")
    run.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--runs", type=int, default=1, help="untraced runs, on seeds SEED, SEED+1, ...")
    run.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    run.add_argument("--out", help="write the result file here")
    cmp_ = commands.add_parser("compare", help="apply the bounds to two result files")
    cmp_.add_argument("parent")
    cmp_.add_argument("change")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_command(args, spec)
    lines, any_worse = compare(load(args.parent), load(args.change), spec)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
