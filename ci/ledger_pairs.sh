#!/usr/bin/env bash
# The ledger's pairing rule (benchmarks/ledger/README.md, "Claiming a gain
# later") as a script: the working tree ("change") against PARENT_REF
# ("parent", checked out into a temporary `git worktree`), N pairs, pair i
# on seed S+i-1, the sides alternating which goes first so both pass through
# the same slow and fast phases of the host.  Per side and pair one
# `python -m benchmarks.ledger run --out` (one untraced run plus the traced
# pass per workload; a failed check fails the script), then `compare` per
# pair, then per end-to-end metric the pairs won, both medians, the
# parent's quartiles and the verdict under the metric's BENCHMARK.json bound:
# `unresolved` when the parent's inter-quartile distance over its median
# exceeds the bound, `beyond bound` when the change's median is worse than
# the parent's by more than the bound, `ok` otherwise.
#
# Usage: ci/ledger_pairs.sh PARENT_REF [--workload W] [--pairs N]
#                           [--seed-base S] [--seconds T]
set -euo pipefail

[ $# -ge 1 ] || { sed -n '2,16p' "$0"; exit 2; }
PARENT_REF="$1"; shift
WORKLOAD=(); PAIRS=10; SEED_BASE=100; SECONDS_ARG=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) WORKLOAD=(--workload "$2") ;;
    --pairs) PAIRS="$2" ;;
    --seed-base) SEED_BASE="$2" ;;
    --seconds) SECONDS_ARG=(--seconds "$2") ;;
    *) echo "unknown option $1" >&2; exit 2 ;;
  esac
  shift 2
done

CHANGE="$(git rev-parse --show-toplevel)"
WORK="$(mktemp -d)"
OUT="$WORK/out"
mkdir "$OUT"
cleanup() {
  git -C "$CHANGE" worktree remove --force "$WORK/parent" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT
git -C "$CHANGE" worktree add --quiet --detach "$WORK/parent" "$PARENT_REF"

side() {  # side NAME DIR PAIR SEED
  echo "== pair $3 seed $4: $1"
  (cd "$2" && python -m benchmarks.ledger run "${WORKLOAD[@]}" "${SECONDS_ARG[@]}" \
    --seed "$4" --out "$OUT/$1_$3.json" > "$OUT/$1_$3.log") \
    || { cat "$OUT/$1_$3.log"; exit 1; }
}

for pair in $(seq 1 "$PAIRS"); do
  seed=$((SEED_BASE + pair - 1))
  if [ $((pair % 2)) -eq 1 ]; then
    side parent "$WORK/parent" "$pair" "$seed"; side change "$CHANGE" "$pair" "$seed"
  else
    side change "$CHANGE" "$pair" "$seed"; side parent "$WORK/parent" "$pair" "$seed"
  fi
  # `compare` exits 1 on a `worse` verdict; with one run a side that is the
  # pair's noise as often as not, so it is printed and not acted on here.
  (cd "$CHANGE" && python -m benchmarks.ledger compare \
    "$OUT/parent_$pair.json" "$OUT/change_$pair.json") || true
done

cd "$CHANGE"
python - "$OUT" "$PAIRS" <<'EOF'
import statistics, sys

from benchmarks.ledger.compare import load, metric_values
from benchmarks.ledger.spec import load_spec

out, pairs = sys.argv[1], int(sys.argv[2])
spec = load_spec()
sides = {
    side: [load(f"{out}/{side}_{i}.json") for i in range(1, pairs + 1)]
    for side in ("parent", "change")
}


def values(side, workload, kind, name):
    """One value per pair: the pair's single untraced run, or its traced pass."""
    return [metric_values(doc, workload, kind)[name][0] for doc in sides[side]]


def quartiles(rows):
    if len(rows) < 2:
        return rows[0], rows[0]
    q1, _, q3 = statistics.quantiles(rows, n=4)
    return q1, q3


print(f"\n{pairs} pairs; a win is a pair where the change is strictly better")
for workload in sides["parent"][0]["workloads"]:
    print(workload)
    for metric in spec["end_to_end"]:
        old = values("parent", workload, "runs", metric["name"])
        new = values("change", workload, "runs", metric["name"])
        sign = 1 if metric["better"] == "lower" else -1
        wins = sum(sign * b < sign * a for a, b in zip(old, new))
        losses = sum(sign * b > sign * a for a, b in zip(old, new))
        q1, q3 = quartiles(old)
        a, b = statistics.median(old), statistics.median(new)
        apart = abs(b - a) > q3 - q1
        scale = abs(a) or 1.0
        verdicts = []
        if (q3 - q1) / scale > metric["bound"]:
            verdicts.append("unresolved")
        if sign * (b - a) / scale > metric["bound"]:
            verdicts.append("beyond bound")
        print(
            f"  {metric['name']:<16} wins {wins:>2} losses {losses:>2} ties {pairs - wins - losses:>2}"
            f"  median {a:>12.4f} -> {b:>12.4f} {metric['unit']:<6} {(b - a) / scale:+8.2%}"
            f"  parent quartiles {q1:.4f} .. {q3:.4f}"
            f"  {'apart' if apart else 'within'} the parent's inter-quartile distance"
            f"  bound {metric['bound']:.0%}: {', '.join(verdicts) or 'ok'}"
        )
    for metric in spec["per_layer"]:
        name = metric["name"]
        if not name.startswith("core."):
            continue
        old = values("parent", workload, "traced", name)
        new = values("change", workload, "traced", name)
        same = "  identical per pair" if old == new else ""
        print(
            f"  {name:<36} median {statistics.median(old):>14.4f} -> "
            f"{statistics.median(new):>14.4f} {metric['unit']}{same}"
        )
EOF
