#!/usr/bin/env bash
# Chaos smoke: a route with a region worker killed mid-round, an
# auto-checkpoint every round, and a hard crash (crash-run exits the
# process) must -- after a --resume leg -- land bit-identical to the
# undisturbed run.  This is the recovery contract end to end, through
# the public CLI only.  The sharded legs run with `--cache`, so the
# checkpoint the resume reads carries re-route signatures written by a
# pooled run; no process of the crashed leg may outlive it (pool
# workers exit once their parent is gone).  The unsharded c8 legs route
# with `--workers 1`, with the default placement (long batches on the
# pool, short ones inline) and with a worker of a 2-worker batch pool
# killed, so both users of the one task map are smoke-tested: all three
# land on the same bits, and the pooled legs' batches really ran on the
# pool (the default only where the process may use 2 or more CPUs; on
# one CPU it sizes no pool).  Usage: ci/chaos_smoke.sh [workdir]
set -euo pipefail
cd "${1:-.}"
export PYTHONPATH="${PYTHONPATH:-src}"

ROUTE_ARGS=(--chip c1 --net-scale 0.3 --rounds 3 --shards 2 --cache)

python -m repro "${ROUTE_ARGS[@]}" --json > clean.json

# Leg 1: worker pool + kill fault + crash after round 2's checkpoint.
# crash-run calls os._exit(13) *after* the round hooks, so the rename
# that publishes the checkpoint has already happened.
set +e
python -m repro "${ROUTE_ARGS[@]}" --shard-workers 2 \
  --checkpoint chaos.ckpt --checkpoint-every 1 \
  --inject 'kill-region-worker:round=2;crash-run:round=2' --json > /dev/null
CRASH_STATUS=$?
set -e
if [ "$CRASH_STATUS" -ne 13 ]; then
  echo "chaos_smoke: expected crash-run exit 13, got $CRASH_STATUS" >&2
  exit 1
fi
# Forked workers carry the crashed leg's command line; none may survive it.
CRASHED_LEG='kill-region-worker:round=2;crash-run:round=2'
for _ in $(seq 50); do
  pgrep -f -- "$CRASHED_LEG" > /dev/null || break
  sleep 0.1
done
if pgrep -f -- "$CRASHED_LEG" > /dev/null; then
  echo "chaos_smoke: processes of the crashed leg outlived it:" >&2
  pgrep -a -f -- "$CRASHED_LEG" >&2
  exit 1
fi
if [ ! -f chaos.ckpt ]; then
  echo "chaos_smoke: crash left no checkpoint behind" >&2
  exit 1
fi

# Leg 2: resume from the auto-checkpoint and finish the remaining round.
python -m repro "${ROUTE_ARGS[@]}" --shard-workers 2 \
  --checkpoint chaos.ckpt --resume --json > chaos.json

# Unsharded legs: c8's batches reach the pool's break-even.
C8_ARGS=(--chip c8 --rounds 2)
python -m repro "${C8_ARGS[@]}" --workers 1 --json > c8_inline.json 2> c8_inline.err
python -m repro "${C8_ARGS[@]}" --json > c8_default.json 2> c8_default.err
python -m repro "${C8_ARGS[@]}" --workers 2 \
  --inject 'kill-pool-worker:round=2' --json > c8_chaos.json 2> c8_chaos.err
CPUS=$(python -c 'import os; print(len(os.sched_getaffinity(0)))')
POOLED_LEGS=(c8_chaos.err)
if [ "$CPUS" -ge 2 ]; then
  POOLED_LEGS+=(c8_default.err)
fi
for err in "${POOLED_LEGS[@]}"; do
  if ! grep -q 'backend=process' "$err"; then
    echo "chaos_smoke: $err: the c8 route pooled no batch:" >&2
    cat "$err" >&2
    exit 1
  fi
done
if ! grep -q 'backend=serial' c8_inline.err; then
  echo "chaos_smoke: --workers 1 pooled a batch:" >&2
  cat c8_inline.err >&2
  exit 1
fi

python - <<'EOF'
import json
from repro.router.metrics import PARITY_FIELDS, RoutingResult

for clean_path, chaos_path, what in (
    ("clean.json", "chaos.json", "kill + crash + resume"),
    ("c8_inline.json", "c8_default.json", "c8 auto placement vs --workers 1"),
    ("c8_inline.json", "c8_chaos.json", "c8 batch-pool kill vs --workers 1"),
):
    clean = RoutingResult.from_dict(json.load(open(clean_path)))
    other = RoutingResult.from_dict(json.load(open(chaos_path)))
    for field in PARITY_FIELDS:
        want, got = getattr(clean, field), getattr(other, field)
        assert want == got, f"{what}: {field}: {clean_path} {want!r} != {chaos_path} {got!r}"
    print(what, "bit-identical on", PARITY_FIELDS)
EOF
