#!/usr/bin/env bash
# Chaos smoke: a route with a region worker killed mid-round, an
# auto-checkpoint every round, and a hard crash (crash-run exits the
# process) must -- after a --resume leg -- land bit-identical to the
# undisturbed run.  This is the recovery contract end to end, through
# the public CLI only.  The sharded legs run with `--cache`, so the
# checkpoint the resume reads carries re-route signatures written by a
# pooled run; no process of the crashed leg may outlive it (pool
# workers exit once their parent is gone).  Usage: ci/chaos_smoke.sh [workdir]
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

python - <<'EOF'
import json
from repro.router.metrics import PARITY_FIELDS, RoutingResult

clean = RoutingResult.from_dict(json.load(open("clean.json")))
chaos = RoutingResult.from_dict(json.load(open("chaos.json")))
for field in PARITY_FIELDS:
    want, got = getattr(clean, field), getattr(chaos, field)
    assert want == got, f"kill + crash + resume: {field}: {want!r} != {got!r}"
print("kill + crash + resume bit-identical on", PARITY_FIELDS)
EOF
