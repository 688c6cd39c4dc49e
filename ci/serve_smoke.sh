#!/usr/bin/env bash
# Serve smoke: submit, poll, fetch, and ECO-replay against a live daemon.
# Usage: ci/serve_smoke.sh PORT   (run under ci/with_daemon.sh)
set -euo pipefail
PORT="$1"

JOB_ID=$(python -m repro submit --port "$PORT" --chip c1 --net-scale 0.3 --rounds 2 \
  --session smoke | python -c 'import json,sys; print(json.load(sys.stdin)["job_id"])')
echo "submitted $JOB_ID"
python -m repro result --port "$PORT" "$JOB_ID" --wait --timeout 600
python -m repro eco --port "$PORT" --session smoke --wait \
  --ops '[{"op": "move_pin", "net": "n0", "pin": "n0:s0", "x": 1, "y": 1}]'
# Sharded ECO replay: re-point the session at 2 regions on a 2-worker
# pool; the memo log runs through the shard coordinator.
python -m repro eco --port "$PORT" --session smoke --wait \
  --shards 2 --shard-workers 2 \
  --ops '[{"op": "move_pin", "net": "n0", "pin": "n0:s0", "x": 2, "y": 2}]' > eco_shard.json
python - <<'EOF'
import json
payload = json.load(open("eco_shard.json"))
assert payload["status"] == "done", payload
assert payload["result"]["nets_reused"] > 0, payload  # clean scopes replayed
EOF
# A session opened *sharded* accepts ECOs that replay through it.
JOB2=$(python -m repro submit --port "$PORT" --chip c1 --net-scale 0.3 --rounds 2 \
  --session smoke-sharded --shards 2 --shard-workers 2 \
  | python -c 'import json,sys; print(json.load(sys.stdin)["job_id"])')
python -m repro result --port "$PORT" "$JOB2" --wait --timeout 600
python -m repro eco --port "$PORT" --session smoke-sharded --wait \
  --ops '[{"op": "move_pin", "net": "n1", "pin": "n1:s0", "x": 3, "y": 1}]'
python -m repro status --port "$PORT" --all
# The daemon's kernel runs the compiled search loop, not the Python fallback.
python -m repro health --port "$PORT" | python -c '
import json, sys
health = json.load(sys.stdin)
assert health["search_loop"] == "compiled", health
print("search loop:", health["search_loop"])'
