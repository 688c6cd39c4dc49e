#!/usr/bin/env bash
# Obs smoke, daemon leg: watch a sharded job live, check round history,
# scrape Prometheus metrics.  Usage: ci/obs_smoke.sh PORT, under
#   ci/with_daemon.sh --port PORT --job-workers 1 --inject slow-oracle:ms=25 -- ...
# --job-workers 1: a blocker job holds the single worker so the watched job
# stays queued until the watcher has attached.  The daemon-wide slow-oracle
# plan sleeps 25 ms before every oracle call, which gives the blocker a
# floor that does not depend on search speed: 45 nets x 4 rounds x 25 ms =
# 4.5 s, against the two CLI start-ups (~0.35 s each) it has to outlast;
# the 14-net watched job pays under 1 s more (14 x 3 x 25 ms).
set -euo pipefail
PORT="$1"

BLOCKER=$(python -m repro submit --port "$PORT" --chip c1 --net-scale 1.0 --rounds 4 \
  | python -c 'import json,sys; print(json.load(sys.stdin)["job_id"])')
echo "blocker $BLOCKER holds the worker"
# A --shards job routes through the shard coordinator, which publishes
# region_done/seam_done/round events itself.
JOB_ID=$(python -m repro submit --port "$PORT" --chip c1 --net-scale 0.3 --rounds 3 \
  --shards 2 --session watch-smoke \
  | python -c 'import json,sys; print(json.load(sys.stdin)["job_id"])')
# A second client watches the stream until the terminal job_state.
python -m repro watch --port "$PORT" "$JOB_ID" > events.jsonl
python - <<'EOF'
import json
events = [json.loads(line) for line in open("events.jsonl")]
rounds = [e for e in events if e["event"] == "round"]
assert [e["round"] for e in rounds] == [1, 2, 3], rounds
remaining = [e["rounds_remaining"] for e in rounds]
assert remaining == sorted(remaining, reverse=True), remaining
assert any(e["event"] == "region_done" for e in events)
assert events[-1]["event"] == "job_state"
assert events[-1]["status"] == "done", events[-1]
seqs = [e["seq"] for e in events]
assert seqs == sorted(seqs), "events out of order"
print(f"watch stream valid: {len(events)} events, {len(rounds)} rounds")
EOF
python -m repro history --port "$PORT" "$JOB_ID" | python -c '
import json, sys
history = json.load(sys.stdin)
assert [s["round"] for s in history] == [1, 2, 3], history
print("history op valid")'
python -m repro metrics --port "$PORT" --format prometheus > metrics.prom
python - <<'EOF'
import re
lines = open("metrics.prom").read().rstrip("\n").splitlines()
assert lines, "empty prometheus scrape"
sample = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.e+-]+$")
for line in lines:
    assert line.startswith("#") or sample.match(line), line
body = "\n".join(lines)
assert "repro_serve_rounds_total" in body, body[:400]
print(f"prometheus scrape valid: {len(lines)} lines")
EOF
python -m repro health --port "$PORT"
