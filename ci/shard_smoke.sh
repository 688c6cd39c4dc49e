#!/usr/bin/env bash
# Shard smoke: one sharding path.  `route --shards 4` in-process and the
# same design via `submit --shards 4 --shard-workers 2` on the daemon must
# agree on every parity field; so must `route --shards 4 --shard-parity`
# (every region a scope over the full-die prism) on the serial loop and on
# a live 2-worker region pool.  A `--cache` leg submits the same cached
# sharded job with and without `--shard-workers 2`: the re-route signatures
# travel in the region tasks, so both placements must also report the same
# `cache` block (hits and lookups).  Usage: ci/shard_smoke.sh PORT  (under
# ci/with_daemon.sh)
set -euo pipefail
PORT="$1"

python -m repro route --chip c1 --net-scale 0.4 --rounds 2 --shards 4 --json \
  > shard_route.json
python -m repro submit --port "$PORT" --chip c1 --net-scale 0.4 --rounds 2 \
  --shards 4 --shard-workers 2 --wait --timeout 600 > shard_job.json
CACHE_ARGS=(--chip c1 --net-scale 0.4 --rounds 3 --shards 4 --cache)
python -m repro submit --port "$PORT" "${CACHE_ARGS[@]}" --wait --timeout 600 \
  > shard_cache_serial.json
python -m repro submit --port "$PORT" "${CACHE_ARGS[@]}" --shard-workers 2 \
  --wait --timeout 600 > shard_cache_pool.json
python -m repro health --port "$PORT" > shard_health.json
python -m repro route --chip c1 --net-scale 0.4 --rounds 2 --shards 4 \
  --shard-parity --json > shard_parity_serial.json
python -m repro route --chip c1 --net-scale 0.4 --rounds 2 --shards 4 \
  --shard-parity --shard-workers 2 --json > shard_parity_pool.json
python - <<'EOF'
import json
from repro.router.metrics import PARITY_FIELDS, RoutingResult

routed = RoutingResult.from_dict(json.load(open("shard_route.json")))
job = json.load(open("shard_job.json"))
assert job["status"] == "done", job
payload = job["result"]
served = RoutingResult.from_dict(payload["result"])
for field in PARITY_FIELDS:
    assert getattr(served, field) == getattr(routed, field), field
assert payload["shards"] == 4, payload
assert served.num_nets == payload["seam_nets"] + sum(payload["interior_nets"])
assert payload["region_backend"] == "process", payload
# Ubuntu runners have working process pools: the region pool really ran.
health = json.load(open("shard_health.json"))
assert not health["pool_degradations"], health
print("daemon shard job == route --shards 4:", served)

serial = RoutingResult.from_dict(json.load(open("shard_parity_serial.json")))
pooled = RoutingResult.from_dict(json.load(open("shard_parity_pool.json")))
for field in PARITY_FIELDS:
    assert getattr(pooled, field) == getattr(serial, field), field
print("route --shard-parity: region pool == serial loop:", pooled)

payloads = []
for path in ("shard_cache_serial.json", "shard_cache_pool.json"):
    job = json.load(open(path))
    assert job["status"] == "done", job
    payloads.append(job["result"])
cached_serial, cached_pool = payloads
assert cached_pool["region_backend"] == "process", cached_pool
for field in PARITY_FIELDS:
    want = getattr(RoutingResult.from_dict(cached_serial["result"]), field)
    assert getattr(RoutingResult.from_dict(cached_pool["result"]), field) == want, field
assert cached_pool["cache"] == cached_serial["cache"], (cached_serial, cached_pool)
assert cached_serial["cache"]["hits"] > 0, cached_serial
print("submit --shards 4 --cache: region pool == serial loop, cache:", cached_pool["cache"])
EOF
