#!/usr/bin/env bash
# Serve smoke (docs/SERVING.md): boot the sea_serve daemon on an ephemeral
# port, POST JSON /solve bodies to it with curl, and prove the service
# contract in one pass:
#
#   * one cold solve of a base problem, then, four in flight at once,
#     repeats of it (exact-tier hits), the same structure with rescaled
#     totals (nearby-tier warm starts) and fresh structures (misses),
#   * every request answered 200 with "ok", zero errors on /varz,
#   * every cache tier served: exact hits, nearby hits and misses, in
#     the replies and on /varz,
#   * nothing was shed,
#   * SIGTERM drains cleanly: the daemon exits 0 after "drained",
#   * the per-request wide-event log passes solve_log_check with one
#     converged line per request.
#
#   tools/ci/serve_smoke.sh [build-dir]
set -euo pipefail
BUILD_DIR="${1:-build}"
REPEATS=16 PERTURBED=16 FRESH=8
REQUESTS=$((1 + REPEATS + PERTURBED + FRESH))

rm -rf serve_port.txt serve_log.jsonl serve_req
mkdir serve_req
"$BUILD_DIR"/tools/sea_serve --listen 0 --listen-port-file serve_port.txt \
  --solve-log serve_log.jsonl > serve_smoke.out 2>&1 &
pid=$!
trap 'kill -9 "$pid" 2> /dev/null || true' EXIT
for i in $(seq 1 100); do
  [ -s serve_port.txt ] && break
  sleep 0.2
done
[ -s serve_port.txt ] || { cat serve_smoke.out; exit 1; }
port=$(cat serve_port.txt)
url="http://127.0.0.1:$port/solve"
echo "sea_serve on 127.0.0.1:$port"
curl -fsS "http://127.0.0.1:$port/healthz" | grep -q ok

# Request bodies: fixed-mode 12x12 problems with totals scaled away from
# the centers' own sums, so every solve does real work. cold.json is the
# base problem, repeat_*.json are its bytes again, perturbed_*.json keep
# its centers and weights with rescaled totals, fresh_*.json are new
# structures.
python3 - "$REPEATS" "$PERTURBED" "$FRESH" <<'EOF'
import json, random, sys
repeats, perturbed, fresh = map(int, sys.argv[1:])
def problem(seed, scale, m=12, n=12):
    rng = random.Random(seed)
    x0 = [rng.uniform(1.0, 10.0) for _ in range(m * n)]
    gamma = [rng.uniform(0.5, 2.0) for _ in range(m * n)]
    s0 = [scale * sum(x0[i * n:(i + 1) * n]) for i in range(m)]
    d0 = [scale * sum(x0[j::n]) for j in range(n)]
    return {"mode": "fixed", "criterion": "residual-rel", "epsilon": 1e-6,
            "m": m, "n": n, "x0": x0, "gamma": gamma, "s0": s0, "d0": d0}
def write(name, body):
    with open("serve_req/%s.json" % name, "w") as f:
        json.dump(body, f)
write("cold", problem(42, 1.1))
for k in range(repeats):
    write("repeat_%d" % k, problem(42, 1.1))
for k in range(perturbed):
    write("perturbed_%d" % k, problem(42, 1.1 + 0.01 * (k + 1)))
for k in range(fresh):
    write("fresh_%d" % k, problem(1000 + k, 1.1))
EOF

post() {  # post <name>...: one curl, up to four transfers in flight
  local cfg=serve_req/curl.cfg
  local sep=""
  : > "$cfg"
  for name in "$@"; do
    printf '%surl = "%s"\nheader = "Content-Type: application/json"
data-binary = "@serve_req/%s.json"\noutput = "serve_req/%s.reply"
write-out = "%%{http_code}\\n"\n' "$sep" "$url" "$name" "$name" >> "$cfg"
    sep="next"$'\n'
  done
  curl --no-progress-meter --parallel --parallel-immediate --parallel-max 4 \
    -K "$cfg" > serve_req/codes.txt
  [ "$(grep -cx 200 serve_req/codes.txt)" -eq "$#" ] || {
    echo "expected $# answers with status 200, got:"
    sort serve_req/codes.txt | uniq -c
    exit 1
  }
}
post cold
post $(cd serve_req && ls repeat_*.json perturbed_*.json fresh_*.json \
  | sed 's/\.json$//')

python3 - "$port" "$REQUESTS" <<'EOF'
import collections, glob, json, sys, urllib.request
port, requests = sys.argv[1], int(sys.argv[2])
tiers = collections.Counter()
for path in glob.glob("serve_req/*.reply"):
    reply = json.load(open(path))
    assert reply["ok"] and reply["status"] == "converged", (path, reply)
    tiers[reply["cache_tier"]] += 1
assert sum(tiers.values()) == requests, tiers
assert tiers["exact"] and tiers["warm"] and tiers["cold"], \
    "a cache tier was never served: %r" % tiers
v = json.load(urllib.request.urlopen("http://127.0.0.1:%s/varz" % port))
json.dump(v, open("serve_varz.json", "w"))
assert v["tool"] == "sea_serve", v
assert v["requests"] == requests, v
assert v["errors"] == 0, v
assert (v["cache_hits_exact"] > 0 and v["cache_hits_nearby"] > 0
        and v["cache_misses"] > 0), "a cache tier was never served: %r" % v
assert v["shed"] == 0, v
print("varz ok: %d requests, %d exact / %d nearby hits, %d misses"
      % (v["requests"], v["cache_hits_exact"], v["cache_hits_nearby"],
         v["cache_misses"]))
EOF

kill -TERM "$pid"
set +e
wait "$pid"
code=$?
set -e
[ "$code" -eq 0 ] || {
  echo "expected clean drain exit 0, got $code"
  cat serve_smoke.out
  exit 1
}
grep -q 'drained:' serve_smoke.out
"$BUILD_DIR"/tools/solve_log_check serve_log.jsonl \
  --expect-lines "$REQUESTS" --expect-status converged --expect-exit-code 0
echo "serve smoke ok"
