#!/usr/bin/env bash
# Live telemetry smoke (docs/OBSERVABILITY.md, "Live endpoints"): start a
# deliberately long solve with the embedded HTTP server on an ephemeral
# port, scrape every endpoint MID-SOLVE and validate the payloads, then
# SIGINT the process and require a clean cancelled exit (6) plus exactly
# one well-formed wide event in the solve log.
#
#   tools/ci/live_telemetry_smoke.sh [build-dir]
set -euo pipefail
BUILD_DIR="${1:-build}"

python3 - <<'EOF'
import random
random.seed(7)
m, n = 400, 300
rows = [[random.uniform(1.0, 10.0) for _ in range(n)]
        for _ in range(m)]
open('live_base.csv', 'w').write('\n'.join(
    ','.join('%.6f' % v for v in r) for r in rows) + '\n')
rs = [sum(r) * 1.2 for r in rows]
cs = [sum(rows[i][j] for i in range(m)) * 1.2 for j in range(n)]
open('live_rows.csv', 'w').write(
    '\n'.join(repr(v) for v in rs) + '\n')
open('live_cols.csv', 'w').write(
    '\n'.join(repr(v) for v in cs) + '\n')
EOF
rm -f live_port.txt solve_log.jsonl
"$BUILD_DIR"/tools/sea_solve --mode fixed --matrix live_base.csv \
  --row-totals live_rows.csv --col-totals live_cols.csv \
  --epsilon 1e-14 --criterion abs --stall-checks 0 \
  --time-budget 60 --threads 2 \
  --listen 0 --listen-port-file live_port.txt \
  --solve-log solve_log.jsonl > live_solve.out 2>&1 &
pid=$!
for i in $(seq 1 100); do
  [ -s live_port.txt ] && break
  sleep 0.2
done
[ -s live_port.txt ] || { cat live_solve.out; exit 1; }
port=$(cat live_port.txt)
echo "scraping live solve on 127.0.0.1:$port"
curl -fsS "http://127.0.0.1:$port/healthz" | grep -q ok
curl -fsS "http://127.0.0.1:$port/statusz" | python3 -m json.tool
curl -fsS "http://127.0.0.1:$port/varz" | python3 -m json.tool
curl -fsS "http://127.0.0.1:$port/metrics" | grep '_total '
# Mid-solve motion: two /metrics scrapes must see sea_iterations_total
# strictly increase. Each wait polls for at most 10 s.
iters() {
  curl -fsS "http://127.0.0.1:$port/metrics" \
    | awk '$1 == "sea_iterations_total" { v = $2 } END { print v + 0 }'
}
iters_above() {  # prints the first scraped count above $1
  for _ in $(seq 1 50); do
    v=$(iters)
    if awk -v v="$v" -v floor="$1" 'BEGIN { exit !(v + 0 > floor + 0) }'
    then
      echo "$v"
      return 0
    fi
    sleep 0.2
  done
  echo "sea_iterations_total stuck at $v (needed > $1)" >&2
  return 1
}
first=$(iters_above 0) || { cat live_solve.out; exit 1; }
second=$(iters_above "$first") || { cat live_solve.out; exit 1; }
echo "sea_iterations_total moved mid-solve: $first -> $second"
kill -INT "$pid"
set +e
wait "$pid"
code=$?
set -e
[ "$code" -eq 6 ] || {
  echo "expected cancelled exit 6, got $code"
  cat live_solve.out
  exit 1
}
grep -E 'telemetry:|solve log:' live_solve.out
"$BUILD_DIR"/tools/solve_log_check solve_log.jsonl --expect-lines 1 \
  --expect-status cancelled --expect-exit-code 6
