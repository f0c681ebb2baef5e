#!/usr/bin/env bash
# Telemetry smoke: one instrumented solve on the committed example dataset
# must emit every offline telemetry artifact in parseable form, the trace
# must agree with the metrics document, and market_report must read the
# attribution back. Shared by every build-and-test matrix leg
# (.github/workflows/ci.yml) and runnable locally:
#
#   tools/ci/telemetry_smoke.sh [build-dir]
set -euo pipefail
BUILD_DIR="${1:-build}"

"$BUILD_DIR"/tools/sea_solve --mode fixed \
  --matrix data/example_base.csv \
  --row-totals data/example_row_totals.csv \
  --col-totals data/example_col_totals.csv \
  --threads 2 \
  --metrics-json metrics.json --trace-jsonl trace.jsonl \
  --attribution-json attr.jsonl --status-file status.json \
  --metrics-prom metrics.prom
python3 -m json.tool metrics.json > /dev/null
python3 -m json.tool status.json > /dev/null
python3 -c "import json,sys; [json.loads(l) for l in open('trace.jsonl')]"
grep -q '_total ' metrics.prom
# The trace and the metrics document must agree on the answer: the last
# check event's iteration and measure are the result's iteration count and
# final residual.
python3 - <<'PY'
import json
checks = [e for e in map(json.loads, open('trace.jsonl')) if e.get('type') == 'check']
result = json.load(open('metrics.json'))['result']
last = checks[-1]
assert last['iter'] == result['iterations'], (last, result)
assert last['measure'] == result['final_residual'], (last, result)
print(f"trace agrees with metrics: {last['iter']} iterations, "
      f"final measure {last['measure']}")
PY
"$BUILD_DIR"/tools/market_report attr.jsonl --top 3
"$BUILD_DIR"/bench/table1_diagonal_large --quick --json BENCH_table1.json \
  --json-truncate
python3 -m json.tool BENCH_table1.json > /dev/null
