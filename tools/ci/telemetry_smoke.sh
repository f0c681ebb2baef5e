#!/usr/bin/env bash
# Telemetry smoke: one instrumented solve on the committed example dataset
# must emit every offline telemetry artifact in parseable form, and the
# report tools must read them back. Shared by every build-and-test matrix
# leg (.github/workflows/ci.yml) and runnable locally:
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
"$BUILD_DIR"/tools/trace_report trace.jsonl
"$BUILD_DIR"/tools/market_report attr.jsonl --top 3
"$BUILD_DIR"/bench/table1_diagonal_large --quick --json BENCH_table1.json
python3 -m json.tool BENCH_table1.json > /dev/null
