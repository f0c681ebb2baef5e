#!/usr/bin/env bash
# Crash-resume smoke (docs/ROBUSTNESS.md): kill the solver with the
# crash_after_checkpoint failpoint right after checkpoint #2 lands,
# inspect the survivor with checkpoint_info, resume from it, and require
# the resumed solution to be byte-identical to an uninterrupted reference
# run, and its metrics to count only the resumed process's work. CI runs
# this in every matrix leg, so the bit-identity contract is proven under
# both gcc and clang builds.
#
#   tools/ci/crash_resume_smoke.sh [build-dir]
set -euo pipefail
BUILD_DIR="${1:-build}"

"$BUILD_DIR"/tools/sea_solve --mode fixed \
  --matrix data/example_base.csv \
  --row-totals data/example_row_totals.csv \
  --col-totals data/example_col_totals.csv \
  --out resume_ref.csv > /dev/null
set +e
SEA_FAILPOINTS=sea.engine.crash_after_checkpoint:2 \
  "$BUILD_DIR"/tools/sea_solve --mode fixed \
  --matrix data/example_base.csv \
  --row-totals data/example_row_totals.csv \
  --col-totals data/example_col_totals.csv \
  --checkpoint resume_ck.bin --checkpoint-every 1 \
  --out resume_crashed.csv > /dev/null 2>&1
code=$?
set -e
[ "$code" -ge 128 ] || { echo "expected a crash (>=128), got $code"; exit 1; }
[ ! -e resume_crashed.csv ] || { echo "crashed run must not emit a solution"; exit 1; }
"$BUILD_DIR"/tools/checkpoint_info resume_ck.bin
"$BUILD_DIR"/tools/checkpoint_info resume_ck.bin --json \
  | python3 -m json.tool > /dev/null
"$BUILD_DIR"/tools/sea_solve --mode fixed \
  --matrix data/example_base.csv \
  --row-totals data/example_row_totals.csv \
  --col-totals data/example_col_totals.csv \
  --resume resume_ck.bin --out resume_resumed.csv \
  --metrics-json resume_metrics.json | grep resumed:
cmp resume_ref.csv resume_resumed.csv
echo "resume is bit-identical to the uninterrupted reference"
# The resumed process counts only its own iterations: one check-interval
# observation per iteration (check-every 1), summing to sea.iterations.
python3 -c "import json; m = json.load(open('resume_metrics.json'))['metrics']; \
it, iv = m['counters']['sea.iterations'], m['histograms']['sea.check.interval_iters']['sum']; assert it == iv, (it, iv)"
