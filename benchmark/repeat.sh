#!/usr/bin/env bash
# Runs the whole suite twice on this commit and compares the two runs:
# every workload × end-to-end metric must agree within its bound.
# Arguments (--seed, --seconds) are passed to both runs.
set -euo pipefail
cd "$(dirname "$0")/.."
benchmark/run.sh "$@"
mv benchmark/out/ledger.json benchmark/out/ledger.first.json
benchmark/run.sh "$@"
benchmark/run.sh --compare benchmark/out/ledger.first.json benchmark/out/ledger.json
