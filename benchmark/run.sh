#!/usr/bin/env bash
# The repo's benchmark.
#
#   benchmark/run.sh [--seed N] [--seconds S]
#       builds the ledger offline, runs all six workloads (each in a fresh
#       process, end-to-end rounds then the traced pass) and writes
#       benchmark/out/ledger.json plus one <workload>.spans.jsonl each.
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1|both] [--out DIR]
#       one workload; the last line of output is the driver's JSON result.
#   benchmark/run.sh --compare BASE.json NEW.json
#
# It reads and writes only below the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/ledger/Cargo.toml >&2
ledger="$CARGO_TARGET_DIR/release/ledger"
# Everything — servers, router, load generator — runs on one CPU. The
# vCPUs of the shared box this was built on are not steady together:
# with both busy, the same pure-compute loop reads 20-30% apart from one
# 10 s window to the next, with one busy a few per cent. Multi-core
# scaling is not what this benchmark measures (see README.md).
pin=()
if command -v taskset >/dev/null 2>&1; then
    # Where pinning is not allowed, run unpinned rather than not at all.
    cpu="$(taskset -cp $$ 2>/dev/null | sed -e 's/.*: *//' -e 's/[,-].*//' || true)"
    if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then pin=(taskset -c "$cpu"); fi
fi
case " $* " in
*" --workload "* | *" --compare "*)
    exec ${pin[@]+"${pin[@]}"} "$ledger" "$@"
    ;;
*)
    exec ${pin[@]+"${pin[@]}"} "$ledger" --all --out benchmark/out \
        --commit "$(git rev-parse HEAD 2>/dev/null || echo unknown)" \
        --rustc "$(rustc --version)" "$@"
    ;;
esac
