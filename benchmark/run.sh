#!/usr/bin/env bash
# Build the reference benchmark and run it. With no arguments: all six
# workloads, each in a fresh process, merged into benchmark/out/result.json.
# Arguments are passed through; see `run.sh --help` and benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

args=("$@")
wants_default_out=1
for arg in "$@"; do
    case "$arg" in
        --out | --compare | --workload | --help | -h) wants_default_out=0 ;;
    esac
done
if [ "$wants_default_out" = 1 ]; then
    args+=(--out benchmark/out/result.json)
fi

exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "${args[@]}"
