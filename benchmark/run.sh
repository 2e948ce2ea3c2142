#!/usr/bin/env bash
# The reference benchmark's one command.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the JSON result.
#   benchmark/run.sh [--seed N] [--seconds S] [--workload W] [--traced]
#       every workload (or W), untraced then traced (--traced: traced
#       only), with host metadata: prints every metric by name with its
#       unit.
# --seed defaults to 1990, --seconds to run_seconds in BENCHMARK.json.
#
# Builds offline against benchmark/vendor (never the registry), checks
# every output, and exits non-zero when a correctness check fails.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"

# One build path: cargo runs from benchmark/ so that .cargo/config.toml
# there (offline, vendored sources) is the configuration in force.
TARGET="${CARGO_TARGET_DIR:-$ROOT/target/benchmark}"
case "$TARGET" in /*) ;; *) TARGET="$PWD/$TARGET" ;; esac
export CARGO_TARGET_DIR="$TARGET"
mkdir -p "$TARGET"
if ! (cd "$HERE" && cargo build --release --bin snapshot-benchmark) >"$TARGET/build.log" 2>&1; then
    cat "$TARGET/build.log" >&2
    exit 1
fi
BIN="$TARGET/release/snapshot-benchmark"

# Sockets, state logs and checkpoints live in one per-run directory under
# $TARGET/tmp, removed on exit; a leftover means a run died badly or is
# still going, and its sockets or logs could be mistaken for this run's.
TMP="$TARGET/tmp"
if compgen -G "$TMP/run-*" >/dev/null; then
    echo "benchmark/run.sh: leftover run directory under $TMP:" >&2
    ls -d "$TMP"/run-* >&2
    echo "benchmark/run.sh: another run is in progress or one crashed; remove it and retry" >&2
    exit 3
fi
mkdir -p "$TMP" "$TARGET/out"
# The binary runs from $TARGET so that UDS paths stay short relative ones
# (sun_path holds 108 bytes).
cd "$TARGET"

workload="" seed=1990 seconds="" trace="" traced=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --traced) traced=1; shift ;;
        *) echo "benchmark/run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# Run length is set in one place.
[ -n "$seconds" ] || seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$ROOT/BENCHMARK.json")"

one() { "$BIN" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2" --tmp tmp --out out; }

if [ -n "$trace" ]; then
    # Driver form: exactly one run.
    [ -n "$workload" ] || { echo "benchmark/run.sh: --trace needs --workload" >&2; exit 2; }
    one "$workload" "$trace"
    exit
fi

echo "commit: $(git -C "$ROOT" rev-parse HEAD 2>/dev/null || echo unknown)"
echo "rustc: $(rustc --version)"
echo "cpus: $(nproc)"
echo "dependencies: benchmark/vendor stand-ins (parking_lot, crossbeam, crossbeam-epoch, rand)"
workloads="${workload:-mem-scan mem-mw svc abd-sim wire wire-durable wire-degraded}"
for w in $workloads; do
    if [ "$traced" = 0 ]; then one "$w" 0; fi
    one "$w" 1
done
