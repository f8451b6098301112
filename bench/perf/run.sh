#!/usr/bin/env bash
# Builds idseval_bench from source (Release, into .bench_build/perf) and
# runs it from the repository root with the given arguments. With no
# arguments it runs the whole suite; see bench/perf/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build/perf"
mkdir -p "$build"
log="$build/build.log"

if ! { cmake -S "$root/bench/perf" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" --target idseval_bench -j "$(nproc)"; } \
     >"$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "run.sh: building idseval_bench failed (full log: $log)" >&2
  exit 1
fi

cd "$root"
exec "$build/idseval_bench" "$@"
