#!/usr/bin/env bash
# A/B measurement of the working tree against a base commit.
#
#   bench/perf/ab.sh BASE [--pairs N] [--seed N] [--seconds S] [--workloads a,b]
#
# Builds BASE and the working tree (tracked and staged changes, via
# `git stash create`; untracked files are left out) in temporary git
# worktrees under .bench_build/ab, then runs N >= 10 pairs per workload on
# one seed, alternating which side runs first, and prints each end-to-end
# metric's medians, quartiles and win count with the claim rule of
# bench/perf/README.md. Default seed: 7, the seed held out for claims.
set -euo pipefail

usage() {
  echo "usage: $0 BASE [--pairs N] [--seed N] [--seconds S] [--workloads a,b]" >&2
  exit 2
}
[[ $# -ge 1 ]] || usage
base_rev="$1"
shift
pairs=10
seed=7
seconds=""
workloads=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --pairs) pairs="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --workloads) workloads="$2"; shift 2 ;;
    *) usage ;;
  esac
done
if (( pairs < 10 )); then
  echo "ab.sh: the claim rule needs at least 10 pairs" >&2
  exit 2
fi

root="$(git rev-parse --show-toplevel)"
work="$root/.bench_build/ab"
base_sha="$(git -C "$root" rev-parse --verify "$base_rev^{commit}")"
change_sha="$(git -C "$root" stash create)"
change_sha="${change_sha:-$(git -C "$root" rev-parse HEAD)}"

cleanup() {
  git -C "$root" worktree remove --force "$work/base" 2>/dev/null || true
  git -C "$root" worktree remove --force "$work/change" 2>/dev/null || true
}
trap cleanup EXIT
cleanup
rm -rf "$work"
mkdir -p "$work/results"
git -C "$root" worktree add --detach "$work/base" "$base_sha" >/dev/null
git -C "$root" worktree add --detach "$work/change" "$change_sha" >/dev/null

# Both sides run the change's benchmark code and definition, so only the
# code under test differs (and a base older than the benchmark works).
rm -rf "$work/base/bench/perf"
cp -R "$work/change/bench/perf" "$work/base/bench/perf"
cp "$work/change/BENCHMARK.json" "$work/base/BENCHMARK.json"
# Build both sides before the first timed run.
bash "$work/base/bench/perf/run.sh" --defaults >/dev/null
read -r default_workloads default_seconds \
    < <(bash "$work/change/bench/perf/run.sh" --defaults)
workloads="${workloads:-$default_workloads}"
seconds="${seconds:-$default_seconds}"

run_side() {  # side workload
  bash "$work/$1/bench/perf/run.sh" --workload "$2" --seed "$seed" \
      --seconds "$seconds" --trace 0 | tail -n 1 >> "$work/results/$1-$2.jsonl"
}

echo "base $base_sha, change $change_sha, $pairs pairs, seed $seed, ${seconds}s runs"
IFS=',' read -r -a names <<< "$workloads"
for w in "${names[@]}"; do
  for (( i = 0; i < pairs; i++ )); do
    if (( i % 2 == 0 )); then
      run_side base "$w"; run_side change "$w"
    else
      run_side change "$w"; run_side base "$w"
    fi
  done
done

for w in "${names[@]}"; do
  echo
  echo "$w"
  (cd "$work/change" && .bench_build/perf/idseval_bench --ab-report \
      "$work/results/base-$w.jsonl" "$work/results/change-$w.jsonl")
done
