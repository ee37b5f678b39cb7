#!/usr/bin/env bash
# One-command regression gate: tier-1 unit suite (golden traces and the seed
# engine's frozen float64 vectors included, the max-pool kernel's
# bitwise-vs-im2col and allocation guard in
# tests/test_pool_kernel.py, which fails if a window-sized copy comes back,
# and the client store's shell-equivalence and exact-construction tests in
# tests/test_store_shells.py: a re-pointed shell + blob is bitwise a fresh
# factory(cid) + blob, and a virtual run builds each client id once, and the
# population contract in tests/test_population.py: eager and store-backed
# populations pin, snapshot/restore and hand worker shards to a real process
# pool and back bitwise, and an eager process round checks nothing out
# parent-side),
# and the perf/ benchmark's API-surface + bitwise-digest smoke with four
# read-only gates on its result (async_fedbuff's cascade adds per flush,
# <= 8, hier_int8's cohort share and root-hop bytes, longrun_monitored's
# cohort share under DP)
# — perf/ is the one benchmark; throughput is compared there
# (perf/compare.py), never gated on single samples here.  A read-only source
# gate runs first: telemetry and checkpoints read the runners' declared
# surface (repro.core.phases.Runner), never probe a runner by name.
#
#   scripts/check.sh            # tier-1 + perf smoke (the pre-merge check)
#   scripts/check.sh --slow     # additionally run the slow sweep tier
#
# Golden fixtures are regenerated separately (and deliberately, with review)
# via `pytest tests/test_golden_trace.py tests/test_flat_engine.py --update-golden`.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

run_slow=0
for arg in "$@"; do
  case "$arg" in
    --slow) run_slow=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

# Runners declare what obs/ and scale/ read (executors(), populations(),
# client_steps, checkpoint_kind); a getattr probe or an isinstance ladder
# over runner types must not come back.
echo "== runner surface: no probes in obs/ or scale/ =="
if grep -rnE 'getattr\((runner|owner|server|edge),' --include='*.py' src/repro/obs \
  || grep -rn 'isinstance(runner' --include='*.py' src/repro/scale; then
  echo "a runner is probed by name above - read the repro.core.phases.Runner surface instead" >&2
  exit 1
fi

echo "== tier-1: unit suite + golden traces =="
python -m pytest -x -q

# A refactor that renames a method perf/ wraps by name, or breaks a
# workload's bitwise digest check, fails here instead of at the benchmark gate.
echo "== perf/: API surface + quick run (exact counts, digests) =="
python3 -m pytest perf/tests/test_perf_api_surface.py -q
python3 perf/run.py --quick --no-micro
# A FedBuff(16) flush over 256 clients replaces 16 terms of the server's running
# sum: 32 block rows (stale terms out, new terms in) folded with the kept
# expansion in one pass, whose 2-4 level sums are its only cascade adds
# (<= 8 gated); 263 means it fell back to re-summing everyone, 18+ that stale
# terms went back to one cascade add per arrival.
python3 -c "import json; n = json.load(open('perf/out/result.json'))['workloads']['async_fedbuff']['per_layer']['core.partial.add_calls']; assert n <= 8, f'async_fedbuff: {n} ExactPartial.add calls per aggregation (bound 8) - the flush no longer folds its arrivals as block rows'"
# hier_int8's 512 IIADMM clients run as cohorts although their wire is lossy, and
# each of its 16 edges answers the root's one global with a block-built summary
# of 2-3 components (<= 4 gated): 16 * (1 + 4) vectors of 11,018 float64.
python3 -c "import json; row = json.load(open('perf/out/result.json'))['workloads']['hier_int8']['per_layer']; share, nbytes = row['core.batched.cohort_share'], row['hier.root.bytes_per_round']; assert share == 1, f'hier_int8: cohort_share {share} - lossy-wire clients fell back to per-client updates'; assert nbytes <= 16 * (1 + 4) * 11018 * 8, f'hier_int8: {nbytes} root-hop bytes per round (bound 7051520) - edge summaries grew past 4 components'"
# longrun_monitored's 16 ICEADMM clients run as cohorts although they are
# differentially private: clip and Laplace noise are the algorithm body's
# per-lane epilogue, not a reason to fall back.
python3 -c "import json; share = json.load(open('perf/out/result.json'))['workloads']['longrun_monitored']['per_layer']['core.batched.cohort_share']; assert share == 1, f'longrun_monitored: cohort_share {share} - DP clients fell back to per-client updates'"
echo "src/ LOC: $(find src -name '*.py' | xargs wc -l | tail -1)"
# ROADMAP "one runner shell" bar: the runner base and the four runners stay <= 2,230.
echo "runner group LOC: $(wc -l src/repro/core/phases.py src/repro/core/runner.py \
  src/repro/hier/runner.py src/repro/asyncfl/runner.py src/repro/hier/async_runner.py | tail -1)"
# ROADMAP "a process worker is an edge" bar: mp/ + core/executor.py, 1,024 -> <= 800.
echo "mp/ + executor LOC: $(wc -l src/repro/mp/*.py src/repro/core/executor.py | tail -1)"
# ROADMAP "exact sums at the price of a plain sum" bar: core/partial.py 349 + 60 -> <= 409.
echo "core/partial.py LOC: $(wc -l < src/repro/core/partial.py) (bar <= 409)"
# ROADMAP "one benchmark" bar: the paper-figure benches stay <= 400 lines.
echo "benchmarks/ LOC: $(wc -l benchmarks/*.py | tail -1)"

if [ "$run_slow" -eq 1 ]; then
  echo "== slow tier: heavyweight sweeps =="
  python -m pytest -x -q -m slow
fi

echo "== obs quickstart: trace + metrics + run report =="
python examples/obs_quickstart.py > /dev/null

echo "All checks passed."
