#!/usr/bin/env bash
# One-command verify: clean stale bytecode, fail fast on collection
# errors, run the tier-1 suite (with the scheduler invariant, chaos,
# pinned report digests (tests/test_serve_columnar.py: the SHA-256 of
# every former columnar, chaos, hedge and preempt scenario),
# observability (exporter byte identity, P² bit identity) and
# probe-kernel bit-identity suites called out
# explicitly, so they still run if testpaths ever change; the
# tests/test_probe_kernels.py line also pins the frozen coefficient
# table, src/repro/compile/coeff_table.py, against the live probe for
# all 90 scene x pipeline pairs, and pins the table's bytes to its
# writer — regenerate it with
# `python -m repro.compile.measure --write-table`), pin the
# event-engine perf-smoke floors
# (single-tenant, the multi-tenant QoS path, both autoscaler modes,
# the observer on/off floors, and the fault path), then smoke-run the
# serving CLI end to end — static fleet, autoscaled heterogeneous
# fleet with admission, async compile with prefetch, a two-tenant QoS
# run with weighted admission and preemption, a strict-tier QoS run
# diffed against itself (the per-tier lanes must be deterministic),
# a chaos run with fault
# injection and hedging, a predictive-autoscaling run that round-trips
# a trace library through a temp dir (the second invocation must
# warm-start from what the first one flushed), and an observability
# run whose --trace-out artifact must schema-validate and summarize,
# whose trace and metrics artifacts must come out byte-identical when
# the run repeats, and whose report lines must match the same run
# without observer flags (the observer hooks may not move a number).
# Finally, pin the sweep runner's determinism contract: the same sweep
# run serially and across 2 worker processes must merge to
# byte-identical JSON — then smoke the federation layer: a two-region
# `repro federate` outage run diffed for determinism (federated arm
# fails over, naive arm strands the wave), and the ext_federation
# experiment written under benchmarks/results/ for the CI artifact.
# Traffic generation is pinned to golden trace digests by
# tests/test_serve_traffic.py; the router is pinned to its frozen
# scan-everything reference and frame prices to one per (trace, config)
# across a federation's epochs by tests/test_serve_federation.py; and
# the spec and FederationConfig fuzz (tests/test_spec_fuzz.py) runs on
# the explicit serve line too. `repro serve --rate nan` and
# `repro federate --sync-ms nan` (or a cadence so small the epoch count
# overflows) must exit 2 with an `error:` line rather than print a
# report, a traceback or loop for ever.
set -euo pipefail
cd "$(dirname "$0")/.."

find . -type d -name __pycache__ -prune -exec rm -rf {} +
find . -type f -name '*.pyc' -delete

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
# Collection pre-step: a suite that cannot even import must fail the
# run loudly here, not surface as a confusing mid-run pytest error.
python -m pytest --co -q > /dev/null
python -m pytest -x -q
python -m pytest -q tests/test_serve_invariants.py tests/test_serve_tenants.py \
  tests/test_serve_predictive.py tests/test_serve_faults.py \
  tests/test_serve_federation.py tests/test_artifact_durability.py \
  tests/test_serve_traffic.py tests/test_serve_combinations.py \
  tests/test_spec_fuzz.py tests/test_serve_columnar.py
python -m pytest -q tests/test_obs_tracer.py tests/test_obs_metrics.py \
  tests/test_obs_export.py tests/test_obs_flight.py tests/test_obs_neutrality.py
python -m pytest -q tests/test_probe_kernels.py
python -m pytest -q benchmarks/test_engine_perf.py
LIBDIR="$(mktemp -d)"
trap 'rm -rf "$LIBDIR"' EXIT
python -m repro serve --requests 50 --chips 2 --width 320 --height 180
# A non-finite traffic input fails cleanly: exit 2 and an `error:` line.
status=0
python -m repro serve --requests 10 --rate nan 2> "$LIBDIR/rate_nan.err" \
  || status=$?
test "$status" -eq 2
grep -q '^error: ' "$LIBDIR/rate_nan.err"
status=0
python -m repro federate --regions 'a:chips=1' --requests 10 --sync-ms nan \
  2> "$LIBDIR/sync_nan.err" || status=$?
test "$status" -eq 2
grep -q '^error: ' "$LIBDIR/sync_nan.err"
status=0
python -m repro federate --regions 'a:chips=1' --requests 10 \
  --sync-ms 1e-320 2> "$LIBDIR/sync_tiny.err" || status=$?
test "$status" -eq 2
grep -q '^error: .*sync_cadence_s' "$LIBDIR/sync_tiny.err"
python -m repro serve --requests 40 --chips 3 --min-chips 1 \
  --traffic bursty --width 320 --height 180 \
  --autoscale --admission slo-shed --fleet-spec '2*1x1,1*2x2'
python -m repro serve --requests 40 --chips 2 --width 160 --height 90 \
  --traffic bursty --compile-workers 2 --prefetch
python -m repro serve --requests 40 --chips 2 --width 160 --height 90 \
  --traffic bursty --rate 300 \
  --tenants 'premium:tier=0,weight=4,share=0.25;economy:tier=1,slo=2' \
  --admission weighted --preempt

# Strict-tier QoS smoke: a two-tenant run (no weighted budgets, no
# preemption) rides the per-(tier, pipeline) pending lanes; the same
# run twice must report byte-identically.
python -m repro serve --requests 40 --chips 2 --width 160 --height 90 \
  --traffic bursty --rate 300 --seed 5 \
  --tenants 'premium:tier=0,share=0.25;economy:tier=1,slo=2' \
  > "$LIBDIR/qos_one.txt"
python -m repro serve --requests 40 --chips 2 --width 160 --height 90 \
  --traffic bursty --rate 300 --seed 5 \
  --tenants 'premium:tier=0,share=0.25;economy:tier=1,slo=2' \
  > "$LIBDIR/qos_two.txt"
diff "$LIBDIR/qos_one.txt" "$LIBDIR/qos_two.txt"

# Chaos serving: literal fault spec (recoverable crash + straggler +
# rollback) with hedging, and a seeded random plan; both must report
# the fault scoreboard.
python -m repro serve --requests 60 --chips 3 --width 160 --height 90 \
  --traffic bursty --rate 300 \
  --faults 'crash=1@0.02+0.05;slow=2@0.0-0.2x4;rollback=0.002' \
  --hedge | grep "availability" > /dev/null
python -m repro serve --requests 60 --chips 3 --width 160 --height 90 \
  --traffic bursty --rate 300 \
  --faults 'seeded:seed=7,chips=3,horizon=0.2,crashes=2,stragglers=2' \
  | grep "crashes" > /dev/null

# Predictive serving: trace-library round trip + forecast-led autoscaling.
python -m repro serve --requests 40 --chips 3 --min-chips 1 \
  --traffic diurnal --width 160 --height 90 \
  --trace-library "$LIBDIR/traces.json" --autoscale predictive
test -s "$LIBDIR/traces.json"
python -m repro serve --requests 40 --chips 3 --min-chips 1 \
  --traffic diurnal --width 160 --height 90 \
  --trace-library "$LIBDIR/traces.json" --autoscale predictive \
  > "$LIBDIR/restart.txt"
grep -Eq "hits, [1-9][0-9]* warm-started" "$LIBDIR/restart.txt"

# Observability: full-sink serve run, then schema-validate the Chrome
# trace artifact and summarize it through the `repro trace` command.
python -m repro serve --requests 40 --chips 2 --width 160 --height 90 \
  --traffic bursty --rate 300 --admission slo-shed \
  --trace-out "$LIBDIR/serve.trace.json" \
  --metrics-out "$LIBDIR/metrics.csv" --flight-recorder \
  > "$LIBDIR/observed.txt"
python - "$LIBDIR/serve.trace.json" <<'PY'
import sys
from repro.obs import load_chrome_trace, validate_chrome_trace
n = validate_chrome_trace(load_chrome_trace(sys.argv[1]))
print(f"trace artifact schema-valid: {n} events")
PY
python -m repro trace "$LIBDIR/serve.trace.json" > "$LIBDIR/trace_summary.txt"
grep -q "trace events" "$LIBDIR/trace_summary.txt"
head -1 "$LIBDIR/metrics.csv" | grep -q '^t_s,'
# Export determinism: the same observed run again must write both
# artifacts byte for byte.
python -m repro serve --requests 40 --chips 2 --width 160 --height 90 \
  --traffic bursty --rate 300 --admission slo-shed \
  --trace-out "$LIBDIR/serve_again.trace.json" \
  --metrics-out "$LIBDIR/metrics_again.csv" --flight-recorder > /dev/null
cmp "$LIBDIR/serve.trace.json" "$LIBDIR/serve_again.trace.json"
cmp "$LIBDIR/metrics.csv" "$LIBDIR/metrics_again.csv"
# Observer neutrality at the CLI: the same run without observer flags
# must print exactly the observed run's leading lines (the observed run
# only appends its artifact summary).
python -m repro serve --requests 40 --chips 2 --width 160 --height 90 \
  --traffic bursty --rate 300 --admission slo-shed > "$LIBDIR/bare.txt"
head -n "$(wc -l < "$LIBDIR/bare.txt")" "$LIBDIR/observed.txt" \
  | diff "$LIBDIR/bare.txt" -

# Parallel sweep runner: 2 configurations across 2 worker processes
# must merge byte-identically to the serial run (seeded traces, no
# wall-clock in the artifact, name-sorted merge). The rate axis lists
# one value twice in different float spellings — the parser must
# collapse them to one arm instead of minting colliding merge keys,
# so the artifact must merge to exactly 2 points (each point also
# echoes its spec, so counting "name" lines would double-count).
python -m repro sweep --set requests=80 --vary 'rate=400.0,400' \
  --vary chips=2,3 --workers 1 --out "$LIBDIR/sweep_serial.json"
python -m repro sweep --set requests=80 --vary 'rate=400.0,400' \
  --vary chips=2,3 --workers 2 --out "$LIBDIR/sweep_parallel.json"
diff "$LIBDIR/sweep_serial.json" "$LIBDIR/sweep_parallel.json"
grep -qx '  "n_points": 2,' "$LIBDIR/sweep_serial.json"

# Federated serving: a two-region planet whose western wave rides
# behind an outage window. The federated run must fail the stranded
# wave over (no hard failures), the naive control arm must strand it,
# and the same invocation twice must diff byte-identically — the
# federation loop's determinism contract.
python -m repro federate --regions 'east:chips=2;west:tz=8,chips=2' \
  --requests 40 --rate 200 --traffic steady \
  --faults 'outage=west@1.3+0.5' > "$LIBDIR/federate_one.txt"
python -m repro federate --regions 'east:chips=2;west:tz=8,chips=2' \
  --requests 40 --rate 200 --traffic steady \
  --faults 'outage=west@1.3+0.5' > "$LIBDIR/federate_two.txt"
diff "$LIBDIR/federate_one.txt" "$LIBDIR/federate_two.txt"
grep -q "failed 0" "$LIBDIR/federate_one.txt"
grep -q "failovers 40" "$LIBDIR/federate_one.txt"
python -m repro federate --regions 'east:chips=2;west:tz=8,chips=2' \
  --requests 40 --rate 200 --traffic steady --router naive --no-gossip \
  --faults 'outage=west@1.3+0.5' > "$LIBDIR/federate_naive.txt"
grep -q "failed 40" "$LIBDIR/federate_naive.txt"

# The ext_federation experiment (healthy / naive / federated arms over
# the frozen three-region chaos plan), written under benchmarks/results/
# so CI uploads it next to benchmarks/results/BENCH_engine.json.
mkdir -p benchmarks/results
python -m repro sweep --experiment ext_federation --workers 3 \
  --out benchmarks/results/ext_federation.json
grep -q '"name": "ext_federation/federated"' benchmarks/results/ext_federation.json
