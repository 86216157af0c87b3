#!/bin/sh
# Tier-2 verification gate: everything tier-1 runs (build + tests) plus
# static analysis, the race detector, and the differential-fuzzer gates.
#
# The race pass uses -short because internal/bench honors testing.Short();
# the full -race run takes several minutes (internal/bench alone can exceed
# go test's default 10m under the race detector) and is available via
# RACE_FULL=1 (the nightly workflow sets it).
#
# Every gate's output is teed into OBS_ARTIFACT_DIR (default
# /tmp/govfm-obs) so CI uploads the full per-gate logs — divergence dumps
# included — on failure, not just whatever happened to hit stdout.
set -eu
cd "$(dirname "$0")/.."

# -mod=mod keeps every go build/run/test below resolving the module the
# same way regardless of the caller's GOFLAGS, and the warm-up build
# populates the build cache once so the repeated `go run ./cmd/...`
# invocations below reuse it instead of each paying a cold compile.
GOFLAGS=-mod=mod
export GOFLAGS

obs_dir="${OBS_ARTIFACT_DIR:-/tmp/govfm-obs}"
mkdir -p "$obs_dir"

# run_gate <name> <cmd...>: run a gate, teeing its output to
# $obs_dir/<name>.log.
run_gate() {
    gate_name="$1"
    shift
    if ! "$@" >"$obs_dir/$gate_name.log" 2>&1; then
        cat "$obs_dir/$gate_name.log"
        echo "gate $gate_name FAILED (log: $obs_dir/$gate_name.log)"
        exit 1
    fi
    cat "$obs_dir/$gate_name.log"
}

echo "== go build ./... (warm-up; later gates reuse the build cache)"
run_gate build go build ./...

echo "== go test ./..."
run_gate test go test ./...

echo "== go vet ./..."
run_gate vet go vet ./...

echo "== staticcheck"
# Pinned in CI (see .github/workflows/ci.yml); locally we use whatever is
# on PATH and skip with a note when absent rather than demanding an
# install.
if command -v staticcheck >/dev/null 2>&1; then
    # shellcheck disable=SC2046 # word-splitting the package list is the point
    run_gate staticcheck staticcheck $(go list ./... | grep -v /testdata/)
else
    echo "   staticcheck not on PATH; skipping (CI runs it pinned)" \
        | tee "$obs_dir/staticcheck.log"
fi

echo "== go test -race ./..."
if [ "${RACE_FULL:-0}" = "1" ]; then
    run_gate race go test -race -timeout 30m ./...
else
    run_gate race go test -race -short ./...
fi

echo "== fuzzdiff smoke"
run_gate fuzzdiff_smoke go run ./cmd/fuzzdiff -smoke

echo "== hext lockstep (hypervisor-extension bias, state + cycles, 500 cases)"
# Three-way lockstep with the generator biased into V=1 guest states:
# hfence encodings, H CSR traffic, guest-page faults, and virtual
# instructions all land in the differential window. Bit-identical
# architectural state AND cycle counters, >= 400 cases, zero divergences.
run_gate hext_lockstep go run ./cmd/fuzzdiff -hext -smoke

echo "== equivalence (execution tiers x schedulers x forks, full-image diff)"
# One gate for every host-side mechanism that must not change a machine's
# end state. Per profile (visionfive2, p550, and rva23, the Sstc profile),
# 667 closed N-hart cases (N in 1, 2, 4) each run on the interpreter, the
# host caches and the superblock tier, cold and forked mid-run, under the
# sequential and the quantum-parallel scheduler; every end state is
# compared with hart.DiffImages (all harts, all CSRs, devices, RAM, cycle
# counters) against the interpreter's cold run, and frozen-clock cases
# also across schedulers. 667 monitored lockstep cases per profile then run
# with host caches on and off. The log lists the runs compared in every
# tier/sched/fork cell. 3 x 667 keeps the total case budget of the
# two-profile gate (2 x 1000).
run_gate equiv go run ./cmd/fuzzdiff -equiv 667

echo "== Table 4 host-throughput benchmark (compile-and-run gate)"
run_gate bench_table4 go test ./internal/bench -run '^$' -bench BenchmarkTable4Operations -benchtime 1x

echo "== 4-hart sequential-scheduler benchmark (compile-and-run gate)"
run_gate bench_seq4 go test ./internal/bench -run '^$' -bench BenchmarkSchedSeq4Hart -benchtime 1x

echo "== chaos smoke"
run_gate chaos_smoke go run ./cmd/chaos -smoke

echo "== TEE chaos smoke (TEE fault deck; wall + lifecycle invariants)"
# Restricts injection to the TEE deck — forged confidential-compute
# lifecycle hypercalls, double-donations, reclaim storms, probes at the
# Dorami monitor wall — across all three policies, asserting after every
# fault that the locked-PMP wall holds on every hart, the ACE lifecycle
# FSM is structurally intact, and the monitor's protected-state
# fingerprint never changed.
run_gate tee_chaos go run ./cmd/chaos -tee -smoke

echo "== TEE lifecycle fuzz (shadow-model FSM sweep, 40 cases per profile)"
# Randomized enclave lifecycle programs against an independent shadow
# FSM: state, measurement, donation ledger, and wall checked after every
# single operation; exits nonzero if the sweep exercised no guards.
run_gate tee_fuzz go run ./cmd/fuzzdiff -tee 40

echo "== fleet chaos smoke (120 control-plane faults; supervision invariants)"
# Attacks the vfmd control plane itself — worker panics, stuck/slow jobs,
# dropped/duplicated requests, mid-job machine kills — and asserts the
# supervision invariants: service never crashes, every job terminal, no
# machine lock leaked, no double-runs, respawns within cap.
run_gate fleet_chaos go run ./cmd/chaos -fleet -smoke -fleet-report "$obs_dir/fleet_chaos.json"

echo "== obs overhead (simulated cycles bit-identical with observability on vs. off)"
# The same built-in gosbi boot, once bare and once with the full
# observability layer attached (metrics + trace ring). Observability must
# stay architecturally invisible: identical cycle and instret counts.
plain=$(go run ./cmd/rvsim | tee "$obs_dir/obs_plain.log" \
    | grep -o 'cycles=[0-9]* instret=[0-9]*')
traced=$(go run ./cmd/rvsim -metrics-out "$obs_dir/boot_metrics.json" \
    -trace-out "$obs_dir/boot_trace.json" | tee "$obs_dir/obs_traced.log" \
    | grep -o 'cycles=[0-9]* instret=[0-9]*')
if [ "$plain" != "$traced" ]; then
    echo "obs overhead gate FAILED: bare [$plain] vs. observed [$traced]"
    exit 1
fi
echo "   $plain (identical; trace + metrics in $obs_dir)"

echo "verify: all gates passed (logs in $obs_dir)"
