#!/bin/bash
# Full local gate: formatting, release build, all workspace tests, clippy
# with warnings denied, static analysis, and the end-to-end identity and
# determinism smokes — what CI runs, in one command.
#
# Every block announces itself through `stage <name>`, so a failure log
# always shows which named stage died, and the final summary line counts
# the stages and carries the throughput guard's verdict.
set -eu
cd "$(dirname "$0")/.."

STAGE_COUNT=0
stage() {
    STAGE_COUNT=$((STAGE_COUNT + 1))
    echo "check.sh: stage $STAGE_COUNT: $1"
}

stage fmt
cargo fmt --all -- --check

stage build
cargo build --release

stage test
cargo test -q --workspace

# Paper-scale graph pin: the 2^22 x 12 RMAT graph every irregular figure
# runs on must keep its committed SHA-256 digests (seeds 42 and 7), so a
# generator speed-up proves it changed no edge.
stage graph-identity
cargo test --release -q -p cosmos-workloads -- --ignored

stage clippy
cargo clippy -q --workspace --all-targets -- -D warnings

# Static analysis (DESIGN.md §12/§17): determinism, hot-path-closure,
# stat-integrity, stat-schema, and panic invariants. Deny-by-default — any
# finding that is neither pragma-justified nor in lint.baseline fails the
# gate. The JSON report is committed so reviews can diff it.
stage lint
cargo run --release -q -p cosmos-lint -- --json results/lint.json

# The lint's own determinism contract: the machine-readable report must be
# byte-identical across --jobs values, and the committed copy must match
# what the tree produces (stale reports fail here, not in review).
stage lint-determinism
lint_a="$(mktemp)"
lint_b="$(mktemp)"
cargo run --release -q -p cosmos-lint -- -q --jobs 1 --json "$lint_a"
cargo run --release -q -p cosmos-lint -- -q --jobs 4 --json "$lint_b"
cmp "$lint_a" "$lint_b" || {
    echo "check.sh: lint report depends on --jobs" >&2
    exit 1
}
cmp "$lint_a" results/lint.json || {
    echo "check.sh: committed results/lint.json is stale — commit the regenerated report" >&2
    exit 1
}
rm -f "$lint_a" "$lint_b"

# Sampled-mode smoke: the validation harness end-to-end at a tiny budget
# (exercises plan building, warmup/priming, and the weighted merge; the
# accuracy/reduction targets only apply at its default paper-scale budget).
# --json redirects the result document so the committed default-budget
# results/sampling_validation.json is left alone.
stage sampling-smoke
smoke_json="$(mktemp)"
cargo run --release -q -p cosmos-experiments --bin sampling_validation -- \
    --accesses 120000 --jobs 2 --json "$smoke_json" >/dev/null
rm -f "$smoke_json"

# Checked-mode smoke: the oracles must observe without perturbing — the
# same grid with and without --check has to emit byte-identical artifacts.
# A plain grid replays each trace's recorded L1/L2/LLC front end into its
# designs, while --check runs every job live, so the same cmp also proves
# replay identical to the live simulation: fig02 (counter schemes), fig10
# (the full design grid), fig05 (CTR policies and prefetchers sharing one
# hierarchy) and fig15 (one group per core count).
stage check-identity
plain_json="$(mktemp)"
checked_json="$(mktemp)"
cargo run --release -q -p cosmos-experiments --bin fig02_traffic -- \
    --accesses 20000 --jobs 2 --json "$plain_json" >/dev/null
cargo run --release -q -p cosmos-experiments --bin fig02_traffic -- \
    --accesses 20000 --jobs 2 --check --json "$checked_json" >/dev/null
cmp "$plain_json" "$checked_json" || {
    echo "check.sh: --check perturbed the fig02_traffic artifact" >&2
    exit 1
}
rm -f "$checked_json"
for bin in fig10_performance fig05_classic_opts fig15_scaling; do
    grid_plain="$(mktemp)"
    grid_checked="$(mktemp)"
    cargo run --release -q -p cosmos-experiments --bin "$bin" -- \
        --accesses 20000 --jobs 2 --json "$grid_plain" >/dev/null
    cargo run --release -q -p cosmos-experiments --bin "$bin" -- \
        --accesses 20000 --jobs 2 --check --json "$grid_checked" >/dev/null
    cmp "$grid_plain" "$grid_checked" || {
        echo "check.sh: --check perturbed the $bin artifact" >&2
        exit 1
    }
    rm -f "$grid_plain" "$grid_checked"
done

# Telemetry identity smoke: --telemetry must also observe without
# perturbing — same grid, same seed, byte-identical result artifact —
# and the exported trace/heatmap/metrics files must exist and carry the
# expected structure.
stage telemetry-identity
tele_json="$(mktemp)"
tele_dir="$(mktemp -d)"
cargo run --release -q -p cosmos-experiments --bin fig02_traffic -- \
    --accesses 20000 --jobs 2 --telemetry "$tele_dir" --json "$tele_json" >/dev/null
cmp "$plain_json" "$tele_json" || {
    echo "check.sh: --telemetry perturbed the fig02_traffic artifact" >&2
    exit 1
}
for f in fig02.trace.json fig02.heatmap.json fig02.metrics.txt; do
    [ -s "$tele_dir/$f" ] || {
        echo "check.sh: telemetry export missing $f" >&2
        exit 1
    }
done
grep -q '"ph":"M"' "$tele_dir/fig02.trace.json" || {
    echo "check.sh: fig02.trace.json has no Chrome trace metadata events" >&2
    exit 1
}
grep -q '^counter cache\.ctr\.hits ' "$tele_dir/fig02.metrics.txt" || {
    echo "check.sh: fig02.metrics.txt has no CTR hit counter" >&2
    exit 1
}
grep -q '"windows"' "$tele_dir/fig02.heatmap.json" || {
    echo "check.sh: fig02.heatmap.json has no occupancy windows" >&2
    exit 1
}
rm -rf "$plain_json" "$tele_json" "$tele_dir"

# Differential fuzzing at a fixed seed: a bounded pass over random
# configurations x synthetic traces through the shadow models and the
# invariant catalogue (~30 s; failures shrink to results/*.json repros).
stage fuzz
cargo run --release -q -p cosmos-verify --bin verify_fuzz -- \
    --seed 1 --cases 16 --accesses 5000 >/dev/null

# Throughput determinism smoke: two quick sim_throughput runs (snapshot
# redirected via --json so the committed BENCH artifacts stay untouched)
# must agree on every model-pure field — the simulated-cycle counts and
# the field order itself. Wall-clock rates differ between runs, so the
# comparison projects the snapshots onto their deterministic skeleton:
# everything except the timing-derived *_per_sec / *_secs / speedup
# numbers. grep -n keeps line numbers, so field ORDER mismatches fail
# the cmp too (BENCH_sim.json is serialized via the insertion-ordered
# cosmos_common::json map — this pins that order).
stage throughput-determinism
thr_a="$(mktemp)"
thr_b="$(mktemp)"
cargo run --release -q -p cosmos-experiments --bin sim_throughput -- \
    --accesses 20000 --json "$thr_a" >/dev/null
cargo run --release -q -p cosmos-experiments --bin sim_throughput -- \
    --accesses 20000 --json "$thr_b" >/dev/null
project_deterministic() {
    grep -vEn '_per_sec|_secs|speedup|gap_ratio' "$1"
}
cmp <(project_deterministic "$thr_a") <(project_deterministic "$thr_b") || {
    echo "check.sh: sim_throughput model fields are not deterministic" >&2
    exit 1
}
grep -q '"sim_cycles_per_access"' "$thr_a" || {
    echo "check.sh: sim_throughput snapshot lost sim_cycles_per_access" >&2
    exit 1
}
rm -f "$thr_a" "$thr_b"

# Snapshot/restore identity smoke (DESIGN.md §14): an uninterrupted
# 200k-access run and a stop-at-100k-then-resume run of the same
# design x workload must emit byte-identical result artifacts, with the
# resumed half green under the cosmos-verify oracles (--check errors out
# if any shadow model diverges). Covers a fig02-style scheme config
# (MorphCtr) and the fig10 full design (COSMOS).
stage snapshot-restore
ckpt_dir="$(mktemp -d)"
for design in MorphCtr COSMOS; do
    cargo run --release -q -p cosmos-serve --bin cosmos_serve -- ckpt \
        --design "$design" --workload bfs --accesses 200000 \
        --snapshot "$ckpt_dir/$design.full.snap.json" \
        --json "$ckpt_dir/$design.full.json"
    cargo run --release -q -p cosmos-serve --bin cosmos_serve -- ckpt \
        --design "$design" --workload bfs --accesses 200000 \
        --stop-after 100000 --snapshot "$ckpt_dir/$design.snap.json"
    cargo run --release -q -p cosmos-serve --bin cosmos_serve -- ckpt \
        --design "$design" --workload bfs --accesses 200000 --check \
        --snapshot "$ckpt_dir/$design.snap.json" \
        --json "$ckpt_dir/$design.resumed.json"
    cmp "$ckpt_dir/$design.full.json" "$ckpt_dir/$design.resumed.json" || {
        echo "check.sh: snapshot restore diverged from uninterrupted run ($design)" >&2
        exit 1
    }
done
rm -rf "$ckpt_dir"

# Serve-mode smoke: three figure jobs through the NDJSON protocol must
# produce artifacts byte-identical to the corresponding grid binaries
# run directly (the serve path and the binaries share the figure
# registry, so any drift here means the registry wiring broke).
stage serve
serve_dir="$(mktemp -d)"
printf '%s\n' \
    '{"op":"submit","job":{"type":"figure","figure":"fig02","accesses":20000}}' \
    '{"op":"submit","job":{"type":"figure","figure":"fig10","accesses":20000}}' \
    '{"op":"submit","job":{"type":"figure","figure":"fig11","accesses":20000}}' \
    | cargo run --release -q -p cosmos-serve --bin cosmos_serve -- serve \
        --state "$serve_dir" --jobs 2 >/dev/null
while read -r id bin; do
    ref="$(mktemp)"
    cargo run --release -q -p cosmos-experiments --bin "$bin" -- \
        --accesses 20000 --jobs 1 --json "$ref" >/dev/null
    cmp "$serve_dir/job-$id.json" "$ref" || {
        echo "check.sh: serve artifact job-$id.json diverges from $bin" >&2
        exit 1
    }
    rm -f "$ref"
done <<'JOBS'
1 fig02_traffic
2 fig10_performance
3 fig11_ctr_miss
JOBS
rm -rf "$serve_dir"

# Kill-and-resume smoke: shut the server down with sim jobs still in
# flight (single worker, immediate shutdown), then --resume must finish
# everything — done jobs are not re-run (covered deterministically by
# the cosmos-serve unit tests), preempted ones continue from their
# snapshot — and the artifacts must match a fresh uninterrupted run.
stage serve-resume
resume_dir="$(mktemp -d)"
printf '%s\n' \
    '{"op":"submit","job":{"type":"sim","design":"NP","workload":"bfs","accesses":40000,"snapshot_every":5000}}' \
    '{"op":"submit","job":{"type":"sim","design":"COSMOS","workload":"pr","accesses":40000,"snapshot_every":5000}}' \
    '{"op":"shutdown"}' \
    | cargo run --release -q -p cosmos-serve --bin cosmos_serve -- serve \
        --state "$resume_dir" --jobs 1 >/dev/null
cargo run --release -q -p cosmos-serve --bin cosmos_serve -- serve \
    --resume "$resume_dir" --jobs 1 >/dev/null </dev/null
[ "$(grep -c '"state": "done"' "$resume_dir/manifest.json")" -eq 2 ] || {
    echo "check.sh: resumed server did not finish both sim jobs" >&2
    cat "$resume_dir/manifest.json" >&2
    exit 1
}
while read -r id design workload; do
    ref_dir="$(mktemp -d)"
    cargo run --release -q -p cosmos-serve --bin cosmos_serve -- ckpt \
        --design "$design" --workload "$workload" --accesses 40000 \
        --snapshot "$ref_dir/ref.snap.json" --json "$ref_dir/ref.json"
    cmp "$resume_dir/job-$id.json" "$ref_dir/ref.json" || {
        echo "check.sh: resumed job-$id.json diverges from a fresh $workload/$design run" >&2
        exit 1
    }
    rm -rf "$ref_dir"
done <<'JOBS'
1 NP bfs
2 COSMOS pr
JOBS
rm -rf "$resume_dir"

# Attribution smoke (DESIGN.md §15): the explain_ctr report and artifact
# must be deterministic — byte-identical across repeat runs and across
# --jobs — and every stream's class counts must sum exactly to its
# sampled miss count (the conservation law; the report prints one
# grep-able "conservation ... (ok)" line per stream and says VIOLATED on
# any mismatch).
stage explain-determinism
exp_a="$(mktemp)"
exp_b="$(mktemp)"
exp_c="$(mktemp)"
exp_rep_a="$(mktemp)"
exp_rep_b="$(mktemp)"
cargo run --release -q -p cosmos-experiments --bin explain_ctr -- \
    --accesses 20000 --jobs 1 --json "$exp_a" >"$exp_rep_a"
cargo run --release -q -p cosmos-experiments --bin explain_ctr -- \
    --accesses 20000 --jobs 1 --json "$exp_b" >/dev/null
cargo run --release -q -p cosmos-experiments --bin explain_ctr -- \
    --accesses 20000 --jobs 4 --json "$exp_c" >"$exp_rep_b"
cmp "$exp_a" "$exp_b" || {
    echo "check.sh: explain_ctr artifact differs between identical runs" >&2
    exit 1
}
cmp "$exp_a" "$exp_c" || {
    echo "check.sh: explain_ctr artifact depends on --jobs" >&2
    exit 1
}
cmp "$exp_rep_a" "$exp_rep_b" || {
    echo "check.sh: explain_ctr report depends on --jobs" >&2
    exit 1
}
grep -q 'sampled misses (ok)' "$exp_rep_a" || {
    echo "check.sh: explain_ctr report has no conservation lines" >&2
    exit 1
}
if grep -q 'VIOLATED' "$exp_rep_a"; then
    echo "check.sh: explain_ctr conservation law violated" >&2
    exit 1
fi
rm -f "$exp_a" "$exp_b" "$exp_c" "$exp_rep_a" "$exp_rep_b"

# Occupancy-channel smoke (DESIGN.md §16): the channel_occupancy figure
# must be byte-identical across --jobs and under --check (which runs the
# shadow oracles on every cell — the keyed-randomized and
# skewed-associative index variants included), and a serve-mode job must
# reproduce the binary's artifact exactly through the shared registry.
stage occupancy-channel
chan_a="$(mktemp)"
chan_b="$(mktemp)"
chan_c="$(mktemp)"
cargo run --release -q -p cosmos-experiments --bin channel_occupancy -- \
    --accesses 30000 --jobs 1 --json "$chan_a" >/dev/null
cargo run --release -q -p cosmos-experiments --bin channel_occupancy -- \
    --accesses 30000 --jobs 4 --json "$chan_b" >/dev/null
cargo run --release -q -p cosmos-experiments --bin channel_occupancy -- \
    --accesses 30000 --jobs 2 --check --json "$chan_c" >/dev/null
cmp "$chan_a" "$chan_b" || {
    echo "check.sh: channel_occupancy artifact depends on --jobs" >&2
    exit 1
}
cmp "$chan_a" "$chan_c" || {
    echo "check.sh: --check perturbed the channel_occupancy artifact" >&2
    exit 1
}
chan_serve="$(mktemp -d)"
printf '%s\n' \
    '{"op":"submit","job":{"type":"figure","figure":"channel_occupancy","accesses":30000}}' \
    | cargo run --release -q -p cosmos-serve --bin cosmos_serve -- serve \
        --state "$chan_serve" --jobs 1 >/dev/null
cmp "$chan_serve/job-1.json" "$chan_a" || {
    echo "check.sh: serve channel_occupancy artifact diverges from the binary" >&2
    exit 1
}
rm -f "$chan_a" "$chan_b" "$chan_c"
rm -rf "$chan_serve"

# Throughput trend: flags >10% drops of the committed sim_throughput
# snapshot against its history (both the plain-grid rate and the
# channel-harness cell rate). Warn-only by default (wall-clock rates
# are machine-dependent); export THROUGHPUT_GUARD=deny to make a
# flagged drop fail this gate. Its verdict is echoed here and folded
# into the final summary line.
stage throughput-guard
guard_status=0
guard_out="$(scripts/throughput_guard.sh 2>&1)" || guard_status=$?
printf '%s\n' "$guard_out"
if [ "$guard_status" -ne 0 ]; then
    echo "check.sh: throughput_guard failed (exit $guard_status)" >&2
    exit "$guard_status"
fi
guard_summary="$(printf '%s\n' "$guard_out" \
    | sed -n -E 's/^throughput_guard: (ok: |(WARNING: ))/\2/p' | paste -sd ';' -)"
[ -n "$guard_summary" ] || guard_summary="no comparable history"

echo "check.sh: all green ($STAGE_COUNT stages; throughput_guard: $guard_summary)"
