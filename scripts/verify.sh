#!/usr/bin/env sh
# Full quality gate for the volcast workspace, run with the network forced
# off. The workspace has no external dependencies, so an empty registry
# cache must be enough to pass every step (see DESIGN.md §7).
#
# Usage: scripts/verify.sh  (from the repository root)

set -eu

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings denied, unsafe blocks must carry SAFETY docs)"
# Every unsafe block in the workspace lives in volcast-pointcloud's
# codec::simd module and must explain itself; all other crates forbid
# unsafe at the crate root (volcast-util's counting allocator excepted).
cargo clippy --workspace --all-targets -- -D warnings -D clippy::undocumented-unsafe-blocks

echo "==> cargo doc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test (VOLCAST_THREADS=1)"
VOLCAST_THREADS=1 cargo test --workspace -q

echo "==> cargo test (VOLCAST_THREADS=4)"
VOLCAST_THREADS=4 cargo test --workspace -q

echo "==> cargo test (VOLCAST_TRACE=1: suite passes with tracing on)"
VOLCAST_TRACE=1 cargo test --workspace -q

echo "==> cargo test (VOLCAST_NO_SIMD=1: scalar codec fallback is equivalent)"
# Forces the codec's scalar backend; every bitstream-equality and
# round-trip test must pass unchanged, proving the SIMD kernels are a pure
# wall-clock optimization.
VOLCAST_NO_SIMD=1 cargo test -q -p volcast-pointcloud

echo "==> codec round-trip is allocation-free under the counting allocator"
# Own test binary: the counting global allocator is process-wide, so the
# steady-state assertion must not share a process with other tests. Run in
# release (the assertion is about the optimized frame path) and with
# tracing on — the test disables obs itself and must stay green anyway.
VOLCAST_TRACE=1 cargo test --release -q -p volcast-pointcloud --test codec_alloc

echo "==> fig2a regenerates byte-identically at both thread counts"
tmp_fig2a="$(mktemp)"
tmp_obs="$(mktemp -d)"
trap 'rm -rf "$tmp_fig2a" "$tmp_obs"' EXIT
VOLCAST_THREADS=1 cargo run -q --release -p volcast-bench --bin fig2a > "$tmp_fig2a"
diff results/fig2a.txt "$tmp_fig2a"
VOLCAST_THREADS=4 cargo run -q --release -p volcast-bench --bin fig2a > "$tmp_fig2a"
diff results/fig2a.txt "$tmp_fig2a"

echo "==> fig2a obs snapshot matches the committed copy at both thread counts"
# With tracing on, fig2a dumps its deterministic metrics snapshot; it must
# be byte-identical to results/obs_fig2a.json regardless of the worker
# count (VOLCAST_OBS_DIR redirects the dump so the committed file is the
# untouched reference).
VOLCAST_TRACE=1 VOLCAST_OBS_DIR="$tmp_obs" VOLCAST_THREADS=1 \
    cargo run -q --release -p volcast-bench --bin fig2a > /dev/null
diff results/obs_fig2a.json "$tmp_obs/obs_fig2a.json"
VOLCAST_TRACE=1 VOLCAST_OBS_DIR="$tmp_obs" VOLCAST_THREADS=4 \
    cargo run -q --release -p volcast-bench --bin fig2a > /dev/null
diff results/obs_fig2a.json "$tmp_obs/obs_fig2a.json"

echo "==> beam figures and multi-AP extension regenerate byte-identically at both thread counts"
# The group-beam engine's consumers outside the session: each bin runs in
# well under a second, so the committed captures gate every redesign of
# the sweep, the multi-lobe choice and the multi-AP coordinator.
tmp_bin="$(mktemp)"
for bin in fig3b fig3d fig3e ext_multiap; do
    for threads in 1 4; do
        VOLCAST_THREADS=$threads cargo run -q --release -p volcast-bench --bin "$bin" > "$tmp_bin"
        diff "results/$bin.txt" "$tmp_bin"
    done
done
rm -f "$tmp_bin"

echo "==> fault-scenario matrix is deterministic across thread counts"
# The fault-injection gate: every scenario's SessionOutcome FNV and obs
# snapshot must match the committed references at 1 and 4 workers — in
# both delivery modes (single-stream ladder and layered base +
# enhancements + XOR-parity FEC; the layered rows carry pinned hashes).
sh scripts/fault_matrix.sh

echo "==> wire-format fuzz smoke (1000 seeded mutations, no panics)"
# The server-facing robustness gate: random bit flips, splats,
# truncations, and duplications over a valid stream must never panic the
# parser, and a payload served as valid must hash to its checksum.
cargo test --release -q -p volcast-net --test wire fuzz_smoke_random_mutations_never_panic

echo "==> server bench is byte-identical at VOLCAST_THREADS=1 and 8"
# The session server at its full default scale (1200 offered clients,
# admission cap 1024, 120 frames; runs in well under a second). stdout
# carries only deterministic metrics and the outcome hash, so a plain
# diff is the thread-invariance witness — and the run leaves
# BENCH_server.json regenerated at the canonical scale.
tmp_srv1="$(mktemp)"
tmp_srv8="$(mktemp)"
VOLCAST_THREADS=1 cargo run -q --release -p volcast-bench --bin server > "$tmp_srv1" 2> /dev/null
VOLCAST_THREADS=8 cargo run -q --release -p volcast-bench --bin server > "$tmp_srv8" 2> /dev/null
diff "$tmp_srv1" "$tmp_srv8"
rm -f "$tmp_srv1" "$tmp_srv8"

echo "==> campus smoke is byte-identical at VOLCAST_THREADS=1 and 8, hash pinned"
# A fast campus configuration (500 users, 8 APs, 30 frames; ~50 ms) with
# the outcome hash pinned: the room-epoch hot path — epoch-invariant RSS
# caching, plan-skeleton reuse, the flattened simulator core — cannot
# drift without failing this diff. --report '' keeps the committed
# full-scale BENCH_campus.json untouched.
tmp_cmp1="$(mktemp)"
tmp_cmp8="$(mktemp)"
VOLCAST_THREADS=1 cargo run -q --release -p volcast-bench --bin campus -- \
    --users 500 --aps 8 --frames 30 --report '' > "$tmp_cmp1" 2> /dev/null
VOLCAST_THREADS=8 cargo run -q --release -p volcast-bench --bin campus -- \
    --users 500 --aps 8 --frames 30 --report '' > "$tmp_cmp8" 2> /dev/null
diff "$tmp_cmp1" "$tmp_cmp8"
grep -q "outcome hash 0x671fa175dde52bf0" "$tmp_cmp1" || {
    echo "ERROR: campus smoke outcome hash drifted (expected 0x671fa175dde52bf0):" >&2
    tail -1 "$tmp_cmp1" >&2
    exit 1
}
rm -f "$tmp_cmp1" "$tmp_cmp8"

echo "verify: all checks passed"
