#!/usr/bin/env bash
# Repo verification gate: tier-1 build + tests, then a quick kernel
# smoke benchmark (the fused rotate-and-measure kernel must not lose to
# the unfused rotate-then-renormalize sequence it replaced; see
# "Performance notes" in README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== lint gate: scripts/lint.sh =="
scripts/lint.sh

echo "== tier-1: cargo build --release =="
cargo build --release --workspace

echo "== tier-1: cargo test -q =="
cargo test -q --workspace

echo "== perfbench: the benchmark package builds and its tests pass against the library =="
# perfbench/ is a package of its own that uses only public items, so a
# public-API change that breaks the benchmark fails here, not in a
# benchmark run
cargo test --release --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

echo "== kernel bodies below AVX-512: treesvd-matrix tests at x86-64-v3 (AVX2+FMA) and x86-64 (portable) =="
# .cargo/config.toml builds for the host CPU, so an AVX-512 host compiles
# only the AVX-512 bodies of the ops kernels; these runs compile the other
# two and pin them to the retired kernels and the scalar references
# (ops::oracle). RUSTFLAGS replaces the config's flags, so each target CPU
# gets its own target directory.
RUSTFLAGS="-C target-cpu=x86-64-v3" \
    cargo test --release --offline -p treesvd-matrix --target-dir target/cpu-x86-64-v3
RUSTFLAGS="-C target-cpu=x86-64" \
    cargo test --release --offline -p treesvd-matrix --target-dir target/cpu-x86-64

echo "== bench smoke: fused vs unfused rotation (512x64) =="
cargo run --release -p treesvd-bench --bin bench_kernels -- --smoke

echo "== bench smoke: Gram vs pairwise blocked meeting (512x128, c=16) =="
cargo run --release -p treesvd-bench --bin bench_blocked -- --smoke

echo "== bench smoke: distributed executor, advised overlap vs the faster schedule (4096x16), overlap pays (4096x32) =="
# interleaved zero-copy vs overlapped runs: the schedule advise_overlap
# picks must be within 10% of the faster one at P=8, overlap must engage
# with zero steady payload allocations, and at P=16 overlapped must be
# within 10% of overlap-off
cargo run --release -p treesvd-bench --bin bench_distributed -- --smoke

echo "== bench smoke: batched SoA engine vs per-problem sequential loop (8x8 x 100k) =="
cargo run --release -p treesvd-bench --bin bench_batched -- --smoke

echo "== bench smoke: tall-skinny QR front-end vs direct Jacobi (8192x64, m/n=128) =="
cargo run --release -p treesvd-bench --bin bench_tall -- --smoke

echo "== bench smoke: auto-tuner vs fixed configs + warm-path zero-alloc gate =="
# auto within 5% of the best fixed config at each probe point, strictly
# beating the untuned default somewhere (incl. the small-P distributed
# point with overlap correctly disabled), and the second plan_for on a
# cached key makes zero heap allocations and re-runs no probe
cargo run --release -p treesvd-bench --bin bench_auto -- --smoke

echo "== certificate smoke: warm driver run must skip the provers, bitwise-identical =="
# the cold run proves and emits a certificate; the warm run validates it
# instead of re-proving (hit/miss counters assert the skip) and must
# reproduce sigma/U/V bitwise (see docs/ANALYSIS.md, "Certificates and
# the fast checker")
cargo test -q --release -p treesvd-core --lib -- --exact \
    driver::distributed_tests::warm_certificate_run_skips_prover_and_is_bitwise_identical

echo "== chaos soak: seeded fault plans must recover bitwise (96x16, P=8) =="
# fixed seeds, bounded wall time; also gates zero steady-state payload
# allocations with an armed-but-inert plan (see DESIGN.md §12)
cargo run --release -p treesvd-bench --bin chaos_soak

echo "verify.sh: all gates passed"
