#!/usr/bin/env bash
# CI entry point: the checks every PR must pass, runnable fully offline.
#
#   ./scripts/ci.sh          # fmt + build + examples + test + rustdoc +
#                            # benchmark build and unit tests + bench gate
#                            # + clippy
#   FUZZ=1 ./scripts/ci.sh   # additionally run the widened property sweeps
#
# FUZZ=1 multiplies the sharded property-test case counts ~5x
# (CASES 24 -> 128); in the hosted workflow those sweeps run as a
# nightly scheduled job plus an opt-in `ci-fuzz` PR label rather than
# on every push — see .github/workflows/ci.yml.  Locally the knob runs
# them inline.
#
# The workspace has no external dependencies, so --offline always works.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo build --release --offline"
cargo build --release --offline

# Each example asserts the paper values it prints and exits nonzero on
# drift, so running them checks the public API end to end.
for example in examples/*.rs; do
    name="$(basename "${example}" .rs)"
    echo "==> cargo run -q --release --offline --example ${name}"
    cargo run -q --release --offline --example "${name}" > /dev/null
done

# The workspace tests include every differential suite: the dense
# measure kernel against the generic scan, the sample plan against the
# naive per-point path, kpa-trace on against off, M client threads over
# one Arc<ModelArtifact> against the serial Model facade, and the
# kpa-serve loopback service against the in-process model (malformed,
# fuzzed, oversized, and mid-batch-disconnect frames never wedge it).
echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

# Every doc link must resolve, and no public doc may link a private
# item. --lib leaves out the binaries, whose docs would collide with
# kpa-serve's library.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps --workspace --lib --offline"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --lib --offline

# The benchmark (kpabench/) is a package of its own that calls the
# engine's public API. Building it and running its unit tests here makes
# a broken signature fail CI instead of the next benchmark run.
# --locked leaves kpabench/Cargo.lock as it is; --target-dir keeps the
# build output out of kpabench/.
echo "==> cargo test --release --offline --locked --manifest-path kpabench/Cargo.toml --target-dir target/kpabench"
cargo test --release --offline --locked --manifest-path kpabench/Cargo.toml --target-dir target/kpabench

# The bench gate checks itself before anything trusts its PASS: the
# selftest trips each failure path (profile lookup naming the files,
# the floor, relative, positivity, and unrecognized-key checks) on
# synthetic inputs.
echo "==> python3 scripts/check_bench.py --selftest"
python3 scripts/check_bench.py --selftest

# Bench smoke + regression gates: each bench asserts its own output
# identities and floors (dense measure kernel, compiled threshold
# family and sample plan >= 2x; shared-artifact and wire answers
# bit-identical to the serial facade; the wide set kernel bit-identical
# to, and >= 2x faster at 10^6 points than, the scalar reference), then
# scripts/check_bench.py compares its fresh rows against
# baselines/<bench>.json (30% tolerance) and the kernel bench's traced
# pass against baselines/trace.json.  The fresh files go to
# target/bench so the committed baselines are not clobbered; regenerate
# the baselines with a plain ./scripts/bench.sh.
echo "==> scripts/bench.sh (every bench, each gated against its baseline)"
KPA_BENCH_OUT="${KPA_BENCH_OUT:-target/bench}" ./scripts/bench.sh

if [[ "${FUZZ:-0}" == "1" ]]; then
    echo "==> cargo test -q --offline --workspace --features fuzz"
    cargo test -q --offline --workspace --features fuzz
fi

if command -v cargo-clippy >/dev/null 2>&1 || cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets --offline -- -D warnings"
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "==> clippy not installed; skipping lint step"
fi

echo "CI checks passed."
