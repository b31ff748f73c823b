#!/usr/bin/env bash
# Runs every bench and gates each against its committed baseline in
# baselines/ via scripts/check_bench.py.  One file per bench, named
# after the bench that writes it:
#
#   kernel  -> kernel.json + trace.json  dense PointSet sat, pool sweep,
#                                        dense measure kernel, compiled
#                                        threshold family, sample plan;
#                                        trace.json is its traced pass
#   shared  -> shared.json   concurrent EvalCtx queries on one artifact
#   soak    -> soak.json     kpa-serve loopback clients, frame latency
#   ladder  -> ladder.json   10^4 -> 10^6 points, wide vs narrow kernels
#
#   ./scripts/bench.sh                        # re-baseline: writes baselines/*.json
#   KPA_BENCH_OUT=target/bench ./scripts/bench.sh  # write there, then gate
#   BENCH=1 ./scripts/bench.sh                # longer sweeps (--features bench)
#
# When the output directory is baselines/ itself (the default, i.e. you
# are re-baselining) the comparison would be a no-op, so the gates are
# skipped.
#
# The workspace is dependency-free, so --offline always works.
set -euo pipefail
cd "$(dirname "$0")/.."

baselines="$(pwd)/baselines"
out="${KPA_BENCH_OUT:-baselines}"
# cargo runs the bench binary from the package directory, so anchor
# relative paths to the repo root.
case "${out}" in /*) ;; *) out="$(pwd)/${out}" ;; esac
mkdir -p "${out}"
features=()
if [[ "${BENCH:-0}" == "1" ]]; then
    features=(--features bench)
fi

gate() {
    local name="$1" flags=()
    if [[ "${name}" == "trace" ]]; then
        flags=(--trace)
    fi
    if [[ "${out}" == "${baselines}" ]]; then
        echo "${name}: output is the committed baseline; skipping self-comparison"
        return
    fi
    echo "==> python3 scripts/check_bench.py ${flags[*]:+${flags[*]} }baselines/${name}.json ${out}/${name}.json"
    python3 scripts/check_bench.py "${flags[@]}" "${baselines}/${name}.json" "${out}/${name}.json"
}

for bench in kernel shared soak ladder; do
    echo "==> cargo bench -p kpa-bench --bench ${bench} --offline (JSON -> ${out}/${bench}.json)"
    KPA_BENCH_JSON="${out}/${bench}.json" KPA_TRACE_JSON="${out}/trace.json" \
        cargo bench -q -p kpa-bench --bench "${bench}" --offline "${features[@]}"
    gate "${bench}"
    if [[ "${bench}" == "kernel" ]]; then
        gate trace
    fi
done
