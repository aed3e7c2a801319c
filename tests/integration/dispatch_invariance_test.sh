#!/bin/sh
# Dispatch invariance: the same sweep under native lane dispatch, under
# ANC_FORCE_AVX2_SIMD=1 and under ANC_FORCE_SCALAR_SIMD=1 must emit
# byte-identical JSON (util/simd.h: every lane kernel is bit-compatible
# with its scalar reference).  Two grids:
#   * fast — reaches the lane kernels a fast sweep uses: the interference
#     decoder (anc on alice_bob), the channel accumulates, the
#     counter-based AWGN fill (fixed and Rayleigh-faded links) and the
#     receiver front end;
#   * exact — the exact profile dispatches too: its receiver front end
#     (packet detection, interference analysis, MSK demodulation) and its
#     pilot scans run the shared lane kernels, so anc and traditional on
#     alice_bob and x_topology must not depend on the backend either.
# On a CPU without AVX-512 the first two runs coincide, without AVX2 all
# three are scalar; the check stays valid, just weaker.
#
# usage: dispatch_invariance_test.sh /path/to/anc_sweep
set -eu

SWEEP=${1:?usage: dispatch_invariance_test.sh /path/to/anc_sweep}
WORKDIR=$(mktemp -d "${TMPDIR:-/tmp}/anc_dispatch.XXXXXX")
trap 'rm -rf "$WORKDIR"' EXIT INT TERM
cd "$WORKDIR"

FAST="--scenario alice_bob --scenario alice_bob_fading --scheme anc \
      --snr 20,26 --exchanges 3 --payload-bits 512 --repetitions 2 \
      --coherence-block 256 --math-profile fast --seed 2024 --threads 2 --quiet"
EXACT="--scenario alice_bob --scenario x_topology --scheme anc \
       --scheme traditional --snr 22 --exchanges 3 --payload-bits 512 \
       --repetitions 2 --math-profile exact --seed 2024 --threads 2 --quiet"

# three_way NAME GRID: the grid under native, avx2-capped and
# forced-scalar dispatch, byte-compared.
three_way() {
    # shellcheck disable=SC2086   # $2 is a flag list
    env -u ANC_FORCE_SCALAR_SIMD -u ANC_FORCE_AVX2_SIMD \
        "$SWEEP" $2 --json "$1_native.json" --metrics-json "$1_metrics.json"
    # shellcheck disable=SC2086
    env -u ANC_FORCE_SCALAR_SIMD ANC_FORCE_AVX2_SIMD=1 \
        "$SWEEP" $2 --json "$1_avx2.json"
    # shellcheck disable=SC2086
    env -u ANC_FORCE_AVX2_SIMD ANC_FORCE_SCALAR_SIMD=1 \
        "$SWEEP" $2 --json "$1_scalar.json"
    grep -q "\"math_profile\":\"$1\"" "$1_native.json"
    cmp "$1_native.json" "$1_avx2.json"
    cmp "$1_native.json" "$1_scalar.json"
}

three_way fast "$FAST"
three_way exact "$EXACT"
grep -o '"simd_backend":"[a-z0-9]*"' fast_metrics.json
echo "PASS: native, avx2-capped and forced-scalar dispatch emit identical bytes" \
     "(fast and exact grids)"
