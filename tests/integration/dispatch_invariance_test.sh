#!/bin/sh
# Dispatch invariance of the fast profile: the same sweep under native
# lane dispatch, under ANC_FORCE_AVX2_SIMD=1 and under
# ANC_FORCE_SCALAR_SIMD=1 must emit byte-identical JSON (util/simd.h:
# every lane kernel is bit-compatible with its scalar reference).  The
# grid reaches the lane kernels a sweep uses: the interference decoder
# (anc on alice_bob), the channel accumulates and the counter-based
# AWGN fill (fixed and Rayleigh-faded links).  On a CPU without
# AVX-512 the first two runs coincide, without AVX2 all three are
# scalar; the check stays valid, just weaker.
#
# usage: dispatch_invariance_test.sh /path/to/anc_sweep
set -eu

SWEEP=${1:?usage: dispatch_invariance_test.sh /path/to/anc_sweep}
WORKDIR=$(mktemp -d "${TMPDIR:-/tmp}/anc_dispatch.XXXXXX")
trap 'rm -rf "$WORKDIR"' EXIT INT TERM
cd "$WORKDIR"

GRID="--scenario alice_bob --scenario alice_bob_fading --scheme anc \
      --snr 20,26 --exchanges 3 --payload-bits 512 --repetitions 2 \
      --coherence-block 256 --math-profile fast --seed 2024 --threads 2 --quiet"

# shellcheck disable=SC2086   # GRID is a flag list
env -u ANC_FORCE_SCALAR_SIMD -u ANC_FORCE_AVX2_SIMD \
    "$SWEEP" $GRID --json native.json --metrics-json native_metrics.json
# shellcheck disable=SC2086
env -u ANC_FORCE_SCALAR_SIMD ANC_FORCE_AVX2_SIMD=1 \
    "$SWEEP" $GRID --json avx2.json
# shellcheck disable=SC2086
env -u ANC_FORCE_AVX2_SIMD ANC_FORCE_SCALAR_SIMD=1 \
    "$SWEEP" $GRID --json scalar.json

grep -o '"simd_backend":"[a-z0-9]*"' native_metrics.json
grep -q '"math_profile":"fast"' native.json
cmp native.json avx2.json
cmp native.json scalar.json
echo "PASS: native, avx2-capped and forced-scalar dispatch emit identical bytes"
