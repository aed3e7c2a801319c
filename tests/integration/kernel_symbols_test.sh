#!/bin/sh
# Symbol hygiene of the lane-kernel objects (util/simd_lanes.cpp, built
# twice above the baseline ISA).  Neither object may define a weak or
# vague-linkage symbol (nm types W/w, V/v, u): the linker may pick any
# object's copy of such a symbol, which would put AVX2/AVX-512 code on
# paths that must run on baseline CPUs.  Each object exports exactly
# its kernel table and keeps everything else local.
#
# usage: kernel_symbols_test.sh /path/to/libanc.a
set -eu

LIB=${1:?usage: kernel_symbols_test.sh /path/to/libanc.a}

# "member:" header lines start each archive member; symbol lines are
# "[address] type name".  Print "member type name" for the lane objects.
SYMBOLS=$(nm --defined-only "$LIB" | awk '
    /^[^ ]+\.o:$/ { member = substr($0, 1, length($0) - 1); next }
    member ~ /simd_lanes/ && NF >= 2 { print member, $(NF - 1), $NF }')

MEMBERS=$(nm --defined-only "$LIB" | grep -c '^[^ ]*simd_lanes[^ ]*\.o:$' || true)
[ "$MEMBERS" = 2 ] || {
    echo "FAIL: expected 2 lane-kernel objects in $LIB, found $MEMBERS" >&2
    exit 1
}

BAD=$(printf '%s\n' "$SYMBOLS" | awk '$2 ~ /^[WwVvu]$/')
if [ -n "$BAD" ]; then
    echo "FAIL: weak or vague-linkage symbols in the lane objects:" >&2
    printf '%s\n' "$BAD" >&2
    exit 1
fi

# Global (uppercase-typed) definitions: the two kernel tables, nothing
# else — apart from names reserved to the implementation ("__" prefix,
# e.g. the sanitizers' __odr_asan.* markers).
GLOBAL=$(printf '%s\n' "$SYMBOLS" | awk '$2 ~ /^[A-Z]$/ && $3 !~ /^__/ { print $3 }' | sort)
WANT=$(printf '%s\n' _ZN3anc4simd6detail12avx2_kernelsE \
                     _ZN3anc4simd6detail14avx512_kernelsE | sort)
if [ "$GLOBAL" != "$WANT" ]; then
    echo "FAIL: lane objects export more than their kernel tables:" >&2
    printf '%s\n' "$GLOBAL" >&2
    exit 1
fi
# Every table entry is a local function of each object; spot-check the
# bit-path kernels by name (a missing one would mean the table points
# somewhere other than this object's own lanes).
for KERNEL in msk_decide msk_modulate pilot_scan_starts; do
    COUNT=$(printf '%s\n' "$SYMBOLS" | awk -v k="$KERNEL" '$2 == "t" && $3 ~ k' | wc -l)
    [ "$COUNT" -ge 2 ] || {
        echo "FAIL: lane kernel $KERNEL is not defined locally in both lane objects" >&2
        exit 1
    }
done
echo "PASS: lane objects define only their two kernel tables globally"
