// Block interleaver.
//
// Interference-decoding errors are bursty: a stretch of samples where the
// two constellations nearly coincide (D ~ +-1 in Lemma 6.1) produces a run
// of ambiguous decisions.  A Hamming(7,4) code corrects one error per
// codeword, so bursts must be spread across codewords first — the job of a
// block interleaver (write row-wise, read column-wise).

#pragma once

#include <cstddef>
#include <span>

#include "util/bits.h"

namespace anc::fec {

class Block_interleaver {
public:
    /// rows x cols block; a sequence is processed in chunks of rows*cols
    /// bits (a short final chunk passes through untouched).
    Block_interleaver(std::size_t rows, std::size_t cols);

    Bits interleave(const Bits& bits) const;
    Bits deinterleave(const Bits& bits) const;

    std::size_t block_size() const { return rows_ * cols_; }

private:
    std::size_t rows_;
    std::size_t cols_;
};

} // namespace anc::fec
