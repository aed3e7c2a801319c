#include "fec/interleaver.h"

#include <stdexcept>

namespace anc::fec {

Block_interleaver::Block_interleaver(std::size_t rows, std::size_t cols)
    : rows_{rows}, cols_{cols}
{
    if (rows == 0 || cols == 0)
        throw std::invalid_argument{"Block_interleaver: dimensions must be positive"};
}

Bits Block_interleaver::interleave(const Bits& bits) const
{
    Bits out;
    out.reserve(bits.size());
    const std::size_t block = block_size();
    std::size_t start = 0;
    while (start + block <= bits.size()) {
        for (std::size_t c = 0; c < cols_; ++c) {
            for (std::size_t r = 0; r < rows_; ++r)
                out.push_back(bits[start + r * cols_ + c]);
        }
        start += block;
    }
    // Short tail: passes through unchanged.
    for (std::size_t i = start; i < bits.size(); ++i)
        out.push_back(bits[i]);
    return out;
}

Bits Block_interleaver::deinterleave(const Bits& bits) const
{
    Bits out;
    out.reserve(bits.size());
    const std::size_t block = block_size();
    std::size_t start = 0;
    while (start + block <= bits.size()) {
        Bits chunk(block);
        std::size_t index = 0;
        for (std::size_t c = 0; c < cols_; ++c) {
            for (std::size_t r = 0; r < rows_; ++r)
                chunk.set(r * cols_ + c, bits[start + index++]);
        }
        out.append(chunk);
        start += block;
    }
    for (std::size_t i = start; i < bits.size(); ++i)
        out.push_back(bits[i]);
    return out;
}

} // namespace anc::fec
