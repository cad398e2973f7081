/**
 * @file
 * LSB-first bit packing (BitWriter/BitReader). putHuff() reverses
 * code bits so the MSB-first Huffman codes of RFC 1951 land in
 * stream order; the reader throws on reads past the final byte.
 */

#include "util/bitstream.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/error.hpp"

namespace fcc::util {

uint32_t
reverseBits(uint32_t code, int nbits)
{
    FCC_ASSERT(nbits >= 0 && nbits <= 16, "bit count out of range");
    // Swap halves, bytes, nibbles, pairs and bits of a 16-bit
    // value, then drop the low bits that came from above nbits.
    uint32_t v = code & 0xffffu;
    v = ((v & 0x00ffu) << 8) | ((v & 0xff00u) >> 8);
    v = ((v & 0x0f0fu) << 4) | ((v & 0xf0f0u) >> 4);
    v = ((v & 0x3333u) << 2) | ((v & 0xccccu) >> 2);
    v = ((v & 0x5555u) << 1) | ((v & 0xaaaau) >> 1);
    return nbits == 0 ? 0 : v >> (16 - nbits);
}

void
BitWriter::reserveBytes(size_t more)
{
    if (buf_.size() - len_ < more)
        buf_.resize(std::max(buf_.size() * 2, len_ + more + 256));
}

void
BitWriter::flushWord()
{
    reserveBytes(4);
    uint8_t *p = buf_.data() + len_;
    uint32_t word = static_cast<uint32_t>(bitbuf_);
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(p, &word, 4);
    } else {
        for (int i = 0; i < 4; ++i)
            p[i] = static_cast<uint8_t>(word >> (8 * i));
    }
    len_ += 4;
    bitbuf_ >>= 32;
    nbits_ -= 32;
}

void
BitWriter::flushBytes()
{
    FCC_ASSERT(nbits_ % 8 == 0, "flushBytes() requires alignment");
    reserveBytes(4);
    for (; nbits_ > 0; nbits_ -= 8) {
        buf_[len_++] = static_cast<uint8_t>(bitbuf_);
        bitbuf_ >>= 8;
    }
}

void
BitWriter::alignToByte()
{
    nbits_ = (nbits_ + 7) & ~7;
    if (nbits_ >= 32)
        flushWord();
}

void
BitWriter::byte(uint8_t v)
{
    FCC_ASSERT(aligned(), "byte() requires byte alignment");
    put(v, 8);
}

void
BitWriter::bytes(std::span<const uint8_t> data)
{
    FCC_ASSERT(aligned(), "bytes() requires byte alignment");
    flushBytes();
    reserveBytes(data.size());
    if (!data.empty())
        std::memcpy(buf_.data() + len_, data.data(), data.size());
    len_ += data.size();
}

std::vector<uint8_t>
BitWriter::take()
{
    alignToByte();
    flushBytes();
    buf_.resize(len_);
    len_ = 0;
    return std::move(buf_);
}

void
BitReader::fill()
{
    while (nbits_ <= 56 && pos_ < len_) {
        bitbuf_ |= static_cast<uint64_t>(data_[pos_++]) << nbits_;
        nbits_ += 8;
    }
}

uint32_t
BitReader::get(int nbits)
{
    FCC_ASSERT(nbits >= 0 && nbits <= 24, "bit count out of range");
    fill();
    if (nbits_ < nbits)
        throw Error("BitReader: truncated bit stream");
    uint32_t v = static_cast<uint32_t>(bitbuf_) & ((1u << nbits) - 1);
    bitbuf_ >>= nbits;
    nbits_ -= nbits;
    return v;
}

uint32_t
BitReader::peek(int nbits)
{
    FCC_ASSERT(nbits >= 0 && nbits <= 24, "bit count out of range");
    fill();
    // Past end of stream the buffer reads as zero bits; Huffman
    // decoders detect truncation when consume() overruns.
    return static_cast<uint32_t>(bitbuf_) & ((1u << nbits) - 1);
}

void
BitReader::consume(int nbits)
{
    if (nbits_ < nbits)
        throw Error("BitReader: truncated bit stream");
    bitbuf_ >>= nbits;
    nbits_ -= nbits;
}

void
BitReader::alignToByte()
{
    int drop = nbits_ % 8;
    bitbuf_ >>= drop;
    nbits_ -= drop;
}

uint8_t
BitReader::byte()
{
    FCC_ASSERT(nbits_ % 8 == 0, "byte() requires byte alignment");
    fill();
    if (nbits_ < 8)
        throw Error("BitReader: truncated bit stream");
    uint8_t v = static_cast<uint8_t>(bitbuf_);
    bitbuf_ >>= 8;
    nbits_ -= 8;
    return v;
}

} // namespace fcc::util
