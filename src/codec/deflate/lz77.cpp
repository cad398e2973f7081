/**
 * @file
 * Hash-chain LZ77 matcher: 3-byte hash heads, 32-bit chain links in a
 * window-sized ring, chain walking with a depth budget, word-wide
 * match extension, and zlib-style one-step lazy matching over the
 * 32 KiB window.
 */

#include "codec/deflate/lz77.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

#include "util/error.hpp"

namespace fcc::codec::deflate {

namespace {

constexpr uint32_t hashBits = 15;
constexpr uint32_t hashSize = 1u << hashBits;

/** Max hash-chain entries probed per position. */
constexpr uint32_t maxChainLength = 128;
/** Stop probing once a match at least this long is found. */
constexpr size_t goodEnoughLength = 64;

/** Hash of the 3 bytes at @p p. */
inline uint32_t
hash3(const uint8_t *p)
{
    uint32_t v = static_cast<uint32_t>(p[0]) |
                 static_cast<uint32_t>(p[1]) << 8 |
                 static_cast<uint32_t>(p[2]) << 16;
    return (v * 2654435761u) >> (32 - hashBits);
}

/**
 * Longest common prefix length of a and b, up to limit: eight bytes
 * per step while a whole word fits below limit, then bytewise. Never
 * reads a[limit] or b[limit].
 */
inline size_t
matchLength(const uint8_t *a, const uint8_t *b, size_t limit)
{
    size_t len = 0;
    while (len + 8 <= limit) {
        uint64_t x = 0, y = 0;
        std::memcpy(&x, a + len, 8);
        std::memcpy(&y, b + len, 8);
        if (uint64_t diff = x ^ y) {
            // The first differing byte is the lowest one in memory.
            int bit = std::endian::native == std::endian::little
                          ? std::countr_zero(diff)
                          : std::countl_zero(diff);
            return len + static_cast<size_t>(bit / 8);
        }
        len += 8;
    }
    while (len < limit && a[len] == b[len])
        ++len;
    return len;
}

/**
 * Hash-chain index over input positions. Chain links live in a ring
 * of window size (or the input size rounded up to a power of two,
 * when smaller): a link is only followed for a position still inside
 * the window, and the slot such a position shares with a later one
 * is only overwritten once the later one is inserted — by then the
 * earlier one has left the window of every query.
 */
class Chains
{
  public:
    explicit Chains(size_t size)
        : head_(hashSize, empty),
          prev_(std::bit_ceil(std::min(size, windowSize)), empty),
          mask_(static_cast<uint32_t>(prev_.size() - 1))
    {}

    void
    insert(const uint8_t *base, uint32_t pos)
    {
        uint32_t h = hash3(base + pos);
        prev_[pos & mask_] = head_[h];
        head_[h] = pos;
    }

    /**
     * Best match for @p pos. Returns length (0 when below minMatch)
     * and sets @p distOut.
     */
    size_t
    bestMatch(const uint8_t *base, uint32_t pos, size_t avail,
              uint16_t &distOut) const
    {
        size_t limit = std::min(avail, maxMatch);
        if (limit < minMatch)
            return 0;

        size_t bestLen = 0;
        uint16_t bestDist = 0;
        uint32_t chain = maxChainLength;
        uint32_t candidate = head_[hash3(base + pos)];
        while (candidate != empty && chain-- > 0) {
            uint32_t cpos = candidate;
            if (pos - cpos > windowSize)
                break;
            // Quick reject: last byte of the best match so far.
            if (bestLen == 0 ||
                base[cpos + bestLen] == base[pos + bestLen]) {
                size_t len = matchLength(base + cpos, base + pos,
                                         limit);
                if (len > bestLen) {
                    bestLen = len;
                    bestDist = static_cast<uint16_t>(pos - cpos);
                    if (len >= goodEnoughLength || len == limit)
                        break;
                }
            }
            candidate = prev_[cpos & mask_];
        }
        if (bestLen < minMatch)
            return 0;
        distOut = bestDist;
        return bestLen;
    }

  private:
    static constexpr uint32_t empty = UINT32_MAX;
    std::vector<uint32_t> head_;
    std::vector<uint32_t> prev_;
    uint32_t mask_;
};

} // namespace

std::vector<Lz77Token>
lz77Tokenize(std::span<const uint8_t> data)
{
    std::vector<Lz77Token> tokens;
    size_t n = data.size();
    if (n == 0)
        return tokens;
    util::require(n < UINT32_MAX, "lz77: input of 4 GiB or more");
    tokens.reserve(n / 4);

    const uint8_t *base = data.data();
    Chains chains(n);

    // The lazy lookahead's match for pos + 1, carried over when the
    // literal at pos is taken: the chains are unchanged in between,
    // so probing again would find the same match.
    size_t pendingLen = 0;
    uint16_t pendingDist = 0;

    uint32_t pos = 0;
    while (pos < n) {
        if (n - pos < minMatch) {
            tokens.push_back(Lz77Token::literal(base[pos]));
            ++pos;
            continue;
        }

        uint16_t dist = 0;
        size_t len = 0;
        if (pendingLen > 0) {
            len = pendingLen;
            dist = pendingDist;
            pendingLen = 0;
        } else {
            len = chains.bestMatch(base, pos, n - pos, dist);
        }

        // One-step lazy evaluation: prefer a strictly longer match
        // starting at the next byte.
        if (len >= minMatch && len < goodEnoughLength && n - pos > len) {
            chains.insert(base, pos);
            uint16_t nextDist = 0;
            size_t nextLen =
                n - (pos + 1) >= minMatch
                    ? chains.bestMatch(base, pos + 1, n - pos - 1,
                                       nextDist)
                    : 0;
            if (nextLen > len) {
                tokens.push_back(Lz77Token::literal(base[pos]));
                ++pos;
                pendingLen = nextLen;
                pendingDist = nextDist;
                continue;  // re-evaluate from pos (already indexed)
            }
            // Keep the current match; pos was indexed above.
            tokens.push_back(Lz77Token::match(
                static_cast<uint16_t>(len), dist));
            for (uint32_t k = 1; k < len && pos + k + minMatch <= n;
                 ++k)
                chains.insert(base, pos + k);
            pos += static_cast<uint32_t>(len);
            continue;
        }

        if (len >= minMatch) {
            tokens.push_back(Lz77Token::match(
                static_cast<uint16_t>(len), dist));
            for (uint32_t k = 0; k < len && pos + k + minMatch <= n;
                 ++k)
                chains.insert(base, pos + k);
            pos += static_cast<uint32_t>(len);
        } else {
            tokens.push_back(Lz77Token::literal(base[pos]));
            if (pos + minMatch <= n)
                chains.insert(base, pos);
            ++pos;
        }
    }
    return tokens;
}

} // namespace fcc::codec::deflate
