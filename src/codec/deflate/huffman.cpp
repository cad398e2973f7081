/**
 * @file
 * Package-merge (coin collector) construction of length-limited
 * optimal code lengths, canonical code assignment, and the
 * count-based canonical decoder used by the inflater.
 */

#include "codec/deflate/huffman.hpp"

#include <algorithm>
#include <iterator>

#include "util/error.hpp"

namespace fcc::codec::deflate {

namespace {

/** One package-merge item: a weight and whether it is a leaf. */
struct Item
{
    uint64_t weight = 0;
    bool leaf = false;
};

bool
itemLess(const Item &a, const Item &b)
{
    return a.weight < b.weight;
}

/** A used symbol and its frequency. */
struct Leaf
{
    uint64_t weight = 0;
    uint16_t symbol = 0;
};

bool
leafLess(const Leaf &a, const Leaf &b)
{
    return a.weight < b.weight;
}

} // namespace

std::vector<uint8_t>
buildCodeLengths(std::span<const uint64_t> freqs, int maxBits)
{
    util::require(maxBits >= 1 && maxBits <= 15,
                  "buildCodeLengths: maxBits out of range");

    std::vector<Leaf> leaves;
    for (uint16_t sym = 0; sym < freqs.size(); ++sym)
        if (freqs[sym] > 0)
            leaves.push_back(Leaf{freqs[sym], sym});

    std::vector<uint8_t> lengths(freqs.size(), 0);
    if (leaves.empty())
        return lengths;
    if (leaves.size() == 1) {
        lengths[leaves[0].symbol] = 1;
        return lengths;
    }
    util::require(leaves.size() <= (1ull << maxBits),
                  "buildCodeLengths: too many symbols for maxBits");

    // Package-merge: build per-level lists; leaves at every level,
    // plus pairs packaged from the level below. Selecting the
    // 2*(n-1) cheapest items of the top list yields, per leaf, its
    // optimal depth count = code length.
    //
    // Items carry no leaf lists. The merge keeps the sorted leaves
    // in order, so the leaves inside any prefix of a level's list
    // are the first k sorted leaves; and the first p packages of a
    // level are built from the first 2p items of the level below.
    // Recording which items are leaves is therefore enough to count
    // leaf depths top-down afterwards.
    std::sort(leaves.begin(), leaves.end(), leafLess);
    std::vector<Item> leafItems(leaves.size());
    for (size_t i = 0; i < leaves.size(); ++i)
        leafItems[i] = Item{leaves[i].weight, true};

    std::vector<uint8_t> isLeaf;  // every level's flags, level-major
    std::vector<size_t> levelStart(maxBits + 1, 0);
    std::vector<Item> below, pairs, merged;
    for (int level = 0; level < maxBits; ++level) {
        pairs.clear();
        for (size_t i = 0; i + 1 < below.size(); i += 2)
            pairs.push_back(
                Item{below[i].weight + below[i + 1].weight, false});
        // std::merge puts leaves before packages of equal weight.
        merged.clear();
        std::merge(leafItems.begin(), leafItems.end(), pairs.begin(),
                   pairs.end(), std::back_inserter(merged), itemLess);
        levelStart[level] = isLeaf.size();
        for (const Item &item : merged)
            isLeaf.push_back(item.leaf);
        std::swap(below, merged);
    }
    levelStart[maxBits] = isLeaf.size();

    size_t take = 2 * (leaves.size() - 1);
    FCC_ASSERT(below.size() >= take,
               "package-merge produced too few items");
    for (int level = maxBits - 1; level >= 0 && take > 0; --level) {
        FCC_ASSERT(take <= levelStart[level + 1] - levelStart[level],
                   "package-merge prefix overruns its level");
        const uint8_t *flags = isLeaf.data() + levelStart[level];
        size_t leafCount = 0;
        for (size_t i = 0; i < take; ++i)
            leafCount += flags[i];
        for (size_t k = 0; k < leafCount; ++k)
            ++lengths[leaves[k].symbol];
        take = 2 * (take - leafCount);
    }

    return lengths;
}

std::vector<uint16_t>
canonicalCodes(std::span<const uint8_t> lengths)
{
    int maxLen = 0;
    for (uint8_t len : lengths)
        maxLen = std::max(maxLen, static_cast<int>(len));
    util::require(maxLen <= 15, "canonicalCodes: length > 15");

    std::vector<uint32_t> countPerLen(maxLen + 1, 0);
    for (uint8_t len : lengths)
        if (len > 0)
            ++countPerLen[len];

    std::vector<uint32_t> nextCode(maxLen + 1, 0);
    uint32_t code = 0;
    for (int len = 1; len <= maxLen; ++len) {
        code = (code + countPerLen[len - 1]) << 1;
        nextCode[len] = code;
    }

    std::vector<uint16_t> codes(lengths.size(), 0);
    for (size_t sym = 0; sym < lengths.size(); ++sym) {
        if (lengths[sym] > 0)
            codes[sym] =
                static_cast<uint16_t>(nextCode[lengths[sym]]++);
    }
    return codes;
}

HuffmanDecoder::HuffmanDecoder(std::span<const uint8_t> lengths,
                               bool allowIncomplete)
{
    for (uint8_t len : lengths) {
        util::require(len <= maxBitsSupported,
                      "HuffmanDecoder: code length > 15");
        ++counts_[len];
    }
    counts_[0] = 0;

    // Kraft check: left = remaining code space after each length.
    int64_t left = 1;
    for (int len = 1; len <= maxBitsSupported; ++len) {
        left <<= 1;
        left -= counts_[len];
        util::require(left >= 0,
                      "HuffmanDecoder: over-subscribed code");
    }
    size_t usedCount = 0;
    for (int len = 1; len <= maxBitsSupported; ++len)
        usedCount += counts_[len];
    if (left > 0 && !(allowIncomplete || usedCount <= 1))
        throw util::Error("HuffmanDecoder: incomplete code");

    // Canonical symbol table: offset per length, then fill.
    uint16_t offsets[maxBitsSupported + 2] = {};
    for (int len = 1; len <= maxBitsSupported; ++len)
        offsets[len + 1] =
            static_cast<uint16_t>(offsets[len] + counts_[len]);
    symbols_.resize(usedCount);
    for (size_t sym = 0; sym < lengths.size(); ++sym)
        if (lengths[sym] > 0)
            symbols_[offsets[lengths[sym]]++] =
                static_cast<uint16_t>(sym);
}

int
HuffmanDecoder::decode(util::BitReader &bits) const
{
    // Bit-serial canonical decode (puff algorithm).
    int code = 0, first = 0, index = 0;
    for (int len = 1; len <= maxBitsSupported; ++len) {
        code |= static_cast<int>(bits.get(1));
        int count = counts_[len];
        if (code - first < count)
            return symbols_[index + (code - first)];
        index += count;
        first = (first + count) << 1;
        code <<= 1;
    }
    throw util::Error("HuffmanDecoder: invalid code in stream");
}

} // namespace fcc::codec::deflate
