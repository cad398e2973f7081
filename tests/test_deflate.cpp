/**
 * @file
 * DEFLATE / zlib / gzip codec tests: round trips over adversarial
 * inputs, cross-validation against system zlib in both directions,
 * container integrity checks, and corrupt-stream rejection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "codec/deflate/deflate.hpp"
#include "codec/deflate/huffman.hpp"
#include "codec/deflate/lz77.hpp"
#include "trace/web_gen.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"

#if __has_include(<zlib.h>)
#include <zlib.h>
#define FCC_HAVE_ZLIB 1
#endif

namespace fd = fcc::codec::deflate;

namespace {

std::vector<uint8_t>
bytesOf(const std::string &s)
{
    return std::vector<uint8_t>(s.begin(), s.end());
}

/** Deterministic pseudo-random buffer. */
std::vector<uint8_t>
randomBytes(size_t n, uint32_t seed, int alphabet = 256)
{
    std::mt19937 gen(seed);
    std::uniform_int_distribution<int> dist(0, alphabet - 1);
    std::vector<uint8_t> out(n);
    for (auto &b : out)
        b = static_cast<uint8_t>(dist(gen));
    return out;
}

/** Text-like compressible buffer. */
std::vector<uint8_t>
repetitiveBytes(size_t n)
{
    static const std::string phrase =
        "the quick brown fox jumps over the lazy dog. ";
    std::vector<uint8_t> out;
    out.reserve(n);
    while (out.size() < n)
        out.push_back(
            static_cast<uint8_t>(phrase[out.size() % phrase.size()]));
    return out;
}

void
expectRoundTrip(const std::vector<uint8_t> &data)
{
    auto compressed = fd::deflateCompress(data);
    auto restored = fd::inflate(compressed);
    ASSERT_EQ(restored.size(), data.size());
    EXPECT_EQ(restored, data);
}

} // namespace

// ---- LZ77 ------------------------------------------------------------

TEST(Lz77, EmptyInputYieldsNoTokens)
{
    EXPECT_TRUE(fd::lz77Tokenize({}).empty());
}

TEST(Lz77, AllLiteralsForShortInput)
{
    auto data = bytesOf("ab");
    auto tokens = fd::lz77Tokenize(data);
    ASSERT_EQ(tokens.size(), 2u);
    EXPECT_TRUE(tokens[0].isLiteral());
    EXPECT_TRUE(tokens[1].isLiteral());
}

TEST(Lz77, FindsRepetition)
{
    auto data = bytesOf("abcabcabcabcabc");
    auto tokens = fd::lz77Tokenize(data);
    bool sawMatch = false;
    for (const auto &tok : tokens)
        sawMatch |= !tok.isLiteral();
    EXPECT_TRUE(sawMatch);
}

TEST(Lz77, TokensReconstructInput)
{
    auto data = randomBytes(5000, 42, 4);  // small alphabet: matches
    auto tokens = fd::lz77Tokenize(data);
    std::vector<uint8_t> rebuilt;
    for (const auto &tok : tokens) {
        if (tok.isLiteral()) {
            rebuilt.push_back(static_cast<uint8_t>(tok.length));
        } else {
            ASSERT_GE(tok.distance, 1);
            ASSERT_LE(tok.distance, rebuilt.size());
            ASSERT_GE(tok.length, fd::minMatch);
            ASSERT_LE(tok.length, fd::maxMatch);
            size_t from = rebuilt.size() - tok.distance;
            for (size_t i = 0; i < tok.length; ++i)
                rebuilt.push_back(rebuilt[from + i]);
        }
    }
    EXPECT_EQ(rebuilt, data);
}

TEST(Lz77, RunOfOneByteUsesOverlappingMatch)
{
    std::vector<uint8_t> data(1000, 'x');
    auto tokens = fd::lz77Tokenize(data);
    // 1 literal plus a few long overlapping matches.
    EXPECT_LT(tokens.size(), 10u);
}

// ---- Huffman ---------------------------------------------------------

TEST(Huffman, SingleSymbolGetsOneBit)
{
    std::vector<uint64_t> freq(10, 0);
    freq[3] = 100;
    auto lens = fd::buildCodeLengths(freq, 15);
    EXPECT_EQ(lens[3], 1);
    for (size_t i = 0; i < lens.size(); ++i) {
        if (i != 3) {
            EXPECT_EQ(lens[i], 0) << i;
        }
    }
}

TEST(Huffman, KraftEqualityForCompleteCode)
{
    std::vector<uint64_t> freq = {50, 30, 10, 5, 3, 2, 1, 1};
    auto lens = fd::buildCodeLengths(freq, 15);
    double kraft = 0;
    for (uint8_t len : lens)
        if (len)
            kraft += std::pow(2.0, -static_cast<double>(len));
    EXPECT_DOUBLE_EQ(kraft, 1.0);
}

TEST(Huffman, RespectsMaxBits)
{
    // Fibonacci-ish frequencies force deep unconstrained trees.
    std::vector<uint64_t> freq;
    uint64_t a = 1, b = 1;
    for (int i = 0; i < 30; ++i) {
        freq.push_back(a);
        uint64_t next = a + b;
        a = b;
        b = next;
    }
    auto lens = fd::buildCodeLengths(freq, 9);
    for (uint8_t len : lens) {
        EXPECT_GE(len, 1);
        EXPECT_LE(len, 9);
    }
    double kraft = 0;
    for (uint8_t len : lens)
        kraft += std::pow(2.0, -static_cast<double>(len));
    EXPECT_LE(kraft, 1.0 + 1e-12);
}

TEST(Huffman, OptimalityMatchesEntropyOrdering)
{
    // More frequent symbols never get longer codes.
    std::vector<uint64_t> freq = {100, 50, 25, 12, 6, 3, 1};
    auto lens = fd::buildCodeLengths(freq, 15);
    for (size_t i = 1; i < freq.size(); ++i)
        EXPECT_LE(lens[i - 1], lens[i]);
}

namespace {

/**
 * Reference package-merge that carries each package's leaf list —
 * the straightforward formulation buildCodeLengths() must match
 * length for length, ties included.
 */
std::vector<uint8_t>
referenceCodeLengths(const std::vector<uint64_t> &freqs, int maxBits)
{
    struct Package
    {
        uint64_t weight = 0;
        std::vector<uint16_t> leaves;
    };
    auto less = [](const Package &a, const Package &b) {
        return a.weight < b.weight;
    };

    std::vector<uint16_t> used;
    for (uint16_t sym = 0; sym < freqs.size(); ++sym)
        if (freqs[sym] > 0)
            used.push_back(sym);
    std::vector<uint8_t> lengths(freqs.size(), 0);
    if (used.empty())
        return lengths;
    if (used.size() == 1) {
        lengths[used[0]] = 1;
        return lengths;
    }

    std::vector<Package> leafItems;
    for (uint16_t sym : used)
        leafItems.push_back(Package{freqs[sym], {sym}});
    std::sort(leafItems.begin(), leafItems.end(), less);

    std::vector<Package> below;
    for (int level = 0; level < maxBits; ++level) {
        std::vector<Package> pairs;
        for (size_t i = 0; i + 1 < below.size(); i += 2) {
            Package pkg;
            pkg.weight = below[i].weight + below[i + 1].weight;
            pkg.leaves = below[i].leaves;
            pkg.leaves.insert(pkg.leaves.end(),
                              below[i + 1].leaves.begin(),
                              below[i + 1].leaves.end());
            pairs.push_back(std::move(pkg));
        }
        std::vector<Package> merged;
        std::merge(leafItems.begin(), leafItems.end(), pairs.begin(),
                   pairs.end(), std::back_inserter(merged), less);
        below = std::move(merged);
    }
    for (size_t i = 0; i < 2 * (used.size() - 1); ++i)
        for (uint16_t sym : below[i].leaves)
            ++lengths[sym];
    return lengths;
}

} // namespace

TEST(Huffman, PackageMergeMatchesLeafListReference)
{
    // The three DEFLATE alphabets at their length limits: lit/len
    // (286 symbols, 15 bits), distance (30, 15) and code-length
    // codes (19, 7). Each draws its used-symbol count, positions
    // and weights per vector from one of three shapes: uniform,
    // heavy ties (weights 1..3) and exponentially skewed (forces
    // the length limit).
    struct Alphabet
    {
        size_t size;
        int maxBits;
    };
    const Alphabet alphabets[] = {{286, 15}, {30, 15}, {19, 7}};
    std::mt19937_64 gen(1951);
    int compared = 0, limited = 0;
    for (const auto &alpha : alphabets) {
        for (int round = 0; round < 700; ++round) {
            size_t usedCount = 1 + gen() % alpha.size;
            std::vector<size_t> order(alpha.size);
            for (size_t i = 0; i < order.size(); ++i)
                order[i] = i;
            std::shuffle(order.begin(), order.end(), gen);
            std::vector<uint64_t> freqs(alpha.size, 0);
            int shape = round % 3;
            for (size_t i = 0; i < usedCount; ++i) {
                uint64_t w;
                if (shape == 0)
                    w = 1 + gen() % 100000;
                else if (shape == 1)
                    w = 1 + gen() % 3;
                else
                    w = (1ull << (gen() % 40)) + gen() % 4;
                freqs[order[i]] = w;
            }
            auto got = fd::buildCodeLengths(freqs, alpha.maxBits);
            auto want = referenceCodeLengths(freqs, alpha.maxBits);
            ASSERT_EQ(got, want) << "alphabet " << alpha.size
                                 << " round " << round;
            if (*std::max_element(got.begin(), got.end()) ==
                alpha.maxBits)
                ++limited;
            ++compared;
        }
    }
    EXPECT_GE(compared, 2000);
    // The skewed shape must actually reach the length limits.
    EXPECT_GT(limited, 100);
}

TEST(Huffman, CanonicalCodesAreGapFree)
{
    std::vector<uint8_t> lens = {3, 3, 3, 3, 3, 2, 4, 4};
    auto codes = fd::canonicalCodes(lens);
    // RFC 1951 example: verify prefix-freeness via decode table.
    fd::HuffmanDecoder decoder(lens);
    EXPECT_EQ(decoder.usedSymbols(), 8u);
}

TEST(Huffman, DecoderRejectsOversubscribed)
{
    std::vector<uint8_t> lens = {1, 1, 1};
    EXPECT_THROW(fd::HuffmanDecoder d(lens), fcc::util::Error);
}

TEST(Huffman, DecoderRejectsIncompleteUnlessAllowed)
{
    std::vector<uint8_t> lens = {2, 2, 2};  // one slot missing
    EXPECT_THROW(fd::HuffmanDecoder d(lens), fcc::util::Error);
    EXPECT_NO_THROW(fd::HuffmanDecoder d(lens, true));
}

TEST(Huffman, RoundTripThroughBitstream)
{
    std::vector<uint64_t> freq = {40, 30, 20, 10, 5, 5, 3, 2, 1};
    auto lens = fd::buildCodeLengths(freq, 15);
    auto codes = fd::canonicalCodes(lens);
    fd::HuffmanDecoder decoder(lens);

    std::vector<int> message = {0, 1, 2, 8, 7, 3, 0, 0, 5, 4, 6, 2};
    fcc::util::BitWriter w;
    for (int sym : message)
        w.putHuff(codes[sym], lens[sym]);
    auto bits = w.take();
    fcc::util::BitReader r(bits);
    for (int sym : message)
        EXPECT_EQ(decoder.decode(r), sym);
}

// ---- deflate round trips ----------------------------------------------

TEST(Deflate, EmptyInput)
{
    expectRoundTrip({});
}

TEST(Deflate, OneByte)
{
    expectRoundTrip({0x42});
}

TEST(Deflate, ShortText)
{
    expectRoundTrip(bytesOf("hello, deflate"));
}

TEST(Deflate, AllByteValues)
{
    std::vector<uint8_t> data(256);
    for (int i = 0; i < 256; ++i)
        data[i] = static_cast<uint8_t>(i);
    expectRoundTrip(data);
}

TEST(Deflate, LongRun)
{
    expectRoundTrip(std::vector<uint8_t>(100000, 0xaa));
}

TEST(Deflate, RepetitiveTextCompressesWell)
{
    auto data = repetitiveBytes(50000);
    auto compressed = fd::deflateCompress(data);
    EXPECT_LT(compressed.size(), data.size() / 10);
    EXPECT_EQ(fd::inflate(compressed), data);
}

TEST(Deflate, IncompressibleRandomData)
{
    auto data = randomBytes(65536, 7);
    auto compressed = fd::deflateCompress(data);
    // Stored blocks keep the expansion tiny.
    EXPECT_LT(compressed.size(), data.size() + 64);
    EXPECT_EQ(fd::inflate(compressed), data);
}

TEST(Deflate, MultiBlockInput)
{
    auto data = randomBytes(1 << 20, 13, 16);
    expectRoundTrip(data);
}

TEST(Deflate, MatchesAcrossBlockBoundary)
{
    // Repetition straddling the 32768-token block split.
    auto head = randomBytes(300000, 5, 8);
    std::vector<uint8_t> data = head;
    data.insert(data.end(), head.begin(), head.begin() + 20000);
    expectRoundTrip(data);
}

struct DeflateSweepParam
{
    size_t size;
    int alphabet;
};

class DeflateSweep
    : public ::testing::TestWithParam<DeflateSweepParam>
{};

TEST_P(DeflateSweep, RoundTrip)
{
    auto [size, alphabet] = GetParam();
    auto data = randomBytes(size, static_cast<uint32_t>(size + alphabet),
                            alphabet);
    expectRoundTrip(data);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndAlphabets, DeflateSweep,
    ::testing::Values(DeflateSweepParam{1, 2},
                      DeflateSweepParam{2, 2},
                      DeflateSweepParam{3, 2},
                      DeflateSweepParam{257, 2},
                      DeflateSweepParam{1000, 2},
                      DeflateSweepParam{1000, 3},
                      DeflateSweepParam{4096, 5},
                      DeflateSweepParam{32768, 7},
                      DeflateSweepParam{32769, 7},
                      DeflateSweepParam{65535, 11},
                      DeflateSweepParam{65536, 17},
                      DeflateSweepParam{65537, 31},
                      DeflateSweepParam{200000, 64},
                      DeflateSweepParam{200000, 250}));

// ---- pinned encoder output ---------------------------------------------

namespace {

/** @p head followed by its first @p len bytes again. */
std::vector<uint8_t>
repeatPrefix(std::vector<uint8_t> head, size_t len)
{
    head.insert(head.end(), head.begin(),
                head.begin() + static_cast<std::ptrdiff_t>(len));
    return head;
}

/** Varint-encoded inter-packet gaps (us) of a small web_gen trace. */
std::vector<uint8_t>
webGapColumn()
{
    fcc::trace::WebGenConfig cfg;
    cfg.seed = 2005;
    cfg.durationSec = 4.0;
    cfg.flowsPerSec = 60.0;
    auto trace = fcc::trace::WebTrafficGenerator(cfg).generate();
    fcc::util::ByteWriter w;
    uint64_t prev = 0;
    for (const auto &pkt : trace.packets()) {
        w.varint(pkt.timestampUs() - prev);
        prev = pkt.timestampUs();
    }
    return w.take();
}

struct PinnedOutput
{
    const char *name;
    std::vector<uint8_t> input;
    size_t deflateSize;
    uint32_t deflateCrc;
    size_t zlibSize;
    uint32_t zlibCrc;
};

} // namespace

TEST(Deflate, EncoderOutputPinned)
{
    // Size and CRC-32 of the encoder's output, recorded before the
    // encoder's fast paths (code tables, word-wide bit writer, ring
    // hash chains, leaf-count package-merge) went in: the encoder
    // must stay byte-identical, so archives never change.
    std::vector<uint8_t> allBytes(256);
    for (int i = 0; i < 256; ++i)
        allBytes[i] = static_cast<uint8_t>(i);
    auto multiBlock = randomBytes(200000, 41, 16);
    ASSERT_GT(fd::lz77Tokenize(multiBlock).size(), 32768u);
    // The repeated tail sits exactly one window back (a legal match)
    // or one byte further (out of reach: literals only).
    auto atWindow = repeatPrefix(randomBytes(32768, 23), 300);
    auto pastWindow = repeatPrefix(randomBytes(32769, 29), 300);
    auto longestDistance = [](const std::vector<uint8_t> &data) {
        uint16_t most = 0;
        for (const auto &tok : fd::lz77Tokenize(data))
            most = std::max(most, tok.distance);
        return most;
    };
    ASSERT_EQ(longestDistance(atWindow), 32768u);
    ASSERT_LT(longestDistance(pastWindow), 32768u);

    const PinnedOutput cases[] = {
        {"empty", {},
         5, 1164233810u, 11, 3123520168u},
        {"one byte", {0x42},
         3, 2613079449u, 9, 3625753811u},
        {"all byte values", allBytes,
         261, 2889552885u, 267, 2320552445u},
        {"70 KB random", randomBytes(70 * 1024, 17),
         71695, 3644362527u, 71701, 2572171578u},
        {"300 KB run", std::vector<uint8_t>(300000, 0x5a),
         308, 2459863850u, 314, 3541835188u},
        {"distance 32768", atWindow,
         32829, 2562798381u, 32835, 3843060248u},
        {"distance 32769", pastWindow,
         33079, 1880637369u, 33085, 3267649362u},
        {"multi-block", multiBlock,
         115281, 2317813823u, 115287, 4128509221u},
        {"web_gen gaps", webGapColumn(),
         5081, 3709769936u, 5087, 3064984465u},
    };
    for (const auto &c : cases) {
        auto raw = fd::deflateCompress(c.input);
        auto zlib = fd::zlibCompress(c.input);
        EXPECT_EQ(raw.size(), c.deflateSize) << c.name;
        EXPECT_EQ(fcc::util::Crc32::of(raw), c.deflateCrc) << c.name;
        EXPECT_EQ(zlib.size(), c.zlibSize) << c.name;
        EXPECT_EQ(fcc::util::Crc32::of(zlib), c.zlibCrc) << c.name;
        EXPECT_EQ(fd::inflate(raw), c.input) << c.name;
    }
}

// ---- corrupt stream handling -------------------------------------------

TEST(Deflate, RejectsTruncatedStream)
{
    auto compressed = fd::deflateCompress(repetitiveBytes(10000));
    compressed.resize(compressed.size() / 2);
    EXPECT_THROW(fd::inflate(compressed), fcc::util::Error);
}

TEST(Deflate, RejectsReservedBlockType)
{
    // BFINAL=1, BTYPE=3 (reserved).
    std::vector<uint8_t> bad = {0x07};
    EXPECT_THROW(fd::inflate(bad), fcc::util::Error);
}

TEST(Deflate, RejectsBadStoredLength)
{
    // Stored block whose NLEN is not ~LEN.
    std::vector<uint8_t> bad = {0x01, 0x05, 0x00, 0x00, 0x00};
    EXPECT_THROW(fd::inflate(bad), fcc::util::Error);
}

// ---- containers --------------------------------------------------------

TEST(Zlib, RoundTrip)
{
    auto data = repetitiveBytes(20000);
    EXPECT_EQ(fd::zlibDecompress(fd::zlibCompress(data)), data);
}

TEST(Zlib, DetectsCorruptChecksum)
{
    auto stream = fd::zlibCompress(bytesOf("payload"));
    stream.back() ^= 0xff;
    EXPECT_THROW(fd::zlibDecompress(stream), fcc::util::Error);
}

TEST(Gzip, RoundTrip)
{
    auto data = randomBytes(30000, 21, 40);
    EXPECT_EQ(fd::gzipDecompress(fd::gzipCompress(data)), data);
}

TEST(Gzip, DetectsCorruptCrc)
{
    auto stream = fd::gzipCompress(bytesOf("payload"));
    stream[stream.size() - 5] ^= 0xff;
    EXPECT_THROW(fd::gzipDecompress(stream), fcc::util::Error);
}

TEST(Gzip, RejectsBadMagic)
{
    auto stream = fd::gzipCompress(bytesOf("payload"));
    stream[0] = 0;
    EXPECT_THROW(fd::gzipDecompress(stream), fcc::util::Error);
}

#ifdef FCC_HAVE_ZLIB
// ---- cross-validation against system zlib ------------------------------

TEST(ZlibInterop, SystemZlibInflatesOurStreams)
{
    auto data = repetitiveBytes(150000);
    auto ours = fd::zlibCompress(data);

    std::vector<uint8_t> out(data.size());
    uLongf outLen = out.size();
    int rc = ::uncompress(out.data(), &outLen, ours.data(),
                          static_cast<uLong>(ours.size()));
    ASSERT_EQ(rc, Z_OK);
    out.resize(outLen);
    EXPECT_EQ(out, data);
}

TEST(ZlibInterop, WeInflateSystemZlibStreams)
{
    auto data = randomBytes(150000, 99, 30);
    uLongf bound = ::compressBound(static_cast<uLong>(data.size()));
    std::vector<uint8_t> theirs(bound);
    int rc = ::compress2(theirs.data(), &bound, data.data(),
                         static_cast<uLong>(data.size()), 9);
    ASSERT_EQ(rc, Z_OK);
    theirs.resize(bound);
    EXPECT_EQ(fd::zlibDecompress(theirs), data);
}

TEST(ZlibInterop, RandomBuffersBothDirections)
{
    for (uint32_t seed = 1; seed <= 6; ++seed) {
        auto data = randomBytes(20000 + seed * 7777, seed,
                                seed % 2 ? 5 : 200);

        auto ours = fd::zlibCompress(data);
        std::vector<uint8_t> out(data.size());
        uLongf outLen = out.size();
        ASSERT_EQ(::uncompress(out.data(), &outLen, ours.data(),
                               static_cast<uLong>(ours.size())),
                  Z_OK);
        out.resize(outLen);
        EXPECT_EQ(out, data) << "seed " << seed;

        uLongf bound = ::compressBound(
            static_cast<uLong>(data.size()));
        std::vector<uint8_t> theirs(bound);
        ASSERT_EQ(::compress2(theirs.data(), &bound, data.data(),
                              static_cast<uLong>(data.size()), 6),
                  Z_OK);
        theirs.resize(bound);
        EXPECT_EQ(fd::zlibDecompress(theirs), data)
            << "seed " << seed;
    }
}
#endif  // FCC_HAVE_ZLIB
