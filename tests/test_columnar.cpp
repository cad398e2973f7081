/**
 * @file
 * Columnar codec-layer tests: field codecs (plain, zigzag-delta,
 * dictionary, run-length), entropy backends (store, deflate, and the
 * decode-only range reader, fed golden tag-2 streams and the
 * committed tag-3 vectors), and a property/fuzz-style generator of
 * random valid Datasets asserting encode→decode identity across all
 * three containers and both writable backends — including empty
 * columns, single-flow datasets, u32/u64 boundary values and
 * maximum-length varints.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "codec/backend/backend.hpp"
#include "codec/fcc/datasets.hpp"
#include "codec/fcc/fcc_codec.hpp"
#include "codec/field/field_codec.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace fcc;
namespace fccc = fcc::codec::fcc;
namespace field = fcc::codec::field;
namespace backend = fcc::codec::backend;

namespace {

const field::FieldCodec allCodecs[] = {
    field::FieldCodec::Plain,
    field::FieldCodec::ZigzagDelta,
    field::FieldCodec::Dict,
    field::FieldCodec::Rle,
};

const backend::EntropyBackend writableBackends[] = {
    backend::EntropyBackend::Store,
    backend::EntropyBackend::Deflate,
};

const backend::EntropyBackend decodeOnlyBackends[] = {
    backend::EntropyBackend::Range,
    backend::EntropyBackend::RangeLanes,
};

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing test file: " << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/**
 * A 4-lane tag-3 payload of 16387 raw bytes (≡ 3 mod 4, so three
 * lanes carry one byte more than the fourth) and those raw bytes,
 * written by the last range-lanes encoder (tests/vectors/README.md).
 */
struct RangeVector
{
    std::vector<uint8_t> payload =
        readFile(FCC_VECTORS_DIR "/range-lanes-4.bin");
    std::vector<uint8_t> raw =
        readFile(FCC_VECTORS_DIR "/range-lanes-4.raw");
};

/** One FCC3 column frame's backend payload. */
struct GoldenColumn
{
    std::vector<uint8_t> stream;
    size_t rawSize = 0;  ///< the frame's encodedBytes
    size_t index = 0;    ///< column position in the file
};

/**
 * The columns stored under @p backend in an unindexed, exact-tier
 * FCC3 golden archive (header: magic, three u16 weights, colByte;
 * then the twelve column frames back to back).
 */
std::vector<GoldenColumn>
goldenColumns(const char *name, backend::EntropyBackend backend)
{
    std::vector<uint8_t> archive =
        readFile(std::string(FCC_GOLDEN_DIR) + "/" + name);
    util::ByteReader r(archive);
    r.skip(11);
    std::vector<GoldenColumn> out;
    for (size_t c = 0; c < fccc::fcc3ColumnCount; ++c) {
        fccc::ColumnFrame frame = fccc::readColumnFrame(r);
        if (frame.backend == backend)
            out.push_back(
                {{frame.payload.begin(), frame.payload.end()},
                 static_cast<size_t>(frame.encodedBytes),
                 c});
    }
    EXPECT_TRUE(r.exhausted()) << name;
    return out;
}

/** The largest tag-2 column of the golden range archive, and the
 *  field-coded bytes the store archive holds for that column. */
struct GoldenRangeColumn
{
    GoldenColumn range;
    std::vector<uint8_t> raw;
};

GoldenRangeColumn
largestGoldenRangeColumn()
{
    GoldenRangeColumn out;
    for (GoldenColumn &col : goldenColumns(
             "fcc3-range.fcc", backend::EntropyBackend::Range))
        if (col.rawSize > out.range.rawSize)
            out.range = std::move(col);
    for (GoldenColumn &col : goldenColumns(
             "fcc3-store.fcc", backend::EntropyBackend::Store))
        if (col.index == out.range.index)
            out.raw = std::move(col.stream);
    EXPECT_GT(out.range.rawSize, 0u);
    EXPECT_EQ(out.raw.size(), out.range.rawSize);
    return out;
}

/** Round-trip @p values through every codec and check the chooser. */
void
roundTripAllCodecs(const std::vector<uint64_t> &values)
{
    for (field::FieldCodec codec : allCodecs) {
        auto encoded = field::encodeColumn(values, codec);
        EXPECT_EQ(encoded.size(),
                  field::encodedSize(values, codec))
            << fieldCodecName(codec);
        auto decoded =
            field::decodeColumn(encoded, codec, values.size());
        EXPECT_EQ(decoded, values) << fieldCodecName(codec);
    }
    // The chooser must pick the smallest codec, lowest tag on ties.
    field::FieldCodec want = field::FieldCodec::Plain;
    for (field::FieldCodec codec : allCodecs)
        if (field::encodedSize(values, codec) <
            field::encodedSize(values, want))
            want = codec;
    EXPECT_EQ(field::chooseCodec(values), want);
}

std::vector<uint64_t>
randomColumn(util::Rng &rng, size_t n)
{
    std::vector<uint64_t> values;
    values.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        switch (rng.uniformInt(0, 4)) {
          case 0:
            values.push_back(rng.uniformInt(0, 3));
            break;
          case 1:
            values.push_back(rng.uniformInt(0, 0xffff));
            break;
          case 2:
            values.push_back(rng.next());  // full u64 range
            break;
          case 3:
            values.push_back(~0ull);  // max varint (10 bytes)
            break;
          default:
            values.push_back(0);
            break;
        }
    }
    return values;
}

} // namespace

TEST(FieldCodec, RoundTripsShapedColumns)
{
    roundTripAllCodecs({});
    roundTripAllCodecs({0});
    roundTripAllCodecs({~0ull});
    roundTripAllCodecs({5, 5, 5, 5, 5, 5, 5, 5});
    roundTripAllCodecs({1, 2, 3, 4, 5, 6, 7, 8, 9});
    // Deltas that wrap the u64 range both ways.
    roundTripAllCodecs({~0ull, 0, ~0ull, 1, ~0ull});
    // Low cardinality, high repetition.
    roundTripAllCodecs({80, 443, 80, 80, 443, 8080, 80, 443});
    // Thousands of distinct values (the dictionary table grows and
    // the chooser gives up on Dict early), then the same values
    // repeated so that Dict wins.
    std::vector<uint64_t> distinct;
    for (uint64_t i = 0; i < 5000; ++i)
        distinct.push_back(i * 0x9e3779b97f4a7c15ull);
    roundTripAllCodecs(distinct);
    std::vector<uint64_t> repeated;
    for (int rep = 0; rep < 8; ++rep)
        repeated.insert(repeated.end(), distinct.begin(),
                        distinct.begin() + 100);
    roundTripAllCodecs(repeated);
    EXPECT_EQ(field::chooseCodec(repeated), field::FieldCodec::Dict);
}

TEST(FieldCodec, RoundTripsRandomColumns)
{
    util::Rng rng(0xc01d);
    for (int iter = 0; iter < 24; ++iter)
        roundTripAllCodecs(
            randomColumn(rng, rng.uniformInt(0, 600)));
}

TEST(FieldCodec, ChooserMatchesColumnShape)
{
    // Sorted near-linear values: zigzag deltas win.
    std::vector<uint64_t> timestamps;
    for (uint64_t i = 0; i < 500; ++i)
        timestamps.push_back(1700000000000000ull + i * 1300);
    EXPECT_EQ(field::chooseCodec(timestamps),
              field::FieldCodec::ZigzagDelta);

    // A constant run: RLE wins.
    std::vector<uint64_t> flags(500, 1);
    EXPECT_EQ(field::chooseCodec(flags), field::FieldCodec::Rle);

    // Few distinct large values, no runs, no order: dict wins.
    std::vector<uint64_t> rtts;
    const uint64_t pool[] = {0x123456789abull, 0xfedcba98765ull,
                             0xa5a5a5a5a5a5ull};
    for (size_t i = 0; i < 600; ++i)
        rtts.push_back(pool[i % 3]);
    EXPECT_EQ(field::chooseCodec(rtts), field::FieldCodec::Dict);
}

TEST(FieldCodec, RejectsMalformedColumns)
{
    std::vector<uint64_t> values = {1, 2, 3};
    auto encoded =
        field::encodeColumn(values, field::FieldCodec::Plain);
    // Trailing bytes must be flagged.
    auto padded = encoded;
    padded.push_back(0);
    EXPECT_THROW(field::decodeColumn(padded,
                                     field::FieldCodec::Plain, 3),
                 util::Error);
    // Truncation must be flagged.
    auto cut = encoded;
    cut.pop_back();
    EXPECT_THROW(
        field::decodeColumn(cut, field::FieldCodec::Plain, 3),
        util::Error);
    // A dictionary index past the dictionary must be flagged.
    std::vector<uint8_t> badDict = {1, 7, 1};  // dict {7}, ref 1
    EXPECT_THROW(field::decodeColumn(badDict,
                                     field::FieldCodec::Dict, 1),
                 util::Error);
    // A run longer than the column must be flagged.
    std::vector<uint8_t> badRun = {9, 5};  // value 9, run 5
    EXPECT_THROW(
        field::decodeColumn(badRun, field::FieldCodec::Rle, 3),
        util::Error);
}

TEST(Backend, DispatchRoundTripsAndValidates)
{
    util::Rng rng(0xbac);
    std::vector<uint8_t> data(4096);
    for (auto &b : data)
        b = static_cast<uint8_t>(rng.uniformInt(0, 15));
    constexpr size_t kMiB = size_t{1} << 20;
    for (backend::EntropyBackend b : writableBackends) {
        auto packed = backend::entropyCompress(data, b);
        auto unpacked =
            backend::entropyDecompress(packed, b, data.size());
        EXPECT_EQ(unpacked, data) << backendName(b);
        for (size_t extra : {size_t{1}, kMiB})
            EXPECT_THROW(backend::entropyDecompress(
                             packed, b, data.size() + extra),
                         util::Error)
                << backendName(b);
    }
    // A range stream does not carry its output size, but a raw size
    // far beyond what the payload encodes runs the stream dry.
    RangeVector vec;
    EXPECT_THROW(backend::entropyDecompress(
                     vec.payload, backend::EntropyBackend::RangeLanes,
                     vec.raw.size() + kMiB),
                 util::Error);
    GoldenRangeColumn col = largestGoldenRangeColumn();
    EXPECT_THROW(backend::entropyDecompress(
                     col.range.stream, backend::EntropyBackend::Range,
                     col.range.rawSize + kMiB),
                 util::Error);
}

TEST(Backend, RangeTagsAreDecodeOnly)
{
    std::vector<uint8_t> data(100, 7);
    for (backend::EntropyBackend b : decodeOnlyBackends) {
        SCOPED_TRACE(backendName(b));
        EXPECT_THROW(backend::entropyCompress(data, b), util::Error);
        EXPECT_THROW(backend::parseBackendName(backendName(b)),
                     util::Error);
        // A library caller is refused the same way as the CLI.
        fccc::FccConfig cfg;
        cfg.container = fccc::ContainerFormat::Fcc3;
        cfg.backend = b;
        try {
            cfg.validate();
            ADD_FAILURE() << "validate() accepted a decode-only tag";
        } catch (const util::Error &error) {
            EXPECT_NE(std::string(error.what()).find("decode-only"),
                      std::string::npos)
                << error.what();
        }
    }
    // Every tag keeps its name, so old archives stay labelled.
    EXPECT_STREQ(backendName(backend::EntropyBackend::Range), "range");
    EXPECT_STREQ(backendName(backend::EntropyBackend::RangeLanes),
                 "range-lanes");
    for (backend::EntropyBackend b : writableBackends)
        EXPECT_EQ(backend::parseBackendName(backendName(b)), b);
}

TEST(RangeReader, GoldenTag2StreamsDecode)
{
    auto store = goldenColumns("fcc3-store.fcc",
                               backend::EntropyBackend::Store);
    auto ranged = goldenColumns("fcc3-range.fcc",
                                backend::EntropyBackend::Range);
    ASSERT_EQ(store.size(), fccc::fcc3ColumnCount);
    ASSERT_FALSE(ranged.empty());
    for (const GoldenColumn &col : ranged) {
        SCOPED_TRACE(col.index);
        EXPECT_EQ(backend::entropyDecompress(
                      col.stream, backend::EntropyBackend::Range,
                      col.rawSize),
                  store[col.index].stream);
    }
}

TEST(RangeReader, HandAssembledLanePayloadsDecode)
{
    // The golden corpus only pins single-lane tag-3 payloads; build
    // 2-, 4- and 8-lane ones from copies of one golden tag-2 stream.
    GoldenRangeColumn col = largestGoldenRangeColumn();
    for (size_t lanes : {2u, 4u, 8u}) {
        SCOPED_TRACE(lanes);
        util::ByteWriter w;
        w.u8(static_cast<uint8_t>(lanes));
        for (size_t l = 0; l + 1 < lanes; ++l)
            w.varint(col.range.stream.size());
        std::vector<uint8_t> expected;
        for (size_t l = 0; l < lanes; ++l) {
            w.bytes(col.range.stream);
            expected.insert(expected.end(), col.raw.begin(),
                            col.raw.end());
        }
        EXPECT_EQ(backend::entropyDecompress(
                      w.take(), backend::EntropyBackend::RangeLanes,
                      expected.size()),
                  expected);
    }
}

TEST(RangeReader, CommittedFourLaneVectorDecodes)
{
    RangeVector vec;
    ASSERT_FALSE(vec.payload.empty());
    EXPECT_EQ(vec.payload[0], 4);
    EXPECT_EQ(vec.raw.size() % 4, 3u);
    EXPECT_EQ(backend::entropyDecompress(
                  vec.payload, backend::EntropyBackend::RangeLanes,
                  vec.raw.size()),
              vec.raw);
}

TEST(RangeReader, MalformedPayloadsRejected)
{
    RangeVector vec;
    ASSERT_FALSE(vec.payload.empty());
    const auto lanes = backend::EntropyBackend::RangeLanes;
    const size_t rawSize = vec.raw.size();
    // Bad lane counts.
    for (uint8_t laneByte : {uint8_t{0}, uint8_t{9}, uint8_t{200}}) {
        auto bad = vec.payload;
        bad[0] = laneByte;
        EXPECT_THROW(backend::entropyDecompress(bad, lanes, rawSize),
                     util::Error);
    }
    // Truncated header / lane-length table.
    for (size_t keep : {size_t{0}, size_t{1}, size_t{2}, size_t{4}}) {
        std::vector<uint8_t> cut(
            vec.payload.begin(),
            vec.payload.begin() + static_cast<long>(keep));
        EXPECT_THROW(backend::entropyDecompress(cut, lanes, rawSize),
                     util::Error)
            << "kept " << keep << " bytes";
    }
    // A lane length pointing past the payload.
    {
        util::ByteReader r(vec.payload);
        r.u8();
        util::ByteWriter w;
        w.u8(4);
        r.varint();
        w.varint(vec.payload.size());  // lane 0 claims everything
        w.varint(r.varint());
        w.varint(r.varint());
        w.bytes(std::span<const uint8_t>(vec.payload)
                    .subspan(r.position()));
        EXPECT_THROW(
            backend::entropyDecompress(w.take(), lanes, rawSize),
            util::Error);
    }
    // A non-empty payload for an empty stream, under both tags.
    EXPECT_THROW(backend::entropyDecompress(vec.payload, lanes, 0),
                 util::Error);
    const std::vector<uint8_t> stray{1, 2, 3};
    for (backend::EntropyBackend b : decodeOnlyBackends)
        EXPECT_THROW(backend::entropyDecompress(stray, b, 0),
                     util::Error)
            << backendName(b);
}

TEST(RangeReader, HostileRawSizeFailsFast)
{
    // A 3-byte payload claiming 200 MB: the reader used to feed zero
    // bits past the end for the whole size (seconds of CPU and the
    // full allocation) before the size check could fire.
    const std::vector<uint8_t> tiny{1, 0x5a, 0xa5};
    for (backend::EntropyBackend b : decodeOnlyBackends) {
        SCOPED_TRACE(backendName(b));
        auto t0 = std::chrono::steady_clock::now();
        EXPECT_THROW(backend::entropyDecompress(tiny, b, 200000000),
                     util::Error);
        EXPECT_LT(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count(),
                  1.0);
    }
}

namespace {

/**
 * Random valid Datasets: empty datasets, single-flow datasets,
 * u32/u64 boundary values and max-length varints all appear with
 * fair probability.
 */
fccc::Datasets
randomDatasets(util::Rng &rng)
{
    fccc::Datasets d;

    auto boundaryU64 = [&rng]() -> uint64_t {
        switch (rng.uniformInt(0, 3)) {
          case 0:
            return 0;
          case 1:
            return ~0ull;  // max varint
          case 2:
            return rng.uniformInt(0, 0xffffffffull);
          default:
            return rng.next();
        }
    };
    auto boundaryU32 = [&rng]() -> uint32_t {
        switch (rng.uniformInt(0, 2)) {
          case 0:
            return 0;
          case 1:
            return 0xffffffffu;
          default:
            return static_cast<uint32_t>(
                rng.uniformInt(0, 0xffffffffull));
        }
    };

    size_t shortCount = rng.uniformInt(0, 6);
    for (size_t i = 0; i < shortCount; ++i) {
        flow::SfVector sf;
        size_t n = rng.uniformInt(1, 50);
        for (size_t k = 0; k < n; ++k)
            sf.values.push_back(static_cast<uint16_t>(
                rng.uniformInt(0, 0xff)));
        d.shortTemplates.push_back(std::move(sf));
    }

    size_t longCount = rng.uniformInt(0, 3);
    for (size_t i = 0; i < longCount; ++i) {
        fccc::LongTemplate tmpl;
        size_t n = rng.uniformInt(1, 120);
        for (size_t k = 0; k < n; ++k) {
            tmpl.sValues.push_back(static_cast<uint16_t>(
                rng.uniformInt(0, 0xff)));
            tmpl.iptUs.push_back(boundaryU64());
        }
        d.longTemplates.push_back(std::move(tmpl));
    }

    size_t addrCount = rng.uniformInt(0, 40);
    bool anyTemplates = shortCount + longCount > 0;
    size_t flowCount = (addrCount > 0 && anyTemplates)
        ? rng.uniformInt(0, 300)
        : 0;
    for (size_t i = 0; i < addrCount; ++i)
        d.addresses.push_back(boundaryU32());

    uint64_t timestamp = 0;
    for (size_t i = 0; i < flowCount; ++i) {
        fccc::TimeSeqRecord rec;
        // Sorted timestamps with occasional huge (varint-boundary)
        // jumps, capped so the sequence never wraps; the first
        // record may sit at 0.
        if (i > 0 || rng.chance(0.5)) {
            uint64_t headroom = ~0ull - timestamp;
            uint64_t cap = rng.chance(0.05) ? ~0ull >> 1
                                            : uint64_t{100000};
            timestamp += rng.uniformInt(0, std::min(headroom, cap));
        }
        rec.firstTimestampUs = timestamp;
        bool canLong = longCount > 0;
        bool canShort = shortCount > 0;
        rec.isLong = canLong && (!canShort || rng.chance(0.3));
        rec.templateIndex = static_cast<uint32_t>(rng.uniformInt(
            0, (rec.isLong ? longCount : shortCount) - 1));
        if (!rec.isLong)
            rec.rttUs = boundaryU32();
        rec.addressIndex = static_cast<uint32_t>(
            rng.uniformInt(0, addrCount - 1));
        d.timeSeq.push_back(rec);
    }
    return d;
}

/** Field-by-field equality (chunkSizes compared separately). */
void
expectSameDatasets(const fccc::Datasets &a, const fccc::Datasets &b)
{
    EXPECT_EQ(a.weights.w1, b.weights.w1);
    EXPECT_EQ(a.weights.w2, b.weights.w2);
    EXPECT_EQ(a.weights.w3, b.weights.w3);
    EXPECT_EQ(a.shortTemplates, b.shortTemplates);
    EXPECT_EQ(a.longTemplates, b.longTemplates);
    EXPECT_EQ(a.addresses, b.addresses);
    EXPECT_EQ(a.timeSeq, b.timeSeq);
}

} // namespace

TEST(ColumnarFuzz, RandomDatasetsRoundTripAllContainersAllBackends)
{
    util::Rng rng(20050713);
    for (int iter = 0; iter < 40; ++iter) {
        fccc::Datasets d = randomDatasets(rng);
        uint32_t chunkRecords = static_cast<uint32_t>(
            rng.uniformInt(0, 3) * rng.uniformInt(1, 64));
        fccc::SizeBreakdown sizes;

        // FCC1.
        auto v1 = fccc::serialize(d, sizes);
        fccc::Datasets d1 = fccc::deserialize(v1);
        expectSameDatasets(d, d1);
        EXPECT_TRUE(d1.chunkSizes.empty());

        // FCC2 (chunkRecords == 0 degrades to FCC1 by contract).
        auto v2 = fccc::serializeChunked(d, chunkRecords, sizes);
        fccc::Datasets d2 = fccc::deserialize(v2);
        expectSameDatasets(d, d2);

        // FCC3 under every writable backend.
        for (backend::EntropyBackend b : writableBackends) {
            auto v3 = fccc::serializeColumnar(d, chunkRecords, b,
                                              sizes);
            fccc::Datasets d3 = fccc::deserialize(v3);
            expectSameDatasets(d, d3);
            EXPECT_EQ(d3.chunkSizes, d2.chunkSizes)
                << backendName(b);
            // The breakdown accounts for every stored byte.
            EXPECT_EQ(sizes.total(), v3.size()) << backendName(b);
        }
    }
}

TEST(ColumnarFuzz, ColumnStatsDescribeTheWireBytes)
{
    util::Rng rng(77);
    fccc::Datasets d = randomDatasets(rng);
    fccc::SizeBreakdown sizes;
    std::vector<fccc::ColumnStat> columns;
    auto bytes = fccc::serializeColumnar(
        d, 64, backend::EntropyBackend::Deflate, sizes, nullptr,
        &columns);
    ASSERT_EQ(columns.size(), 12u);

    fccc::ContainerStat stat;
    fccc::Datasets back = fccc::deserialize(bytes, nullptr, &stat);
    expectSameDatasets(d, back);
    EXPECT_EQ(stat.version, 3);
    EXPECT_EQ(stat.sizes.total(), bytes.size());
    ASSERT_EQ(stat.columns.size(), columns.size());
    for (size_t c = 0; c < columns.size(); ++c) {
        EXPECT_EQ(stat.columns[c].name, columns[c].name);
        EXPECT_EQ(stat.columns[c].codec, columns[c].codec);
        EXPECT_EQ(stat.columns[c].backend, columns[c].backend);
        EXPECT_EQ(stat.columns[c].values, columns[c].values);
        EXPECT_EQ(stat.columns[c].encodedBytes,
                  columns[c].encodedBytes);
        EXPECT_EQ(stat.columns[c].storedBytes,
                  columns[c].storedBytes);
    }
}

TEST(ColumnarFuzz, PoolAndPoolFreeBytesIdentical)
{
    util::Rng rng(1234);
    util::ThreadPool pool(4);
    for (int iter = 0; iter < 8; ++iter) {
        fccc::Datasets d = randomDatasets(rng);
        fccc::SizeBreakdown sizes;
        auto solo = fccc::serializeColumnar(
            d, 16, backend::EntropyBackend::Deflate, sizes);
        auto pooled = fccc::serializeColumnar(
            d, 16, backend::EntropyBackend::Deflate, sizes, &pool);
        EXPECT_EQ(solo, pooled);
        expectSameDatasets(fccc::deserialize(solo),
                           fccc::deserialize(pooled, &pool));
    }
}

TEST(ColumnarFuzz, CorruptAndTruncatedContainersThrowCleanly)
{
    util::Rng rng(0xbad);
    fccc::Datasets d = randomDatasets(rng);
    fccc::SizeBreakdown sizes;
    auto bytes = fccc::serializeColumnar(
        d, 32, backend::EntropyBackend::Deflate, sizes);

    // Every proper prefix must be rejected, never crash.
    for (size_t len = 0; len < bytes.size();
         len += 1 + len / 16) {
        std::span<const uint8_t> cut(bytes.data(), len);
        EXPECT_THROW(fccc::deserialize(cut), util::Error)
            << "prefix " << len;
    }

    // Single-byte corruption must either throw or decode to
    // *something* — malformed constructs may not crash. (The
    // entropy payloads have no checksum, so a flipped payload byte
    // can legally decode to different, still-valid columns.)
    for (size_t pos = 0; pos < bytes.size();
         pos += 1 + pos / 32) {
        auto bad = bytes;
        bad[pos] ^= 0x5a;
        try {
            fccc::deserialize(bad);
        } catch (const util::Error &) {
            // expected for most positions
        }
    }
}

TEST(Columnar, CompressorWritesAndReadsFcc3)
{
    // End-to-end through the FccTraceCompressor config surface.
    fccc::FccConfig cfg;
    cfg.container = fccc::ContainerFormat::Fcc3;
    cfg.backend = backend::EntropyBackend::Store;
    fccc::FccTraceCompressor codec(cfg);

    util::Rng rng(99);
    fccc::Datasets d = randomDatasets(rng);
    d.weights = cfg.weights;
    fccc::SizeBreakdown sizes;
    auto bytes =
        fccc::serializeDatasets(d, cfg, sizes);
    ASSERT_GE(bytes.size(), 4u);
    EXPECT_EQ(bytes[3], '3');
    expectSameDatasets(d, fccc::deserialize(bytes));
}
