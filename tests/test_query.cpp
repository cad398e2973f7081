/**
 * @file
 * Seekable-archive tests: the FCC3 chunk/flow index block and the
 * random-access query subsystem. Indexed archives must reconstruct
 * exactly like unindexed ones, queries must return exactly what a
 * full decode + filter would, a corrupt index must degrade to a
 * full decode or a clean Error (never wrong output), and the Bloom
 * fingerprints must hold their false-positive bound.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <tuple>

#include "codec/fcc/datasets.hpp"
#include "codec/fcc/fcc_codec.hpp"
#include "codec/fcc/index.hpp"
#include "codec/fcc/stream.hpp"
#include "query/query.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#include "test_common.hpp"

using namespace fcc;
namespace fccc = fcc::codec::fcc;

namespace {

/** Explicit TSH spec for the raw 44-byte record fixtures. */
const trace::TraceFormatSpec kTsh =
    trace::parseTraceFormatSpec("tsh");

trace::Trace
webTrace(uint64_t seed, double seconds)
{
    trace::WebGenConfig cfg;
    cfg.seed = seed;
    cfg.durationSec = seconds;
    cfg.flowsPerSec = 80.0;
    trace::WebTrafficGenerator gen(cfg);
    return gen.generate();
}

using fcc::test::tempPath;

void
writeBytes(const std::string &path, const std::vector<uint8_t> &data)
{
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char *>(data.data()),
              static_cast<std::streamsize>(data.size()));
}

std::vector<uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Field-wise total order so packet sets compare as multisets. */
auto
packetKey(const trace::PacketRecord &p)
{
    return std::tuple(p.timestampNs, p.srcIp, p.dstIp, p.srcPort,
                      p.dstPort, p.tcpFlags, p.payloadBytes, p.seq,
                      p.ack, p.window, p.ipId);
}

std::vector<trace::PacketRecord>
sortedPackets(std::vector<trace::PacketRecord> packets)
{
    std::sort(packets.begin(), packets.end(),
              [](const trace::PacketRecord &a,
                 const trace::PacketRecord &b) {
                  return packetKey(a) < packetKey(b);
              });
    return packets;
}

void
expectSamePackets(const std::vector<trace::PacketRecord> &a,
                  const std::vector<trace::PacketRecord> &b,
                  const char *what)
{
    auto sa = sortedPackets(a);
    auto sb = sortedPackets(b);
    ASSERT_EQ(sa.size(), sb.size()) << what;
    for (size_t i = 0; i < sa.size(); ++i)
        ASSERT_EQ(packetKey(sa[i]), packetKey(sb[i]))
            << what << " packet " << i;
}

/** The reference seed-2005 archive, written once per fixture run. */
struct SeedArchive
{
    std::string tshPath = tempPath("query_seed.tsh");
    std::string idxPath = tempPath("query_seed_idx.fcc");
    std::string plainPath = tempPath("query_seed_plain.fcc");
    trace::Trace original;
    fccc::FccConfig cfg;

    SeedArchive()
    {
        original = webTrace(2005, 8.0);
        trace::writeTshFile(original, tshPath);
        cfg.container = fccc::ContainerFormat::Fcc3;
        cfg.chunkRecords = 64;  // span many chunks
        cfg.threads = 1;
        fccc::FccConfig idxCfg = cfg;
        idxCfg.index = true;
        fccc::compressTraceFile(tshPath, idxPath, idxCfg);
        fccc::compressTraceFile(tshPath, plainPath, cfg);
    }

    ~SeedArchive()
    {
        std::remove(tshPath.c_str());
        std::remove(idxPath.c_str());
        std::remove(plainPath.c_str());
    }
};

SeedArchive &
seedArchive()
{
    static SeedArchive archive;
    return archive;
}

std::vector<trace::PacketRecord>
runQuery(const std::string &path, const query::Expr &pred,
         const fccc::FccConfig &cfg, query::QueryStats *stats,
         bool forceFullDecode = false)
{
    query::FccArchive archive(path, cfg);
    trace::Trace out;
    trace::CollectTraceSink sink(out);
    query::QueryStats s = archive.run(pred, sink, forceFullDecode);
    if (stats != nullptr)
        *stats = s;
    return out.packets();
}

} // namespace

TEST(QueryIndex, IndexedReconstructsIdenticallyToUnindexed)
{
    SeedArchive &seed = seedArchive();
    std::string outIdx = tempPath("rt_idx.tsh");
    std::string outPlain = tempPath("rt_plain.tsh");
    auto sIdx =
        fccc::decompressTraceFile(seed.idxPath, outIdx, seed.cfg,
                                  kTsh);
    auto sPlain = fccc::decompressTraceFile(
        seed.plainPath, outPlain, seed.cfg, kTsh);
    EXPECT_EQ(sIdx.packets, sPlain.packets);
    EXPECT_EQ(sIdx.packets, seed.original.size());
    EXPECT_EQ(readBytes(outIdx), readBytes(outPlain));
    std::remove(outIdx.c_str());
    std::remove(outPlain.c_str());

    // The parse reports the index; the plain file explicitly lacks
    // it; both decode to the same datasets.
    fccc::ContainerStat statIdx, statPlain;
    auto dIdx = fccc::deserialize(readBytes(seed.idxPath), nullptr,
                                  &statIdx);
    auto dPlain = fccc::deserialize(readBytes(seed.plainPath),
                                    nullptr, &statPlain);
    EXPECT_TRUE(statIdx.hasIndex);
    EXPECT_GT(statIdx.sizes.indexBytes, 0u);
    EXPECT_FALSE(statPlain.hasIndex);
    EXPECT_EQ(statPlain.sizes.indexBytes, 0u);
    EXPECT_EQ(dIdx.timeSeq, dPlain.timeSeq);
    EXPECT_EQ(dIdx.shortTemplates, dPlain.shortTemplates);
    EXPECT_EQ(dIdx.longTemplates, dPlain.longTemplates);
    EXPECT_EQ(dIdx.addresses, dPlain.addresses);
    EXPECT_EQ(dIdx.chunkSizes, dPlain.chunkSizes);
    // The accounting covers every byte of the indexed file.
    EXPECT_EQ(statIdx.sizes.total(), readBytes(seed.idxPath).size());
}

TEST(QueryIndex, IndexedCompressionByteIdenticalAcrossThreads)
{
    SeedArchive &seed = seedArchive();
    std::vector<uint8_t> ref = readBytes(seed.idxPath);
    ASSERT_FALSE(ref.empty());
    for (uint32_t threads : {2u, 4u, 8u}) {
        fccc::FccConfig cfg = seed.cfg;
        cfg.index = true;
        cfg.threads = threads;
        std::string path = tempPath("thr_idx.fcc");
        fccc::compressTraceFile(seed.tshPath, path, cfg);
        EXPECT_EQ(readBytes(path), ref) << threads << " threads";
        std::remove(path.c_str());
    }
}

TEST(QueryIndex, ArchiveIndexSummariesAreConsistent)
{
    SeedArchive &seed = seedArchive();
    std::vector<uint8_t> bytes = readBytes(seed.idxPath);
    auto index = fccc::readArchiveIndex(bytes);
    ASSERT_TRUE(index.has_value());
    fccc::Datasets d = fccc::deserialize(bytes);
    ASSERT_FALSE(index->chunks.empty());
    ASSERT_EQ(index->chunks.size(), d.chunkSizes.size());
    EXPECT_EQ(index->totalRecords(), d.timeSeq.size());

    // Per-chunk summaries must agree with the decoded records, and
    // the Bloom filters must never produce a false negative.
    size_t rec = 0;
    for (size_t c = 0; c < index->chunks.size(); ++c) {
        const fccc::ChunkSummary &s = index->chunks[c];
        EXPECT_EQ(s.records, d.chunkSizes[c]);
        EXPECT_EQ(s.minFirstUs, d.timeSeq[rec].firstTimestampUs);
        uint64_t packets = 0, maxFlow = 0;
        for (size_t i = rec; i < rec + d.chunkSizes[c]; ++i) {
            const auto &r = d.timeSeq[i];
            uint64_t n = r.isLong
                ? d.longTemplates[r.templateIndex].sValues.size()
                : d.shortTemplates[r.templateIndex].size();
            packets += n;
            maxFlow = std::max(maxFlow, n);
            EXPECT_TRUE(s.mayContainServer(
                d.addresses[r.addressIndex]))
                << "false negative in chunk " << c;
            EXPECT_GE(s.maxEndUs, r.firstTimestampUs);
        }
        EXPECT_EQ(s.packets, packets);
        EXPECT_EQ(s.maxFlowPackets, maxFlow);
        rec += d.chunkSizes[c];
    }
}

TEST(QueryIndex, BloomFalsePositiveRateBounded)
{
    SeedArchive &seed = seedArchive();
    auto index = fccc::readArchiveIndex(readBytes(seed.idxPath));
    ASSERT_TRUE(index.has_value());
    fccc::Datasets d = fccc::deserialize(readBytes(seed.idxPath));
    std::set<uint32_t> present(d.addresses.begin(),
                               d.addresses.end());

    // ~10 bits and 5 probes per distinct server give ~1 % expected
    // FPR; assert a 3 % bound over many absent addresses to keep
    // the test noise-proof.
    util::Rng rng(0xb100f);
    uint64_t probes = 0, positives = 0;
    for (int i = 0; i < 2000; ++i) {
        uint32_t ip = static_cast<uint32_t>(rng.next());
        if (present.count(ip) != 0)
            continue;
        for (const fccc::ChunkSummary &s : index->chunks) {
            ++probes;
            positives += s.mayContainServer(ip) ? 1 : 0;
        }
    }
    ASSERT_GT(probes, 1000u);
    double fpr = static_cast<double>(positives) /
                 static_cast<double>(probes);
    EXPECT_LT(fpr, 0.03) << positives << "/" << probes;
}

TEST(QueryIndex, SingleFlowQueryTouchesStrictlyFewerChunksAndBytes)
{
    // The PR's acceptance bar: on the seed-2005 reference trace, a
    // single-flow extraction must read and decode strictly less
    // than a full decompression.
    SeedArchive &seed = seedArchive();
    fccc::Datasets d = fccc::deserialize(readBytes(seed.idxPath));
    auto index = fccc::readArchiveIndex(readBytes(seed.idxPath));
    ASSERT_TRUE(index.has_value());
    ASSERT_GT(index->chunks.size(), 4u);

    // Pick a server that lives in exactly one chunk (the Zipf tail
    // guarantees such servers exist at 64-record chunks).
    std::set<uint32_t> seen;
    uint32_t rareIp = 0;
    size_t rec = 0;
    for (size_t c = 0; c < d.chunkSizes.size() && rareIp == 0; ++c) {
        std::set<uint32_t> inChunk;
        for (size_t i = rec; i < rec + d.chunkSizes[c]; ++i)
            inChunk.insert(d.addresses[d.timeSeq[i].addressIndex]);
        rec += d.chunkSizes[c];
        // A server unique to this chunk and absent everywhere else.
        for (uint32_t ip : inChunk) {
            size_t total = 0;
            for (const auto &r : d.timeSeq)
                total += d.addresses[r.addressIndex] == ip ? 1 : 0;
            size_t here = 0;
            for (size_t i = rec - d.chunkSizes[c]; i < rec; ++i)
                here += d.addresses[d.timeSeq[i].addressIndex] == ip
                    ? 1
                    : 0;
            if (total == here) {
                rareIp = ip;
                break;
            }
        }
    }
    ASSERT_NE(rareIp, 0u) << "no single-chunk server in the seed "
                             "trace; shrink chunkRecords";

    query::Expr pred = query::Expr::serverIs(rareIp);
    query::QueryStats stats;
    auto packets =
        runQuery(seed.idxPath, pred, seed.cfg, &stats);
    EXPECT_TRUE(stats.usedIndex);
    EXPECT_GT(packets.size(), 0u);
    EXPECT_LT(stats.chunksDecoded, stats.chunksTotal);
    EXPECT_LT(stats.bytesRead, stats.fileBytes);
}

TEST(QueryIndex, QueryMatchesFullDecodePlusFilter)
{
    SeedArchive &seed = seedArchive();
    fccc::Datasets d = fccc::deserialize(readBytes(seed.idxPath));
    ASSERT_FALSE(d.addresses.empty());
    // The full reconstruction, as the ground truth to filter.
    fccc::FccTraceCompressor codec(seed.cfg);
    trace::Trace full = codec.decompress(readBytes(seed.idxPath));

    // --flow: all packets of the flows using a given server. Under
    // the default (paper §4) addressing every packet of a flow
    // carries the server as destination, so the ground-truth filter
    // is a dstIp match.
    uint32_t ip = d.addresses[d.addresses.size() / 2];
    query::Expr flowPred = query::Expr::serverIs(ip);
    std::vector<trace::PacketRecord> expected;
    for (const auto &pkt : full.packets())
        if (pkt.dstIp == ip)
            expected.push_back(pkt);
    query::QueryStats stats;
    auto viaIndex =
        runQuery(seed.idxPath, flowPred, seed.cfg, &stats);
    EXPECT_TRUE(stats.usedIndex);
    expectSamePackets(viaIndex, expected, "--flow vs dstIp filter");
    auto viaFull = runQuery(seed.idxPath, flowPred, seed.cfg,
                            nullptr, /*forceFullDecode=*/true);
    expectSamePackets(viaIndex, viaFull, "--flow vs full decode");

    // --time: a window in the middle of the trace.
    uint64_t t0 = d.timeSeq[d.timeSeq.size() / 3].firstTimestampUs;
    uint64_t t1 = t0 + 2'000'000;
    query::Expr timePred = query::Expr::timeWithin(t0, t1);
    expected.clear();
    for (const auto &pkt : full.packets())
        if (pkt.timestampUs() >= t0 && pkt.timestampUs() <= t1)
            expected.push_back(pkt);
    query::QueryStats timeStats;
    auto viaTime =
        runQuery(seed.idxPath, timePred, seed.cfg, &timeStats);
    expectSamePackets(viaTime, expected, "--time vs ts filter");
    EXPECT_LT(timeStats.chunksDecoded, timeStats.chunksTotal);

    // --min-packets: long flows only; equivalence against the
    // forced full-decode path (flow sizes are not derivable from
    // packets alone).
    query::Expr longPred = query::Expr::minFlowPackets(51);
    auto viaLong =
        runQuery(seed.idxPath, longPred, seed.cfg, nullptr);
    auto viaLongFull = runQuery(seed.idxPath, longPred, seed.cfg,
                                nullptr, true);
    EXPECT_GT(viaLong.size(), 0u);
    expectSamePackets(viaLong, viaLongFull,
                      "--min-packets vs full decode");

    // No predicate: the query is a full reconstruction.
    query::Expr all = query::Expr::matchAll();
    auto viaAll = runQuery(seed.idxPath, all, seed.cfg, nullptr);
    expectSamePackets(viaAll, full.packets(), "match-all");
}

TEST(QueryIndex, QueryResultIndependentOfThreadCount)
{
    SeedArchive &seed = seedArchive();
    fccc::Datasets d = fccc::deserialize(readBytes(seed.idxPath));
    query::Expr pred = query::Expr::serverIs(d.addresses.front());

    fccc::FccConfig cfg1 = seed.cfg;
    cfg1.threads = 1;
    auto ref = runQuery(seed.idxPath, pred, cfg1, nullptr);
    for (uint32_t threads : {2u, 8u}) {
        fccc::FccConfig cfg = seed.cfg;
        cfg.threads = threads;
        auto got = runQuery(seed.idxPath, pred, cfg, nullptr);
        ASSERT_EQ(got.size(), ref.size()) << threads;
        for (size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(packetKey(got[i]), packetKey(ref[i]))
                << threads << " threads, packet " << i;
    }
}

TEST(QueryIndex, LargerGapBypassesTimeWindowPruning)
{
    // The index's maxEndUs bounds assume the compress-time gap; a
    // query reconstructing with a LARGER gap must not trust them —
    // it falls back to the full-decode path and still returns
    // exactly what that configuration's full reconstruction holds.
    SeedArchive &seed = seedArchive();
    fccc::Datasets d = fccc::deserialize(readBytes(seed.idxPath));
    fccc::FccConfig wideGap = seed.cfg;
    wideGap.defaultGapUs = 5000;

    uint64_t t0 = d.timeSeq[d.timeSeq.size() / 2].firstTimestampUs;
    query::Expr pred = query::Expr::timeWithin(t0, t0 + 1'000'000);
    query::QueryStats stats;
    auto got = runQuery(seed.idxPath, pred, wideGap, &stats);
    EXPECT_FALSE(stats.usedIndex);
    auto want = runQuery(seed.idxPath, pred, wideGap, nullptr,
                         /*forceFullDecode=*/true);
    expectSamePackets(got, want, "wide-gap time window");

    // A non-time predicate keeps the indexed path even with the
    // wider gap (Bloom and flow-size pruning are gap-independent).
    query::Expr flowPred = query::Expr::serverIs(d.addresses.front());
    query::QueryStats flowStats;
    runQuery(seed.idxPath, flowPred, wideGap, &flowStats);
    EXPECT_TRUE(flowStats.usedIndex);
}

TEST(QueryIndex, UnindexedContainersFallBackToFullDecode)
{
    // FCC2 (and any other un-indexed container) must answer the
    // same queries through the full-decode path.
    SeedArchive &seed = seedArchive();
    fccc::FccConfig cfg2 = seed.cfg;
    cfg2.container = fccc::ContainerFormat::Fcc2;
    std::string f2 = tempPath("fallback.fcc");
    fccc::compressTraceFile(seed.tshPath, f2, cfg2);

    fccc::Datasets d = fccc::deserialize(readBytes(f2));
    query::Expr pred = query::Expr::serverIs(d.addresses[1]);
    query::QueryStats stats;
    auto viaF2 = runQuery(f2, pred, seed.cfg, &stats);
    EXPECT_FALSE(stats.usedIndex);
    EXPECT_EQ(stats.bytesRead, stats.fileBytes);
    auto viaIdx = runQuery(seed.idxPath, pred, seed.cfg, nullptr);
    expectSamePackets(viaF2, viaIdx, "fcc2 fallback vs indexed");
    std::remove(f2.c_str());
}

TEST(QueryIndex, CorruptOrTruncatedIndexDegradesSafely)
{
    // Any mutation of the index region must leave exactly two
    // outcomes: a clean util::Error, or a silent fall back to the
    // full-decode path with byte-exact results. Wrong output is the
    // one forbidden outcome.
    SeedArchive &seed = seedArchive();
    std::vector<uint8_t> good = readBytes(seed.idxPath);
    ASSERT_GT(good.size(), fccc::indexFooterBytes);
    uint64_t region = fccc::indexRegionBytes(good);
    ASSERT_GT(region, fccc::indexFooterBytes);

    query::Expr all = query::Expr::matchAll();
    auto reference =
        runQuery(seed.idxPath, all, seed.cfg, nullptr);
    ASSERT_EQ(reference.size(), seed.original.size());

    std::string path = tempPath("corrupt_idx.fcc");
    auto checkMutant = [&](const std::vector<uint8_t> &mutant,
                           const char *what) {
        writeBytes(path, mutant);
        // The low-level parse must never produce wrong datasets
        // silently — Error or success, no crash.
        try {
            fccc::deserialize(mutant);
        } catch (const util::Error &) {
        }
        try {
            query::QueryStats stats;
            auto got = runQuery(path, all, seed.cfg, &stats);
            expectSamePackets(got, reference, what);
        } catch (const util::Error &) {
            // A clean rejection is an acceptable outcome.
        }
    };

    // Truncations across the whole index region (and into the last
    // column frame).
    for (size_t cut : {size_t{1}, size_t{7}, size_t{15},
                       size_t{16}, size_t{17},
                       static_cast<size_t>(region / 2),
                       static_cast<size_t>(region - 1),
                       static_cast<size_t>(region),
                       static_cast<size_t>(region + 3)}) {
        std::vector<uint8_t> mutant(good.begin(),
                                    good.end() - cut);
        checkMutant(mutant, "truncated");
    }

    // Single-byte corruption: every footer byte, and a stride of
    // payload bytes across the index region.
    for (size_t i = good.size() - fccc::indexFooterBytes;
         i < good.size(); ++i) {
        std::vector<uint8_t> mutant = good;
        mutant[i] ^= 0x5a;
        checkMutant(mutant, "footer flip");
    }
    for (size_t off = 1; off < region - fccc::indexFooterBytes;
         off += 13) {
        std::vector<uint8_t> mutant = good;
        mutant[good.size() - region + off] ^= 0xa5;
        checkMutant(mutant, "payload flip");
    }
    std::remove(path.c_str());
}

TEST(QueryIndex, IndexRequiresChunkedFcc3)
{
    SeedArchive &seed = seedArchive();
    trace::Trace tr = seed.original;
    fccc::FccConfig cfg = seed.cfg;
    cfg.index = true;
    cfg.chunkRecords = 0;
    EXPECT_THROW(fccc::FccTraceCompressor(cfg).compress(tr),
                 util::Error);
    cfg.chunkRecords = 64;
    cfg.container = fccc::ContainerFormat::Fcc2;
    EXPECT_THROW(fccc::FccTraceCompressor(cfg).compress(tr),
                 util::Error);
}

TEST(QueryIndex, EmptyDatasetsRoundTripWithIndex)
{
    fccc::Datasets empty;
    fccc::SizeBreakdown sizes;
    fccc::IndexOptions options;
    auto bytes = fccc::serializeColumnar(
        empty, 4096, codec::backend::EntropyBackend::Deflate, sizes,
        nullptr, nullptr, &options);
    EXPECT_GT(sizes.indexBytes, 0u);

    fccc::ContainerStat stat;
    fccc::Datasets back = fccc::deserialize(bytes, nullptr, &stat);
    EXPECT_TRUE(stat.hasIndex);
    EXPECT_TRUE(back.timeSeq.empty());
    EXPECT_TRUE(back.chunkSizes.empty());

    auto index = fccc::readArchiveIndex(bytes);
    ASSERT_TRUE(index.has_value());
    EXPECT_TRUE(index->chunks.empty());

    std::string path = tempPath("empty_idx.fcc");
    writeBytes(path, bytes);
    query::Expr all = query::Expr::matchAll();
    query::QueryStats stats;
    auto packets = runQuery(path, all, fccc::FccConfig{}, &stats);
    EXPECT_TRUE(stats.usedIndex);
    EXPECT_TRUE(packets.empty());
    std::remove(path.c_str());
}

TEST(QueryIndex, PlanNeverDropsAMatchingChunk)
{
    // plan() may over-approximate (Bloom false positives) but must
    // never exclude a chunk that holds a matching flow — for every
    // stored server, every chunk containing it must be planned.
    SeedArchive &seed = seedArchive();
    fccc::Datasets d = fccc::deserialize(readBytes(seed.idxPath));
    query::FccArchive archive(seed.idxPath, seed.cfg);
    ASSERT_TRUE(archive.hasIndex());

    std::vector<std::set<uint32_t>> serversOf(d.chunkSizes.size());
    size_t rec = 0;
    for (size_t c = 0; c < d.chunkSizes.size(); ++c) {
        for (size_t i = rec; i < rec + d.chunkSizes[c]; ++i)
            serversOf[c].insert(
                d.addresses[d.timeSeq[i].addressIndex]);
        rec += d.chunkSizes[c];
    }
    for (uint32_t ip : d.addresses) {
        query::Expr pred = query::Expr::serverIs(ip);
        auto planned = archive.plan(pred);
        std::set<size_t> plannedSet(planned.begin(), planned.end());
        for (size_t c = 0; c < serversOf.size(); ++c) {
            if (serversOf[c].count(ip) != 0) {
                ASSERT_TRUE(plannedSet.count(c) != 0)
                    << "chunk " << c << " dropped for server " << ip;
            }
        }
    }
}
