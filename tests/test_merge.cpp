/**
 * @file
 * Tests of trace::RunMerge, the one canonical-order merge every
 * reconstruction path goes through: a differential test against a
 * full std::sort on seeded random runs (unsorted runs, single-packet
 * runs, bit-identical packets, runs spanning several drains, empty
 * runs), its memory bound and its input checks; then a decode-level
 * test in which equal timestamps inside one flow expand out of
 * canonical order, checked on every decode path and thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "codec/fcc/fcc_codec.hpp"
#include "codec/fcc/session.hpp"
#include "query/catalog.hpp"
#include "query/query.hpp"
#include "trace/run_merge.hpp"
#include "trace/source.hpp"
#include "trace/tsh.hpp"
#include "util/error.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"

#include "test_common.hpp"

using namespace fcc;
using trace::PacketRecord;
using trace::RunBound;
namespace fccc = fcc::codec::fcc;

namespace {

bool
samePackets(const std::vector<PacketRecord> &a,
            const std::vector<PacketRecord> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (trace::packetCanonicalLess(a[i], b[i]) ||
            trace::packetCanonicalLess(b[i], a[i]))
            return false;
    return true;
}

std::vector<PacketRecord>
canonicalSorted(std::vector<PacketRecord> packets)
{
    std::sort(packets.begin(), packets.end(),
              trace::packetCanonicalLess);
    return packets;
}

/** A segment of runs as RunMerge::add() takes it. */
struct Segment
{
    std::vector<PacketRecord> packets;
    std::vector<RunBound> runs;
};

/**
 * Seeded random batches of segments. Floors never decrease; each
 * batch starts at a floor no run of it goes below, which is its
 * predecessor's drain limit. Run kinds: empty; one packet; a long
 * run whose packets reach many batches ahead; a tie run (one
 * timestamp, descending tie fields — out of canonical order); and
 * copies of one fixed packet, bit-identical across runs.
 */
struct RandomInput
{
    std::vector<std::vector<Segment>> batches;
    std::vector<uint64_t> batchStartNs;  ///< lower bound of the batch
    std::vector<PacketRecord> all;
};

RandomInput
randomInput(uint64_t seed)
{
    util::Rng rng(seed);
    RandomInput in;
    PacketRecord twin;
    twin.srcIp = 7;
    twin.dstIp = 9;
    twin.tcpFlags = trace::tcp_flags::Ack;

    uint64_t floorNs = 0;
    size_t batches = rng.uniformInt(1, 12);
    for (size_t b = 0; b < batches; ++b) {
        in.batchStartNs.push_back(floorNs);
        std::vector<Segment> segments(rng.uniformInt(1, 3));
        for (Segment &seg : segments) {
            size_t runs = rng.uniformInt(0, 10);
            for (size_t r = 0; r < runs; ++r) {
                floorNs += rng.uniformInt(0, 2) * 1000;
                auto packetAt = [&](uint64_t ns) {
                    PacketRecord p;
                    p.timestampNs = ns;
                    p.srcIp = static_cast<uint32_t>(rng.uniformInt(0, 3));
                    p.dstIp = static_cast<uint32_t>(rng.uniformInt(0, 1));
                    p.tcpFlags = static_cast<uint8_t>(rng.uniformInt(0, 2));
                    p.seq = static_cast<uint32_t>(rng.uniformInt(0, 1));
                    return p;
                };
                switch (rng.uniformInt(0, 4)) {
                  case 0:  // empty
                    break;
                  case 1:  // one packet, possibly above its floor
                    seg.packets.push_back(
                        packetAt(floorNs + rng.uniformInt(0, 1) * 1000));
                    break;
                  case 2: {  // long: reaches past later drains
                    size_t n = rng.uniformInt(2, 40);
                    uint64_t t = floorNs;
                    for (size_t k = 0; k < n; ++k) {
                        seg.packets.push_back(packetAt(t));
                        t += rng.uniformInt(0, 3) * 1000;
                    }
                    break;
                  }
                  case 3: {  // tie run, descending tie fields
                    size_t n = rng.uniformInt(2, 6);
                    for (size_t k = 0; k < n; ++k) {
                        PacketRecord p = packetAt(floorNs);
                        p.srcIp = static_cast<uint32_t>(100 - k);
                        seg.packets.push_back(p);
                    }
                    break;
                  }
                  default: {  // bit-identical across runs
                    PacketRecord p = twin;
                    p.timestampNs = floorNs;
                    seg.packets.push_back(p);
                    seg.packets.push_back(p);
                    break;
                  }
                }
                seg.runs.push_back({seg.packets.size(), floorNs});
            }
            in.all.insert(in.all.end(), seg.packets.begin(),
                          seg.packets.end());
        }
        in.batches.push_back(std::move(segments));
    }
    return in;
}

} // namespace

TEST(RunMerge, MatchesFullSortOnRandomRuns)
{
    for (uint64_t seed = 1; seed <= 300; ++seed) {
        SCOPED_TRACE(seed);
        RandomInput in = randomInput(seed);
        std::vector<PacketRecord> expected = canonicalSorted(in.all);

        trace::RunMerge merge;
        std::vector<PacketRecord> got;
        size_t added = 0;
        for (size_t b = 0; b < in.batches.size(); ++b) {
            size_t carried = merge.pending();
            size_t batchPackets = 0;
            for (Segment &seg : in.batches[b]) {
                batchPackets += seg.packets.size();
                added += seg.packets.size();
                merge.add(std::move(seg.packets), seg.runs);
                // One batch plus the previous batch's leftovers.
                EXPECT_LE(merge.footprint(), carried + batchPackets);
            }
            uint64_t limitNs = b + 1 < in.batches.size()
                ? in.batchStartNs[b + 1]
                : ~0ull;
            merge.drainBefore(limitNs, got);

            // Exactly the packets older than the limit are out, so
            // none older than it is held.
            size_t older = static_cast<size_t>(
                std::partition_point(
                    expected.begin(), expected.end(),
                    [limitNs](const PacketRecord &p) {
                        return p.timestampNs < limitNs;
                    }) -
                expected.begin());
            ASSERT_EQ(got.size(), older);
            EXPECT_EQ(merge.pending(), added - got.size());
            EXPECT_EQ(merge.footprint(), merge.pending());
        }
        EXPECT_EQ(merge.pending(), 0u);
        EXPECT_TRUE(samePackets(got, expected));
    }
}

TEST(RunMerge, EmptyInputAndEmptyRuns)
{
    std::vector<PacketRecord> out;
    trace::RunMerge().drainBefore(~0ull, out);
    EXPECT_TRUE(out.empty());

    trace::RunMerge merge;
    merge.add({}, {});
    std::vector<RunBound> emptyRuns{{0, 5}, {0, 5}, {0, 9}};
    merge.add({}, emptyRuns);
    merge.drainBefore(~0ull, out);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(merge.pending(), 0u);
    EXPECT_EQ(merge.footprint(), 0u);
}

TEST(RunMerge, SingleRunIsSortedInPlace)
{
    std::vector<PacketRecord> run(5);
    for (size_t i = 0; i < run.size(); ++i) {
        run[i].timestampNs = 1000;
        run[i].dstPort = static_cast<uint16_t>(50 - i);
    }
    std::vector<PacketRecord> expected = canonicalSorted(run);
    trace::RunMerge merge;
    RunBound whole{run.size(), 1000};
    merge.add(run, {&whole, 1});
    std::vector<PacketRecord> out;
    merge.drainBefore(1000, out);  // nothing is older than 1000 ns
    EXPECT_TRUE(out.empty());
    merge.drainBefore(1001, out);
    EXPECT_TRUE(samePackets(out, expected));
}

TEST(RunMerge, RejectsMalformedRuns)
{
    PacketRecord p;
    p.timestampNs = 5000;
    {
        trace::RunMerge merge;  // runs stop short of the segment
        RunBound r{1, 0};
        EXPECT_THROW(merge.add({p, p}, {&r, 1}), util::Error);
    }
    {
        trace::RunMerge merge;  // a run ending past the segment
        RunBound r{2, 0};
        EXPECT_THROW(merge.add({p}, {&r, 1}), util::Error);
    }
    {
        trace::RunMerge merge;  // floors going back
        std::vector<RunBound> runs{{1, 4000}, {2, 3000}};
        EXPECT_THROW(merge.add({p, p}, runs), util::Error);
    }
    {
        trace::RunMerge merge;  // a packet older than its floor
        RunBound r{1, 6000};
        EXPECT_THROW(merge.add({p}, {&r, 1}), util::Error);
    }
    {
        trace::RunMerge merge;  // a floor below an earlier drain
        std::vector<PacketRecord> out;
        merge.drainBefore(6000, out);
        RunBound r{1, 5000};
        EXPECT_THROW(merge.add({p}, {&r, 1}), util::Error);
    }
}

namespace {

/**
 * Hand-built datasets whose flows expand with equal timestamps out
 * of canonical order. Template 0 is a handshake: with rttUs = 0 the
 * SYN-ACK and the ACK after it share a microsecond, and the ACK
 * (flags 0x10) sorts before the SYN-ACK (0x12). The long template
 * replays zero gaps. Records often share a start time, also across
 * the 16-record chunk boundaries.
 */
fccc::Datasets
tieDatasets()
{
    fccc::Datasets d;
    flow::Characterizer chi(d.weights);
    auto s = [&chi](flow::FlagClass flag, bool dependent,
                    flow::SizeClass size = flow::SizeClass::Empty) {
        flow::PacketClass cls;
        cls.flag = flag;
        cls.dependent = dependent;
        cls.size = size;
        return chi.encode(cls);
    };
    using F = flow::FlagClass;
    using Z = flow::SizeClass;
    flow::SfVector handshake;
    handshake.values = {s(F::Syn, false), s(F::SynAck, true),
                        s(F::Ack, true)};
    flow::SfVector exchange;
    exchange.values = {s(F::Syn, false), s(F::SynAck, true),
                       s(F::Ack, true), s(F::Ack, false, Z::Small),
                       s(F::Ack, true, Z::Large),
                       s(F::FinRst, true), s(F::Ack, true)};
    d.shortTemplates = {handshake, exchange};

    fccc::LongTemplate burst;
    for (size_t k = 0; k < 60; ++k) {
        burst.sValues.push_back(k == 0 ? s(F::Syn, false)
                                       : s(F::Ack, k % 3 == 0,
                                           Z::Large));
        burst.iptUs.push_back(k % 4 == 0 ? 1 : 0);
    }
    d.longTemplates = {burst};
    d.addresses = {0x0a000001, 0x0a000002, 0xc0a80001};

    util::Rng rng(2005);
    uint64_t t = 1000000000;
    for (size_t i = 0; i < 400; ++i) {
        t += rng.uniformInt(0, 2);
        fccc::TimeSeqRecord rec;
        rec.firstTimestampUs = t;
        rec.isLong = i % 23 == 0;
        rec.templateIndex = rec.isLong
            ? 0
            : static_cast<uint32_t>(rng.uniformInt(0, 1));
        if (!rec.isLong)
            rec.rttUs = rng.uniformInt(0, 1) == 0
                ? 0
                : static_cast<uint32_t>(rng.uniformInt(1, 40));
        rec.addressIndex =
            static_cast<uint32_t>(rng.uniformInt(0, 2));
        d.timeSeq.push_back(rec);
    }
    d.timeSeq[0].isLong = false;  // the tie flow leads
    d.timeSeq[0].templateIndex = 0;
    d.timeSeq[0].rttUs = 0;
    return d;
}

/** Every packet of @p d in canonical order, by a full sort. */
std::vector<PacketRecord>
sortedExpansion(const fccc::Datasets &d, const fccc::FccConfig &cfg)
{
    fccc::FccTraceCompressor codec(cfg);
    std::vector<PacketRecord> all;
    if (d.chunkSizes.empty()) {
        util::Rng rng(cfg.decompressSeed);
        for (const fccc::TimeSeqRecord &rec : d.timeSeq)
            codec.expandFlow(d, rec, rng, all);
    } else {
        for (size_t c = 0; c < d.chunkSizes.size(); ++c)
            codec.expandChunk(d, c, all);
    }
    return canonicalSorted(std::move(all));
}

std::vector<uint8_t>
tshBytes(const std::vector<PacketRecord> &packets)
{
    return trace::writeTsh(trace::Trace(packets));
}

} // namespace

TEST(MergeTies, EveryDecodePathMatchesFullSort)
{
    fccc::Datasets d = tieDatasets();
    {
        // The premise: a flow expands out of canonical order.
        fccc::FccTraceCompressor codec;
        util::Rng rng(1);
        std::vector<PacketRecord> first;
        codec.expandFlow(d, d.timeSeq[0], rng, first);
        ASSERT_EQ(first.size(), 3u);
        EXPECT_EQ(first[1].timestampNs, first[2].timestampNs);
        EXPECT_TRUE(trace::packetCanonicalLess(first[2], first[1]));
    }

    struct Layout
    {
        const char *name;
        fccc::ContainerFormat container;
        bool index;
    };
    const Layout layouts[] = {
        {"fcc1", fccc::ContainerFormat::Fcc1, false},
        {"fcc3", fccc::ContainerFormat::Fcc3, false},
        {"fcc3-indexed", fccc::ContainerFormat::Fcc3, true},
    };
    for (const Layout &layout : layouts) {
        SCOPED_TRACE(layout.name);
        fccc::FccConfig cfg;
        cfg.container = layout.container;
        cfg.index = layout.index;
        cfg.chunkRecords = 16;
        fccc::SizeBreakdown sizes;
        std::vector<uint8_t> bytes =
            fccc::serializeDatasets(d, cfg, sizes);
        std::string path =
            test::tempPath(std::string("ties-") + layout.name + ".fcc");
        {
            util::FileByteSink out(path);
            out.write(bytes);
            out.close();
        }
        fccc::Datasets decoded = fccc::deserializeAuto(bytes, 1);
        EXPECT_EQ(decoded.chunkSizes.empty(),
                  layout.container == fccc::ContainerFormat::Fcc1);
        std::vector<uint8_t> expected =
            tshBytes(sortedExpansion(decoded, cfg));

        for (uint32_t threads : {1u, 2u, 4u, 8u}) {
            SCOPED_TRACE(threads);
            cfg.threads = threads;

            trace::Trace drained;
            {
                fccc::DecompressSession session(cfg);
                session.open(path);
                trace::CollectTraceSink sink(drained);
                session.drainTo(sink);
            }
            EXPECT_EQ(trace::writeTsh(drained), expected);

            trace::Trace expanded =
                fccc::FccTraceCompressor(cfg).expand(decoded);
            EXPECT_EQ(trace::writeTsh(expanded), expected);

            query::FccArchive archive(path, cfg);
            EXPECT_EQ(archive.hasIndex(), layout.index);
            for (bool fullDecode : {false, true}) {
                trace::Trace queried;
                trace::CollectTraceSink sink(queried);
                archive.run(query::Expr::matchAll(), sink, fullDecode);
                EXPECT_EQ(trace::writeTsh(queried), expected);
            }

            trace::Trace merged;
            {
                trace::CollectTraceSink sink(merged);
                query::ArchiveCatalog::fromPaths({path}, cfg)
                    .run(query::Expr::matchAll(), sink);
            }
            EXPECT_EQ(trace::writeTsh(merged), expected);
        }
    }
}
