/**
 * @file
 * Golden-archive compatibility suite: committed archives under
 * tests/golden/ (one per container/backend/layout/fidelity cell,
 * produced by tools/golden_gen.cpp) must keep decoding to the
 * committed byte-exact references with the committed metadata.
 * This is the tripwire for accidental wire-format changes — if a
 * case here fails, either revert the encoding change or bump the
 * format deliberately: regenerate the corpus with golden_gen and
 * commit it together with a docs/FORMAT.md entry.
 *
 * Reference traces: FCC1 is the unchunked expansion; FCC2 and every
 * exact FCC3 variant share expected-chunked.tsh (chunk layout, not
 * container or backend, decides the expanded bytes); the quantized
 * and header tiers have their own documented reconstructions; the
 * flow tier has none and must say so cleanly.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "codec/fcc/datasets.hpp"
#include "codec/fcc/fcc_codec.hpp"
#include "query/aggregate.hpp"
#include "query/query.hpp"
#include "trace/tsh.hpp"
#include "util/error.hpp"

using namespace fcc;
namespace fccc = fcc::codec::fcc;

#ifndef FCC_GOLDEN_DIR
#error "FCC_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace {

std::string
goldenPath(const char *name)
{
    return std::string(FCC_GOLDEN_DIR) + "/" + name;
}

std::vector<uint8_t>
loadBytes(const char *name)
{
    std::ifstream in(goldenPath(name), std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing golden file: "
                           << goldenPath(name);
    std::vector<uint8_t> bytes{std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>()};
    EXPECT_FALSE(bytes.empty()) << goldenPath(name);
    return bytes;
}

struct Golden
{
    const char *name;
    uint8_t version;
    bool hasIndex;
    fccc::Fidelity fidelity;
    uint64_t quantumUs;
    /** Reference TSH the archive must decode to (null: flow tier,
     *  no packet reconstruction exists). */
    const char *expected;
};

const Golden kGoldens[] = {
    {"fcc1.fcc", 1, false, fccc::Fidelity::Exact, 0,
     "expected-fcc1.tsh"},
    {"fcc2.fcc", 2, false, fccc::Fidelity::Exact, 0,
     "expected-chunked.tsh"},
    {"fcc3-store.fcc", 3, false, fccc::Fidelity::Exact, 0,
     "expected-chunked.tsh"},
    {"fcc3-store-indexed.fcc", 3, true, fccc::Fidelity::Exact, 0,
     "expected-chunked.tsh"},
    {"fcc3-deflate.fcc", 3, false, fccc::Fidelity::Exact, 0,
     "expected-chunked.tsh"},
    {"fcc3-deflate-indexed.fcc", 3, true, fccc::Fidelity::Exact, 0,
     "expected-chunked.tsh"},
    {"fcc3-range.fcc", 3, false, fccc::Fidelity::Exact, 0,
     "expected-chunked.tsh"},
    {"fcc3-range-indexed.fcc", 3, true, fccc::Fidelity::Exact, 0,
     "expected-chunked.tsh"},
    {"fcc3-range-lanes.fcc", 3, false, fccc::Fidelity::Exact, 0,
     "expected-chunked.tsh"},
    {"fcc3-range-lanes-indexed.fcc", 3, true,
     fccc::Fidelity::Exact, 0, "expected-chunked.tsh"},
    {"fcc3-quantized-indexed.fcc", 3, true,
     fccc::Fidelity::Quantized, 1000, "expected-quantized.tsh"},
    {"fcc3-header-indexed.fcc", 3, true, fccc::Fidelity::Header, 0,
     "expected-header.tsh"},
    {"fcc3-flow-indexed.fcc", 3, true, fccc::Fidelity::Flow, 0,
     nullptr},
};

} // namespace

TEST(Golden, ArchivesDecodeByteExact)
{
    for (const Golden &g : kGoldens) {
        if (g.expected == nullptr)
            continue;
        SCOPED_TRACE(g.name);
        std::vector<uint8_t> archive = loadBytes(g.name);
        std::vector<uint8_t> expected = loadBytes(g.expected);

        fccc::FccTraceCompressor codec{{}};
        trace::Trace decoded = codec.decompress(archive);
        EXPECT_EQ(trace::writeTsh(decoded), expected);
    }
}

TEST(Golden, ContainerMetadata)
{
    for (const Golden &g : kGoldens) {
        SCOPED_TRACE(g.name);
        std::vector<uint8_t> archive = loadBytes(g.name);

        fccc::ContainerStat stat;
        fccc::Datasets d =
            fccc::deserializeAuto(archive, 1, &stat);
        EXPECT_EQ(stat.version, g.version);
        EXPECT_EQ(stat.hasIndex, g.hasIndex);
        EXPECT_EQ(stat.fidelity, g.fidelity);
        EXPECT_EQ(stat.quantumUs, g.quantumUs);
        if (g.version == 3) {
            EXPECT_FALSE(stat.columns.empty());
        }
        EXPECT_EQ(d.fidelity, g.fidelity);
        if (g.fidelity == fccc::Fidelity::Flow) {
            EXPECT_FALSE(d.flowRecords.empty());
        }
    }
}

TEST(Golden, FlowTierRejectsPacketReconstruction)
{
    std::vector<uint8_t> archive = loadBytes("fcc3-flow-indexed.fcc");
    fccc::FccTraceCompressor codec{{}};
    try {
        codec.decompress(archive);
        FAIL() << "flow-tier decompress must throw";
    } catch (const util::Error &error) {
        EXPECT_NE(std::string(error.what()).find(
                      "no per-packet data"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Golden, FlowTierAggregatesMatchExactArchive)
{
    // The flow tier's whole contract: aggregate queries answer
    // exactly as they would against the exact archive of the same
    // trace — same per-server totals, same flow-size histogram.
    query::FccArchive exact(goldenPath("fcc3-deflate-indexed.fcc"));
    query::FccArchive flow(goldenPath("fcc3-flow-indexed.fcc"));

    query::AggregateRequest req;
    req.kind = query::AggregateKind::FlowCounts;
    query::AggregateResult a = exact.aggregate(req);
    query::AggregateResult b = flow.aggregate(req);

    ASSERT_EQ(a.servers.size(), b.servers.size());
    for (size_t i = 0; i < a.servers.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(a.servers[i].serverIp, b.servers[i].serverIp);
        EXPECT_EQ(a.servers[i].flows, b.servers[i].flows);
        EXPECT_EQ(a.servers[i].packets, b.servers[i].packets);
        EXPECT_EQ(a.servers[i].wireBytes, b.servers[i].wireBytes);
    }
    EXPECT_EQ(a.histogram, b.histogram);
}

TEST(Golden, SourceTraceStillReadable)
{
    // source.tsh documents the corpus' provenance; keep it honest.
    trace::Trace tr =
        trace::readTshFile(goldenPath("source.tsh"));
    EXPECT_GT(tr.size(), 100u);
    EXPECT_TRUE(tr.isTimeOrdered());
}
