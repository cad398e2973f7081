/**
 * @file
 * Query-expression tests: the grammar (parse/print round trips,
 * malformed input rejection, validation of inverted ranges), the
 * tri-state flow evaluation, and the {may, must} chunk planner —
 * whose soundness is checked against brute-forced random chunk
 * summaries (every flow a chunk could hold that matches the
 * expression must land in a planned chunk, and `must` may only be
 * set when every flow in the chunk matches).
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <bit>

#include "codec/fcc/index.hpp"
#include "query/expr.hpp"
#include "query/query.hpp"
#include "trace/packet.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

using namespace fcc;
using query::Expr;
using FlowView = query::Expr::FlowView;

namespace {

/** Parse + assert the canonical text form. */
void
expectCanonical(const std::string &text,
                const std::string &canonical)
{
    Expr parsed = query::parseExpr(text);
    EXPECT_EQ(parsed.str(), canonical) << "input: " << text;
    // The canonical form is a fixed point of parse∘print.
    EXPECT_EQ(query::parseExpr(parsed.str()).str(), parsed.str());
}

/** A random expression tree, leaves biased toward matchable data. */
Expr
randomExpr(util::Rng &rng, int depth)
{
    if (depth <= 0 || rng.uniformInt(0, 3) == 0) {
        switch (rng.uniformInt(0, 5)) {
        case 0:
            return Expr::matchAll();
        case 1:
            return Expr::serverIs(static_cast<uint32_t>(
                rng.uniformInt(0, UINT32_MAX)));
        case 2: {
            uint32_t bits =
                static_cast<uint32_t>(rng.uniformInt(1, 32));
            return Expr::serverIn(
                static_cast<uint32_t>(
                    rng.uniformInt(0, UINT32_MAX)),
                bits);
        }
        case 3: {
            uint64_t t0 = rng.uniformInt(0, 50'000'000);
            uint64_t t1 = rng.uniformInt(t0, 60'000'000);
            return Expr::timeWithin(t0, t1);
        }
        case 4:
            return Expr::minFlowPackets(static_cast<uint32_t>(
                rng.uniformInt(1, 100)));
        default: {
            uint16_t lo =
                static_cast<uint16_t>(rng.uniformInt(0, 1000));
            uint16_t hi = static_cast<uint16_t>(
                rng.uniformInt(lo, 1100));
            return Expr::portBetween(lo, hi);
        }
        }
    }
    switch (rng.uniformInt(0, 2)) {
    case 0:
        return Expr::andOf(randomExpr(rng, depth - 1),
                           randomExpr(rng, depth - 1));
    case 1:
        return Expr::orOf(randomExpr(rng, depth - 1),
                          randomExpr(rng, depth - 1));
    default:
        return Expr::notOf(randomExpr(rng, depth - 1));
    }
}

/**
 * Populate a summary's Bloom filter per the normative construction
 * of docs/FORMAT.md §5 (re-derived here on purpose: the planner's
 * soundness must hold against the on-wire filter, not against a
 * test double).
 */
void
bloomFill(codec::fcc::ChunkSummary &chunk,
          const std::vector<uint32_t> &servers)
{
    uint64_t want = std::max<uint64_t>(
        64, uint64_t{codec::fcc::bloomBitsPerServer} *
                servers.size());
    chunk.bloomBits = static_cast<uint32_t>(std::bit_ceil(want));
    chunk.bloom.assign(chunk.bloomBits / 8, 0);
    for (uint32_t ip : servers) {
        uint64_t h1 =
            util::mix64(0xA0761D6478BD642Full ^ ip);
        uint64_t h2 =
            util::mix64(0xE7037ED1A0B428DBull ^ ip) | 1;
        for (uint32_t i = 0; i < codec::fcc::bloomProbes; ++i) {
            uint64_t bit =
                (h1 + uint64_t{i} * h2) & (chunk.bloomBits - 1);
            chunk.bloom[bit >> 3] |=
                static_cast<uint8_t>(1u << (bit & 7));
        }
    }
}

/** A random chunk summary with a real Bloom filter over the flow
 *  server addresses it claims to hold. */
codec::fcc::ChunkSummary
randomChunk(util::Rng &rng,
            std::vector<std::pair<FlowView, uint64_t>> &flows)
{
    codec::fcc::ChunkSummary chunk;
    size_t n = static_cast<size_t>(rng.uniformInt(1, 24));
    chunk.minFirstUs = UINT64_MAX;
    chunk.maxEndUs = 0;
    chunk.maxFlowPackets = 0;
    chunk.records = n;
    for (size_t i = 0; i < n; ++i) {
        FlowView flow;
        // A small address pool makes Bloom hits (and misses) real.
        flow.serverIp = static_cast<uint32_t>(
            0x0a000000u + rng.uniformInt(0, 2000));
        flow.serverPort =
            static_cast<uint16_t>(rng.uniformInt(0, 1100));
        flow.packets = rng.uniformInt(1, 120);
        uint64_t startUs = rng.uniformInt(0, 55'000'000);
        chunk.minFirstUs = std::min(chunk.minFirstUs, startUs);
        // End time beyond the start; the packet we test is at the
        // flow start, inside [minFirstUs, maxEndUs] by design.
        chunk.maxEndUs = std::max(
            chunk.maxEndUs, startUs + rng.uniformInt(0, 4'000'000));
        chunk.maxFlowPackets =
            std::max(chunk.maxFlowPackets, flow.packets);
        flows.emplace_back(flow, startUs);
    }
    std::vector<uint32_t> servers;
    for (const auto &[flow, startUs] : flows)
        servers.push_back(flow.serverIp);
    bloomFill(chunk, servers);
    return chunk;
}

} // namespace

// ---- grammar --------------------------------------------------------

TEST(ExprGrammar, CanonicalForms)
{
    expectCanonical("all", "all");
    expectCanonical("server = 10.1.2.3", "server = 10.1.2.3");
    expectCanonical("server == 10.1.2.3", "server = 10.1.2.3");
    expectCanonical("server in 10.0.0.0/8", "server in 10.0.0.0/8");
    expectCanonical("port = 443", "port = 443");
    expectCanonical("port in [80, 443]", "port in [80, 443]");
    expectCanonical("time within [0, 60]", "time within [0, 60]");
    expectCanonical("time within [1.5, 2.25]",
                    "time within [1.5, 2.25]");
    expectCanonical("time within [0.000001, 0.000010]",
                    "time within [0.000001, 0.00001]");
    expectCanonical("flow.packets >= 50", "flow.packets >= 50");
    expectCanonical("not all", "not all");
    expectCanonical("( all )", "all");
    expectCanonical(
        "server = 1.2.3.4 and port = 80 and flow.packets >= 2",
        "server = 1.2.3.4 and port = 80 and flow.packets >= 2");
    expectCanonical("all or not (port = 1 and port = 2)",
                    "all or not (port = 1 and port = 2)");
    // Or binds looser than and; parens appear exactly where needed.
    expectCanonical("port = 1 and (port = 2 or port = 3)",
                    "port = 1 and (port = 2 or port = 3)");
    expectCanonical("port = 1 or port = 2 and port = 3",
                    "port = 1 or port = 2 and port = 3");
}

TEST(ExprGrammar, CidrHostAddressNormalizes)
{
    // The host bits of the CIDR base are masked away.
    Expr e = query::parseExpr("server in 10.1.2.3/8");
    EXPECT_EQ(e.str(), "server in 10.0.0.0/8");
}

TEST(ExprGrammar, RandomRoundTripFixedPoint)
{
    util::Rng rng(0xE1);
    for (int i = 0; i < 500; ++i) {
        Expr expr = randomExpr(rng, 4);
        std::string once = expr.str();
        Expr reparsed = query::parseExpr(once);
        EXPECT_EQ(reparsed.str(), once) << "expr: " << once;
    }
}

TEST(ExprGrammar, MalformedInputsThrow)
{
    const char *bad[] = {
        "",
        "   ",
        "serve = 1.2.3.4",
        "server = ",
        "server = 1.2.3",
        "server = 1.2.3.4.5",
        "server = 256.1.1.1",
        "server in 10.0.0.0",
        "server in 10.0.0.0/33",
        "server in 10.0.0.0/0",
        "port = ",
        "port = 65536",
        "port in [80 443]",
        "port in [80, 443",
        "time within 0, 60",
        "time within [0, 60",
        "time within [1.2345678, 2]",   // >6 fractional digits
        "time within [-1, 2]",
        "flow.packets > 3",
        "flow.packets >= 0",
        "flow.packets >=",
        "all and",
        "and all",
        "all or or all",
        "not",
        "(all",
        "all)",
        "all extra",
        "ALL",
    };
    for (const char *text : bad)
        EXPECT_THROW(query::parseExpr(text), util::Error)
            << "accepted: '" << text << "'";
}

TEST(ExprGrammar, InvertedRangesThrowAtConstruction)
{
    EXPECT_THROW(Expr::timeWithin(5'000'000, 4'999'999),
                 util::Error);
    EXPECT_THROW(Expr::portBetween(443, 80), util::Error);
    EXPECT_THROW(Expr::minFlowPackets(0), util::Error);
    EXPECT_THROW(Expr::serverIn(0x0a000000, 0), util::Error);
    EXPECT_THROW(Expr::serverIn(0x0a000000, 33), util::Error);
    EXPECT_THROW(query::parseExpr("time within [5, 4]"),
                 util::Error);
    EXPECT_THROW(query::parseExpr("port in [443, 80]"),
                 util::Error);
}

// ---- evaluation -----------------------------------------------------

TEST(ExprEval, LeavesAndCombinators)
{
    FlowView web{0x0a010203, 443, 60};  // 10.1.2.3:443, 60 packets
    FlowView other{0xc0a80001, 80, 2};  // 192.168.0.1:80, 2 packets

    EXPECT_TRUE(Expr::matchAll().matches(web, 0));
    EXPECT_TRUE(
        Expr::serverIs(0x0a010203).matches(web, 0));
    EXPECT_FALSE(
        Expr::serverIs(0x0a010203).matches(other, 0));
    EXPECT_TRUE(
        query::parseExpr("server in 10.0.0.0/8").matches(web, 0));
    EXPECT_FALSE(
        query::parseExpr("server in 10.0.0.0/8").matches(other, 0));
    EXPECT_TRUE(query::parseExpr("port = 443").matches(web, 0));
    EXPECT_TRUE(
        query::parseExpr("port in [80, 443]").matches(other, 0));
    EXPECT_FALSE(
        query::parseExpr("port in [81, 442]").matches(other, 0));
    EXPECT_TRUE(
        query::parseExpr("flow.packets >= 50").matches(web, 0));
    EXPECT_FALSE(
        query::parseExpr("flow.packets >= 50").matches(other, 0));

    Expr window = query::parseExpr("time within [1, 2]");
    EXPECT_TRUE(window.matches(web, 1'000'000));
    EXPECT_TRUE(window.matches(web, 2'000'000));  // inclusive
    EXPECT_FALSE(window.matches(web, 2'000'001));

    Expr combo = query::parseExpr(
        "server in 10.0.0.0/8 and not port = 80 or "
        "flow.packets >= 2");
    EXPECT_TRUE(combo.matches(web, 0));
    EXPECT_TRUE(combo.matches(other, 0));  // via the or-arm
}

TEST(ExprEval, FlowMatchShortcutAgreesWithFullEval)
{
    util::Rng rng(0xF00D);
    for (int i = 0; i < 300; ++i) {
        Expr expr = randomExpr(rng, 3);
        FlowView flow;
        flow.serverIp = static_cast<uint32_t>(
            rng.uniformInt(0, UINT32_MAX));
        flow.serverPort =
            static_cast<uint16_t>(rng.uniformInt(0, 1100));
        flow.packets = rng.uniformInt(1, 120);
        uint64_t us = rng.uniformInt(0, 60'000'000);
        query::Expr::FlowMatch verdict = expr.matchesFlow(flow);
        bool full = expr.matches(flow, us);
        if (verdict == query::Expr::FlowMatch::Always) {
            EXPECT_TRUE(full) << expr.str();
        } else if (verdict == query::Expr::FlowMatch::Never) {
            EXPECT_FALSE(full) << expr.str();
        }
        // PerPacket: either answer is consistent by definition.
    }
}

// ---- planning -------------------------------------------------------

TEST(ExprPlan, RandomExpressionsPlanSoundly)
{
    util::Rng rng(0xBEEF);
    size_t mayChecked = 0, mustChecked = 0;
    for (int round = 0; round < 200; ++round) {
        std::vector<std::pair<FlowView, uint64_t>> flows;
        codec::fcc::ChunkSummary chunk = randomChunk(rng, flows);
        Expr expr = randomExpr(rng, 3);
        query::Expr::ChunkMatch match = expr.planChunk(chunk);
        bool any = false, all = true;
        for (const auto &[flow, startUs] : flows) {
            bool m = expr.matches(flow, startUs);
            any = any || m;
            all = all && m;
        }
        // Soundness: a chunk holding a match may not be skipped.
        if (any) {
            EXPECT_TRUE(match.may)
                << "expr " << expr.str() << " skipped a matching "
                << "chunk (round " << round << ")";
            ++mayChecked;
        }
        // `must` promises every flow (at its in-bounds packet
        // times) matches.
        if (match.must) {
            EXPECT_TRUE(all)
                << "expr " << expr.str() << " claimed must on a "
                << "chunk with a non-match (round " << round << ")";
            ++mustChecked;
        }
    }
    EXPECT_GT(mayChecked, 50u);  // the test actually exercised both
    EXPECT_GT(mustChecked, 0u);
}

TEST(ExprPlan, DeMorganEquivalentsPlanConsistently)
{
    // ¬(a ∧ b) ≡ ¬a ∨ ¬b and ¬(a ∨ b) ≡ ¬a ∧ ¬b: the planner's
    // verdicts for both spellings must agree on every chunk.
    util::Rng rng(0xD0);
    for (int round = 0; round < 200; ++round) {
        std::vector<std::pair<FlowView, uint64_t>> flows;
        codec::fcc::ChunkSummary chunk = randomChunk(rng, flows);
        Expr a = randomExpr(rng, 2);
        Expr b = randomExpr(rng, 2);

        Expr notAnd = Expr::notOf(Expr::andOf(a, b));
        Expr orNots =
            Expr::orOf(Expr::notOf(a), Expr::notOf(b));
        query::Expr::ChunkMatch m1 = notAnd.planChunk(chunk);
        query::Expr::ChunkMatch m2 = orNots.planChunk(chunk);
        EXPECT_EQ(m1.may, m2.may) << notAnd.str();
        EXPECT_EQ(m1.must, m2.must) << notAnd.str();

        Expr notOr = Expr::notOf(Expr::orOf(a, b));
        Expr andNots =
            Expr::andOf(Expr::notOf(a), Expr::notOf(b));
        query::Expr::ChunkMatch m3 = notOr.planChunk(chunk);
        query::Expr::ChunkMatch m4 = andNots.planChunk(chunk);
        EXPECT_EQ(m3.may, m4.may) << notOr.str();
        EXPECT_EQ(m3.must, m4.must) << notOr.str();
    }
}

TEST(ExprPlan, ShorthandConjunctionMatchesDirectSemantics)
{
    // fccquery's --flow/--time/--min-packets: an AND of the leaves
    // given, evaluated against the three conditions directly.
    util::Rng rng(0xAB);
    for (int round = 0; round < 100; ++round) {
        std::optional<uint32_t> server;
        std::optional<std::pair<uint64_t, uint64_t>> window;
        uint64_t minPackets = 0;
        Expr expr = Expr::matchAll();
        if (rng.uniformInt(0, 1)) {
            server = static_cast<uint32_t>(
                0x0a000000u + rng.uniformInt(0, 2000));
            expr = Expr::andOf(expr, Expr::serverIs(*server));
        }
        if (rng.uniformInt(0, 1)) {
            uint64_t t0 = rng.uniformInt(0, 50'000'000);
            window = {t0, rng.uniformInt(t0, 60'000'000)};
            expr = Expr::andOf(
                expr, Expr::timeWithin(window->first, window->second));
        }
        if (rng.uniformInt(0, 1)) {
            minPackets = rng.uniformInt(1, 100);
            expr = Expr::andOf(expr, Expr::minFlowPackets(minPackets));
        }

        std::vector<std::pair<FlowView, uint64_t>> flows;
        codec::fcc::ChunkSummary chunk = randomChunk(rng, flows);
        for (const auto &[flow, startUs] : flows) {
            bool viaExpr = expr.matches(flow, startUs);
            bool direct =
                (!server || *server == flow.serverIp) &&
                (!window || (startUs >= window->first &&
                             startUs <= window->second)) &&
                flow.packets >= minPackets;
            EXPECT_EQ(viaExpr, direct) << expr.str();
        }
    }
}
