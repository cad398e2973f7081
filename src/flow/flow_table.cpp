/**
 * @file
 * Bidirectional flow assembly: connections keyed by canonical
 * 5-tuple, client side fixed by the first SYN, flows closed on
 * FIN pairs, RST or idle timeout. The sharded entry points
 * partition packets by 5-tuple hash so shards assemble
 * independently (and concurrently) with identical semantics.
 */

#include "flow/flow_table.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>

#include <unordered_map>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace fcc::flow {

namespace {

/** Mutable per-connection assembly state. */
struct OpenFlow
{
    AssembledFlow flow;
    uint64_t lastTimestampNs = 0;
    bool finFromClient = false;
    bool finFromServer = false;
    bool clientKnown = false;
};

uint32_t
shardOf(const FlowKey &key, uint32_t shards)
{
    return static_cast<uint32_t>(key.hash() % shards);
}

} // namespace

bool
canonicalFlowLess(const AssembledFlow &a, const AssembledFlow &b)
{
    return canonicalFlowOrderKey(a.firstTimestampNs, a.key) <
           canonicalFlowOrderKey(b.firstTimestampNs, b.key);
}

FlowTable::FlowTable(const FlowTableConfig &cfg)
    : cfg_(cfg)
{
    util::require(cfg_.shards >= 1,
                  "FlowTable: shard count must be >= 1");
}

std::vector<AssembledFlow>
FlowTable::assembleIndices(const trace::Trace &trace,
                           std::span<const uint32_t> indices) const
{
    std::unordered_map<FlowKey, OpenFlow> open;
    std::vector<AssembledFlow> done;

    auto finish = [&done](OpenFlow &state) {
        done.push_back(std::move(state.flow));
    };

    for (uint32_t i : indices) {
        const auto &pkt = trace[i];
        FlowKey key = FlowKey::fromPacket(pkt);

        auto it = open.find(key);
        if (it != open.end() && cfg_.idleTimeoutNs > 0 &&
            pkt.timestampNs - it->second.lastTimestampNs >
                cfg_.idleTimeoutNs) {
            // Same 5-tuple after a long silence: a new connection
            // (ephemeral port reuse). Flush the stale one.
            finish(it->second);
            open.erase(it);
            it = open.end();
        }

        if (it == open.end()) {
            OpenFlow state;
            state.flow.key = key;
            state.flow.firstTimestampNs = pkt.timestampNs;
            it = open.emplace(key, std::move(state)).first;
        }
        OpenFlow &state = it->second;

        // Identify the initiator from the first packet: the sender,
        // unless that packet is a SYN+ACK (capture started
        // mid-handshake), in which case the receiver initiated.
        if (!state.clientKnown) {
            bool synAck = pkt.hasSyn() && pkt.hasAck();
            if (synAck) {
                state.flow.clientIp = pkt.dstIp;
                state.flow.clientPort = pkt.dstPort;
                state.flow.serverIp = pkt.srcIp;
                state.flow.serverPort = pkt.srcPort;
            } else {
                state.flow.clientIp = pkt.srcIp;
                state.flow.clientPort = pkt.srcPort;
                state.flow.serverIp = pkt.dstIp;
                state.flow.serverPort = pkt.dstPort;
            }
            state.clientKnown = true;
        }

        bool fromClient = pkt.srcIp == state.flow.clientIp &&
                          pkt.srcPort == state.flow.clientPort;
        state.flow.packetIndex.push_back(i);
        state.flow.fromClient.push_back(fromClient);
        state.lastTimestampNs = pkt.timestampNs;

        if (pkt.hasFin()) {
            if (fromClient)
                state.finFromClient = true;
            else
                state.finFromServer = true;
        }

        // Teardown complete: RST ends the connection immediately; a
        // pure ACK after FINs in both directions is the final ack of
        // a graceful close.
        bool gracefulDone = state.finFromClient &&
                            state.finFromServer && !pkt.hasFin() &&
                            pkt.hasAck();
        if (pkt.hasRst() || gracefulDone) {
            finish(state);
            open.erase(it);
        }
    }

    for (auto &entry : open)
        done.push_back(std::move(entry.second.flow));

    if (cfg_.dropSinglePacketFlows) {
        std::erase_if(done, [](const AssembledFlow &flow) {
            return flow.size() < 2;
        });
    }

    std::sort(done.begin(), done.end(), canonicalFlowLess);
    return done;
}

std::vector<AssembledFlow>
FlowTable::assemble(const trace::Trace &trace) const
{
    util::require(trace.isTimeOrdered(),
                  "FlowTable: input trace must be time-ordered");
    std::vector<uint32_t> all(trace.size());
    std::iota(all.begin(), all.end(), 0u);
    return assembleIndices(trace, all);
}

std::vector<std::vector<uint32_t>>
FlowTable::partition(const trace::Trace &trace,
                     util::ThreadPool *pool) const
{
    uint32_t shards = cfg_.shards;
    std::vector<std::vector<uint32_t>> out(shards);
    if (trace.empty())
        return out;

    // Fixed chunk size: the per-chunk buckets concatenate in chunk
    // order, so the result is independent of both chunking and
    // thread count.
    constexpr size_t chunkPackets = 1 << 15;
    size_t chunks = (trace.size() + chunkPackets - 1) / chunkPackets;

    if (pool == nullptr || pool->size() <= 1 || chunks == 1) {
        for (uint32_t i = 0; i < trace.size(); ++i)
            out[shardOf(FlowKey::fromPacket(trace[i]), shards)]
                .push_back(i);
        return out;
    }

    std::vector<std::vector<std::vector<uint32_t>>> buckets(chunks);
    pool->parallelFor(chunks, [&](size_t c) {
        auto &mine = buckets[c];
        mine.resize(shards);
        uint32_t begin = static_cast<uint32_t>(c * chunkPackets);
        uint32_t end = static_cast<uint32_t>(
            std::min(trace.size(), (c + 1) * chunkPackets));
        for (uint32_t i = begin; i < end; ++i)
            mine[shardOf(FlowKey::fromPacket(trace[i]), shards)]
                .push_back(i);
    });

    pool->parallelFor(shards, [&](size_t s) {
        size_t total = 0;
        for (const auto &chunk : buckets)
            total += chunk[s].size();
        out[s].reserve(total);
        for (const auto &chunk : buckets)
            out[s].insert(out[s].end(), chunk[s].begin(),
                          chunk[s].end());
    });
    return out;
}

std::vector<std::vector<AssembledFlow>>
FlowTable::assembleSharded(const trace::Trace &trace,
                           util::ThreadPool *pool) const
{
    util::require(trace.isTimeOrdered(),
                  "FlowTable: input trace must be time-ordered");
    auto shardIndices = partition(trace, pool);

    std::vector<std::vector<AssembledFlow>> out(shardIndices.size());
    util::parallelFor(pool, shardIndices.size(), [&](size_t s) {
        out[s] = assembleIndices(trace, shardIndices[s]);
    });
    return out;
}

} // namespace fcc::flow
