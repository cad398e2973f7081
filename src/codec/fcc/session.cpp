/**
 * @file
 * Session-based compression/decompression: the open-ended epoch
 * machinery the one-shot wrappers of stream.cpp and the archiver
 * daemon (src/archive) both run on. The flow-closing rules are the
 * paper's §3 (graceful FIN/FIN/ACK, RST, idle timeout), the
 * reconstruction path the §4 bounded-memory flush.
 */

#include "codec/fcc/session.hpp"

#include <algorithm>

#include "trace/tsh.hpp"
#include "util/error.hpp"
#include "util/io.hpp"

namespace fcc::codec::fcc {

/**
 * Incremental single-flow state: enough to classify packets online
 * (the dependence bit only needs the previous packet's direction)
 * and to emit the flow's datasets entry when it closes.
 */
struct CompressSession::OpenFlow
{
    uint32_t clientIp = 0;
    uint16_t clientPort = 0;
    uint32_t serverIp = 0;
    bool clientKnown = false;
    bool prevFromClient = true;
    bool finFromClient = false;
    bool finFromServer = false;
    uint32_t rttUs = 0;  ///< first direction-change gap
    std::vector<uint16_t> sValues;
    std::vector<uint64_t> packetUs;
};

CompressSession::CompressSession(const FccConfig &cfg,
                                 const SessionOptions &options)
    : cfg_(cfg), options_(options), chi_(cfg.weights),
      store_(cfg.rule)
{
    cfg_.validate();
    datasets_.weights = cfg_.weights;
    stats_.epochs = 1;
}

CompressSession::~CompressSession() = default;

void
CompressSession::feed(const trace::PacketRecord &pkt)
{
    util::require(!sealed_,
                  "fcc session: feed() on a sealed session "
                  "(reArm() first)");
    util::require(pkt.timestampNs >= lastNs_,
                  "fcc stream: input not time-ordered");
    lastNs_ = pkt.timestampNs;
    if (!sawPacket_) {
        firstUs_ = pkt.timestampUs();
        sawPacket_ = true;
    }
    ++epochPackets_;
    ++stats_.packets;

    flow::FlowKey key = flow::FlowKey::fromPacket(pkt);
    auto it = open_.find(key);
    if (it != open_.end() && cfg_.flowTable.idleTimeoutNs > 0 &&
        !it->second.packetUs.empty() &&
        pkt.timestampNs - it->second.packetUs.back() * 1000 >
            cfg_.flowTable.idleTimeoutNs) {
        closeFlow(it->second);
        open_.erase(it);
        it = open_.end();
    }
    if (it == open_.end())
        it = open_.emplace(key, OpenFlow{}).first;
    OpenFlow &flowState = it->second;

    if (!flowState.clientKnown) {
        bool synAck = pkt.hasSyn() && pkt.hasAck();
        flowState.clientIp = synAck ? pkt.dstIp : pkt.srcIp;
        flowState.clientPort = synAck ? pkt.dstPort : pkt.srcPort;
        flowState.serverIp = synAck ? pkt.srcIp : pkt.dstIp;
        flowState.clientKnown = true;
    }
    bool fromClient = pkt.srcIp == flowState.clientIp &&
                      pkt.srcPort == flowState.clientPort;

    flow::PacketClass cls;
    cls.flag = flow::flagClass(pkt.tcpFlags);
    cls.size = flow::sizeClass(pkt.payloadBytes);
    cls.dependent = !flowState.sValues.empty() &&
                    fromClient != flowState.prevFromClient;
    if (cls.dependent && flowState.rttUs == 0) {
        uint64_t gap = pkt.timestampUs() - flowState.packetUs.back();
        flowState.rttUs = static_cast<uint32_t>(
            std::min<uint64_t>(gap, 0xffffffffu));
    }
    flowState.sValues.push_back(chi_.encode(cls));
    flowState.packetUs.push_back(pkt.timestampUs());
    flowState.prevFromClient = fromClient;

    if (pkt.hasFin()) {
        if (fromClient)
            flowState.finFromClient = true;
        else
            flowState.finFromServer = true;
    }
    bool gracefulDone = flowState.finFromClient &&
                        flowState.finFromServer && !pkt.hasFin() &&
                        pkt.hasAck();
    if (pkt.hasRst() || gracefulDone) {
        closeFlow(flowState);
        open_.erase(key);
    }
}

void
CompressSession::feed(std::span<const trace::PacketRecord> batch)
{
    for (const trace::PacketRecord &pkt : batch)
        feed(pkt);
}

void
CompressSession::rotateChunk()
{
    util::require(!sealed_,
                  "fcc session: rotateChunk() on a sealed session");
    util::require(cfg_.container == ContainerFormat::Fcc3,
                  "fcc session: time-based chunk rotation requires "
                  "the fcc3 container");
    if (!sawPacket_)
        return;  // nothing fed yet: no position to cut at
    uint64_t cutUs = lastNs_ / 1000;
    if (chunkCutsUs_.empty() || chunkCutsUs_.back() < cutUs)
        chunkCutsUs_.push_back(cutUs);
}

void
CompressSession::closeFlow(OpenFlow &flowState)
{
    if (flowState.sValues.empty())
        return;
    ++stats_.flows;
    TimeSeqRecord rec;
    rec.firstTimestampUs = flowState.packetUs.front();

    auto [it, isNew] = addrIndex_.try_emplace(
        flowState.serverIp,
        static_cast<uint32_t>(datasets_.addresses.size()));
    if (isNew)
        datasets_.addresses.push_back(flowState.serverIp);
    rec.addressIndex = it->second;

    if (flowState.sValues.size() <= cfg_.shortLimit) {
        flow::SfVector sf;
        sf.values = std::move(flowState.sValues);
        flow::TemplateMatch match = store_.findOrInsert(sf);
        if (match.isNew)
            ++templatesNew_;
        // Compact to per-epoch template indices (first-use order) so
        // a sealed archive only carries the templates it references
        // — self-contained whatever earlier epochs left in the
        // store. With a cold store this is the identity map, which
        // is what keeps single-epoch output bit-identical to the
        // historical one-shot path.
        auto [rit, isNewRef] = templateRemap_.try_emplace(
            match.index,
            static_cast<uint32_t>(templateOrder_.size()));
        if (isNewRef)
            templateOrder_.push_back(match.index);
        rec.isLong = false;
        rec.templateIndex = rit->second;
        rec.rttUs = flowState.rttUs;
    } else {
        LongTemplate tmpl;
        tmpl.sValues = std::move(flowState.sValues);
        tmpl.iptUs.resize(flowState.packetUs.size());
        tmpl.iptUs[0] = 0;
        for (size_t i = 1; i < flowState.packetUs.size(); ++i)
            tmpl.iptUs[i] =
                flowState.packetUs[i] - flowState.packetUs[i - 1];
        rec.isLong = true;
        rec.templateIndex =
            static_cast<uint32_t>(datasets_.longTemplates.size());
        datasets_.longTemplates.push_back(std::move(tmpl));
    }
    datasets_.timeSeq.push_back(rec);
}

std::vector<uint8_t>
CompressSession::seal(SealInfo *info)
{
    util::require(!sealed_,
                  "fcc session: seal() on a sealed session");
    sealed_ = true;

    for (auto &[key, flowState] : open_)
        closeFlow(flowState);
    open_.clear();
    // Flows close out of order; the time-seq dataset is sorted by
    // first-packet timestamp (one record per flow).
    std::sort(datasets_.timeSeq.begin(), datasets_.timeSeq.end(),
              [](const TimeSeqRecord &a, const TimeSeqRecord &b) {
                  return a.firstTimestampUs < b.firstTimestampUs;
              });
    datasets_.shortTemplates.clear();
    datasets_.shortTemplates.reserve(templateOrder_.size());
    for (uint32_t storeIndex : templateOrder_)
        datasets_.shortTemplates.push_back(store_.at(storeIndex));

    // Explicit time-based chunk cuts (rotateChunk): records are now
    // sorted by flow start, so "everything started by the cut" is a
    // prefix; the record-count policy still slices inside segments.
    if (!chunkCutsUs_.empty()) {
        size_t records = datasets_.timeSeq.size();
        std::vector<uint32_t> layout;
        size_t begin = 0;
        auto emitSegment = [&](size_t end) {
            size_t step = cfg_.chunkRecords > 0
                ? cfg_.chunkRecords
                : end - begin;
            while (begin < end) {
                size_t n = std::min(step, end - begin);
                layout.push_back(static_cast<uint32_t>(n));
                begin += n;
            }
        };
        for (uint64_t cutUs : chunkCutsUs_) {
            auto it = std::upper_bound(
                datasets_.timeSeq.begin() + begin,
                datasets_.timeSeq.end(), cutUs,
                [](uint64_t t, const TimeSeqRecord &r) {
                    return t < r.firstTimestampUs;
                });
            emitSegment(static_cast<size_t>(
                it - datasets_.timeSeq.begin()));
        }
        emitSegment(records);
        datasets_.chunkSizes = std::move(layout);
    }

    SizeBreakdown sizes;
    // Container dispatch (FCC1/FCC2/FCC3) shared with the in-memory
    // codec; FCC3 runs its per-column encode jobs on cfg.threads.
    std::vector<uint8_t> bytes =
        serializeDatasets(datasets_, cfg_, sizes);

    uint64_t records = datasets_.timeSeq.size();
    uint64_t chunks = 0;
    if (!datasets_.chunkSizes.empty())
        chunks = datasets_.chunkSizes.size();
    else if (cfg_.container != ContainerFormat::Fcc1 &&
             cfg_.chunkRecords > 0)
        chunks = (records + cfg_.chunkRecords - 1) /
                 cfg_.chunkRecords;

    stats_.outputBytes += bytes.size();
    stats_.chunksSealed += chunks;
    ++stats_.archivesSealed;

    if (info != nullptr) {
        info->records = records;
        info->packets = epochPackets_;
        info->chunks = chunks;
        info->bytes = bytes.size();
        info->minFirstUs = records > 0
            ? datasets_.timeSeq.front().firstTimestampUs
            : 0;
        info->maxLastUs = lastNs_ / 1000;
        info->templatesNew = templatesNew_;
    }
    return bytes;
}

SealInfo
CompressSession::sealToFile(const std::string &path)
{
    SealInfo info;
    std::vector<uint8_t> bytes = seal(&info);
    util::FileByteSink out(path);
    out.write(bytes);
    out.close();
    return info;
}

void
CompressSession::resetEpoch()
{
    datasets_ = Datasets{};
    datasets_.weights = cfg_.weights;
    // A fresh map, not clear(): clear() keeps the grown bucket
    // count, and seal()'s final sweep iterates this map — a re-armed
    // epoch must walk it in exactly a fresh session's order.
    open_ = decltype(open_){};
    addrIndex_.clear();
    templateRemap_.clear();
    templateOrder_.clear();
    chunkCutsUs_.clear();
    lastNs_ = 0;
    firstUs_ = 0;
    sawPacket_ = false;
    epochPackets_ = 0;
    templatesNew_ = 0;
}

void
CompressSession::reArm()
{
    util::require(sealed_,
                  "fcc session: reArm() on an armed session");
    resetEpoch();
    if (!options_.carryTemplates)
        store_ = flow::TemplateStore(cfg_.rule);
    sealed_ = false;
    ++stats_.epochs;
}

// ---- decompression --------------------------------------------------

DecompressSession::DecompressSession(const FccConfig &cfg)
    : cfg_(cfg)
{
}

void
DecompressSession::open(const std::string &fccPath)
{
    // The compressed artifact is read via mmap when possible — the
    // Datasets it decodes to live in memory by design; the
    // *reconstructed packets* never do.
    auto in = util::openByteSource(fccPath);
    std::vector<uint8_t> owned;
    std::span<const uint8_t> bytes = util::readAllBytes(*in, owned);
    archiveBytes_ = bytes.size();
    // One shared decode entry point: zlib-hybrid unwrap, container
    // auto-detection, pooled FCC3 column decode.
    datasets_ = deserializeAuto(bytes, cfg_.threads);
    open_ = true;
}

const Datasets &
DecompressSession::datasets() const
{
    util::require(open_, "fcc session: no archive open");
    return datasets_;
}

StreamStats
DecompressSession::drainTo(trace::TraceSink &sink)
{
    util::require(open_, "fcc session: no archive open");
    FccTraceCompressor codec(cfg_);

    StreamStats archiveStats;
    archiveStats.inputBytes = archiveBytes_;
    archiveStats.flows = datasets_.timeSeq.size();

    // Paper §4: reconstructed packets wait for the flush, which
    // writes everything older than the next not-yet-expanded record;
    // peak memory stays near the concurrently active flows plus one
    // batch of expanded records.
    codec.expandInOrder(
        datasets_,
        [&](std::span<const trace::PacketRecord> batch) {
            sink.write(batch);
            archiveStats.packets += batch.size();
        });
    sink.close();
    archiveStats.outputBytes = sink.bytesWritten();

    datasets_ = Datasets{};
    archiveBytes_ = 0;
    open_ = false;

    stats_.packets += archiveStats.packets;
    stats_.flows += archiveStats.flows;
    stats_.inputBytes += archiveStats.inputBytes;
    stats_.outputBytes += archiveStats.outputBytes;
    ++stats_.epochs;
    return archiveStats;
}

} // namespace fcc::codec::fcc
