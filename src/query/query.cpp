/**
 * @file
 * Random-access execution over seekable FCC archives: open an
 * mmap'd file, plan chunks against the index block's summaries,
 * decode only the surviving chunks on the thread pool, and filter
 * to exactly the packets a full decompression would have produced
 * for the same expression.
 */

#include "query/query.hpp"

#include <array>
#include <new>

#include "codec/fcc/datasets.hpp"
#include "trace/run_merge.hpp"
#include "trace/trace.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fcc::query {

namespace fccc = fcc::codec::fcc;

namespace {

constexpr uint32_t magicFcc3 = 0x33434346u;  // "FCC3"

/**
 * Matching packets of one expanded record range: one run per
 * matched flow, in record order.
 */
struct ChunkResult
{
    std::vector<trace::PacketRecord> packets;
    std::vector<trace::RunBound> runs;
};

/**
 * Expand @p records (one chunk, or the whole legacy stream) from
 * @p rngSeed, keeping only what @p expr admits. Every record is
 * expanded even when filtered out — the RNG stream must advance
 * exactly as a full decompression would, or the surviving flows
 * would reconstruct different bytes.
 */
void
expandFiltered(const fccc::FccTraceCompressor &codec,
               const fccc::Datasets &shared,
               std::span<const fccc::TimeSeqRecord> records,
               uint64_t rngSeed, const Expr &expr,
               uint16_t serverPort, ChunkResult &out)
{
    util::Rng rng(rngSeed);
    std::vector<trace::PacketRecord> flowBuf;
    for (const fccc::TimeSeqRecord &rec : records) {
        flowBuf.clear();
        trace::RunBound run =
            codec.expandFlow(shared, rec, rng, flowBuf);
        Expr::FlowView flow{shared.addresses[rec.addressIndex],
                            serverPort, flowBuf.size()};
        Expr::FlowMatch verdict = expr.matchesFlow(flow);
        if (verdict == Expr::FlowMatch::Never)
            continue;
        size_t begin = out.packets.size();
        for (const trace::PacketRecord &pkt : flowBuf) {
            if (verdict == Expr::FlowMatch::PerPacket &&
                !expr.matches(flow, pkt.timestampUs()))
                continue;
            out.packets.push_back(pkt);
        }
        // The flow's floor still bounds whatever survived the filter.
        run.end = out.packets.size();
        if (run.end > begin)
            out.runs.push_back(run);
    }
}

/**
 * Run @p count chunk jobs, on a pool when @p threadsCfg allows
 * (FccConfig::threads semantics: 0 = all cores). Jobs write to
 * fixed slots, so results never depend on the thread count.
 */
void
runChunkJobs(uint32_t threadsCfg, size_t count,
             const std::function<void(size_t)> &job)
{
    unsigned workers = threadsCfg != 0
        ? threadsCfg
        : util::ThreadPool::hardwareThreads();
    if (workers > 1 && count > 1) {
        util::ThreadPool pool(workers);
        pool.parallelFor(count, job);
    } else {
        for (size_t i = 0; i < count; ++i)
            job(i);
    }
}

/**
 * Merge per-chunk results (in chunk order) into the canonical order
 * the streaming decompressor's flush emits, and write them to
 * @p sink.
 */
void
emitResults(std::vector<ChunkResult> &results,
            trace::TraceSink &sink, QueryStats &stats)
{
    size_t total = 0;
    trace::RunMerge merge;
    for (ChunkResult &r : results) {
        stats.flowsMatched += r.runs.size();
        total += r.packets.size();
        merge.add(std::move(r.packets), r.runs);
    }
    std::vector<trace::PacketRecord> merged;
    merged.reserve(total);
    merge.drainBefore(~0ull, merged);
    trace::Trace out(std::move(merged));
    stats.packetsMatched = out.size();
    trace::writeAllPackets(sink, out);
}

/**
 * Build and validate one chunk's time-seq records from its five
 * decoded columns — the chunk-local mirror of the global FCC3
 * reassembly, validated against the already-decoded shared
 * datasets.
 */
std::vector<fccc::TimeSeqRecord>
buildChunkRecords(const fccc::Datasets &shared,
                  std::array<std::vector<uint64_t>, 5> &cols,
                  uint64_t expectedRecords)
{
    auto take32 = [](uint64_t v, const char *what) {
        util::require(v <= 0xffffffffu, what);
        return static_cast<uint32_t>(v);
    };
    const auto &time = cols[0];
    const auto &isLong = cols[1];
    const auto &tmpl = cols[2];
    const auto &rtt = cols[3];
    const auto &addr = cols[4];
    util::require(time.size() == expectedRecords &&
                      isLong.size() == expectedRecords &&
                      tmpl.size() == expectedRecords &&
                      addr.size() == expectedRecords,
                  "fcc3: chunk frame record mismatch");

    std::vector<fccc::TimeSeqRecord> records;
    records.reserve(time.size());
    size_t rttCursor = 0;
    uint64_t prevUs = 0;
    for (size_t i = 0; i < time.size(); ++i) {
        fccc::TimeSeqRecord rec;
        rec.firstTimestampUs = time[i];
        util::require(rec.firstTimestampUs >= prevUs,
                      "fcc: time-seq records not sorted");
        prevUs = rec.firstTimestampUs;
        util::require(isLong[i] <= 1, "fcc: bad dataset identifier");
        rec.isLong = isLong[i] == 1;
        rec.templateIndex = take32(
            tmpl[i], "fcc3: template index exceeds 32 bits");
        size_t limit = rec.isLong ? shared.longTemplates.size()
                                  : shared.shortTemplates.size();
        util::require(rec.templateIndex < limit,
                      "fcc: template index out of range");
        if (!rec.isLong) {
            util::require(rttCursor < rtt.size(),
                          "fcc3: ts_rtt column too short");
            rec.rttUs = take32(rtt[rttCursor++],
                               "fcc3: RTT exceeds 32 bits");
        }
        rec.addressIndex = take32(
            addr[i], "fcc3: address index exceeds 32 bits");
        util::require(rec.addressIndex < shared.addresses.size(),
                      "fcc: address index out of range");
        records.push_back(rec);
    }
    util::require(rttCursor == rtt.size(),
                  "fcc3: ts_rtt column too long");
    return records;
}

} // namespace

Expr
Predicate::toExpr() const
{
    Expr e = Expr::matchAll();
    bool any = false;
    auto add = [&](Expr leaf) {
        e = any ? Expr::andOf(std::move(e), std::move(leaf))
                : std::move(leaf);
        any = true;
    };
    if (serverIp)
        add(Expr::serverIs(*serverIp));
    if (timeUs)
        add(Expr::timeWithin(timeUs->first, timeUs->second));
    if (minFlowPackets >= 1)
        add(Expr::minFlowPackets(minFlowPackets));
    return e;
}

FccArchive::FccArchive(const std::string &path,
                       const codec::fcc::FccConfig &cfg)
    : path_(path), cfg_(cfg), src_(util::openByteSource(path))
{
    bytes_ = util::readAllBytes(*src_, owned_);
    util::require(!bytes_.empty(), "query: empty archive");

    // Only the indexed FCC3 layout is seekable; everything else
    // (row containers, unindexed FCC3, the hybrid zlib wrapper)
    // takes the full-decode path.
    if (bytes_.size() >= 11) {
        util::ByteReader r(bytes_);
        if (r.u32() == magicFcc3) {
            r.skip(6);  // weights
            uint8_t colByte = r.u8();
            indexedLayout_ =
                (colByte & fccc::indexedLayoutFlag) != 0;
        }
    }
    if (indexedLayout_) {
        try {
            index_ = fccc::readArchiveIndex(bytes_);
            if (!index_)
                indexCorrupt_ = true;  // flagged but no footer
        } catch (const util::Error &) {
            indexCorrupt_ = true;
        } catch (const std::bad_alloc &) {
            // A cap-passing corrupt count exhausted memory; the
            // index is unusable, the container may still be fine.
            indexCorrupt_ = true;
        }
    }
}

std::vector<size_t>
FccArchive::plan(const Expr &expr) const
{
    util::require(hasIndex(), "query: archive has no index");
    std::vector<size_t> out;
    for (size_t c = 0; c < index_->chunks.size(); ++c)
        if (expr.planChunk(index_->chunks[c]).may)
            out.push_back(c);
    return out;
}

std::vector<size_t>
FccArchive::plan(const Predicate &pred) const
{
    return plan(pred.toExpr());
}

QueryStats
FccArchive::run(const Expr &expr, trace::TraceSink &sink,
                bool forceFullDecode) const
{
    // The index's maxEndUs bounds assume the gap it was written
    // with; a *larger* reconstruction gap pushes packets past them,
    // so time-window pruning would silently drop matches — take the
    // (always correct) full-decode path instead.
    bool gapUnsafe = expr.usesTime() && hasIndex() &&
                     cfg_.defaultGapUs > index_->gapUs;
    if (hasIndex() && !forceFullDecode && !gapUnsafe) {
        try {
            return runIndexed(expr, sink);
        } catch (const std::bad_alloc &) {
            // A corrupt (cap-passing) count exhausted memory —
            // report bad input, like the container parsers do.
            throw util::Error("query: corrupt archive exhausts "
                              "memory");
        }
    }
    return runFullDecode(expr, sink);
}

QueryStats
FccArchive::run(const Predicate &pred, trace::TraceSink &sink,
                bool forceFullDecode) const
{
    return run(pred.toExpr(), sink, forceFullDecode);
}

FccArchive::SharedRegion
FccArchive::decodeSharedRegion() const
{
    SharedRegion region;
    region.indexBytes = fccc::indexRegionBytes(bytes_);
    region.regionEnd =
        bytes_.size() - static_cast<size_t>(region.indexBytes);

    // Header + the shared dataset frames (templates, addresses) and
    // the chunk layout — everything a selective decode needs besides
    // the chunks themselves.
    util::ByteReader r(bytes_.data(), region.regionEnd);
    util::require(r.u32() == magicFcc3, "fcc: bad magic");
    region.weights.w1 = r.u16();
    region.weights.w2 = r.u16();
    region.weights.w3 = r.u16();
    util::require(region.weights.decodable(),
                  "fcc: stored weights are not decodable");
    uint8_t colByte = r.u8();
    util::require(
        (colByte & ~(fccc::indexedLayoutFlag |
                     fccc::fidelityProfileFlag)) ==
            fccc::fcc3ColumnCount,
        "fcc3: unexpected column count");
    fccc::Fidelity fidelity = fccc::Fidelity::Exact;
    uint64_t quantumUs = 0;
    if ((colByte & fccc::fidelityProfileFlag) != 0) {
        uint8_t tag = r.u8();
        util::require(
            tag >= static_cast<uint8_t>(fccc::Fidelity::Quantized) &&
                tag <= static_cast<uint8_t>(fccc::Fidelity::Flow),
            "fcc3: unknown fidelity tag");
        fidelity = static_cast<fccc::Fidelity>(tag);
        quantumUs = r.varint();
        if (fidelity == fccc::Fidelity::Quantized)
            util::require(quantumUs >= 1,
                          "fcc3: quantized grid must be >= 1 us");
        else
            util::require(quantumUs == 0,
                          "fcc3: unexpected fidelity parameter");
    }

    std::array<fccc::ColumnFrame, fccc::ColAddr + 1> sharedFrames;
    for (size_t c = 0; c <= fccc::ColAddr; ++c)
        sharedFrames[c] = fccc::readColumnFrame(r);
    fccc::ColumnFrame chunkLenFrame = fccc::readColumnFrame(r);
    region.sharedEnd = r.position();

    fccc::Fcc3Columns columns;
    for (size_t c = 0; c <= fccc::ColAddr; ++c)
        columns[c] = fccc::decodeColumnFrame(sharedFrames[c]);
    region.chunkLen = fccc::decodeColumnFrame(chunkLenFrame);
    // The flow profile's shared region carries no templates, so the
    // standard assembly (which accepts empty template columns) works
    // for every tier; the tag just rides along on the datasets.
    region.shared =
        fccc::assembleFcc3Columns(region.weights, columns);
    region.shared.fidelity = fidelity;
    region.shared.quantumUs = quantumUs;

    util::require(index_->chunks.size() == region.chunkLen.size(),
                  "fcc index: chunk count disagrees with container");
    return region;
}

const fccc::ChunkSummary &
FccArchive::checkedChunk(const SharedRegion &region, size_t c) const
{
    const fccc::ChunkSummary &s = index_->chunks[c];
    util::require(s.records == region.chunkLen[c],
                  "fcc index: record count disagrees with "
                  "container");
    util::require(s.byteOffset >= region.sharedEnd &&
                      s.byteOffset <= region.regionEnd &&
                      s.byteLength <=
                          region.regionEnd - s.byteOffset,
                  "fcc index: chunk range out of bounds");
    return s;
}

QueryStats
FccArchive::runIndexed(const Expr &expr,
                       trace::TraceSink &sink) const
{
    QueryStats stats;
    stats.usedIndex = true;
    stats.fileBytes = bytes_.size();

    SharedRegion region = decodeSharedRegion();
    util::require(region.shared.fidelity != fccc::Fidelity::Flow,
                  "query: flow-fidelity archives carry no "
                  "per-packet data; use aggregate queries");
    stats.chunksTotal = region.chunkLen.size();

    std::vector<size_t> planned = plan(expr);
    stats.chunksDecoded = planned.size();
    stats.bytesRead = region.sharedEnd + region.indexBytes;

    for (size_t c : planned)
        stats.bytesRead += checkedChunk(region, c).byteLength;

    fccc::FccTraceCompressor codec(cfg_);
    std::vector<ChunkResult> results(planned.size());
    auto decodeOne = [&](size_t i) {
        size_t c = planned[i];
        const fccc::ChunkSummary &s = index_->chunks[c];
        util::ByteReader cr(bytes_.data() + s.byteOffset,
                            static_cast<size_t>(s.byteLength));
        std::array<std::vector<uint64_t>, 5> cols;
        for (size_t k = 0; k < 5; ++k)
            cols[k] =
                fccc::decodeColumnFrame(fccc::readColumnFrame(cr));
        util::require(cr.exhausted(),
                      "fcc index: chunk range has trailing bytes");
        std::vector<fccc::TimeSeqRecord> records =
            buildChunkRecords(region.shared, cols,
                              region.chunkLen[c]);
        expandFiltered(codec, region.shared, records,
                       fccc::chunkRngSeed(cfg_.decompressSeed, c),
                       expr, cfg_.serverPort, results[i]);
    };
    runChunkJobs(cfg_.threads, planned.size(), decodeOne);

    emitResults(results, sink, stats);
    return stats;
}

QueryStats
FccArchive::runFullDecode(const Expr &expr,
                          trace::TraceSink &sink) const
{
    QueryStats stats;
    stats.usedIndex = false;
    stats.fileBytes = bytes_.size();
    stats.bytesRead = bytes_.size();

    fccc::Datasets d = fccc::deserializeAuto(bytes_, cfg_.threads);
    util::require(d.fidelity != fccc::Fidelity::Flow,
                  "query: flow-fidelity archives carry no "
                  "per-packet data; use aggregate queries");
    fccc::FccTraceCompressor codec(cfg_);

    if (d.chunkSizes.empty()) {
        // Legacy layout: one sequential RNG stream over everything.
        stats.chunksTotal = 1;
        stats.chunksDecoded = 1;
        std::vector<ChunkResult> results(1);
        expandFiltered(codec, d, d.timeSeq, cfg_.decompressSeed,
                       expr, cfg_.serverPort, results[0]);
        emitResults(results, sink, stats);
        return stats;
    }

    size_t chunks = d.chunkSizes.size();
    stats.chunksTotal = chunks;
    stats.chunksDecoded = chunks;
    std::vector<size_t> offset(chunks + 1, 0);
    for (size_t c = 0; c < chunks; ++c)
        offset[c + 1] = offset[c] + d.chunkSizes[c];
    util::require(offset[chunks] == d.timeSeq.size(),
                  "fcc: chunk sizes disagree with time-seq");

    std::vector<ChunkResult> results(chunks);
    auto expandOne = [&](size_t c) {
        std::span<const fccc::TimeSeqRecord> records(
            d.timeSeq.data() + offset[c], d.chunkSizes[c]);
        expandFiltered(codec, d, records,
                       fccc::chunkRngSeed(cfg_.decompressSeed, c),
                       expr, cfg_.serverPort, results[c]);
    };
    runChunkJobs(cfg_.threads, chunks, expandOne);
    emitResults(results, sink, stats);
    return stats;
}

} // namespace fcc::query
