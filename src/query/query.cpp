/**
 * @file
 * Random-access execution over seekable FCC archives: open an
 * mmap'd file, plan chunks against the index block's summaries,
 * decode only the surviving chunks' records on the thread pool, and
 * stream them through the codec's §4 flush (expandInOrder) with a
 * per-flow filter, so the sink gets exactly the packets a full
 * decompression would have produced for the same expression, batch
 * by batch.
 */

#include "query/query.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <new>

#include "codec/fcc/datasets.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace fcc::query {

namespace fccc = fcc::codec::fcc;

namespace {

/**
 * Stream the packets of @p d that @p expr admits to @p sink through
 * the codec's §4 flush, then close the sink. Every record expands,
 * matching or not, so the RNG streams advance exactly as a full
 * decompression's do and the surviving flows reconstruct the same
 * bytes. @p chunkIds names the original chunks of an indexed plan.
 */
void
streamMatches(const fccc::FccConfig &cfg, const fccc::Datasets &d,
              std::span<const size_t> chunkIds, const Expr &expr,
              trace::TraceSink &sink, QueryStats &stats)
{
    std::atomic<uint64_t> flows{0};
    fccc::ExpandScope scope;
    scope.chunkIds = chunkIds;
    scope.filter = [&](const fccc::TimeSeqRecord &rec,
                       std::span<trace::PacketRecord> packets) {
        Expr::FlowView flow{d.addresses[rec.addressIndex],
                            cfg.serverPort, packets.size()};
        Expr::FlowMatch verdict = expr.matchesFlow(flow);
        size_t kept =
            verdict == Expr::FlowMatch::Always ? packets.size() : 0;
        if (verdict == Expr::FlowMatch::PerPacket)
            for (const trace::PacketRecord &pkt : packets)
                if (expr.matches(flow, pkt.timestampUs()))
                    packets[kept++] = pkt;
        if (kept > 0)
            ++flows;
        return kept;
    };
    fccc::FccTraceCompressor(cfg).expandInOrder(
        d,
        [&](std::span<const trace::PacketRecord> batch) {
            sink.write(batch);
            stats.packetsMatched += batch.size();
        },
        scope);
    sink.close();
    stats.flowsMatched = flows.load();
}

} // namespace

FccArchive::FccArchive(const std::string &path,
                       const codec::fcc::FccConfig &cfg)
    : path_(path), cfg_(cfg), src_(util::openByteSource(path))
{
    bytes_ = util::readAllBytes(*src_, owned_);
    util::require(!bytes_.empty(), "query: empty archive");

    // Only the indexed FCC3 layout is seekable; everything else
    // (row containers, unindexed FCC3, the hybrid zlib wrapper)
    // takes the full-decode path, which also reports a bad header.
    try {
        util::ByteReader r(bytes_);
        indexedLayout_ = fccc::readFcc3Header(r).indexed;
    } catch (const util::Error &) {
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
    fccc::Fcc3Header header = fccc::readFcc3Header(r);

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
    region.shared = fccc::assembleFcc3Columns(header.weights, columns);
    region.shared.fidelity = header.fidelity;
    region.shared.quantumUs = header.quantumUs;

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

    // Decode the planned chunks' records on the pool, then stream
    // them through the flush as one sparse dataset.
    std::vector<std::vector<fccc::TimeSeqRecord>> records(
        planned.size());
    std::unique_ptr<util::ThreadPool> pool =
        util::makePool(cfg_.threads, planned.size());
    util::parallelFor(pool.get(), planned.size(), [&](size_t i) {
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
        util::require(cols[0].size() == region.chunkLen[c],
                      "fcc3: chunk frame record mismatch");
        records[i] = fccc::assembleTimeSeqColumns(region.shared, cols);
    });
    pool.reset();

    fccc::Datasets &d = region.shared;
    for (std::vector<fccc::TimeSeqRecord> &chunk : records) {
        d.chunkSizes.push_back(static_cast<uint32_t>(chunk.size()));
        d.timeSeq.insert(d.timeSeq.end(), chunk.begin(), chunk.end());
        chunk = {};
    }
    streamMatches(cfg_, d, planned, expr, sink, stats);
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
    // The legacy unchunked layout is one RNG stream: one "chunk".
    stats.chunksTotal = std::max<size_t>(1, d.chunkSizes.size());
    stats.chunksDecoded = stats.chunksTotal;
    streamMatches(cfg_, d, {}, expr, sink, stats);
    return stats;
}

} // namespace fcc::query
