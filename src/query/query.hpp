/**
 * @file
 * Random-access query subsystem over seekable FCC archives.
 *
 * An indexed FCC3 file (codec/fcc/index.hpp) makes three-stage
 * random access possible without inflating the whole archive:
 *
 *  1. open — mmap the file (util/io) and load only the index block
 *     from its tail;
 *  2. plan — evaluate a query expression (query/expr.hpp: AND/OR/NOT
 *     over server, CIDR, port, time-window and flow-size leaves)
 *     against the per-chunk summaries: Bloom fingerprints rule out
 *     chunks without the queried servers, timestamp bounds rule out
 *     chunks outside the window;
 *  3. execute — decode only the surviving chunks' records (one
 *     thread-pool job each) and stream them through the codec's §4
 *     flush, FccTraceCompressor::expandInOrder, with a per-flow
 *     filter: every chunk draws from its own RNG stream, and the
 *     matches reach any TraceSink batch by batch, in canonical order,
 *     as the merge drains them.
 *
 * Reconstruction is bit-exact with a full decompression of the same
 * archive: chunk RNG streams are seeded by original chunk index
 * (codec::fcc::chunkRngSeed), so the packets of a selected flow are
 * the same bytes `fcctool decompress` would have produced.
 *
 * Files without an index (FCC1, FCC2, unindexed FCC3, hybrid
 * deflate) and archives whose index block is corrupt fall back to a
 * full decode with the same filtering semantics — a query is never
 * wrong, only slower. See docs/QUERY.md.
 *
 * Queries are query::Expr trees (or the text grammar). Aggregate
 * queries over an archive (per-server flow counts, byte histograms,
 * top-K talkers, computed without reconstructing packets) live in
 * query/aggregate.hpp; multi-archive catalogs in query/catalog.hpp.
 */

#ifndef FCC_QUERY_QUERY_HPP
#define FCC_QUERY_QUERY_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "codec/fcc/datasets.hpp"
#include "codec/fcc/fcc_codec.hpp"
#include "codec/fcc/index.hpp"
#include "query/expr.hpp"
#include "trace/source.hpp"
#include "trace/tsh.hpp"
#include "util/io.hpp"

namespace fcc::query {

struct AggregateRequest;
struct AggregateResult;

/** What one query run touched and produced. */
struct QueryStats
{
    bool usedIndex = false;     ///< planned via the chunk index
    uint64_t chunksTotal = 0;   ///< chunks in the archive
    uint64_t chunksDecoded = 0; ///< chunks the plan could not rule out
    uint64_t fileBytes = 0;     ///< archive size
    /**
     * Archive bytes the run needed: header, shared dataset frames,
     * the decoded chunks' frames and the index block — the pages a
     * cold mmap actually faults, and the number micro_query reports
     * against a full decode.
     */
    uint64_t bytesRead = 0;
    uint64_t flowsMatched = 0;
    uint64_t packetsMatched = 0;
};

/** TraceSink that counts and discards (--count queries, benches). */
class NullTraceSink final : public trace::TraceSink
{
  public:
    void
    write(std::span<const trace::PacketRecord> batch) override
    {
        packets_ += batch.size();
    }
    void close() override {}
    /** Logical size: what the packets would occupy as TSH records. */
    uint64_t bytesWritten() const override
    {
        return packets_ * trace::tshRecordBytes;
    }
    uint64_t packets() const { return packets_; }

  private:
    uint64_t packets_ = 0;
};

/**
 * One opened .fcc archive, memory-mapped, with its index (when
 * present) parsed and ready to plan against. The FccConfig supplies
 * the reconstruction parameters and thread count — they must match
 * the ones a full decompression would use for the reconstruction to
 * be bit-identical (the defaults always do).
 *
 * All query entry points are const and touch only immutable state,
 * so one archive may serve concurrent queries from many threads
 * (the fccserve layer relies on this).
 */
class FccArchive
{
  public:
    /** @throws fcc::util::Error when the file cannot be opened. */
    explicit FccArchive(const std::string &path,
                        const codec::fcc::FccConfig &cfg = {});

    /** True when the archive carries a usable chunk/flow index. */
    bool hasIndex() const { return index_.has_value(); }

    /**
     * True when the file advertises an index that failed to parse
     * (CRC mismatch, truncation); queries fall back to full decode.
     */
    bool indexCorrupt() const { return indexCorrupt_; }

    /** The parsed index. Requires hasIndex(). */
    const codec::fcc::ArchiveIndex &
    index() const
    {
        return *index_;
    }

    /** Archive size in bytes. */
    uint64_t fileBytes() const { return bytes_.size(); }

    /** The path the archive was opened from. */
    const std::string &path() const { return path_; }

    /** The reconstruction configuration queries run with. */
    const codec::fcc::FccConfig &config() const { return cfg_; }

    /**
     * Chunk ids the index cannot rule out for @p expr, in ascending
     * order. Bloom false positives may include chunks with no
     * matching flow (the execute stage filters them to zero
     * packets); a chunk with a match is never excluded.
     * Requires hasIndex().
     */
    std::vector<size_t> plan(const Expr &expr) const;

    /**
     * Run @p expr over the archive and write the matching packets,
     * in canonical order, to @p sink batch by batch as the §4 flush
     * drains them (closed before returning).
     * Uses the index when present unless @p forceFullDecode; always
     * produces exactly the packets a full decompression filtered by
     * @p expr would.
     *
     * @throws fcc::util::Error on a malformed archive.
     */
    QueryStats run(const Expr &expr, trace::TraceSink &sink,
                   bool forceFullDecode = false) const;

    /**
     * Aggregate over the archive from index blocks and selected
     * column frames, without reconstructing packets. Declared here,
     * defined with the request/result model in query/aggregate.hpp.
     */
    AggregateResult aggregate(const AggregateRequest &req) const;

  private:
    /**
     * Everything the indexed layout shares across chunks: the
     * decoded header region (weights, shared datasets, per-chunk
     * record counts) plus the byte geometry selective readers
     * account against. Built by decodeSharedRegion(), reused by the
     * filter and aggregate executors.
     */
    struct SharedRegion
    {
        codec::fcc::Datasets shared;     ///< templates + addresses
        std::vector<uint64_t> chunkLen;  ///< records per chunk
        size_t sharedEnd = 0;    ///< end of the shared frames
        size_t regionEnd = 0;    ///< end of the column-frame region
        uint64_t indexBytes = 0; ///< index block + footer size
    };

    /** Decode the shared region of an indexed archive (validates
     *  header, shared frames and the chunk layout against the
     *  index). Requires hasIndex(). */
    SharedRegion decodeSharedRegion() const;

    /** Validate chunk @p c's byte range against the region bounds
     *  and return its summary. */
    const codec::fcc::ChunkSummary &
    checkedChunk(const SharedRegion &region, size_t c) const;

    QueryStats runIndexed(const Expr &expr,
                          trace::TraceSink &sink) const;
    QueryStats runFullDecode(const Expr &expr,
                             trace::TraceSink &sink) const;

    friend struct AggregateExecutor;

    std::string path_;
    codec::fcc::FccConfig cfg_;
    std::unique_ptr<util::ByteSource> src_;
    std::vector<uint8_t> owned_;        ///< stdio fallback buffer
    std::span<const uint8_t> bytes_;    ///< the whole archive
    std::optional<codec::fcc::ArchiveIndex> index_;
    bool indexedLayout_ = false;
    bool indexCorrupt_ = false;
};

} // namespace fcc::query

#endif // FCC_QUERY_QUERY_HPP
