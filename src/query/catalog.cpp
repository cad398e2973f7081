/**
 * @file
 * Catalog execution: open a directory of archives, prune whole
 * archives by their chunk plans, run survivors, k-way merge the
 * sorted per-archive results. See catalog.hpp.
 */

#include "query/catalog.hpp"

#include <algorithm>
#include <filesystem>

#include "archive/catalog_file.hpp"
#include "trace/run_merge.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"

namespace fcc::query {

namespace fs = std::filesystem;

ArchiveCatalog::ArchiveCatalog(const std::string &directory,
                               const codec::fcc::FccConfig &cfg)
{
    cfg.validate();
    std::error_code ec;
    fs::directory_iterator it(directory, ec);
    if (ec)
        throw util::Error("catalog: cannot read directory '" +
                          directory + "': " + ec.message());
    std::vector<std::string> paths;
    for (const fs::directory_entry &entry : it) {
        if (!entry.is_regular_file())
            continue;
        if (entry.path().extension() != ".fcc")
            continue;
        paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    for (const std::string &path : paths)
        archives_.push_back(
            std::make_unique<FccArchive>(path, cfg));
}

ArchiveCatalog
ArchiveCatalog::fromPaths(const std::vector<std::string> &paths,
                          const codec::fcc::FccConfig &cfg)
{
    cfg.validate();
    ArchiveCatalog catalog;
    for (const std::string &path : paths)
        catalog.archives_.push_back(
            std::make_unique<FccArchive>(path, cfg));
    return catalog;
}

ArchiveCatalog
ArchiveCatalog::fromCatalogFile(const std::string &directory,
                                const codec::fcc::FccConfig &cfg)
{
    if (!fs::exists(fs::path(directory) /
                    archive::CatalogFile::fileName()))
        return ArchiveCatalog(directory, cfg);
    std::vector<std::string> paths;
    for (const archive::CatalogEntry &entry :
         archive::loadCatalog(directory))
        paths.push_back(directory + "/" + entry.name);
    return fromPaths(paths, cfg);
}

namespace {

/** Collects a run's packets for the cross-archive merge. */
class VectorSink final : public trace::TraceSink
{
  public:
    void
    write(std::span<const trace::PacketRecord> batch) override
    {
        packets.insert(packets.end(), batch.begin(), batch.end());
    }
    void close() override {}
    uint64_t bytesWritten() const override
    {
        return packets.size() * trace::tshRecordBytes;
    }

    std::vector<trace::PacketRecord> packets;
};

/**
 * Archive-level pruning decision: an indexed archive with an empty
 * chunk plan cannot contribute a packet — unless the query uses
 * time and the archive's reconstruction gap exceeds what its index
 * was built with, in which case the timestamp bounds are invalid
 * for filtering (FccArchive::run takes its full-decode path then,
 * and the catalog must let it).
 */
bool
prunable(const FccArchive &archive, const Expr &expr)
{
    if (!archive.hasIndex())
        return false;
    if (expr.usesTime() && archive.config().defaultGapUs >
                               archive.index().gapUs)
        return false;
    return archive.plan(expr).empty();
}

/**
 * Merge the per-archive canonical-sorted results into @p sink; ties
 * between bit-identical packets of two archives go by archive order.
 */
void
mergeRuns(std::vector<std::vector<trace::PacketRecord>> &runs,
          trace::TraceSink &sink, CatalogQueryStats &stats)
{
    size_t total = 0;
    trace::RunMerge merge;
    for (auto &run : runs) {
        total += run.size();
        trace::RunBound whole{run.size(), 0};
        merge.add(std::move(run), {&whole, 1});
    }
    stats.packetsMatched = total;

    std::vector<trace::PacketRecord> merged;
    merged.reserve(total);
    merge.drainBefore(~0ull, merged);
    trace::Trace out(std::move(merged));
    trace::writeAllPackets(sink, out);
}

} // namespace

CatalogQueryStats
ArchiveCatalog::run(const Expr &expr, trace::TraceSink &sink,
                    bool forceFullDecode) const
{
    CatalogQueryStats stats;
    stats.archives = archives_.size();

    std::vector<std::vector<trace::PacketRecord>> runs;
    runs.reserve(archives_.size());
    for (const auto &archive : archives_) {
        stats.fileBytes += archive->fileBytes();
        if (!forceFullDecode && prunable(*archive, expr)) {
            ++stats.archivesPruned;
            stats.chunksTotal += archive->index().chunks.size();
            continue;
        }
        VectorSink collect;
        QueryStats s =
            archive->run(expr, collect, forceFullDecode);
        stats.chunksTotal += s.chunksTotal;
        stats.chunksDecoded += s.chunksDecoded;
        stats.bytesRead += s.bytesRead;
        stats.flowsMatched += s.flowsMatched;
        runs.push_back(std::move(collect.packets));
    }
    mergeRuns(runs, sink, stats);
    sink.close();
    return stats;
}

AggregateResult
ArchiveCatalog::aggregate(const AggregateRequest &req) const
{
    AggregateResult total;
    bool first = true;
    for (const auto &archive : archives_) {
        if (archive->hasIndex() && archive->plan(req.expr).empty()) {
            // Gap-safe for aggregates (flow-start semantics).
            AggregateResult pruned;
            pruned.stats.usedIndex = true;
            pruned.stats.chunksTotal =
                archive->index().chunks.size();
            pruned.stats.fileBytes = archive->fileBytes();
            if (first) {
                total = std::move(pruned);
                first = false;
            } else {
                mergeAggregateInto(total, pruned);
            }
            continue;
        }
        AggregateResult one = archive->aggregate(req);
        if (first) {
            total = std::move(one);
            first = false;
        } else {
            mergeAggregateInto(total, one);
        }
    }
    return total;
}

} // namespace fcc::query
