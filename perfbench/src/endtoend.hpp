/**
 * @file
 * Untraced end-to-end phase (endtoend.cpp).
 */

#ifndef PERFBENCH_ENDTOEND_HPP
#define PERFBENCH_ENDTOEND_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "ops.hpp"

namespace perfbench {

struct RunConfig
{
    Workload workload = Workload::Web;
    uint64_t seed = 1;
    double seconds = 10;
    uint32_t threadsMt = 1;   ///< min(nproc, 4)
    size_t minRounds = 5;     ///< rounds of every operation
    std::string dir;          ///< work directory (inputs + outputs)
};

/** One timed compressTraceFile() / decompressTraceFile() call. */
struct CodecRun
{
    double seconds = 0;
    double cpuSeconds = 0;  ///< of the whole process (Stopwatch)
    uint64_t packets = 0;
    uint64_t flows = 0;
    uint64_t bytes = 0;
};

CodecRun compressOnce(const Inputs &in, const std::string &fcc,
                      uint32_t threads);
CodecRun decompressOnce(const std::string &fcc, const std::string &out,
                        uint32_t threads);

struct EndToEnd
{
    double compressPktsPerS = 0;
    double decompressPktsPerS = 0;
    double archiveRatio = 0;  ///< compressTraceFile bytes / TSH bytes
    double servedRatio = 0;   ///< daemon archive bytes / TSH bytes
    double ingestPktsPerS = 0;
    double queriesPerS = 0;
    double peakRssMb = 0;
};

struct Reference;

/** Run every operation of the workload untraced at one thread; its
 *  outputs are checked against @p ref and count into @p outcome. */
EndToEnd measureEndToEnd(const RunConfig &run, const Inputs &in,
                         const Reference &ref, Outcome &outcome);

/** The end-to-end metrics of @p e, by name and unit. */
void endToEndMetrics(const RunConfig &run, const EndToEnd &e,
                     Metrics &m);

/**
 * The closed-loop fccserve load: two client connections against a
 * QueryServer with two workers, cycling through the distinct
 * requests of the mix in order.
 */
class QueryLoad
{
  public:
    QueryLoad(const fcc::query::ArchiveCatalog &catalog,
              std::vector<Request> distinct, const std::string &socket);

    /** Send the next @p n requests; mismatches count into @p outcome.
     *  Returns the CPU seconds they took, fccserve's and the clients',
     *  without the benchmark's answer checks. */
    double serve(size_t n, Outcome &outcome);

    /** Round-trip latency (ms) of every answered request. */
    const std::vector<double> &latencies() const { return latencyMs_; }

    /** Answered requests per second of serving. */
    double
    perSecond() const
    {
        return static_cast<double>(latencyMs_.size()) / busySeconds_;
    }

    /** One "#" line per request kind with its p50 and p99. */
    void printByKind() const;

  private:
    static constexpr size_t clients = 2;

    const Request &
    request(size_t i) const
    {
        return distinct_[i % distinct_.size()];
    }

    const fcc::query::ArchiveCatalog &catalog_;
    std::vector<Request> distinct_;
    ServerHandle server_;
    std::atomic<size_t> next_{0};
    double busySeconds_ = 0;
    std::vector<double> latencyMs_;
    std::vector<Request::Kind> kinds_;
};

} // namespace perfbench

#endif // PERFBENCH_ENDTOEND_HPP
