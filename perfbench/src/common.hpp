/**
 * @file
 * Shared plumbing of the perfbench binary: clocks, order statistics,
 * the workload definitions both phases agree on, and the flat metric
 * list every phase prints.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

#include "codec/fcc/fcc_codec.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * CPU seconds, user and system, of every thread of this process. A
 * shared host's time slicing does not count: a thread that waits for
 * a core accrues none, and a guest kernel with steal-time accounting
 * leaves out the time the hypervisor ran other guests.
 */
inline double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** CPU seconds of the calling thread. */
inline double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Wall and CPU seconds since it was made. */
struct Stopwatch
{
    Clock::time_point wall0 = Clock::now();
    double cpu0 = processCpuSeconds();

    double wall() const { return secondsSince(wall0); }
    double cpu() const { return processCpuSeconds() - cpu0; }
};

inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

/** Linear-interpolated quantile @p q in [0, 1]; 0 for no samples. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/**
 * Effective parallelism a spin loop gets on @p threads threads:
 * threads x (one thread's time for a fixed spin) / (wall time of
 * every thread doing that spin at once). A box that really delivers
 * its cores reads close to @p threads.
 */
double spinProbe(uint32_t threads);

/**
 * Gauges how fast the box runs at the moment: the CPU seconds of a
 * fixed pass of work that calls no library code and allocates nothing
 * while timed. On a shared host the speed of a core drifts over
 * seconds and minutes, and every operation drifts with it; runs made
 * at different moments compare once each time is scaled by
 * referenceSeconds / the median pass of its own run (speedFactor()).
 */
class Calibration
{
  public:
    /** CPU seconds one pass takes on the box the reference was
     *  taken on; a scaled time is in seconds of that box. */
    static constexpr double referenceSeconds = 0.030;

    Calibration();

    /** Run one pass and keep its CPU seconds. */
    void sample();

    /** referenceSeconds / the median pass so far. */
    double speedFactor() const;

    const std::vector<double> &samples() const { return samples_; }

  private:
    std::vector<uint64_t> keys_;
    std::vector<uint64_t> table_;
    std::vector<double> samples_;
};

/** The benchmark's workloads (perfbench/README.md says why each). */
enum class Workload
{
    Web,
    Hostile,
    ArchiveServe,
};

/** Parse "web" / "hostile" / "archive-serve"; false if unknown. */
bool parseWorkload(const std::string &name, Workload &out);

/** Every workload's flows arrive over this many seconds of trace. */
constexpr double arrivalSeconds = 600.0;

/** How much of a run a workload gives the archive and query paths. */
struct Profile
{
    uint64_t archives = 8;        ///< archives the daemon seals per input
    /// fccserve requests per round: whole cycles of the mix's 100
    /// distinct requests, so every round serves the same requests.
    size_t queriesPerRound = 300;
};

/**
 * archive-serve seals twice as many archives, so each ingest makes
 * twice the fsync'd commits and the catalog has twice the partitions
 * to prune, and it sends twice the requests per round.
 */
Profile profileFor(Workload w);

/** Generated inputs of one workload, as the program will see them. */
struct Inputs
{
    std::string tsh;          ///< the trace the codec paths read
    uint64_t packets = 0;     ///< ground truth: packets generated
    uint64_t flows = 0;       ///< ground truth: connections generated
    uint64_t tshBytes = 0;
};

/** File layout of a work directory (setup writes, measure reads). */
inline std::string
inputPath(const std::string &dir)
{
    return dir + "/input.tsh";
}

inline std::string
truthPath(const std::string &dir)
{
    return dir + "/truth.txt";
}

/**
 * Codec configuration of every measured path: the FCC3 columnar
 * container with the deflate backend and the chunk index, which is
 * what fcctool and fccd write by default.
 */
inline fcc::codec::fcc::FccConfig
codecConfig(uint32_t threads)
{
    fcc::codec::fcc::FccConfig cfg;
    cfg.container = fcc::codec::fcc::ContainerFormat::Fcc3;
    cfg.backend = fcc::codec::backend::EntropyBackend::Deflate;
    cfg.index = true;
    cfg.threads = threads;
    return cfg;
}

/** Named metrics with units, printed one per line and as JSON. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        items_.push_back({name, value, unit});
    }

    /** Human-readable "name value unit" lines. */
    void
    print(std::FILE *out) const
    {
        for (const Item &m : items_)
            std::fprintf(out, "%-40s %.6g %s\n", m.name.c_str(),
                         m.value, m.unit.c_str());
    }

    /** {"name": {"value": v, "unit": "u"}, ...} with full digits. */
    std::string json() const;

  private:
    struct Item
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> items_;
};

/** Outcome counters shared by every phase of a run. */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** Count one checked operation; prints @p what when it failed. */
    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "perfbench: MISMATCH: %s\n",
                         what.c_str());
        }
    }
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
