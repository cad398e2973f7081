/**
 * @file
 * Untraced end-to-end phase: the operations a user waits on, timed
 * whole, with every output checked (endtoend.hpp).
 */

#include "endtoend.hpp"

#include <atomic>
#include <filesystem>
#include <thread>

#include "codec/fcc/stream.hpp"
#include "reference.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

/** One "#" line with a phase's samples, for reading a run's spread. */
void
printSamples(const char *name, const std::vector<double> &v)
{
    std::printf("# %-14s n=%-3zu", name, v.size());
    for (double x : v)
        std::printf(" %.4f", x);
    std::printf("\n");
}

} // namespace

CodecRun
compressOnce(const Inputs &in, const std::string &fcc, uint32_t threads)
{
    CodecRun r;
    Stopwatch sw;
    fcc::codec::fcc::StreamStats st =
        fcc::codec::fcc::compressTraceFile(in.tsh, fcc,
                                           codecConfig(threads));
    r.seconds = sw.wall();
    r.cpuSeconds = sw.cpu();
    r.packets = st.packets;
    r.flows = st.flows;
    r.bytes = st.outputBytes;
    return r;
}

CodecRun
decompressOnce(const std::string &fcc, const std::string &out,
               uint32_t threads)
{
    CodecRun r;
    Stopwatch sw;
    fcc::codec::fcc::StreamStats st =
        fcc::codec::fcc::decompressTraceFile(fcc, out,
                                             codecConfig(threads));
    r.seconds = sw.wall();
    r.cpuSeconds = sw.cpu();
    r.packets = st.packets;
    r.bytes = st.outputBytes;
    return r;
}

EndToEnd
measureEndToEnd(const RunConfig &run, const Inputs &in,
                 const Reference &ref, Outcome &outcome)
{
    EndToEnd e;
    const std::string fccPath = run.dir + "/out.fcc";
    const std::string backPath = run.dir + "/back.tsh";
    const std::string ingestDir = run.dir + "/ingest";
    const double packets = static_cast<double>(in.packets);
    const Profile profile = profileFor(run.workload);

    // Per round: wall seconds, printed, and CPU seconds, measured.
    std::vector<double> comp, decomp, ingestSec;
    std::vector<double> compCpu, decompCpu, ingestCpu, queryCpu;
    // A calibration pass before every operation, so the passes sample
    // the box's speed across the same stretch of time as the rounds.
    Calibration calibration;
    fcc::query::ArchiveCatalog catalog =
        fcc::query::ArchiveCatalog::fromCatalogFile(servedDir(run.dir),
                                                    codecConfig(1));
    QueryLoad queries(catalog, ref.requests, run.dir + "/q.sock");

    // Rounds of every operation in turn, so each metric samples the
    // whole run rather than one stretch of a shared box's load. Every
    // operation runs at one thread; its outputs must equal those the
    // reference phase made at min(nproc, 4) in another process.
    Clock::time_point start = Clock::now();
    for (size_t round = 0;
         round < run.minRounds || secondsSince(start) < run.seconds;
         ++round) {
        calibration.sample();
        CodecRun c = compressOnce(in, fccPath, 1);
        comp.push_back(c.seconds);
        compCpu.push_back(c.cpuSeconds);
        outcome.check(c.packets == in.packets, "compressed packet count");
        outcome.check(c.flows == in.flows,
                      "flow count " + std::to_string(c.flows) +
                          " vs generator " + std::to_string(in.flows));
        outcome.check(hashFile(fccPath) == ref.archiveHash,
                      "archive bytes differ between 1 and " +
                          std::to_string(run.threadsMt) + " threads");
        e.archiveRatio = static_cast<double>(c.bytes) /
                         static_cast<double>(in.tshBytes);

        calibration.sample();
        CodecRun d = decompressOnce(fccPath, backPath, 1);
        decomp.push_back(d.seconds);
        decompCpu.push_back(d.cpuSeconds);
        outcome.check(d.packets == in.packets,
                      "decoded packet count " + std::to_string(d.packets) +
                          " vs input " + std::to_string(in.packets));
        uint64_t dh = hashFile(backPath);
        // Unlinked before writeback starts, so flushing 40 MB of
        // decoded trace does not load the box during later timings.
        fs::remove(backPath);
        outcome.check(dh == ref.decodedHash,
                      "decoded bytes differ between 1 and " +
                          std::to_string(run.threadsMt) + " threads");

        calibration.sample();
        Stopwatch sw;
        fcc::archive::DaemonReport rep = ingest(in, profile, ingestDir);
        ingestSec.push_back(sw.wall());
        ingestCpu.push_back(sw.cpu());
        outcome.check(rep.sealed == ref.sealed,
                      "daemon archives differ from the served ones");

        calibration.sample();
        queryCpu.push_back(queries.serve(profile.queriesPerRound, outcome));
    }
    calibration.sample();
    fs::remove_all(ingestDir);
    fs::remove(fccPath);
    // Read before anything else runs: the operations above are all
    // this process has done.
    e.peakRssMb = peakRssMb();

    printSamples("compress_s", comp);
    printSamples("compress_cpu_s", compCpu);
    printSamples("decompress_s", decomp);
    printSamples("decompress_cpu_s", decompCpu);
    printSamples("ingest_s", ingestSec);
    printSamples("ingest_cpu_s", ingestCpu);
    printSamples("queries_cpu_s", queryCpu);
    printSamples("calibration_s", calibration.samples());
    const double factor = calibration.speedFactor();
    std::printf("# speed factor %.4f\n", factor);
    queries.printByKind();
    // Printed, not metrics: between runs they follow a shared box's
    // speed more than the code does (perfbench/README.md).
    const size_t n = queries.latencies().size();
    std::printf("%-40s %.6g ms (n=%zu)\n", "query_ms_p50",
                quantile(queries.latencies(), 0.5), n);
    std::printf("%-40s %.6g ms (n=%zu)\n", "query_ms_p99",
                quantile(queries.latencies(), 0.99), n);
    // Work done per second: the median over the rounds. The measured
    // figures use CPU seconds of the process scaled to the reference
    // box (Calibration); wall-clock and unscaled CPU figures are
    // printed beside them.
    auto perSecond = [&](double work, const std::vector<double> &seconds,
                         double scale) {
        std::vector<double> rates;
        for (double x : seconds)
            rates.push_back(work / (x * scale));
        return median(rates);
    };
    const double requests = static_cast<double>(profile.queriesPerRound);
    e.compressPktsPerS = perSecond(packets, compCpu, factor);
    e.decompressPktsPerS = perSecond(packets, decompCpu, factor);
    e.ingestPktsPerS = perSecond(packets, ingestCpu, factor);
    e.queriesPerS = perSecond(requests, queryCpu, factor);
    std::printf("# wall clock: compress %.6g decompress %.6g ingest %.6g "
                "pkt/s, fccserve %.6g requests/s\n",
                perSecond(packets, comp, 1), perSecond(packets, decomp, 1),
                perSecond(packets, ingestSec, 1), queries.perSecond());
    std::printf("# unscaled CPU: compress %.6g decompress %.6g ingest %.6g "
                "pkt/s, fccserve %.6g requests/s\n",
                perSecond(packets, compCpu, 1),
                perSecond(packets, decompCpu, 1),
                perSecond(packets, ingestCpu, 1),
                perSecond(requests, queryCpu, 1));
    uint64_t sealedBytes = 0;
    for (const fcc::archive::CatalogEntry &entry : ref.sealed)
        sealedBytes += entry.bytes;
    e.servedRatio = static_cast<double>(sealedBytes) /
                    static_cast<double>(in.tshBytes);
    return e;
}

QueryLoad::QueryLoad(const fcc::query::ArchiveCatalog &catalog,
                     std::vector<Request> distinct,
                     const std::string &socket)
    : catalog_(catalog), distinct_(std::move(distinct)),
      server_(catalog, socket, clients)
{}

double
QueryLoad::serve(size_t n, Outcome &outcome)
{
    const size_t first = next_.load();
    const size_t end = first + n;
    std::vector<double> latency(n, -1.0);
    std::vector<uint8_t> ok(n, 0);
    std::atomic<double> checkCpu{0};
    Stopwatch sw;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&] {
            try {
                fcc::query::QueryClient client(server_.endpoint());
                for (size_t i; (i = next_.fetch_add(1)) < end;) {
                    const Request &r = request(i);
                    Clock::time_point t0 = Clock::now();
                    Answer a = fetch(client, r);
                    latency[i - first] = secondsSince(t0) * 1e3;
                    double c0 = threadCpuSeconds();
                    ok[i - first] = matches(r, a, catalog_.size());
                    checkCpu += threadCpuSeconds() - c0;
                }
            } catch (const std::exception &ex) {
                std::fprintf(stderr, "perfbench: fccserve client: %s\n",
                             ex.what());
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    busySeconds_ += sw.wall();
    // The answer checks ran on the client threads; their CPU is the
    // benchmark's, not fccserve's.
    const double cpu = sw.cpu() - checkCpu.load();
    next_ = end;

    // A request that errored or never ran counts as failed.
    uint64_t bad = 0;
    for (size_t i = 0; i < n; ++i) {
        if (latency[i] >= 0) {
            latencyMs_.push_back(latency[i]);
            kinds_.push_back(request(first + i).kind);
        }
        bad += ok[i] ? 0 : 1;
    }
    outcome.attempted += n;
    outcome.failed += bad;
    if (bad != 0)
        std::fprintf(stderr,
                     "perfbench: MISMATCH: %llu of %zu fccserve answers "
                     "differ from the in-process reference\n",
                     static_cast<unsigned long long>(bad), n);
    return cpu;
}

void
QueryLoad::printByKind() const
{
    for (Request::Kind kind :
         {Request::Kind::ServerCount, Request::Kind::ServerFull,
          Request::Kind::Window, Request::Kind::TopTalkers,
          Request::Kind::List}) {
        std::vector<double> v;
        for (size_t i = 0; i < latencyMs_.size(); ++i)
            if (kinds_[i] == kind)
                v.push_back(latencyMs_[i]);
        std::printf("# fccserve %-12s n=%-5zu p50 %.3f ms  p99 %.3f ms\n",
                    requestKindName(kind), v.size(), quantile(v, 0.5),
                    quantile(v, 0.99));
    }
}

void
endToEndMetrics(const RunConfig &run, const EndToEnd &e, Metrics &m)
{
    m.add("compress_pkts_per_s", e.compressPktsPerS, "pkt/cpu-s");
    m.add("decompress_pkts_per_s", e.decompressPktsPerS, "pkt/cpu-s");
    // archive-serve stores what the daemon sealed; the codec
    // workloads what one compressTraceFile() wrote.
    m.add("ratio",
          run.workload == Workload::ArchiveServe ? e.servedRatio
                                                 : e.archiveRatio,
          "ratio");
    m.add("peak_rss_mb", e.peakRssMb, "MB");
    m.add("ingest_pkts_per_s", e.ingestPktsPerS, "pkt/cpu-s");
    m.add("queries_per_s", e.queriesPerS, "1/cpu-s");
}

} // namespace perfbench
