/**
 * @file
 * Adversarial scenario matrix bench: compression factor, throughput
 * and trace complexity (Avin et al.) for every hostile scenario in
 * trace/scenario_gen.hpp, across the container/backend cells.
 *
 * Every cell must reconstruct byte-identical TSH output (the codec
 * is lossy, so cross-cell equality — FCC2 vs FCC3 vs indexed — is
 * the round-trip property); any mismatch is a hard FAIL (exit 1).
 *
 * Run: ./build/bench/scenario_matrix [--smoke] [--json out.json]
 *
 * The JSON output feeds the CI scenario-matrix gate; see
 * scripts/perf_check.py and bench/scenario_baseline.json. The
 * compression factors and the round-trip flag are deterministic
 * given the seeds, so their floors trip on codec regressions, not
 * machine noise; throughput numbers are informational only (not in
 * the baseline).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "analysis/complexity.hpp"
#include "bench_common.hpp"
#include "codec/backend/backend.hpp"
#include "codec/fcc/stream.hpp"
#include "trace/scenario_gen.hpp"
#include "trace/tsh.hpp"

using namespace fcc;
namespace fccc = fcc::codec::fcc;
using backendEnum = fcc::codec::backend::EntropyBackend;

namespace {

/** Explicit TSH spec for the raw 44-byte record fixtures. */
const trace::TraceFormatSpec kTsh =
    trace::parseTraceFormatSpec("tsh");

double
secondsOf(const std::function<void()> &fn, int reps)
{
    double best = 1e100;
    for (int r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        fn();
        auto t1 = std::chrono::steady_clock::now();
        best = std::min(
            best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

std::vector<uint8_t>
readFileBytes(const std::string &path)
{
    std::vector<uint8_t> bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return bytes;
    uint8_t buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
    return bytes;
}

/** Bench-sized scenario config (smoke mode shrinks flow counts). */
trace::ScenarioConfig
benchConfig(trace::ScenarioKind kind, bool smoke)
{
    trace::ScenarioConfig cfg = trace::scenarioDefaults(kind, 2005);
    cfg.durationSec = smoke ? 3.0 : 20.0;
    switch (kind) {
    case trace::ScenarioKind::SynFlood: cfg.flows = 20000; break;
    case trace::ScenarioKind::PortScan: cfg.flows = 8000; break;
    case trace::ScenarioKind::Elephants: cfg.flows = 256; break;
    case trace::ScenarioKind::Incast: cfg.flows = 128; break;
    case trace::ScenarioKind::Reordering: cfg.flows = 3000; break;
    case trace::ScenarioKind::LossStorm: cfg.flows = 1200; break;
    case trace::ScenarioKind::MixedTail: cfg.flows = 4000; break;
    }
    if (smoke)
        cfg.flows = std::max<uint32_t>(8, cfg.flows / 16);
    return cfg;
}

struct Cell
{
    const char *label;   ///< table + metric suffix
    fccc::ContainerFormat container;
    backendEnum backend;
    bool index;
    bool gated;          ///< factor floor kept in the baseline
};

std::vector<Cell>
cells()
{
    return {
        {"fcc2", fccc::ContainerFormat::Fcc2, backendEnum::Deflate,
         false, true},
        {"fcc3", fccc::ContainerFormat::Fcc3, backendEnum::Deflate,
         false, true},
        {"fcc3_indexed", fccc::ContainerFormat::Fcc3,
         backendEnum::Deflate, true, false},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = bench::smokeMode();
    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            jsonPath = argv[++i];
    }
    bench::JsonMetrics metrics;
    const int reps = smoke ? 1 : 3;
    bool allRoundTrip = true;

    std::printf("# adversarial scenario matrix, seed=2005%s\n",
                smoke ? " (smoke mode)" : "");
    std::printf("# complexity: H = pair entropy (bits/pkt), "
                "T = temporal gap (bits/pkt)\n\n");
    std::printf("%-11s %8s %7s %6s %6s | %-12s %7s %9s %9s\n",
                "scenario", "packets", "flows", "H", "T", "cell",
                "factor", "comp MB/s", "dec MB/s");

    for (trace::ScenarioKind kind : trace::allScenarios()) {
        const char *name = trace::scenarioName(kind);
        trace::ScenarioConfig scfg = benchConfig(kind, smoke);
        trace::ScenarioGenerator gen(scfg);
        trace::Trace trace = gen.generate();

        auto cx = analysis::measureComplexity(trace);
        std::string tshPath =
            std::string("scenario_matrix_") + name + ".tsh";
        trace::writeTshFile(trace, tshPath);

        std::printf("%-11s %8zu %7llu %6.2f %6.2f |\n", name,
                    trace.size(),
                    static_cast<unsigned long long>(
                        gen.info().flows),
                    cx.pairEntropyBits, cx.temporalBitsPerPacket());

        std::vector<uint8_t> reference;
        for (const Cell &cell : cells()) {
            fccc::FccConfig cfg;
            cfg.container = cell.container;
            cfg.backend = cell.backend;
            cfg.index = cell.index;
            cfg.threads = 2;
            cfg.chunkRecords = smoke ? 64 : 512;

            std::string fccPath =
                std::string("scenario_matrix_") + name + ".fcc";
            std::string backPath =
                std::string("scenario_matrix_") + name + "_rt.tsh";

            fccc::StreamStats cstats;
            double compSec = secondsOf(
                [&] {
                    cstats = fccc::compressTraceFile(
                        tshPath, fccPath, cfg, kTsh);
                },
                reps);
            double decSec = secondsOf(
                [&] {
                    fccc::decompressTraceFile(fccPath, backPath,
                                              cfg, kTsh);
                },
                reps);

            // Round trip: all cells reconstruct identical bytes.
            std::vector<uint8_t> back = readFileBytes(backPath);
            bool ok = back.size() ==
                trace.size() * trace::tshRecordBytes;
            if (reference.empty())
                reference = back;
            else
                ok = ok && back == reference;
            if (!ok) {
                std::fprintf(stderr,
                             "FAIL: %s/%s reconstruction is not "
                             "byte-identical across cells\n",
                             name, cell.label);
                allRoundTrip = false;
            }

            double factor = cstats.outputBytes
                ? static_cast<double>(cstats.inputBytes) /
                    static_cast<double>(cstats.outputBytes)
                : 0.0;
            double inMb =
                static_cast<double>(cstats.inputBytes) / 1e6;
            std::printf("%-11s %8s %7s %6s %6s | %-12s %7.2f "
                        "%9.1f %9.1f\n",
                        "", "", "", "", "", cell.label, factor,
                        compSec > 0 ? inMb / compSec : 0.0,
                        decSec > 0 ? inMb / decSec : 0.0);

            std::string prefix = std::string("scn_") + name;
            if (cell.gated)
                metrics.add(prefix + "_factor_" + cell.label,
                            factor);
            if (std::strcmp(cell.label, "fcc2") == 0)
                metrics.add(prefix + "_compress_mbps",
                            compSec > 0 ? inMb / compSec : 0.0);

            std::remove(fccPath.c_str());
            std::remove(backPath.c_str());
        }

        std::string prefix = std::string("scn_") + name;
        metrics.add(prefix + "_roundtrip",
                    allRoundTrip ? 1.0 : 0.0);
        metrics.add(prefix + "_nontemporal_bits",
                    cx.pairEntropyBits);
        metrics.add(prefix + "_temporal_bits",
                    cx.temporalBitsPerPacket());
        std::remove(tshPath.c_str());
    }

    if (!jsonPath.empty()) {
        if (!metrics.writeTo(jsonPath)) {
            std::fprintf(stderr, "cannot write %s\n",
                         jsonPath.c_str());
            return 1;
        }
        std::printf("\n# metrics written to %s\n", jsonPath.c_str());
    }
    if (!allRoundTrip) {
        std::fprintf(stderr,
                     "FAIL: scenario matrix round trip broken\n");
        return 1;
    }
    return 0;
}
