/**
 * @file
 * Set-up phase: generate a workload's trace from the seed and write
 * it as the TSH file every measured path reads, plus the generator's
 * ground truth (packet and connection counts) the checks compare
 * against. The program under test never sees the in-memory trace.
 */

#include "setup.hpp"

#include <fstream>
#include <stdexcept>

#include "analysis/complexity.hpp"
#include "ops.hpp"
#include "trace/ops.hpp"
#include "trace/scenario_gen.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"

namespace perfbench {

namespace {

/** SplitMix64 step: derives independent generator seeds from one. */
uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + salt * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * The paper's Web mix: 600 s of Poisson arrivals at 120 flows/s,
 * about 1.0 M packets and 71.6 k connections (44 MB of TSH).
 */
fcc::trace::Trace
webTrace(uint64_t seed, uint64_t &flows)
{
    fcc::trace::WebGenConfig gen;
    gen.seed = seed;
    gen.durationSec = arrivalSeconds;
    gen.flowsPerSec = 120.0;
    fcc::trace::WebTrafficGenerator g(gen);
    fcc::trace::Trace t = g.generate();
    flows = g.flowInfos().size();
    return t;
}

/**
 * SynFlood (one-packet flows from spoofed sources) merged in time
 * order with MixedTail (heavy-tailed lengths, near-distinct SF
 * vectors) over the same 600 s window.
 */
fcc::trace::Trace
hostileTrace(uint64_t seed, uint64_t &flows)
{
    using fcc::trace::ScenarioKind;
    fcc::trace::ScenarioConfig flood =
        fcc::trace::scenarioDefaults(ScenarioKind::SynFlood,
                                     mixSeed(seed, 1));
    flood.durationSec = arrivalSeconds;
    flood.flows = 400000;
    fcc::trace::ScenarioConfig tail =
        fcc::trace::scenarioDefaults(ScenarioKind::MixedTail,
                                     mixSeed(seed, 2));
    tail.durationSec = arrivalSeconds;
    tail.flows = 64000;

    fcc::trace::ScenarioGenerator a(flood);
    fcc::trace::Trace ta = a.generate();
    fcc::trace::ScenarioGenerator b(tail);
    fcc::trace::Trace tb = b.generate();
    flows = a.info().flows + b.info().flows;
    return fcc::trace::merge(ta, tb);
}

fcc::trace::Trace
workloadTrace(Workload w, uint64_t seed, uint64_t &flows)
{
    switch (w) {
    case Workload::Web:
        return webTrace(seed, flows);
    case Workload::Hostile:
        return hostileTrace(seed, flows);
    case Workload::ArchiveServe:
        // A different trace of the same mix: the archive must not
        // share bytes with the web workload's.
        return webTrace(mixSeed(seed, 3), flows);
    }
    throw std::logic_error("unknown workload");
}

} // namespace

SetupResult
setUp(Workload w, uint64_t seed, const std::string &dir, size_t repeats,
      bool describe)
{
    SetupResult r;
    fcc::trace::Trace trace;
    std::vector<uint8_t> bytes;
    uint64_t firstHash = 0;
    uint64_t firstFlows = 0;
    for (size_t i = 0; i < repeats; ++i) {
        // Freed first, so every repeat starts from the same memory.
        trace = {};
        bytes = {};
        r.calibration.sample();
        Stopwatch sw;
        trace = workloadTrace(w, seed, r.inputs.flows);
        bytes = fcc::trace::writeTsh(trace);
        r.seconds.push_back(sw.wall());
        r.cpuSeconds.push_back(sw.cpu());
        r.hash = fnv1a(bytes);
        if (i == 0) {
            firstHash = r.hash;
            firstFlows = r.inputs.flows;
        }
        r.identical = r.identical && r.hash == firstHash &&
                      r.inputs.flows == firstFlows;
    }
    r.inputs.tsh = inputPath(dir);
    r.inputs.packets = trace.size();
    r.inputs.tshBytes = bytes.size();
    std::ofstream tsh(r.inputs.tsh, std::ios::binary);
    tsh.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    std::ofstream truth(truthPath(dir));
    truth << r.inputs.packets << ' ' << r.inputs.flows << '\n';
    tsh.close();
    truth.close();
    if (!tsh || !truth)
        throw std::runtime_error("cannot write the inputs into " + dir);

    if (describe) {
        fcc::analysis::TraceComplexity cx =
            fcc::analysis::measureComplexity(trace);
        r.complexityH = cx.pairEntropyBits;
        r.complexityT = cx.temporalBitsPerPacket();
    }
    return r;
}

Inputs
loadInputs(const std::string &dir)
{
    Inputs in;
    in.tsh = inputPath(dir);
    std::ifstream truth(truthPath(dir));
    truth >> in.packets >> in.flows;
    if (!truth)
        throw std::runtime_error("cannot read " + truthPath(dir) +
                                 " (run the setup phase first)");
    in.tshBytes = in.packets * fcc::trace::tshRecordBytes;
    return in;
}

} // namespace perfbench
