/**
 * @file
 * perfbench — the repository benchmark's measuring binary. run.py
 * builds it, then drives two subcommands per benchmark run:
 *
 *   perfbench setup     --workload W --seed N --dir D --repeats R
 *                       [--describe]
 *   perfbench reference --workload W --seed N --dir D --threads-mt M
 *   perfbench measure   --workload W --seed N --dir D --seconds S
 *                       --trace 0|1 --threads-mt M
 *
 * `setup` generates the workload's inputs R times, writes the last
 * into D and prints one JSON line with the set-up times (and, with
 * --describe, the trace's complexity descriptors). `reference` makes
 * the outputs the measured phase is checked against (reference.hpp)
 * and prints one JSON line with its checks. `measure` runs in a fresh
 * process that only sees those files; it prints the machine
 * descriptor, every metric by name and unit, and last one JSON
 * result line. --trace 0 gives the end-to-end metrics, --trace 1 the
 * per-layer ones. Any output mismatch makes a phase exit 1.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "endtoend.hpp"
#include "layers.hpp"
#include "reference.hpp"
#include "setup.hpp"

using namespace perfbench;

namespace {

struct Args
{
    std::string command;
    std::string workload;
    uint64_t seed = 1;
    std::string dir;
    double seconds = 10;
    int trace = 0;
    uint32_t threadsMt = 1;
    size_t repeats = 1;
    bool describe = false;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    if (argc < 2)
        return false;
    a.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string k = argv[i];
        if (k == "--describe") {
            a.describe = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--dir")
            a.dir = v;
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a.trace = std::atoi(v.c_str());
        else if (k == "--threads-mt")
            a.threadsMt = static_cast<uint32_t>(std::atoi(v.c_str()));
        else if (k == "--repeats")
            a.repeats = std::strtoull(v.c_str(), nullptr, 10);
        else
            return false;
    }
    return !a.workload.empty() && !a.dir.empty() && a.seconds > 0 &&
           a.threadsMt >= 1 && a.repeats >= 1;
}

void
printMachine(uint32_t threadsMt, double effective)
{
    std::printf("# machine {\"nproc\": %u, \"threads_mt\": %u, "
                "\"effective_parallelism\": %.3f, \"compiler\": "
                "\"%s %s\", \"flags\": \"%s\", \"build_type\": \"%s\"}\n",
                std::thread::hardware_concurrency(), threadsMt,
                effective, PERFBENCH_COMPILER_ID, __VERSION__,
                PERFBENCH_CXX_FLAGS, PERFBENCH_BUILD_TYPE);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench setup --workload W --seed N --dir D "
                 "--repeats R [--describe]\n"
                 "       perfbench reference --workload W --seed N "
                 "--dir D --threads-mt M\n"
                 "       perfbench measure --workload W --seed N --dir D "
                 "--seconds S --trace 0|1 --threads-mt M\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef NDEBUG
    std::fprintf(stderr, "perfbench: refusing to measure a build with "
                         "assertions enabled (not Release)\n");
    return 2;
#endif
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr, "perfbench: refusing to report from a %s "
                             "build; configure with "
                             "CMAKE_BUILD_TYPE=Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }
    Args args;
    Workload workload;
    if (!parseArgs(argc, argv, args) ||
        !parseWorkload(args.workload, workload))
        return usage();

    try {
        if (args.command == "setup") {
            SetupResult s = setUp(workload, args.seed, args.dir,
                                  args.repeats, args.describe);
            auto list = [](const std::vector<double> &v) {
                std::string out;
                for (double x : v) {
                    char buf[32];
                    std::snprintf(buf, sizeof buf, "%.9g", x);
                    if (!out.empty())
                        out.append(", ");
                    out.append(buf);
                }
                return out;
            };
            std::printf("{\"samples\": [%s], \"cpu_samples\": [%s], "
                        "\"calibration_samples\": [%s], "
                        "\"calibration_reference\": %.9g, "
                        "\"identical\": %s, \"hash\": %llu, "
                        "\"packets\": %llu, \"flows\": %llu, "
                        "\"H\": %.6g, \"T\": %.6g}\n",
                        list(s.seconds).c_str(), list(s.cpuSeconds).c_str(),
                        list(s.calibration.samples()).c_str(),
                        Calibration::referenceSeconds,
                        s.identical ? "true" : "false",
                        static_cast<unsigned long long>(s.hash),
                        static_cast<unsigned long long>(s.inputs.packets),
                        static_cast<unsigned long long>(s.inputs.flows),
                        s.complexityH, s.complexityT);
            return 0;
        }

        RunConfig run;
        run.workload = workload;
        run.seed = args.seed;
        run.seconds = args.seconds;
        run.threadsMt = args.threadsMt;
        run.dir = args.dir;
        Inputs in = loadInputs(args.dir);
        Outcome outcome;
        if (args.command == "reference") {
            makeReference(run, in, outcome);
            std::printf("{\"attempted\": %llu, \"failed\": %llu}\n",
                        static_cast<unsigned long long>(outcome.attempted),
                        static_cast<unsigned long long>(outcome.failed));
            return outcome.failed == 0 ? 0 : 1;
        }
        if (args.command != "measure")
            return usage();

        printMachine(args.threadsMt, spinProbe(args.threadsMt));
        Reference ref = loadReference(args.dir);
        Metrics metrics;
        if (args.trace == 0) {
            EndToEnd e = measureEndToEnd(run, in, ref, outcome);
            endToEndMetrics(run, e, metrics);
        } else {
            measureLayers(run, in, ref, outcome, metrics,
                          args.dir + "/spans.jsonl");
        }
        metrics.print(stdout);
        bool correct = outcome.failed == 0;
        std::printf("{\"correct\": %s, \"attempted\": %llu, "
                    "\"failed\": %llu, \"metrics\": %s}\n",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(outcome.attempted),
                    static_cast<unsigned long long>(outcome.failed),
                    metrics.json().c_str());
        std::fflush(stdout);
        return correct ? 0 : 1;
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "perfbench: error: %s\n", ex.what());
        return 1;
    }
}
