/**
 * @file
 * Set-up phase: seeded input generation (setup.cpp).
 */

#ifndef PERFBENCH_SETUP_HPP
#define PERFBENCH_SETUP_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct SetupResult
{
    Inputs inputs;
    std::vector<double> seconds; ///< generate + encode, per repeat
    std::vector<double> cpuSeconds; ///< the same, CPU (Stopwatch)
    Calibration calibration;        ///< one pass before each repeat
    bool identical = true;   ///< every repeat gave the same bytes
    uint64_t hash = 0;       ///< FNV-1a of the TSH bytes
    double complexityH = 0;  ///< Avin et al. non-temporal, bits/pkt
    double complexityT = 0;  ///< Avin et al. temporal, bits/pkt
};

/**
 * Generate workload @p w from @p seed @p repeats times, timing each
 * generation and TSH encoding, and write the last one's bytes into
 * directory @p dir (which must exist). The write is untimed: page
 * cache writeback of earlier runs would otherwise leak into the
 * set-up time. @p describe additionally measures the trace's
 * complexity descriptors (untimed).
 */
SetupResult setUp(Workload w, uint64_t seed, const std::string &dir,
                  size_t repeats, bool describe);

/** Inputs a previous setUp() left in @p dir. @throws on absence */
Inputs loadInputs(const std::string &dir);

} // namespace perfbench

#endif // PERFBENCH_SETUP_HPP
