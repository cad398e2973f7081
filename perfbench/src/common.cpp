/**
 * @file
 * Shared plumbing (common.hpp).
 */

#include "common.hpp"

#include <thread>

namespace perfbench {

bool
parseWorkload(const std::string &name, Workload &out)
{
    if (name == "web")
        out = Workload::Web;
    else if (name == "hostile")
        out = Workload::Hostile;
    else if (name == "archive-serve")
        out = Workload::ArchiveServe;
    else
        return false;
    return true;
}

Profile
profileFor(Workload w)
{
    Profile p;
    if (w == Workload::ArchiveServe) {
        p.archives = 16;
        p.queriesPerRound = 600;
    }
    return p;
}

std::string
Metrics::json() const
{
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < items_.size(); ++i) {
        if (i != 0)
            out += ", ";
        out += '"';
        out += items_[i].name;
        out += "\": {\"value\": ";
        std::snprintf(buf, sizeof buf, "%.17g", items_[i].value);
        out += buf;
        out += ", \"unit\": \"";
        out += items_[i].unit;
        out += "\"}";
    }
    out += '}';
    return out;
}

double
spinProbe(uint32_t threads)
{
    auto spin = [] {
        volatile uint64_t x = 0;
        for (uint64_t i = 0; i < 50000000ull; ++i)
            x = x + i;
    };
    // Best of three of each: a shared box only ever slows a spin.
    double one = 1e300;
    double all = 1e300;
    for (int trial = 0; trial < 3; ++trial) {
        Clock::time_point t0 = Clock::now();
        spin();
        one = std::min(one, secondsSince(t0));
        t0 = Clock::now();
        std::vector<std::thread> ts;
        for (uint32_t i = 0; i < threads; ++i)
            ts.emplace_back(spin);
        for (std::thread &t : ts)
            t.join();
        all = std::min(all, secondsSince(t0));
    }
    return static_cast<double>(threads) * one / all;
}

Calibration::Calibration() : keys_(1u << 18), table_(1u << 19) {}

void
Calibration::sample()
{
    // Hash inserts at random over 4 MB, then a sort of 2 MB: the
    // kinds of work the flow table and the column coders do.
    const size_t mask = table_.size() - 1;
    Stopwatch sw;
    std::fill(table_.begin(), table_.end(), 0);
    uint64_t z = 0x9e3779b97f4a7c15ull;
    for (uint64_t &k : keys_) {
        z += 0x9e3779b97f4a7c15ull;
        uint64_t x = z;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        k = (x ^ (x >> 31)) | 1;
        size_t i = k & mask;
        while (table_[i] != 0 && table_[i] != k)
            i = (i + 1) & mask;
        table_[i] = k;
    }
    std::sort(keys_.begin(), keys_.end());
    samples_.push_back(sw.cpu());
}

double
Calibration::speedFactor() const
{
    return referenceSeconds / median(samples_);
}

} // namespace perfbench
