/**
 * @file
 * Span bookkeeping (tracer.hpp).
 */

#include "tracer.hpp"

namespace perfbench {

std::map<std::string, uint64_t>
Tracer::selfNsByLayer(bool mt) const
{
    std::vector<uint64_t> childNs(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            childNs[static_cast<size_t>(s.parent)] += s.durationNs();
    std::map<std::string, uint64_t> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.mt != mt || s.probe)
            continue;
        uint64_t d = s.durationNs();
        self[s.layer] += d > childNs[i] ? d - childNs[i] : 0;
    }
    return self;
}

uint64_t
Tracer::rootNs(bool mt) const
{
    uint64_t total = 0;
    for (const Span &s : spans_)
        if (s.mt == mt && s.parent < 0 && !s.probe)
            total += s.durationNs();
    return total;
}

bool
Tracer::writeJsonLines(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"id\": %zu, \"parent\": %lld, \"op\": %llu, "
                     "\"name\": \"%s\", \"layer\": \"%s\", "
                     "\"threads\": %u, \"start_ns\": %llu, "
                     "\"end_ns\": %llu, \"count\": %llu}\n",
                     i, static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.op), s.name,
                     s.layer, s.threads,
                     static_cast<unsigned long long>(s.startNs),
                     static_cast<unsigned long long>(s.endNs),
                     static_cast<unsigned long long>(s.count));
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
