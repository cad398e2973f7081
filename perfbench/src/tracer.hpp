/**
 * @file
 * Spans recorded by the benchmark around its calls into the library:
 * name, layer, start, end, parent span and operation id. Spans stay
 * in memory and are written out once, when the run ends. Only the
 * benchmark's driving thread records spans.
 */

#ifndef PERFBENCH_TRACER_HPP
#define PERFBENCH_TRACER_HPP

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span
{
    const char *name = "";
    const char *layer = "";  ///< "op" for a user-visible operation
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    int64_t parent = -1;     ///< index into the span list, -1 = root
    uint64_t op = 0;         ///< id of the operation the span serves
    uint32_t threads = 1;    ///< library thread count of the pass
    bool mt = false;         ///< recorded in a min(nproc, 4) pass
    uint64_t count = 0;      ///< work items (packets, values, bytes)
    bool probe = false;      ///< under a "probe" root: not an operation

    uint64_t durationNs() const { return endNs - startNs; }
};

class Tracer
{
  public:
    /** Library thread count and pass kind of the spans that follow. */
    void
    setPass(uint32_t threads, bool mt)
    {
        threads_ = threads;
        mt_ = mt;
    }

    /** Open a span under the innermost open one; returns its id. */
    size_t
    open(const char *name, const char *layer)
    {
        Span s;
        s.name = name;
        s.layer = layer;
        s.parent = stack_.empty() ? -1 : static_cast<int64_t>(stack_.back());
        s.op = stack_.empty() ? ++ops_ : spans_[stack_.back()].op;
        s.threads = threads_;
        s.mt = mt_;
        s.probe = stack_.empty() ? std::string_view(layer) == "probe"
                                 : spans_[stack_.back()].probe;
        spans_.push_back(s);
        stack_.push_back(spans_.size() - 1);
        spans_.back().startNs = nowNs();
        return spans_.size() - 1;
    }

    /** Close span @p id (the innermost open one). */
    void
    close(size_t id, uint64_t count = 0)
    {
        spans_[id].endNs = nowNs();
        spans_[id].count = count;
        stack_.pop_back();
    }

    /** Run @p fn inside a span; returns what @p fn returns. */
    template <typename Fn>
    auto
    span(const char *name, const char *layer, Fn &&fn)
    {
        size_t id = open(name, layer);
        struct Closer
        {
            Tracer &t;
            size_t id;
            ~Closer() { t.close(id); }
        } closer{*this, id};
        return fn();
    }

    Span &at(size_t id) { return spans_[id]; }

    /**
     * Self time per layer over the operation spans (probes left out)
     * of the one-thread (@p mt false) or min(nproc, 4) passes: each
     * span's duration minus what its direct children cover. Keyed by
     * layer; the "op" key holds the operations' own time.
     */
    std::map<std::string, uint64_t> selfNsByLayer(bool mt) const;

    /** Total duration of the operations' root spans of those passes. */
    uint64_t rootNs(bool mt) const;

    /** One JSON object per span. @return false on I/O failure */
    bool writeJsonLines(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<size_t> stack_;
    uint64_t ops_ = 0;
    uint32_t threads_ = 1;
    bool mt_ = false;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HPP
