/**
 * @file
 * RunMerge: lazily admitted k-way merge of packet runs with a carry
 * buffer between batches. See run_merge.hpp.
 */

#include "trace/run_merge.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace fcc::trace {

bool
RunMerge::before(const Cursor &a, const Cursor &b)
{
    const PacketRecord &x = *a.head;
    const PacketRecord &y = *b.head;
    if (x.timestampNs != y.timestampNs)
        return x.timestampNs < y.timestampNs;
    if (packetCanonicalLess(x, y))
        return true;
    if (packetCanonicalLess(y, x))
        return false;
    return a.ordinal < b.ordinal;
}

void
RunMerge::add(std::vector<PacketRecord> packets,
              std::span<const RunBound> runs)
{
    // Own the segment first: a moved vector keeps its buffer, so the
    // cursors below stay valid, and a throw leaves none dangling.
    batch_.push_back(std::move(packets));
    std::vector<PacketRecord> &segment = batch_.back();
    size_t begin = 0;
    for (const RunBound &run : runs) {
        util::require(run.end >= begin && run.end <= segment.size(),
                      "run merge: run bounds out of range");
        util::require(run.floorNs >= minFloorNs_,
                      "run merge: runs out of record order");
        minFloorNs_ = run.floorNs;
        PacketRecord *first = segment.data() + begin;
        PacketRecord *last = segment.data() + run.end;
        begin = run.end;
        if (first == last)
            continue;
        if (!std::is_sorted(first, last, packetCanonicalLess))
            std::sort(first, last, packetCanonicalLess);
        util::require(first->timestampNs >= run.floorNs,
                      "run merge: packet older than its run's floor");
        waiting_.push_back({first, last, run.floorNs, ordinals_++});
    }
    util::require(begin == segment.size(),
                  "run merge: runs do not cover the segment");
}

void
RunMerge::drainBefore(uint64_t limitNs, std::vector<PacketRecord> &out)
{
    minFloorNs_ = std::max(minFloorNs_, limitNs);
    for (;;) {
        // Admit every waiting run that could hold the next packet:
        // a floor later than the current head cannot.
        while (nextWaiting_ < waiting_.size()) {
            uint64_t floorNs = waiting_[nextWaiting_].floorNs;
            if (floorNs >= limitNs ||
                (!heap_.empty() &&
                 floorNs > heap_.front().head->timestampNs))
                break;
            admitNext();
        }
        if (heap_.empty() ||
            heap_.front().head->timestampNs >= limitNs)
            break;
        Cursor &top = heap_.front();
        out.push_back(*top.head);
        if (++top.head == top.end) {
            top = heap_.back();
            heap_.pop_back();
        }
        if (!heap_.empty())
            siftDown(0);
    }
    compact();
}

size_t
RunMerge::pending() const
{
    size_t n = 0;
    for (const Cursor &c : heap_)
        n += static_cast<size_t>(c.end - c.head);
    for (size_t i = nextWaiting_; i < waiting_.size(); ++i)
        n += static_cast<size_t>(waiting_[i].end - waiting_[i].head);
    return n;
}

size_t
RunMerge::footprint() const
{
    size_t n = carry_.size();
    for (const std::vector<PacketRecord> &segment : batch_)
        n += segment.size();
    return n;
}

void
RunMerge::siftDown(size_t i)
{
    size_t n = heap_.size();
    Cursor moving = heap_[i];
    for (;;) {
        size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(heap_[child + 1], heap_[child]))
            ++child;
        if (!before(heap_[child], moving))
            break;
        heap_[i] = heap_[child];
        i = child;
    }
    heap_[i] = moving;
}

void
RunMerge::admitNext()
{
    heap_.push_back(waiting_[nextWaiting_++]);
    std::push_heap(heap_.begin(), heap_.end(),
                   [](const Cursor &a, const Cursor &b) {
                       return before(b, a);
                   });
}

void
RunMerge::compact()
{
    std::vector<PacketRecord> next;
    next.reserve(pending());  // no reallocation: cursors stay valid
    auto keep = [&next](Cursor &c) {
        const PacketRecord *first = next.data() + next.size();
        next.insert(next.end(), c.head, c.end);
        c.head = first;
        c.end = next.data() + next.size();
    };
    for (Cursor &c : heap_)
        keep(c);
    waiting_.erase(waiting_.begin(),
                   waiting_.begin() +
                       static_cast<std::ptrdiff_t>(nextWaiting_));
    nextWaiting_ = 0;
    for (Cursor &c : waiting_)
        keep(c);
    carry_ = std::move(next);
    batch_.clear();
}

} // namespace fcc::trace
