/**
 * @file
 * The canonical-order merge of reconstructed packets: every path that
 * orders packets after expansion (the §4 streaming flush, in-memory
 * expansion, query results, the cross-archive catalog merge) goes
 * through RunMerge.
 */

#ifndef FCC_TRACE_RUN_MERGE_HPP
#define FCC_TRACE_RUN_MERGE_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "trace/packet.hpp"

namespace fcc::trace {

/** One run inside a segment handed to RunMerge::add(). */
struct RunBound
{
    size_t end = 0;        ///< one past the run's last packet
    uint64_t floorNs = 0;  ///< no packet of the run is older
};

/**
 * K-way merge of packet runs into packetCanonicalLess order.
 *
 * A run is typically one flow's expanded packets; its floor is the
 * flow's record timestamp. The heap holds one cursor per open run,
 * keyed on the run's head packet, ties broken by the order runs were
 * added — so the output never depends on how runs were batched.
 * Runs are admitted lazily, in the order they were added: before a
 * packet is emitted, every run whose floor is not later than it is
 * in the heap. That needs floors that never decrease from one run to
 * the next, which record order gives.
 *
 * Memory follows the paper's §4 bound. A batch is the segments added
 * between two drains; each drain ends by moving what is left of the
 * batch (the open runs' tails and runs not yet admitted) into one
 * carry buffer and freeing the batch. So the merge holds one batch
 * plus the open runs' pending packets.
 */
class RunMerge
{
  public:
    /**
     * Add a segment: @p packets holds runs back to back, @p runs
     * their ends in order (an empty run is allowed). A run that is
     * not already in canonical order is sorted in place — equal
     * timestamps inside one flow can expand out of order.
     *
     * @throws fcc::util::Error when the runs do not cover
     *         @p packets exactly, a floor is below the previous
     *         run's floor or an earlier drain limit, or a packet is
     *         older than its run's floor.
     */
    void add(std::vector<PacketRecord> packets,
             std::span<const RunBound> runs);

    /**
     * Append to @p out, in canonical order, every held packet older
     * than @p limitNs, then carry the rest over. Runs added later
     * must have floors of at least @p limitNs.
     */
    void drainBefore(uint64_t limitNs, std::vector<PacketRecord> &out);

    /** Packets added and not yet drained. */
    size_t pending() const;

    /**
     * Packets the merge's buffers hold: the batch added since the
     * last drain plus the carry buffer.
     */
    size_t footprint() const;

  private:
    struct Cursor
    {
        const PacketRecord *head;
        const PacketRecord *end;
        uint64_t floorNs;
        uint64_t ordinal;  ///< add order, the tie-break
    };

    static bool before(const Cursor &a, const Cursor &b);
    void siftDown(size_t i);
    void admitNext();
    void compact();

    std::vector<std::vector<PacketRecord>> batch_;
    std::vector<PacketRecord> carry_;
    std::vector<Cursor> waiting_;  ///< added, not yet admitted
    size_t nextWaiting_ = 0;
    std::vector<Cursor> heap_;     ///< open runs, min-heap on head
    uint64_t ordinals_ = 0;
    uint64_t minFloorNs_ = 0;      ///< last floor or drain limit
};

} // namespace fcc::trace

#endif // FCC_TRACE_RUN_MERGE_HPP
