/**
 * @file
 * The four compressed datasets of the proposed method (paper §3) and
 * their wire formats:
 *
 *  - short-flows-template: for each cluster centre, the number of
 *    packets n followed by the n S-values;
 *  - long-flows-template: n followed by per-packet (S value,
 *    inter-packet time);
 *  - address: the unique destination (server) IP addresses;
 *  - time-seq: one record per flow, sorted by first-packet
 *    timestamp — dataset identifier (S/L), template index, the RTT
 *    (short flows only) and an index into the address dataset.
 *
 * Three containers carry them:
 *  - FCC1 (legacy): one row-interleaved varint stream;
 *  - FCC2 (chunked): FCC1's encoding with the time-seq dataset
 *    framed into independently decodable chunks;
 *  - FCC3 (columnar): every dataset decomposed into typed columns,
 *    each column encoded by a field codec (codec/field) and squeezed
 *    by an entropy backend (codec/backend) — both chosen per column
 *    and recorded in one-byte tags, so a reader needs no out-of-band
 *    configuration. Optionally *indexed* (codec/fcc/index): the
 *    time-seq columns are then framed per chunk and a chunk/flow
 *    index block trails the frames, which is what the random-access
 *    query subsystem (src/query) seeks by.
 *
 * The byte-level layouts are normative in docs/FORMAT.md.
 */

#ifndef FCC_CODEC_FCC_DATASETS_HPP
#define FCC_CODEC_FCC_DATASETS_HPP

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "codec/backend/backend.hpp"
#include "codec/fcc/fidelity.hpp"
#include "codec/field/field_codec.hpp"
#include "flow/characterize.hpp"

namespace fcc::util {
class ByteReader;
class ThreadPool;
}

namespace fcc::codec::fcc {

struct IndexOptions;

/** One long-flow template: S values plus exact inter-packet times. */
struct LongTemplate
{
    std::vector<uint16_t> sValues;
    /** ipt[0] == 0; ipt[i] = t_i - t_{i-1} in microseconds. */
    std::vector<uint64_t> iptUs;

    bool operator==(const LongTemplate &) const = default;
};

/** One record of the time-seq dataset (≈ 8 bytes per flow, §5). */
struct TimeSeqRecord
{
    uint64_t firstTimestampUs = 0;
    bool isLong = false;          ///< dataset identifier S/L
    uint32_t templateIndex = 0;   ///< position in its template dataset
    uint32_t rttUs = 0;           ///< short flows only (§3)
    uint32_t addressIndex = 0;    ///< into the address dataset

    bool operator==(const TimeSeqRecord &) const = default;
};

/**
 * One record of the flow-fidelity profile (docs/FIDELITY.md): a flow
 * reduced to its aggregates. No per-packet data survives, so a
 * flow-tier archive can never be expanded back into packets — the
 * payload-byte and duration fields are computed at degrade time with
 * the §4 reconstruction rules, so they equal what an exact-tier
 * decode would have measured.
 */
struct FlowRecord
{
    uint64_t firstTimestampUs = 0;
    uint64_t payloadBytes = 0;  ///< sum of representative sizes
    uint64_t durationUs = 0;    ///< last - first reconstructed pkt
    uint32_t packets = 0;       ///< >= 1
    uint32_t addressIndex = 0;  ///< into the address dataset

    bool operator==(const FlowRecord &) const = default;
};

/** In-memory form of a compressed trace. */
struct Datasets
{
    flow::Weights weights;
    std::vector<flow::SfVector> shortTemplates;
    std::vector<LongTemplate> longTemplates;
    std::vector<uint32_t> addresses;
    std::vector<TimeSeqRecord> timeSeq;  ///< sorted by timestamp

    /**
     * Chunk layout of the FCC2/FCC3 containers: element c is the
     * number of consecutive timeSeq records in chunk c (summing to
     * timeSeq.size()). Empty for the legacy FCC1 container. Chunks
     * expand independently — each owns one RNG stream — which is
     * what lets decompression run multi-threaded yet
     * byte-deterministic.
     */
    std::vector<uint32_t> chunkSizes;

    /**
     * Fidelity tier these datasets carry (codec/fcc/fidelity.hpp).
     * Exact and the two per-packet lossy tiers use the fields above;
     * the Flow tier instead fills flowRecords (one per flow, sorted
     * by timestamp, counted by chunkSizes) and leaves the template
     * and time-seq datasets empty.
     */
    Fidelity fidelity = Fidelity::Exact;
    /** Quantized tier only: the timestamp grid in microseconds. */
    uint64_t quantumUs = 0;
    std::vector<FlowRecord> flowRecords;  ///< Flow tier only
};

/** Serialized size of each dataset, for the §5 accounting. */
struct SizeBreakdown
{
    uint64_t shortTemplateBytes = 0;
    uint64_t longTemplateBytes = 0;
    uint64_t addressBytes = 0;
    uint64_t timeSeqBytes = 0;
    uint64_t headerBytes = 0;
    /** Chunk/flow index block + footer (indexed FCC3 only). */
    uint64_t indexBytes = 0;

    uint64_t
    total() const
    {
        return shortTemplateBytes + longTemplateBytes + addressBytes +
               timeSeqBytes + headerBytes + indexBytes;
    }
};

/**
 * Per-column accounting of an FCC3 container: which field codec and
 * entropy backend the column chose, and how many bytes it occupies
 * before (encodedBytes) and after (storedBytes, including the
 * per-column framing) the entropy stage.
 */
struct ColumnStat
{
    std::string name;
    field::FieldCodec codec = field::FieldCodec::Plain;
    backend::EntropyBackend backend = backend::EntropyBackend::Store;
    uint64_t values = 0;
    uint64_t encodedBytes = 0;
    uint64_t storedBytes = 0;
};

/** What a container parse learned about the bytes on the wire. */
struct ContainerStat
{
    uint8_t version = 0;  ///< 1, 2 or 3
    /**
     * On-wire bytes per dataset. For FCC3 these are the *compressed*
     * column sizes (framing included), i.e. where the file's bytes
     * actually go — not the pre-backend serialized sizes.
     */
    SizeBreakdown sizes;
    /**
     * FCC3 only. In an indexed archive the five time-seq columns are
     * chunk-framed; their entries aggregate every chunk's frame
     * (values and bytes summed, codec/backend tags from the first
     * chunk — later chunks may choose differently).
     */
    std::vector<ColumnStat> columns;
    /** Indexed FCC3 layout; its bytes are in sizes.indexBytes. */
    bool hasIndex = false;
    /** Fidelity tier the header declares (FCC3 only; else Exact). */
    Fidelity fidelity = Fidelity::Exact;
    /** Quantized tier only: the declared timestamp grid (us). */
    uint64_t quantumUs = 0;
};

/** Serialize to the legacy (single-stream) FCC1 wire format. */
std::vector<uint8_t> serialize(const Datasets &datasets);

/** Serialize and report per-dataset sizes through @p breakdown. */
std::vector<uint8_t> serialize(const Datasets &datasets,
                               SizeBreakdown &breakdown);

/**
 * Serialize to the chunked FCC2 wire format: the template and
 * address datasets are shared, the time-seq dataset is framed into
 * chunks of @p recordsPerChunk records (the last may be shorter),
 * each prefixed with its record count and byte length so a reader
 * can expand chunks in parallel. @p recordsPerChunk == 0 falls back
 * to FCC1.
 */
std::vector<uint8_t> serializeChunked(const Datasets &datasets,
                                      uint32_t recordsPerChunk,
                                      SizeBreakdown &breakdown);

/**
 * Serialize to the columnar FCC3 wire format: the datasets are
 * decomposed into typed columns (template lengths, concatenated S
 * values, inter-packet times, timestamps, flags, indices, chunk
 * layout), each encoded by the cost-cheapest field codec and then
 * squeezed by @p backend — per column, with an automatic fallback
 * to Store whenever the backend would expand the column. Column
 * encode jobs run on @p pool when given (results are byte-identical
 * with or without it). @p breakdown receives the on-wire
 * (post-backend) bytes per dataset; @p columns, when non-null, the
 * per-column accounting. The chunk layout is taken from
 * datasets.chunkSizes when present, else derived from
 * @p recordsPerChunk (0 keeps the time-seq dataset unchunked, which
 * expands on the legacy sequential path).
 *
 * With a non-null @p index the archive is written *seekable*: the
 * five time-seq columns are framed per chunk (each chunk an
 * independently decodable byte range) and a chunk/flow index block
 * (codec/fcc/index.hpp) is appended after the frames; the layout
 * requires a chunked time-seq dataset unless it is empty.
 */
std::vector<uint8_t>
serializeColumnar(const Datasets &datasets, uint32_t recordsPerChunk,
                  backend::EntropyBackend backend,
                  SizeBreakdown &breakdown,
                  util::ThreadPool *pool = nullptr,
                  std::vector<ColumnStat> *columns = nullptr,
                  const IndexOptions *index = nullptr);

/**
 * Parse the FCC1, FCC2 or FCC3 wire format (auto-detected by magic);
 * FCC2/FCC3 fill Datasets::chunkSizes. FCC3 column decode jobs run
 * on @p pool when given; @p stat, when non-null, receives the
 * container version and on-wire size accounting.
 * @throws fcc::util::Error on malformed input.
 */
Datasets deserialize(std::span<const uint8_t> data,
                     util::ThreadPool *pool,
                     ContainerStat *stat = nullptr);

/** deserialize() without a thread pool. */
Datasets deserialize(std::span<const uint8_t> data);

// ---- FCC3 column frames ---------------------------------------------
//
// The framing shared by the monolithic parser above and the
// random-access reader (src/query), which decodes single chunks
// straight off an mmap'd archive.

/**
 * The fixed column set of the FCC3 container, in canonical order
 * (docs/FORMAT.md §4). The column count is written to the file, so
 * adding a column bumps the format observably instead of silently
 * misparsing. In the indexed layout the five ts_* columns are
 * framed per chunk (chunk_len precedes them on the wire).
 */
enum Fcc3ColumnId : size_t
{
    ColShortLen = 0,   ///< short-template lengths
    ColShortS,         ///< concatenated short-template S values
    ColLongLen,        ///< long-template lengths
    ColLongS,          ///< concatenated long-template S values
    ColLongIpt,        ///< concatenated inter-packet times
    ColAddr,           ///< unique server addresses
    ColTsTime,         ///< per-flow first timestamps (absolute)
    ColTsIsLong,       ///< per-flow S/L identifier
    ColTsTemplate,     ///< per-flow template index
    ColTsRtt,          ///< per-SHORT-flow RTT (one value per short)
    ColTsAddr,         ///< per-flow address index
    ColChunkLen,       ///< records per chunk (empty = unchunked)
    fcc3ColumnCount
};

/** Decoded FCC3 columns, indexed by Fcc3ColumnId. */
using Fcc3Columns =
    std::array<std::vector<uint64_t>, fcc3ColumnCount>;

/**
 * Build the time-seq records of the five ts_* columns (ts_time,
 * ts_is_long, ts_template, ts_rtt, ts_addr: Fcc3ColumnId order),
 * validated against @p d's templates and addresses. The whole-file
 * assembly and the indexed query (one chunk's frames) share it.
 * @throws fcc::util::Error on any inconsistency.
 */
std::vector<TimeSeqRecord> assembleTimeSeqColumns(
    const Datasets &d,
    std::span<const std::vector<uint64_t>, 5> columns);

/**
 * Reassemble and validate Datasets from decoded FCC3 columns (the
 * inverse of the columnar decomposition); @p weights must already
 * be validated decodable. @throws fcc::util::Error on any
 * inconsistency between the columns.
 */
Datasets assembleFcc3Columns(const flow::Weights &weights,
                             Fcc3Columns &columns);

/**
 * Reassemble and validate Datasets from decoded columns of a
 * flow-fidelity archive, whose time-seq column slots are repurposed
 * (FORMAT.md §4.5): ts_islong carries per-flow payload bytes,
 * ts_template per-flow packet counts, ts_rtt per-flow durations (one
 * value per flow); the five template columns must be empty. The
 * returned datasets have fidelity == Fidelity::Flow.
 * @throws fcc::util::Error on any inconsistency.
 */
Datasets assembleFlowColumns(const flow::Weights &weights,
                             Fcc3Columns &columns);

/** The FCC3 header: weights, layout and fidelity profile. */
struct Fcc3Header
{
    flow::Weights weights;
    bool indexed = false;                 ///< indexedLayoutFlag set
    Fidelity fidelity = Fidelity::Exact;
    uint64_t quantumUs = 0;               ///< the quantized tier's grid
};

/**
 * Parse and validate an FCC3 header, magic included, from @p r.
 * @throws fcc::util::Error on a bad magic or weights, a wrong column
 *         count or an unknown fidelity profile.
 */
Fcc3Header readFcc3Header(util::ByteReader &r);

/** One parsed (not yet decoded) FCC3 column frame. */
struct ColumnFrame
{
    field::FieldCodec codec = field::FieldCodec::Plain;
    backend::EntropyBackend backend = backend::EntropyBackend::Store;
    uint64_t values = 0;
    uint64_t encodedBytes = 0;   ///< pre-backend (field-coded) size
    uint64_t storedBytes = 0;    ///< on-wire size incl. framing
    /** Zero-copy view into the source buffer. */
    std::span<const uint8_t> payload;
};

/**
 * Parse one column frame at @p r's cursor (tag validation and
 * corruption caps included; the payload stays a view into the
 * reader's buffer). @throws fcc::util::Error on malformed framing.
 */
ColumnFrame readColumnFrame(util::ByteReader &r);

/**
 * Entropy-decompress and field-decode @p frame back to its values.
 * @throws fcc::util::Error on malformed input.
 */
std::vector<uint64_t> decodeColumnFrame(const ColumnFrame &frame);

} // namespace fcc::codec::fcc

#endif // FCC_CODEC_FCC_DATASETS_HPP
