/**
 * @file
 * The paper's proposed compressor: lossy packet-trace compression by
 * clustering of TCP flow characterization vectors (§3), and the
 * matching decompression algorithm (§4).
 *
 * Compression: assemble bidirectional flows; compute each flow's SF
 * vector; short flows (<= 50 packets) are matched against the
 * short-flows-template cluster store (similarity = L1 distance below
 * 2 % of the maximum inter-flow distance 50 n); long flows are stored
 * verbatim with their exact inter-packet times. Per flow, only a
 * time-seq record (timestamp, S/L identifier, template index, RTT,
 * address index) survives — ~8 bytes — which is what yields the ~3 %
 * ratio of §5.
 *
 * Decompression: for every time-seq record the referenced template is
 * expanded: (f1, f2, f3) are decoded from each S value (the weights
 * form a mixed-radix code), packet direction is re-derived from the
 * dependence chain, sizes from the size class, timing from the RTT
 * (dependent packets) or a small gap (back-to-back packets), server
 * address from the address dataset, client address randomized (class
 * B/C), client port random in [1024, 65000], server port 80 — exactly
 * the paper's §4 procedure.
 */

#ifndef FCC_CODEC_FCC_FCC_CODEC_HPP
#define FCC_CODEC_FCC_FCC_CODEC_HPP

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "codec/compressor.hpp"
#include "codec/fcc/datasets.hpp"
#include "flow/characterize.hpp"
#include "flow/flow_table.hpp"
#include "trace/run_merge.hpp"
#include "util/rng.hpp"

namespace fcc::codec::fcc {

/** Which wire container compress() writes (decompression always
 *  auto-detects all three by magic). */
enum class ContainerFormat : uint8_t
{
    Fcc1 = 1,  ///< legacy single-stream
    Fcc2 = 2,  ///< chunked time-seq (default; the paper's layout)
    Fcc3 = 3,  ///< columnar, per-column field codecs + backends
};

/** "fcc1" / "fcc2" / "fcc3". */
const char *containerFormatName(ContainerFormat container);

/** Parse a name accepted by containerFormatName(). @throws Error */
ContainerFormat parseContainerName(const std::string &name);

/** Tunables of the proposed method (paper defaults). */
struct FccConfig
{
    flow::Weights weights;        ///< {16, 4, 1}
    flow::SimilarityRule rule;    ///< d_sim = n * 50 * 2 %
    uint32_t shortLimit = 50;     ///< short/long split (packets)
    flow::FlowTableConfig flowTable;

    /**
     * Worker threads of the sharded pipeline; 0 means
     * hardware_concurrency, 1 runs everything on the calling thread.
     * Output is byte-identical for every value: the shard count
     * (flowTable.shards) and the chunk size (chunkRecords) fix the
     * work decomposition, threads only decide how much of it runs
     * concurrently.
     */
    uint32_t threads = 0;

    /**
     * Time-seq records per FCC2/FCC3 chunk. Chunks are the unit of
     * parallel decompression (each owns an RNG stream); 0 leaves the
     * time-seq dataset unchunked — under FCC2 that degrades to the
     * legacy FCC1 container, under FCC3 the records expand on the
     * sequential single-RNG path.
     */
    uint32_t chunkRecords = 4096;

    /**
     * Wire container compress() writes. The library default stays
     * FCC2 so the §5 accounting benches keep measuring the paper's
     * layout; fcctool defaults to FCC3 (see --container).
     */
    ContainerFormat container = ContainerFormat::Fcc2;

    /**
     * Entropy backend of the FCC3 columnar container, applied per
     * column after the field codec (with automatic per-column Store
     * fallback when it does not pay). Ignored by FCC1/FCC2, which
     * only know whole-blob hybrid deflate (deflateDatasets).
     * validate() rejects the decode-only range tags.
     */
    backend::EntropyBackend backend =
        backend::EntropyBackend::Deflate;

    /**
     * Write a *seekable* archive: FCC3 with chunk-framed time-seq
     * columns and the chunk/flow index block (codec/fcc/index.hpp)
     * the random-access query subsystem (src/query) plans against.
     * Requires container == Fcc3 and a chunked layout
     * (chunkRecords > 0); costs a few percent of file size.
     * Decompression auto-detects it either way.
     */
    bool index = false;

    /**
     * Address assignment on decompression. The paper (§4) writes the
     * stored destination address and the random source on *every*
     * packet of a flow; with directionAwareAddresses the recovered
     * direction chain instead swaps source/destination for
     * server-to-client packets (an extension; more TCP-realistic but
     * not what the paper's decompressor does).
     */
    bool directionAwareAddresses = false;

    /**
     * Hybrid mode (extension, FCC1/FCC2 only): run the serialized
     * datasets through the built-in zlib/deflate as one blob. The
     * template datasets are highly repetitive, so this roughly
     * halves the compressed size again; decompress() auto-detects
     * the wrapper. FCC3 ignores it — its per-column backends
     * supersede the whole-blob squeeze.
     */
    bool deflateDatasets = false;

    /**
     * Fidelity tier of the written archive (docs/FIDELITY.md). The
     * default, Exact, reproduces the paper's lossless-within-model
     * pipeline byte for byte; the lossy tiers (Quantized, Header,
     * Flow) degrade the datasets just before columnar serialization
     * and therefore require container == Fcc3, whose header carries
     * the tier tag. Decompression auto-detects the tier.
     */
    Fidelity fidelity = Fidelity::Exact;

    /**
     * Timestamp grid of the Quantized tier, in microseconds (flow
     * first-timestamps are floored onto multiples of it). Ignored by
     * the other tiers; must be >= 1 when fidelity == Quantized.
     */
    uint64_t quantumUs = 1000;

    // Decompression reconstruction parameters.
    uint32_t defaultGapUs = 300;   ///< spacing of non-dependent pkts
    uint16_t smallPayload = 400;   ///< representative size, class 1
    uint16_t largePayload = 1460;  ///< representative size, class 2
    uint16_t serverPort = 80;      ///< paper: Web traffic
    uint64_t decompressSeed = 0x5eedf10e;  ///< address randomization

    /**
     * The single validation entry point: every constraint between
     * the knobs above (container/backend tags in range, the index
     * needs the chunked fcc3 layout, decodable weights, a non-empty
     * shard partition) checked in one place. Sessions validate on
     * open, the tools validate right after flag parsing, and the
     * query catalog validates what it plans with — all through this
     * method, so a bad combination fails the same way everywhere.
     *
     * @throws fcc::util::Error naming the offending combination.
     */
    void validate() const;
};

/** Compression-side statistics (cluster behaviour, §2.1/§3). */
struct FccCompressStats
{
    uint64_t flows = 0;
    uint64_t shortFlows = 0;
    uint64_t longFlows = 0;
    uint64_t shortTemplatesCreated = 0;  ///< clusters
    uint64_t shortTemplateHits = 0;      ///< flows matched to one
    SizeBreakdown sizes;

    double
    hitRate() const
    {
        return shortFlows ? static_cast<double>(shortTemplateHits) /
                                static_cast<double>(shortFlows)
                          : 0.0;
    }
};

/** The proposed flow-clustering trace compressor. */
class FccTraceCompressor : public TraceCompressor
{
  public:
    explicit FccTraceCompressor(const FccConfig &cfg = {});

    std::string name() const override { return "fcc"; }
    bool lossless() const override { return false; }

    std::vector<uint8_t>
    compress(const trace::Trace &trace) const override;

    trace::Trace
    decompress(std::span<const uint8_t> data) const override;

    /** compress() and additionally report cluster statistics. */
    std::vector<uint8_t>
    compressWithStats(const trace::Trace &trace,
                      FccCompressStats &stats) const;

    /** Build the in-memory datasets without serializing. */
    Datasets
    buildDatasets(const trace::Trace &trace,
                  FccCompressStats &stats) const;

    /**
     * Expand in-memory datasets into a reconstructed trace: the
     * expandInOrder() packets, collected.
     */
    trace::Trace expand(const Datasets &datasets) const;

    /**
     * The paper's §4 flush. Expand every record and hand the packets
     * to @p emit in canonical order (packetCanonicalLess), a batch
     * at a time. Chunked datasets (FCC2/FCC3) expand 2 x threads
     * chunks per batch on cfg.threads workers, each chunk drawing
     * from its own RNG stream seeded from (decompressSeed, chunk
     * index); unchunked datasets (FCC1, or FCC3 with chunkRecords ==
     * 0) replay the legacy single sequential stream, 4096 records
     * per batch. Each flow's packets are one run of a
     * trace::RunMerge. The merge takes a batch's chunks one at a
     * time and emits everything older than the next chunk's (or
     * batch's) first record, so memory holds one batch plus the open
     * flows' pending packets. The packets depend only on the chunk
     * layout — never on the container, the thread count or the
     * batching.
     */
    void expandInOrder(
        const Datasets &datasets,
        const std::function<void(std::span<const trace::PacketRecord>)>
            &emit) const;

    /**
     * Expand one time-seq record into its flow's packets, appended
     * to @p out in flow order (not globally time-sorted, and not
     * always canonically sorted within the flow: equal timestamps
     * tie-break on header fields). @p rng supplies the §4 random
     * source address / client port; every decode path shares this
     * so all produce the same packets for the same seed.
     *
     * @return the flow's run: where it ends in @p out, and its
     *         floor, the record's first timestamp.
     */
    trace::RunBound
    expandFlow(const Datasets &datasets, const TimeSeqRecord &record,
               util::Rng &rng,
               std::vector<trace::PacketRecord> &out) const;

    /**
     * Expand every record of chunk @p chunk (index into
     * Datasets::chunkSizes) into @p out, drawing from the chunk's
     * own RNG stream, and append each flow's run to @p runs when
     * non-null. Chunks may be expanded in any order or
     * concurrently.
     */
    void expandChunk(const Datasets &datasets, size_t chunk,
                     std::vector<trace::PacketRecord> &out,
                     std::vector<trace::RunBound> *runs = nullptr) const;

    const FccConfig &config() const { return cfg_; }

  private:
    FccConfig cfg_;
};

/**
 * Serialize @p datasets into the container cfg.container selects,
 * honouring cfg.chunkRecords, cfg.backend, cfg.threads (FCC3
 * column jobs run on a pool when threads allow; output is
 * byte-identical at any thread count) and cfg.deflateDatasets (the
 * whole-blob zlib wrapper of the row containers — FCC3 skips it,
 * its per-column backends supersede the blob squeeze). Both the
 * in-memory and the streaming compressor write through this one
 * entry point. @p breakdown reports the serialized (pre-wrapper)
 * sizes; @p columns, when non-null, receives the FCC3 per-column
 * accounting (cleared for FCC1/FCC2).
 */
std::vector<uint8_t>
serializeDatasets(const Datasets &datasets, const FccConfig &cfg,
                  SizeBreakdown &breakdown,
                  std::vector<ColumnStat> *columns = nullptr);

/**
 * Decode any FCC artifact: unwraps the optional whole-blob zlib
 * hybrid wrapper, auto-detects the container by magic, and runs
 * FCC3 column decode jobs on up to @p threads workers (0 = all
 * cores; the row formats parse sequentially either way). The
 * in-memory decompressor, the streaming decompressor and fcctool
 * all decode through this one entry point.
 */
Datasets deserializeAuto(std::span<const uint8_t> data,
                         uint32_t threads,
                         ContainerStat *stat = nullptr);

/**
 * RNG stream seed of chunk @p chunk under @p decompressSeed — part
 * of the reconstruction contract: expand(), the streaming
 * decompressor and the random-access reader (src/query) must draw a
 * chunk's packets from the same stream to reconstruct the same
 * bytes, whichever subset of chunks they expand.
 */
uint64_t chunkRngSeed(uint64_t decompressSeed, size_t chunk);

} // namespace fcc::codec::fcc

#endif // FCC_CODEC_FCC_FCC_CODEC_HPP
