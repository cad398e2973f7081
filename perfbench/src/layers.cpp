/**
 * @file
 * The traced run. Each pass runs the four user-visible operations
 * (compress, decompress, ingest, query) with spans around every call
 * into a layer's public functions, at 1 and at min(nproc, 4)
 * threads. Layers whose work happens inside one library call
 * (flow, field, backend inside CompressSession) are timed by probes:
 * the same public functions called directly on the same data. The
 * end-to-end metrics never come from here; this run's own untraced
 * operations, one set per pass, only yield the tracing overhead and
 * the _mt throughputs.
 */

#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <stdexcept>

#include "archive/catalog_file.hpp"
#include "archive/writer.hpp"
#include "codec/backend/backend.hpp"
#include "codec/fcc/session.hpp"
#include "codec/fcc/stream.hpp"
#include "codec/field/field_codec.hpp"
#include "flow/characterize.hpp"
#include "flow/flow_table.hpp"
#include "flow/template_store.hpp"
#include "query/expr.hpp"
#include "reference.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace fccc = fcc::codec::fcc;
using fcc::trace::PacketRecord;

namespace {

const fcc::trace::TraceFormatSpec &
tshSpec()
{
    static const fcc::trace::TraceFormatSpec spec =
        fcc::trace::parseTraceFormatSpec("tsh");
    return spec;
}

/** Every read() of the wrapped source is a trace.read span. */
class TracedSource final : public fcc::trace::TraceSource
{
  public:
    TracedSource(std::unique_ptr<fcc::trace::TraceSource> inner,
                 Tracer &tracer)
        : inner_(std::move(inner)), tracer_(tracer)
    {}

    size_t
    read(std::span<PacketRecord> batch) override
    {
        size_t id = tracer_.open("trace.read", "trace");
        size_t n = inner_->read(batch);
        tracer_.close(id, n);
        ns += tracer_.at(id).durationNs();
        return n;
    }

    uint64_t
    bytesConsumed() const override
    {
        return inner_->bytesConsumed();
    }

    uint64_t ns = 0;  ///< time spent in read()

  private:
    std::unique_ptr<fcc::trace::TraceSource> inner_;
    Tracer &tracer_;
};

/** Every write() and close() of the wrapped sink is a trace span. */
class TracedSink final : public fcc::trace::TraceSink
{
  public:
    TracedSink(std::unique_ptr<fcc::trace::TraceSink> inner,
               Tracer &tracer)
        : inner_(std::move(inner)), tracer_(tracer)
    {}

    void
    write(std::span<const PacketRecord> batch) override
    {
        size_t id = tracer_.open("trace.write", "trace");
        inner_->write(batch);
        tracer_.close(id, batch.size());
        ns += tracer_.at(id).durationNs();
    }

    void
    close() override
    {
        size_t id = tracer_.open("trace.write", "trace");
        inner_->close();
        tracer_.close(id);
        ns += tracer_.at(id).durationNs();
    }

    uint64_t
    bytesWritten() const override
    {
        return inner_->bytesWritten();
    }

    uint64_t ns = 0;  ///< time spent in write() and close()

  private:
    std::unique_ptr<fcc::trace::TraceSink> inner_;
    Tracer &tracer_;
};

/** Per-pass samples, reduced to medians at the end of the run. */
class Samples
{
  public:
    void add(const std::string &name, double v) { s_[name].push_back(v); }

    double
    median(const std::string &name) const
    {
        auto it = s_.find(name);
        return it == s_.end() ? 0.0 : perfbench::median(it->second);
    }

  private:
    std::map<std::string, std::vector<double>> s_;
};

/** The FCC3 columns of exact-tier datasets (docs/FORMAT.md §4). */
fccc::Fcc3Columns
decompose(const fccc::Datasets &d)
{
    fccc::Fcc3Columns c;
    for (const fcc::flow::SfVector &t : d.shortTemplates) {
        c[fccc::ColShortLen].push_back(t.size());
        c[fccc::ColShortS].insert(c[fccc::ColShortS].end(),
                                  t.values.begin(), t.values.end());
    }
    for (const fccc::LongTemplate &t : d.longTemplates) {
        c[fccc::ColLongLen].push_back(t.sValues.size());
        c[fccc::ColLongS].insert(c[fccc::ColLongS].end(),
                                 t.sValues.begin(), t.sValues.end());
        c[fccc::ColLongIpt].insert(c[fccc::ColLongIpt].end(),
                                   t.iptUs.begin(), t.iptUs.end());
    }
    c[fccc::ColAddr].assign(d.addresses.begin(), d.addresses.end());
    for (const fccc::TimeSeqRecord &r : d.timeSeq) {
        c[fccc::ColTsTime].push_back(r.firstTimestampUs);
        c[fccc::ColTsIsLong].push_back(r.isLong ? 1 : 0);
        c[fccc::ColTsTemplate].push_back(r.templateIndex);
        if (!r.isLong)
            c[fccc::ColTsRtt].push_back(r.rttUs);
        c[fccc::ColTsAddr].push_back(r.addressIndex);
    }
    c[fccc::ColChunkLen].assign(d.chunkSizes.begin(), d.chunkSizes.end());
    return c;
}

class LayerRun
{
  public:
    LayerRun(const RunConfig &run, const Inputs &in, const Reference &ref,
             Outcome &outcome)
        : run_(run), in_(in), ref_(ref), outcome_(outcome)
    {}

    void untraced(uint32_t threads);
    void pass(bool mt);
    void probes();
    void report(Metrics &m) const;
    const Tracer &tracer() const { return tracer_; }

  private:
    void compressOp(uint32_t threads);
    void decompressOp(uint32_t threads);
    void ingestOp(uint32_t threads);
    void commitProbe();
    void queryOp(uint32_t threads);
    void layerShares();

    std::string
    path(const char *name) const
    {
        return run_.dir + "/" + name;
    }

    /** Metric name in the current pass: bare at one thread, ".tN"
     *  at min(nproc, 4). */
    std::string
    at(const std::string &name) const
    {
        return mt_ ? name + ".tN" : name;
    }

    double
    perPkt(uint64_t ns) const
    {
        return static_cast<double>(ns) / static_cast<double>(in_.packets);
    }

    const RunConfig &run_;
    const Inputs &in_;
    const Reference &ref_;
    Outcome &outcome_;
    Tracer tracer_;
    Samples s_;
    /** Running self-time totals of earlier passes, per thread count. */
    std::map<bool, std::map<std::string, uint64_t>> prevSelf_;
    std::map<bool, uint64_t> prevRoot_;
    bool mt_ = false;  ///< the current pass runs at min(nproc, 4)
};

/**
 * Untraced compress, decompress and ingest at the current pass's
 * thread count: the tracing-overhead base and the _mt throughputs.
 * Each pass runs them right before its traced operations, so both
 * sample the same stretch of the box's load.
 */
void
LayerRun::untraced(uint32_t threads)
{
    const double packets = static_cast<double>(in_.packets);
    CodecRun c = compressOnce(in_, path("base.fcc"), threads);
    outcome_.check(hashFile(path("base.fcc")) == ref_.archiveHash &&
                       c.flows == in_.flows,
                   "untraced compress output");
    CodecRun d = decompressOnce(path("base.fcc"), path("base.tsh"),
                                threads);
    outcome_.check(hashFile(path("base.tsh")) == ref_.decodedHash &&
                       d.packets == in_.packets,
                   "untraced decompress output");
    fs::remove(path("base.fcc"));
    fs::remove(path("base.tsh"));
    s_.add(at("base.compress_s"), c.seconds);
    s_.add(at("base.decompress_s"), d.seconds);
    if (mt_) {
        s_.add("compress_pkts_per_s_mt", packets / c.seconds);
        s_.add("decompress_pkts_per_s_mt", packets / d.seconds);
    }
    Clock::time_point t0 = Clock::now();
    std::vector<fcc::archive::CatalogEntry> sealed =
        ingest(in_, profileFor(run_.workload), path("base-ingest"), threads)
            .sealed;
    s_.add(at("base.ingest_s"), secondsSince(t0));
    outcome_.check(sealed == ref_.sealed, "untraced ingest archives");
    fs::remove_all(path("base-ingest"));
}

void
LayerRun::compressOp(uint32_t threads)
{
    Tracer &t = tracer_;
    size_t root = t.open("compress", "op");
    TracedSource src(fcc::trace::openTraceSource(in_.tsh, tshSpec()), t);
    fccc::CompressSession session(codecConfig(threads));
    std::vector<PacketRecord> batch(4096);
    uint64_t feedNs = 0;
    for (size_t n; (n = src.read(batch)) > 0;) {
        size_t id = t.open("fcc.feed", "fcc");
        session.feed(std::span<const PacketRecord>(batch.data(), n));
        t.close(id, n);
        feedNs += t.at(id).durationNs();
    }
    size_t seal = t.open("fcc.seal", "fcc");
    fccc::SealInfo info = session.sealToFile(path("traced.fcc"));
    t.close(seal, info.records);
    t.close(root, in_.packets);
    outcome_.check(info.records == in_.flows &&
                       hashFile(path("traced.fcc")) == ref_.archiveHash,
                   "traced compress output differs from "
                   "compressTraceFile()");
    s_.add(at("trace.read_ns_per_pkt"), perPkt(src.ns));
    s_.add(at("fcc.feed_ns_per_pkt"), perPkt(feedNs));
    s_.add(at("fcc.seal_ms"),
           static_cast<double>(t.at(seal).durationNs()) / 1e6);
    s_.add(at("traced.compress_s"),
           static_cast<double>(t.at(root).durationNs()) / 1e9);
}

void
LayerRun::decompressOp(uint32_t threads)
{
    Tracer &t = tracer_;
    size_t root = t.open("decompress", "op");
    fccc::DecompressSession session(codecConfig(threads));
    size_t open = t.open("fcc.open", "fcc");
    session.open(path("traced.fcc"));
    t.close(open);
    TracedSink sink(
        fcc::trace::openTraceSink(path("traced.tsh"), tshSpec()), t);
    size_t drain = t.open("fcc.drain", "fcc");
    fccc::StreamStats st = session.drainTo(sink);
    t.close(drain, st.packets);
    t.close(root, st.packets);
    outcome_.check(st.packets == in_.packets &&
                       hashFile(path("traced.tsh")) == ref_.decodedHash,
                   "traced decompress output differs from "
                   "decompressTraceFile()");
    // The decode stages, to see which one stops scaling with threads.
    s_.add(at("trace.write_ns_per_pkt"), perPkt(sink.ns));
    s_.add(at("decode.open_ms"),
           static_cast<double>(t.at(open).durationNs()) / 1e6);
    s_.add(at("decode.drain_self_ms"),
           static_cast<double>(t.at(drain).durationNs() - sink.ns) / 1e6);
    s_.add(at("decode.write_ms"),
           static_cast<double>(sink.ns) / 1e6);
    s_.add(at("traced.decompress_s"),
           static_cast<double>(t.at(root).durationNs()) / 1e9);
}

/** One Daemon::run at @p threads, as fccd runs it. */
void
LayerRun::ingestOp(uint32_t threads)
{
    Tracer &t = tracer_;
    const std::string dir = path("traced-ingest");
    size_t root = t.open("ingest", "op");
    fcc::archive::DaemonReport rep = t.span("archive.daemon", "archive", [&] {
        return ingest(in_, profileFor(run_.workload), dir, threads);
    });
    t.close(root, in_.packets);
    outcome_.check(rep.sealed == ref_.sealed,
                   "traced ingest archives differ from the served ones");
    fs::remove_all(dir);
    s_.add("archive.archives_sealed", static_cast<double>(rep.sealed.size()));
    s_.add(at("traced.ingest_s"),
           static_cast<double>(t.at(root).durationNs()) / 1e9);
}

/**
 * ArchiveWriter::commit of the served archives' bytes into a fresh
 * directory, one call per sealed epoch, then recoverCatalog() on it
 * as a restarted daemon finds it. A probe: these spans stay out of
 * the operations' layer shares.
 */
void
LayerRun::commitProbe()
{
    Tracer &t = tracer_;
    const std::string dir = path("commit-probe");
    fs::remove_all(dir);
    fs::create_directories(dir);
    size_t probe = t.open("archive-probe", "probe");
    std::vector<double> commitMs;
    std::vector<fcc::archive::CatalogEntry> committed;
    {
        fcc::archive::ArchiveWriter writer(dir, "archive");
        for (const fcc::archive::CatalogEntry &entry : ref_.sealed) {
            std::vector<uint8_t> bytes =
                readFileBytes(servedDir(run_.dir) + "/" + entry.name);
            fccc::SealInfo info;
            info.records = entry.records;
            info.packets = entry.packets;
            info.bytes = entry.bytes;
            info.minFirstUs = entry.minFirstUs;
            info.maxLastUs = entry.maxLastUs;
            size_t id = t.open("archive.commit", "archive");
            committed.push_back(writer.commit(bytes, info));
            t.close(id, bytes.size());
            commitMs.push_back(
                static_cast<double>(t.at(id).durationNs()) / 1e6);
        }
    }
    size_t id = t.open("archive.recover", "archive");
    std::vector<fcc::archive::CatalogEntry> recovered =
        fcc::archive::recoverCatalog(dir);
    t.close(id, recovered.size());
    t.close(probe);
    outcome_.check(committed == ref_.sealed && recovered == ref_.sealed,
                   "ArchiveWriter::commit() or recoverCatalog() "
                   "changed the served archives' entries");
    fs::remove_all(dir);

    s_.add(at("archive.commit_ms_p50"), quantile(commitMs, 0.5));
    s_.add(at("archive.commit_ms_p90"), quantile(commitMs, 0.9));
    s_.add(at("archive.recover_ms"),
           static_cast<double>(t.at(id).durationNs()) / 1e6);
}

/**
 * Each distinct request of the mix once: plan every archive, run it
 * locally into a NullTraceSink (or aggregate), then ask the server
 * the same thing over one connection.
 */
void
LayerRun::queryOp(uint32_t threads)
{
    Tracer &t = tracer_;
    size_t root = t.open("query", "op");
    fcc::query::ArchiveCatalog catalog =
        t.span("query.open", "query", [&] {
            return fcc::query::ArchiveCatalog::fromCatalogFile(
                servedDir(run_.dir), codecConfig(threads));
        });
    ServerHandle server(catalog, path("q.sock"), 2);
    fcc::query::QueryClient client(server.endpoint());

    fcc::query::CatalogQueryStats sum;
    std::vector<double> plan, local, aggregate, overhead;
    std::vector<Answer> answers;
    auto spanMs = [&](size_t id) {
        return static_cast<double>(t.at(id).durationNs()) / 1e6;
    };
    for (const Request &r : ref_.requests) {
        double localMs = 0;
        if (r.kind == Request::Kind::TopTalkers) {
            size_t id = t.open("query.aggregate", "query");
            bool ok = aggregateMatches(catalog, r);
            t.close(id);
            localMs = spanMs(id);
            aggregate.push_back(localMs);
            outcome_.check(ok, "local aggregate " + r.expr);
        } else if (r.kind != Request::Kind::List) {
            fcc::query::Expr e = fcc::query::parseExpr(r.expr);
            for (size_t a = 0; a < catalog.size(); ++a) {
                size_t id = t.open("query.plan", "query");
                size_t chunks = catalog.archive(a).plan(e).size();
                t.close(id, chunks);
                plan.push_back(spanMs(id) * 1e3);
            }
            fcc::query::NullTraceSink sink;
            size_t id = t.open("query.run", "query");
            fcc::query::CatalogQueryStats st = catalog.run(e, sink);
            t.close(id, sink.packets());
            localMs = spanMs(id);
            local.push_back(localMs);
            outcome_.check(sink.packets() == r.packets &&
                               st.flowsMatched == r.flows,
                           "local query " + r.expr);
            sum.archives += st.archives;
            sum.archivesPruned += st.archivesPruned;
            sum.chunksTotal += st.chunksTotal;
            sum.chunksDecoded += st.chunksDecoded;
            sum.fileBytes += st.fileBytes;
            sum.bytesRead += st.bytesRead;
        }
        size_t id = t.open("query.rtt", "query");
        answers.push_back(fetch(client, r));
        t.close(id);
        if (r.kind != Request::Kind::List)
            overhead.push_back(spanMs(id) - localMs);
    }
    t.close(root);
    // Checked once the clock has stopped, so the spans hold no check.
    for (size_t i = 0; i < answers.size(); ++i)
        outcome_.check(matches(ref_.requests[i], answers[i], catalog.size()),
                       "fccserve answer to " + ref_.requests[i].expr);

    s_.add(at("query.plan_us"), median(plan));
    s_.add(at("query.local_ms_p50"), median(local));
    s_.add(at("query.aggregate_ms_p50"), median(aggregate));
    s_.add(at("query.server_overhead_ms_p50"), median(overhead));
    auto ratio = [](uint64_t a, uint64_t b) {
        return b == 0 ? 0.0
                      : static_cast<double>(a) / static_cast<double>(b);
    };
    s_.add("query.chunks_decoded_ratio",
           ratio(sum.chunksDecoded, sum.chunksTotal));
    s_.add("query.bytes_read_ratio", ratio(sum.bytesRead, sum.fileBytes));
    s_.add("query.archives_pruned_ratio",
           ratio(sum.archivesPruned, sum.archives));
}

/** Each layer's self time in this pass and its share of the pass. */
void
LayerRun::layerShares()
{
    std::map<std::string, uint64_t> self = tracer_.selfNsByLayer(mt_);
    uint64_t root = tracer_.rootNs(mt_);
    uint64_t whole = root - prevRoot_[mt_];
    for (const char *layer : {"trace", "fcc", "archive", "query", "op"}) {
        uint64_t ns = self[layer] - prevSelf_[mt_][layer];
        // The operations' own time: opening files, sessions, sockets.
        std::string name = std::string(layer) == "op" ? "other" : layer;
        s_.add(at(name + ".self_ns_per_pkt"), perPkt(ns));
        s_.add(at(name + ".share"),
               whole == 0 ? 0.0
                          : static_cast<double>(ns) /
                                static_cast<double>(whole));
    }
    prevSelf_[mt_] = self;
    prevRoot_[mt_] = root;
}

void
LayerRun::pass(bool mt)
{
    mt_ = mt;
    uint32_t threads = mt ? run_.threadsMt : 1;
    untraced(threads);
    tracer_.setPass(threads, mt);
    compressOp(threads);
    decompressOp(threads);
    ingestOp(threads);
    queryOp(threads);
    layerShares();
    commitProbe();
}

/**
 * Direct calls into flow, fcc, field, backend and the pool on the
 * workload's trace, at one thread (and, for the pool's speed-ups,
 * at min(nproc, 4)). Their spans hang under a "probe" root, which
 * the per-layer shares of the operations leave out.
 */
void
LayerRun::probes()
{
    Tracer &t = tracer_;
    mt_ = false;
    t.setPass(1, false);
    const double packets = static_cast<double>(in_.packets);
    fccc::FccConfig cfg1 = codecConfig(1);
    fccc::FccConfig cfgN = codecConfig(run_.threadsMt);
    std::unique_ptr<fcc::trace::TraceSource> src =
        fcc::trace::openTraceSource(in_.tsh, tshSpec());
    fcc::trace::Trace trace = fcc::trace::readAllPackets(*src);
    auto seconds = [&](size_t id) {
        return static_cast<double>(t.at(id).durationNs()) / 1e9;
    };

    size_t probe = t.open("probe", "probe");

    // ---- flow -----------------------------------------------------
    size_t id = t.open("flow.assemble", "flow");
    std::vector<fcc::flow::AssembledFlow> flows =
        fcc::flow::FlowTable(cfg1.flowTable).assemble(trace);
    t.close(id, trace.size());
    double assembleS = seconds(id);
    outcome_.check(flows.size() == in_.flows,
                   "FlowTable::assemble() flow count " +
                       std::to_string(flows.size()) + " vs generator " +
                       std::to_string(in_.flows));

    fcc::flow::Characterizer chi(cfg1.weights);
    std::vector<fcc::flow::SfVector> sfs;
    sfs.reserve(flows.size());
    id = t.open("flow.characterize", "flow");
    for (const fcc::flow::AssembledFlow &f : flows)
        sfs.push_back(chi.characterize(f, trace));
    t.close(id, flows.size());
    double characterizeS = seconds(id);

    fcc::flow::TemplateStore store(cfg1.rule);
    uint64_t shorts = 0;
    uint64_t hits = 0;
    id = t.open("flow.template_match", "flow");
    for (const fcc::flow::SfVector &sf : sfs) {
        if (sf.size() > cfg1.shortLimit)
            continue;
        ++shorts;
        hits += store.findOrInsert(sf).isNew ? 0 : 1;
    }
    t.close(id, shorts);
    double matchS = seconds(id);
    const double nFlows =
        static_cast<double>(std::max<size_t>(flows.size(), 1));
    s_.add("flow.assemble_ns_per_pkt", assembleS * 1e9 / packets);
    s_.add("flow.characterize_ns_per_flow", characterizeS * 1e9 / nFlows);
    s_.add("flow.template_match_ns_per_flow",
           matchS * 1e9 /
               static_cast<double>(std::max<uint64_t>(shorts, 1)));
    s_.add("flow.templates", static_cast<double>(store.size()));
    s_.add("flow.template_hit_ratio",
           shorts == 0 ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(shorts));

    // ---- fcc: build, serialize, deserialize, expand ---------------
    fccc::FccCompressStats stats;
    id = t.open("fcc.build", "fcc");
    fccc::Datasets ds =
        fccc::FccTraceCompressor(cfg1).buildDatasets(trace, stats);
    t.close(id, trace.size());
    double build1 = seconds(id);
    Clock::time_point t0 = Clock::now();
    fccc::Datasets dsN =
        fccc::FccTraceCompressor(cfgN).buildDatasets(trace, stats);
    s_.add("pool.build_datasets_speedup", build1 / secondsSince(t0));

    fccc::SizeBreakdown sizes;
    std::vector<fccc::ColumnStat> columns;
    id = t.open("fcc.serialize", "fcc");
    std::vector<uint8_t> bytes =
        fccc::serializeDatasets(ds, cfg1, sizes, &columns);
    t.close(id, bytes.size());
    s_.add("fcc.serialize_ns_per_pkt", seconds(id) * 1e9 / packets);
    fccc::SizeBreakdown sizesN;
    outcome_.check(fccc::serializeDatasets(dsN, cfgN, sizesN) == bytes,
                   "buildDatasets() + serializeDatasets() bytes differ "
                   "between 1 and " +
                       std::to_string(run_.threadsMt) + " threads");
    s_.add("fcc.time_seq_bytes_per_flow",
           static_cast<double>(sizes.timeSeqBytes) /
               static_cast<double>(std::max<size_t>(ds.timeSeq.size(), 1)));
    for (const fccc::ColumnStat &c : columns)
        if (c.name == "ts_time" || c.name == "ts_addr" ||
            c.name == "addr" || c.name == "short_s")
            s_.add("field.bytes_per_value." + c.name,
                   static_cast<double>(c.encodedBytes) /
                       static_cast<double>(
                           std::max<uint64_t>(c.values, 1)));

    id = t.open("fcc.deserialize", "fcc");
    fccc::Datasets back = fccc::deserializeAuto(bytes, 1);
    t.close(id, bytes.size());
    s_.add("fcc.deserialize_ns_per_pkt", seconds(id) * 1e9 / packets);
    uint64_t chunked = 0;
    for (uint32_t c : back.chunkSizes)
        chunked += c;
    outcome_.check(back.timeSeq == ds.timeSeq &&
                       back.addresses == ds.addresses &&
                       chunked == ds.timeSeq.size(),
                   "deserializeAuto() does not invert "
                   "serializeDatasets()");

    fccc::FccTraceCompressor expander(cfg1);
    std::vector<PacketRecord> out;
    uint64_t expanded = 0;
    id = t.open("fcc.expand", "fcc");
    for (size_t c = 0; c < back.chunkSizes.size(); ++c) {
        out.clear();
        expander.expandChunk(back, c, out);
        expanded += out.size();
    }
    t.close(id, expanded);
    s_.add("fcc.expand_ns_per_pkt", seconds(id) * 1e9 / packets);
    outcome_.check(expanded == in_.packets, "expandChunk() packet count");
    t0 = Clock::now();
    size_t e1 = expander.expand(back).size();
    double expand1 = secondsSince(t0);
    t0 = Clock::now();
    size_t eN = fccc::FccTraceCompressor(cfgN).expand(back).size();
    s_.add("pool.expand_speedup", expand1 / secondsSince(t0));
    outcome_.check(e1 == in_.packets && eN == in_.packets,
                   "expand() packet count");
    s_.add("pool.effective_cores", spinProbe(run_.threadsMt));

    // ---- field and backend over the twelve columns ----------------
    uint64_t values = 0, rawBytes = 0, keptBytes = 0;
    uint64_t attempted = 0, fallbacks = 0;
    uint64_t encNs = 0, decNs = 0, bEncNs = 0, bDecNs = 0;
    for (const std::vector<uint64_t> &col : decompose(ds)) {
        if (col.empty())
            continue;
        values += col.size();
        id = t.open("field.encode", "field");
        fcc::codec::field::FieldCodec codec =
            fcc::codec::field::chooseCodec(col);
        std::vector<uint8_t> enc =
            fcc::codec::field::encodeColumn(col, codec);
        t.close(id, col.size());
        encNs += t.at(id).durationNs();
        id = t.open("field.decode", "field");
        std::vector<uint64_t> dec =
            fcc::codec::field::decodeColumn(enc, codec, col.size());
        t.close(id, col.size());
        decNs += t.at(id).durationNs();
        outcome_.check(dec == col, "decodeColumn() round trip");

        id = t.open("backend.encode", "backend");
        std::vector<uint8_t> squeezed =
            fcc::codec::backend::entropyCompress(enc, cfg1.backend);
        t.close(id, enc.size());
        bEncNs += t.at(id).durationNs();
        id = t.open("backend.decode", "backend");
        std::vector<uint8_t> raw = fcc::codec::backend::entropyDecompress(
            squeezed, cfg1.backend, enc.size());
        t.close(id, enc.size());
        bDecNs += t.at(id).durationNs();
        outcome_.check(raw == enc, "entropyDecompress() round trip");

        // The container stores a column raw when the backend does not
        // shrink it.
        ++attempted;
        rawBytes += enc.size();
        bool fallback = squeezed.size() >= enc.size();
        fallbacks += fallback ? 1 : 0;
        keptBytes += fallback ? enc.size() : squeezed.size();
    }
    t.close(probe);

    const double nValues =
        static_cast<double>(std::max<uint64_t>(values, 1));
    // bytes per ns = GB/s; x 1e3 = MB/s
    const double rawMb = static_cast<double>(rawBytes) / 1e6;
    s_.add("field.encode_ns_per_value",
           static_cast<double>(encNs) / nValues);
    s_.add("field.decode_ns_per_value",
           static_cast<double>(decNs) / nValues);
    s_.add("backend.encode_MBps",
           rawMb / (static_cast<double>(bEncNs) / 1e9));
    s_.add("backend.decode_MBps",
           rawMb / (static_cast<double>(bDecNs) / 1e9));
    s_.add("backend.out_in_ratio",
           static_cast<double>(keptBytes) /
               static_cast<double>(std::max<uint64_t>(rawBytes, 1)));
    s_.add("backend.store_fallback_share",
           static_cast<double>(fallbacks) /
               static_cast<double>(std::max<uint64_t>(attempted, 1)));

    // Shares of a traced one-thread compress: CompressSession does
    // this work inside feed() and seal(), where no span can reach.
    double compressS = s_.median("traced.compress_s");
    s_.add("flow.share_of_compress",
           (characterizeS + matchS) / compressS);
    s_.add("field.share_of_compress",
           static_cast<double>(encNs) / 1e9 / compressS);
    s_.add("backend.share_of_compress",
           static_cast<double>(bEncNs) / 1e9 / compressS);
}

void
LayerRun::report(Metrics &m) const
{
    auto add = [&](const std::string &name, const char *unit) {
        m.add(name, s_.median(name), unit);
    };
    // Metrics measured in the passes, at 1 thread and (".tN") at
    // min(nproc, 4).
    for (bool mt : {false, true}) {
        auto at = [mt](const std::string &name) {
            return mt ? name + ".tN" : name;
        };
        add(at("trace.read_ns_per_pkt"), "ns");
        add(at("trace.write_ns_per_pkt"), "ns");
        add(at("fcc.feed_ns_per_pkt"), "ns");
        add(at("fcc.seal_ms"), "ms");
        add(at("archive.commit_ms_p50"), "ms");
        add(at("archive.commit_ms_p90"), "ms");
        add(at("archive.recover_ms"), "ms");
        add(at("query.plan_us"), "us");
        add(at("query.local_ms_p50"), "ms");
        add(at("query.aggregate_ms_p50"), "ms");
        add(at("query.server_overhead_ms_p50"), "ms");
        for (const char *layer :
             {"trace", "fcc", "archive", "query", "other"}) {
            add(at(std::string(layer) + ".self_ns_per_pkt"), "ns");
            add(at(std::string(layer) + ".share"), "ratio");
        }
        for (const char *stage : {"open", "drain_self", "write"})
            add(at(std::string("decode.") + stage + "_ms"), "ms");
    }
    add("archive.archives_sealed", "count");
    add("query.chunks_decoded_ratio", "ratio");
    add("query.bytes_read_ratio", "ratio");
    add("query.archives_pruned_ratio", "ratio");

    // Probes, at 1 thread.
    add("flow.assemble_ns_per_pkt", "ns");
    add("flow.characterize_ns_per_flow", "ns");
    add("flow.template_match_ns_per_flow", "ns");
    add("flow.templates", "count");
    add("flow.template_hit_ratio", "ratio");
    add("fcc.serialize_ns_per_pkt", "ns");
    add("fcc.deserialize_ns_per_pkt", "ns");
    add("fcc.expand_ns_per_pkt", "ns");
    add("fcc.time_seq_bytes_per_flow", "B");
    add("field.encode_ns_per_value", "ns");
    add("field.decode_ns_per_value", "ns");
    for (const char *c : {"ts_time", "ts_addr", "addr", "short_s"})
        add(std::string("field.bytes_per_value.") + c, "B");
    add("backend.encode_MBps", "MB/s");
    add("backend.decode_MBps", "MB/s");
    add("backend.out_in_ratio", "ratio");
    add("backend.store_fallback_share", "ratio");
    add("flow.share_of_compress", "ratio");
    add("field.share_of_compress", "ratio");
    add("backend.share_of_compress", "ratio");
    add("pool.expand_speedup", "x");
    add("pool.build_datasets_speedup", "x");
    add("pool.effective_cores", "cores");

    // The untraced baseline: multi-thread throughput and what the
    // spans cost (traced time / untraced time - 1).
    add("compress_pkts_per_s_mt", "pkt/s");
    add("decompress_pkts_per_s_mt", "pkt/s");
    for (const char *op : {"compress", "decompress", "ingest"}) {
        double traced = s_.median(std::string("traced.") + op + "_s");
        double base = s_.median(std::string("base.") + op + "_s");
        m.add(std::string("tracing.overhead.") + op,
              base > 0 ? traced / base - 1.0 : 0.0, "ratio");
    }
}

} // namespace

void
measureLayers(const RunConfig &run, const Inputs &in, const Reference &ref,
              Outcome &outcome, Metrics &metrics,
              const std::string &spansPath)
{
    LayerRun lr(run, in, ref, outcome);
    Clock::time_point start = Clock::now();
    do {
        lr.pass(false);
        lr.pass(true);
    } while (secondsSince(start) < run.seconds);
    lr.probes();
    lr.report(metrics);
    if (!spansPath.empty() && !lr.tracer().writeJsonLines(spansPath))
        throw std::runtime_error("cannot write " + spansPath);
}

} // namespace perfbench
