/**
 * @file
 * User-visible operations and their output checks (ops.hpp).
 */

#include "ops.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "query/expr.hpp"
#include "trace/tsh.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace fs = std::filesystem;

uint64_t
fnv1a(std::span<const uint8_t> bytes, uint64_t h)
{
    for (uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::vector<uint8_t>
readFileBytes(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                               std::istreambuf_iterator<char>());
    if (!f && !f.eof())
        throw std::runtime_error("cannot read " + path);
    return bytes;
}

uint64_t
hashFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        throw std::runtime_error("cannot open " + path);
    std::vector<uint8_t> buf(1 << 16);
    uint64_t h = 0xcbf29ce484222325ull;
    size_t got = 0;
    while ((got = std::fread(buf.data(), 1, buf.size(), f)) > 0)
        h = fnv1a(std::span<const uint8_t>(buf.data(), got), h);
    std::fclose(f);
    return h;
}

uint64_t
hashPackets(std::span<const fcc::trace::PacketRecord> pkts, uint64_t h)
{
    std::vector<uint8_t> rec;
    for (const fcc::trace::PacketRecord &p : pkts) {
        rec.clear();
        fcc::trace::encodeTshRecord(p, rec);
        h = fnv1a(rec, h);
    }
    return h;
}

fcc::archive::RotationPolicy
rotationFor(const Inputs &in, const Profile &p)
{
    fcc::archive::RotationPolicy r;
    r.archiveRecords = std::max<uint64_t>(in.packets / p.archives, 1);
    return r;
}

fcc::archive::DaemonReport
ingest(const Inputs &in, const Profile &p, const std::string &outDir,
       uint32_t threads)
{
    fs::remove_all(outDir);
    fs::create_directories(outDir);
    fcc::archive::DaemonConfig cfg;
    cfg.input = in.tsh;
    cfg.inputFormat = fcc::trace::parseTraceFormatSpec("tsh");
    cfg.outputDir = outDir;
    cfg.codec = codecConfig(threads);
    cfg.rotation = rotationFor(in, p);
    fcc::archive::DaemonControl control;
    return fcc::archive::Daemon(cfg).run(control);
}

const char *
requestKindName(Request::Kind kind)
{
    switch (kind) {
    case Request::Kind::ServerCount: return "server-count";
    case Request::Kind::ServerFull: return "server-full";
    case Request::Kind::Window: return "window";
    case Request::Kind::TopTalkers: return "top-talkers";
    case Request::Kind::List: return "list";
    }
    return "?";
}

namespace {

constexpr uint32_t topK = 10;

uint64_t
hashAggregate(const fcc::query::AggregateResult &a)
{
    std::vector<uint64_t> words;
    for (const fcc::query::ServerAggregate &s : a.servers) {
        words.push_back(s.serverIp);
        words.push_back(s.flows);
        words.push_back(s.packets);
        words.push_back(s.wireBytes);
    }
    words.insert(words.end(), a.histogram.begin(), a.histogram.end());
    return fnv1a(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t *>(words.data()),
        words.size() * sizeof(uint64_t)));
}

std::string
dotted(uint32_t ip)
{
    return std::to_string(ip >> 24) + "." +
           std::to_string((ip >> 16) & 0xff) + "." +
           std::to_string((ip >> 8) & 0xff) + "." +
           std::to_string(ip & 0xff);
}

/** Seconds with microsecond precision, as the grammar accepts. */
std::string
seconds(uint64_t us)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%llu.%06llu",
                  static_cast<unsigned long long>(us / 1000000),
                  static_cast<unsigned long long>(us % 1000000));
    return buf;
}

fcc::query::AggregateResult
localAggregate(const fcc::query::ArchiveCatalog &catalog,
               const Request &req)
{
    fcc::query::AggregateRequest ar;
    ar.kind = fcc::query::AggregateKind::TopTalkers;
    ar.expr = fcc::query::parseExpr(req.expr);
    ar.topK = topK;
    return catalog.aggregate(ar);
}

} // namespace

std::vector<Request>
buildQueryMix(const fcc::query::ArchiveCatalog &catalog,
              const fcc::query::ArchiveCatalog &reference,
              const std::vector<fcc::archive::CatalogEntry> &sealed,
              uint64_t seed)
{
    if (sealed.empty())
        throw std::runtime_error("query mix: no sealed archives");
    fcc::util::Rng rng(seed ^ 0x51e7a11c0ffeeull);

    // The same number of requests of each kind, so no kind's cost
    // dominates the figures by being asked more often.
    constexpr uint64_t perKind = 20;

    // Each kind's windows sit at the middles of perKind equal slices
    // of the arrivals, so every seed's mix covers the archives the
    // same way. Drawn at random, one seed's windows decided how many
    // crossed an archive boundary, which doubles a request's decode
    // work, and with it the latencies. Past the arrivals only the
    // tails of long flows remain.
    const uint64_t t0 = sealed.front().minFirstUs;
    const uint64_t t1 = t0 + static_cast<uint64_t>(arrivalSeconds * 1e6);
    auto window = [&](uint64_t i, uint64_t lengthUs) {
        uint64_t span = t1 > t0 + lengthUs ? t1 - t0 - lengthUs : 0;
        uint64_t a = t0 + span / perKind * i + span / perKind / 2;
        return "time within [" + seconds(a) + ", " +
               seconds(a + lengthUs) + "]";
    };

    // Server extractions cover a 20 s window, each for a server drawn
    // from the lower half of that window's ranking by wire bytes: it
    // has flows there, but few, so the Bloom fingerprints and time
    // bounds prune most chunks.
    std::vector<Request> distinct;
    for (uint64_t i = 0; i < perKind; ++i) {
        std::string w = window(i, 20000000);
        fcc::query::AggregateRequest inWindow;
        inWindow.kind = fcc::query::AggregateKind::FlowCounts;
        inWindow.expr = fcc::query::parseExpr(w);
        std::vector<fcc::query::ServerAggregate> ranked =
            fcc::query::topTalkers(catalog.aggregate(inWindow), SIZE_MAX);
        if (ranked.empty())
            throw std::runtime_error("query mix: no flows in " + w);
        size_t half = ranked.size() / 2;
        uint32_t ip =
            ranked[half + rng.next() % (ranked.size() - half)].serverIp;
        Request r;
        r.expr = "server = " + dotted(ip) + " and " + w;
        r.kind = Request::Kind::ServerCount;
        distinct.push_back(r);
        r.kind = Request::Kind::ServerFull;
        distinct.push_back(r);
    }
    // 0.5 s windows, 10 s top-talkers aggregates and listings.
    for (uint64_t i = 0; i < perKind; ++i) {
        distinct.push_back({Request::Kind::Window, window(i, 500000)});
        distinct.push_back(
            {Request::Kind::TopTalkers, window(i, 10000000)});
        distinct.push_back({Request::Kind::List, "all"});
    }

    // Reference answers from @p reference with a full decode, one
    // per distinct expression (count-only and full share theirs).
    std::vector<Request> answered;
    for (Request &r : distinct) {
        auto same = std::find_if(
            answered.begin(), answered.end(),
            [&](const Request &a) { return a.expr == r.expr; });
        if (same != answered.end() &&
            r.kind != Request::Kind::TopTalkers &&
            r.kind != Request::Kind::List) {
            r.packets = same->packets;
            r.flows = same->flows;
            r.hash = same->hash;
            continue;
        }
        switch (r.kind) {
        case Request::Kind::ServerCount:
        case Request::Kind::ServerFull:
        case Request::Kind::Window: {
            HashSink sink;
            fcc::query::CatalogQueryStats st = reference.run(
                fcc::query::parseExpr(r.expr), sink, true);
            r.packets = sink.packets();
            r.flows = st.flowsMatched;
            r.hash = sink.hash();
            answered.push_back(r);
            break;
        }
        case Request::Kind::TopTalkers:
            r.hash = hashAggregate(localAggregate(reference, r));
            break;
        case Request::Kind::List:
            r.packets = reference.size();
            break;
        }
    }

    // The mix cycles through the requests in an order drawn from the
    // seed, so every kind keeps its share whatever the request count.
    for (size_t i = distinct.size(); i > 1; --i)
        std::swap(distinct[i - 1], distinct[rng.next() % i]);
    return distinct;
}

void
writeRequests(const std::vector<Request> &requests, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        throw std::runtime_error("cannot write " + path);
    for (const Request &r : requests)
        std::fprintf(f, "%d %llu %llu %llu %s\n", static_cast<int>(r.kind),
                     static_cast<unsigned long long>(r.packets),
                     static_cast<unsigned long long>(r.flows),
                     static_cast<unsigned long long>(r.hash),
                     r.expr.c_str());
    if (std::fclose(f) != 0)
        throw std::runtime_error("cannot write " + path);
}

std::vector<Request>
readRequests(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        throw std::runtime_error("cannot read " + path);
    std::vector<Request> requests;
    int kind = 0;
    Request r;
    while (f >> kind >> r.packets >> r.flows >> r.hash &&
           std::getline(f >> std::ws, r.expr)) {
        r.kind = static_cast<Request::Kind>(kind);
        requests.push_back(r);
    }
    if (requests.empty())
        throw std::runtime_error(path + " holds no requests");
    return requests;
}

Answer
fetch(fcc::query::QueryClient &client, const Request &req)
{
    Answer a;
    switch (req.kind) {
    case Request::Kind::ServerCount:
        a.response = client.query(req.expr, true);
        break;
    case Request::Kind::ServerFull:
    case Request::Kind::Window:
        a.response = client.query(req.expr);
        break;
    case Request::Kind::TopTalkers:
        a.aggregate = client.aggregate(
            fcc::query::AggregateKind::TopTalkers, topK, req.expr);
        break;
    case Request::Kind::List:
        a.archives = client.listArchives().size();
        break;
    }
    return a;
}

bool
matches(const Request &req, const Answer &a, size_t archives)
{
    switch (req.kind) {
    case Request::Kind::ServerCount:
        return a.response.packets == req.packets &&
               a.response.stats.flowsMatched == req.flows;
    case Request::Kind::ServerFull:
    case Request::Kind::Window:
        return a.response.records.size() == req.packets &&
               a.response.stats.flowsMatched == req.flows &&
               hashPackets(a.response.records) == req.hash;
    case Request::Kind::TopTalkers:
        return hashAggregate(a.aggregate) == req.hash;
    case Request::Kind::List:
        return a.archives == archives && archives == req.packets;
    }
    return false;
}

bool
aggregateMatches(const fcc::query::ArchiveCatalog &catalog,
                 const Request &req)
{
    return hashAggregate(localAggregate(catalog, req)) == req.hash;
}

ServerHandle::ServerHandle(const fcc::query::ArchiveCatalog &catalog,
                           const std::string &socketPath,
                           uint32_t workers)
{
    fs::remove(socketPath);
    fcc::query::ServerConfig cfg;
    cfg.threads = workers;
    server_ = std::make_unique<fcc::query::QueryServer>(
        catalog, fcc::util::SocketEndpoint::parse("unix:" + socketPath),
        cfg);
    thread_ = std::thread([this] { server_->serve(); });
}

ServerHandle::~ServerHandle()
{
    server_->stop();
    thread_.join();
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

} // namespace perfbench
