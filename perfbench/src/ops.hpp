/**
 * @file
 * The user-visible operations every workload runs — compress,
 * decompress, daemon ingest and catalog queries — and the checks on
 * their outputs. Both the untraced end-to-end phase and the traced
 * layer run drive the library through these entry points.
 */

#ifndef PERFBENCH_OPS_HPP
#define PERFBENCH_OPS_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "archive/daemon.hpp"
#include "common.hpp"
#include "query/catalog.hpp"
#include "query/server.hpp"
#include "trace/source.hpp"
#include "trace/tsh.hpp"

namespace perfbench {

/** FNV-1a over bytes, continued from @p h. */
uint64_t fnv1a(std::span<const uint8_t> bytes,
               uint64_t h = 0xcbf29ce484222325ull);

/** A whole file's bytes. @throws on I/O failure */
std::vector<uint8_t> readFileBytes(const std::string &path);

/** FNV-1a of a whole file. @throws on I/O failure */
uint64_t hashFile(const std::string &path);

/** FNV-1a of packets in their TSH encoding, continued from @p h. */
uint64_t hashPackets(std::span<const fcc::trace::PacketRecord> pkts,
                     uint64_t h = 0xcbf29ce484222325ull);

/** Sink that keeps only a count and a hash of what it was given. */
class HashSink final : public fcc::trace::TraceSink
{
  public:
    void
    write(std::span<const fcc::trace::PacketRecord> batch) override
    {
        packets_ += batch.size();
        hash_ = hashPackets(batch, hash_);
    }
    void close() override {}
    uint64_t
    bytesWritten() const override
    {
        return packets_ * fcc::trace::tshRecordBytes;
    }

    uint64_t packets() const { return packets_; }
    uint64_t hash() const { return hash_; }

  private:
    uint64_t packets_ = 0;
    uint64_t hash_ = 0xcbf29ce484222325ull;
};

/**
 * Archive rollover of the daemon: a seal every 1/@p p.archives of the
 * input, each through the fsync'd writer and the CATALOG. Chunks are
 * left to fccd's default (no rotate-records: the codec's own
 * chunking).
 */
fcc::archive::RotationPolicy rotationFor(const Inputs &in,
                                         const Profile &p);

/** Daemon::run over @p in into the fresh directory @p outDir, with
 *  the codec at @p threads. */
fcc::archive::DaemonReport ingest(const Inputs &in, const Profile &p,
                                  const std::string &outDir,
                                  uint32_t threads = 1);

/** One request of the closed-loop query mix. */
struct Request
{
    enum class Kind
    {
        ServerCount,  ///< server = X, count only
        ServerFull,   ///< server = X, every packet returned
        Window,       ///< time within [a, b], every packet returned
        TopTalkers,   ///< top-talkers aggregate
        List,         ///< ListArchives
    };
    Kind kind = Kind::List;
    std::string expr;

    /** Answer of the in-process full-decode reference. */
    uint64_t packets = 0;
    uint64_t flows = 0;
    uint64_t hash = 0;
};

const char *requestKindName(Request::Kind kind);

/**
 * The distinct requests of the query mix over @p catalog, twenty of
 * each kind (server extractions in 20 s windows, count-only and full;
 * 0.5 s windows; top-talkers aggregates; listings), with windows
 * spread evenly over the archives and servers and order drawn from
 * @p seed. Each is answered once in process with a full decode
 * of @p reference, a catalog over the same archives. The mix cycles
 * through them.
 */
std::vector<Request>
buildQueryMix(const fcc::query::ArchiveCatalog &catalog,
              const fcc::query::ArchiveCatalog &reference,
              const std::vector<fcc::archive::CatalogEntry> &sealed,
              uint64_t seed);

/** The reference requests as a text file, one request a line. */
void writeRequests(const std::vector<Request> &requests,
                   const std::string &path);
std::vector<Request> readRequests(const std::string &path);

/** A fccserve response, kept unchecked until the clock has stopped. */
struct Answer
{
    fcc::query::QueryResponse response;     ///< count-only and full
    fcc::query::AggregateResult aggregate;  ///< top-talkers
    size_t archives = 0;                    ///< listing
};

/** Send @p req through @p client and return the raw answer. */
Answer fetch(fcc::query::QueryClient &client, const Request &req);

/** True iff @p a is the reference answer to @p req from a catalog
 *  of @p archives archives. */
bool matches(const Request &req, const Answer &a, size_t archives);

/** True iff @p catalog's own top-talkers aggregate for @p req (a
 *  TopTalkers request) matches the reference answer. */
bool aggregateMatches(const fcc::query::ArchiveCatalog &catalog,
                      const Request &req);

/** A QueryServer on a Unix socket, served by its own thread. */
class ServerHandle
{
  public:
    ServerHandle(const fcc::query::ArchiveCatalog &catalog,
                 const std::string &socketPath, uint32_t workers);
    ~ServerHandle();

    ServerHandle(const ServerHandle &) = delete;
    ServerHandle &operator=(const ServerHandle &) = delete;

    const fcc::util::SocketEndpoint &
    endpoint() const
    {
        return server_->endpoint();
    }

  private:
    std::unique_ptr<fcc::query::QueryServer> server_;
    std::thread thread_;
};

/** Peak resident set size of this process, in MB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_OPS_HPP
