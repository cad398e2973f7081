/**
 * @file
 * Reference phase (reference.hpp).
 */

#include "reference.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "query/catalog.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

std::string
hashesPath(const std::string &dir)
{
    return dir + "/reference.txt";
}

std::string
requestsPath(const std::string &dir)
{
    return dir + "/requests.txt";
}

} // namespace

void
makeReference(const RunConfig &run, const Inputs &in, Outcome &outcome)
{
    const std::string fccPath = run.dir + "/ref.fcc";
    const std::string backPath = run.dir + "/ref.tsh";
    // At min(nproc, 4) threads: the measured phase runs at one thread
    // and must reproduce these bytes.
    CodecRun c = compressOnce(in, fccPath, run.threadsMt);
    outcome.check(c.packets == in.packets, "compressed packet count");
    outcome.check(c.flows == in.flows,
                  "flow count " + std::to_string(c.flows) +
                      " vs generator " + std::to_string(in.flows));
    const uint64_t archiveHash = hashFile(fccPath);
    CodecRun d = decompressOnce(fccPath, backPath, run.threadsMt);
    outcome.check(d.packets == in.packets,
                  "decoded packet count " + std::to_string(d.packets) +
                      " vs input " + std::to_string(in.packets));
    const uint64_t decodedHash = hashFile(backPath);
    fs::remove(fccPath);
    fs::remove(backPath);

    const std::string served = servedDir(run.dir);
    fcc::archive::DaemonReport rep =
        ingest(in, profileFor(run.workload), served);
    uint64_t sealedPackets = 0;
    for (const fcc::archive::CatalogEntry &entry : rep.sealed)
        sealedPackets += entry.packets;
    outcome.check(sealedPackets == in.packets, "ingested packet count");
    outcome.check(fcc::archive::loadCatalog(served) == rep.sealed,
                  "CATALOG differs from the archives Daemon::run sealed");

    fcc::query::ArchiveCatalog catalog =
        fcc::query::ArchiveCatalog::fromCatalogFile(served, codecConfig(1));
    fcc::query::ArchiveCatalog reference =
        fcc::query::ArchiveCatalog::fromCatalogFile(
            served, codecConfig(run.threadsMt));
    writeRequests(buildQueryMix(catalog, reference, rep.sealed, run.seed),
                  requestsPath(run.dir));

    std::ofstream f(hashesPath(run.dir));
    f << archiveHash << ' ' << decodedHash << '\n';
    if (!f)
        throw std::runtime_error("cannot write " + hashesPath(run.dir));
}

Reference
loadReference(const std::string &dir)
{
    Reference ref;
    std::ifstream f(hashesPath(dir));
    f >> ref.archiveHash >> ref.decodedHash;
    if (!f)
        throw std::runtime_error("cannot read " + hashesPath(dir) +
                                 " (run the reference phase first)");
    ref.sealed = fcc::archive::loadCatalog(servedDir(dir));
    if (ref.sealed.empty())
        throw std::runtime_error("no served archives in " +
                                 servedDir(dir));
    ref.requests = readRequests(requestsPath(dir));
    return ref;
}

} // namespace perfbench
