/**
 * @file
 * Reference phase (reference.cpp): the checks and answers the
 * measured phases compare against, made in a process of its own so
 * that their multi-thread work never shows in a measured process's
 * peak memory.
 */

#ifndef PERFBENCH_REFERENCE_HPP
#define PERFBENCH_REFERENCE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "archive/catalog_file.hpp"
#include "common.hpp"
#include "endtoend.hpp"
#include "ops.hpp"

namespace perfbench {

struct Reference
{
    uint64_t archiveHash = 0;  ///< compressTraceFile() bytes
    uint64_t decodedHash = 0;  ///< decompressTraceFile() bytes
    std::vector<fcc::archive::CatalogEntry> sealed;  ///< served archives
    std::vector<Request> requests;  ///< the query mix, answered
};

/** Directory of the archives fccserve serves. */
inline std::string
servedDir(const std::string &dir)
{
    return dir + "/served";
}

/**
 * Compress and decompress at run.threadsMt threads (the measured
 * phases must reproduce those bytes at one thread); ingest the served
 * archives with Daemon::run; build the query mix and answer it in
 * process with a full decode. Writes all of it into run.dir for
 * loadReference(); checks count into @p outcome.
 */
void makeReference(const RunConfig &run, const Inputs &in,
                   Outcome &outcome);

/** What makeReference() left in @p dir. @throws on absence */
Reference loadReference(const std::string &dir);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HPP
