/**
 * @file
 * google-benchmark microbenchmarks of the from-scratch DEFLATE:
 * compression/decompression throughput on TSH trace bytes, and
 * compression of many chunk-sized (8-12 KB) varint columns — the
 * shape the FCC3 container feeds its backend, where per-block cost
 * dominates — compared against system zlib when available.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "codec/deflate/deflate.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"
#include "util/bytes.hpp"

#if __has_include(<zlib.h>)
#include <zlib.h>
#define FCC_HAVE_ZLIB 1
#endif

using namespace fcc;

namespace {

const std::vector<uint8_t> &
tshBytes()
{
    static std::vector<uint8_t> bytes = [] {
        trace::WebGenConfig cfg;
        cfg.seed = 77;
        cfg.durationSec = 6.0;
        cfg.flowsPerSec = 80.0;
        trace::WebTrafficGenerator gen(cfg);
        return trace::writeTsh(gen.generate());
    }();
    return bytes;
}

/**
 * Varint columns of the same trace (inter-packet gaps in us, payload
 * sizes, destination ports), cut into 8-12 KB pieces.
 */
const std::vector<std::vector<uint8_t>> &
varintChunks()
{
    static std::vector<std::vector<uint8_t>> chunks = [] {
        trace::WebGenConfig cfg;
        cfg.seed = 77;
        cfg.durationSec = 6.0;
        cfg.flowsPerSec = 80.0;
        trace::WebTrafficGenerator gen(cfg);
        trace::Trace t = gen.generate();
        util::ByteWriter gaps, sizes, ports;
        uint64_t prev = 0;
        for (const auto &pkt : t.packets()) {
            gaps.varint(pkt.timestampUs() - prev);
            prev = pkt.timestampUs();
            sizes.varint(pkt.payloadBytes);
            ports.varint(pkt.dstPort);
        }
        std::vector<std::vector<uint8_t>> out;
        size_t cut = 0;
        for (const auto &col : {gaps.take(), sizes.take(), ports.take()}) {
            for (size_t pos = 0; pos < col.size();) {
                size_t len = std::min(col.size() - pos,
                                      8192 + (cut++ * 1237) % 4097);
                out.emplace_back(col.begin() + pos,
                                 col.begin() + pos + len);
                pos += len;
            }
        }
        return out;
    }();
    return chunks;
}

int64_t
chunkBytes()
{
    int64_t total = 0;
    for (const auto &chunk : varintChunks())
        total += static_cast<int64_t>(chunk.size());
    return total;
}

void
BM_OurDeflate(benchmark::State &state)
{
    const auto &data = tshBytes();
    for (auto _ : state) {
        auto out = codec::deflate::deflateCompress(data);
        benchmark::DoNotOptimize(out);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * data.size()));
}

void
BM_OurDeflateChunks(benchmark::State &state)
{
    const auto &chunks = varintChunks();
    for (auto _ : state) {
        for (const auto &chunk : chunks) {
            auto out = codec::deflate::zlibCompress(chunk);
            benchmark::DoNotOptimize(out);
        }
    }
    state.SetBytesProcessed(state.iterations() * chunkBytes());
}

void
BM_OurInflate(benchmark::State &state)
{
    const auto &data = tshBytes();
    auto compressed = codec::deflate::deflateCompress(data);
    for (auto _ : state) {
        auto out = codec::deflate::inflate(compressed);
        benchmark::DoNotOptimize(out);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * data.size()));
}

#ifdef FCC_HAVE_ZLIB
void
BM_ZlibDeflate(benchmark::State &state)
{
    const auto &data = tshBytes();
    uLongf bound = ::compressBound(static_cast<uLong>(data.size()));
    std::vector<uint8_t> out(bound);
    for (auto _ : state) {
        uLongf len = bound;
        ::compress2(out.data(), &len, data.data(),
                    static_cast<uLong>(data.size()), 6);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * data.size()));
}

void
BM_ZlibDeflateChunks(benchmark::State &state)
{
    const auto &chunks = varintChunks();
    std::vector<uint8_t> out(::compressBound(16384));
    for (auto _ : state) {
        for (const auto &chunk : chunks) {
            uLongf len = static_cast<uLongf>(out.size());
            ::compress2(out.data(), &len, chunk.data(),
                        static_cast<uLong>(chunk.size()), 6);
            benchmark::DoNotOptimize(out.data());
        }
    }
    state.SetBytesProcessed(state.iterations() * chunkBytes());
}

void
BM_ZlibInflate(benchmark::State &state)
{
    const auto &data = tshBytes();
    uLongf bound = ::compressBound(static_cast<uLong>(data.size()));
    std::vector<uint8_t> compressed(bound);
    uLongf compLen = bound;
    ::compress2(compressed.data(), &compLen, data.data(),
                static_cast<uLong>(data.size()), 6);
    std::vector<uint8_t> out(data.size());
    for (auto _ : state) {
        uLongf len = out.size();
        ::uncompress(out.data(), &len, compressed.data(), compLen);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * data.size()));
}
#endif  // FCC_HAVE_ZLIB

} // namespace

BENCHMARK(BM_OurDeflate)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OurDeflateChunks)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OurInflate)->Unit(benchmark::kMillisecond);
#ifdef FCC_HAVE_ZLIB
BENCHMARK(BM_ZlibDeflate)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ZlibDeflateChunks)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ZlibInflate)->Unit(benchmark::kMillisecond);
#endif

BENCHMARK_MAIN();
