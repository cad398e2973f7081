/**
 * @file
 * TSH record (de)serialization: 44-byte big-endian records built
 * and parsed field by field, plus file-level read/write wrappers
 * that validate record alignment.
 */

#include "trace/tsh.hpp"

#include <cstdio>
#include <memory>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace fcc::trace {

uint16_t
ipChecksum(std::span<const uint8_t> data)
{
    uint32_t sum = 0;
    size_t i = 0;
    for (; i + 1 < data.size(); i += 2)
        sum += static_cast<uint32_t>(data[i]) << 8 | data[i + 1];
    if (i < data.size())
        sum += static_cast<uint32_t>(data[i]) << 8;
    while (sum >> 16)
        sum = (sum & 0xffff) + (sum >> 16);
    return static_cast<uint16_t>(~sum);
}

void
encodeTshRecord(const PacketRecord &pkt, std::vector<uint8_t> &out)
{
    uint32_t sec = static_cast<uint32_t>(pkt.timestampNs /
                                         1000000000ull);
    uint32_t usec = static_cast<uint32_t>(
        (pkt.timestampNs / 1000ull) % 1000000ull);

    util::storeBe32(out, sec);
    out.push_back(0);  // interface number
    out.push_back(static_cast<uint8_t>(usec >> 16));
    out.push_back(static_cast<uint8_t>(usec >> 8));
    out.push_back(static_cast<uint8_t>(usec));

    // IPv4 header (20 bytes), checksum back-patched.
    size_t ipStart = out.size();
    out.push_back(0x45);  // version 4, IHL 5
    out.push_back(0);     // TOS
    util::storeBe16(out, pkt.ipTotalLength());
    util::storeBe16(out, pkt.ipId);
    util::storeBe16(out, 0x4000);  // flags: don't-fragment
    out.push_back(64);      // TTL
    out.push_back(pkt.protocol);
    util::storeBe16(out, 0);       // checksum placeholder
    util::storeBe32(out, pkt.srcIp);
    util::storeBe32(out, pkt.dstIp);
    uint16_t csum = ipChecksum(
        std::span<const uint8_t>(out.data() + ipStart, 20));
    out[ipStart + 10] = static_cast<uint8_t>(csum >> 8);
    out[ipStart + 11] = static_cast<uint8_t>(csum);

    // First 16 bytes of the TCP header.
    util::storeBe16(out, pkt.srcPort);
    util::storeBe16(out, pkt.dstPort);
    util::storeBe32(out, pkt.seq);
    util::storeBe32(out, pkt.ack);
    out.push_back(5 << 4);  // data offset 5 words
    out.push_back(pkt.tcpFlags);
    util::storeBe16(out, pkt.window);
}

PacketRecord
decodeTshRecord(const uint8_t *rec)
{
    PacketRecord pkt;

    uint32_t sec = util::loadBe32(rec);
    uint32_t usec = static_cast<uint32_t>(rec[5]) << 16 |
                    static_cast<uint32_t>(rec[6]) << 8 | rec[7];
    util::require(usec < 1000000, "readTsh: microseconds >= 1e6");
    pkt.timestampNs = static_cast<uint64_t>(sec) * 1000000000ull +
                      static_cast<uint64_t>(usec) * 1000ull;

    const uint8_t *ip = rec + 8;
    util::require((ip[0] >> 4) == 4, "readTsh: not IPv4");
    util::require((ip[0] & 0x0f) == 5,
                  "readTsh: IP options unsupported");
    uint16_t totalLen = util::loadBe16(ip + 2);
    util::require(totalLen >= 40,
                  "readTsh: IP total length below header size");
    pkt.payloadBytes = static_cast<uint16_t>(totalLen - 40);
    pkt.ipId = util::loadBe16(ip + 4);
    pkt.protocol = ip[9];
    pkt.srcIp = util::loadBe32(ip + 12);
    pkt.dstIp = util::loadBe32(ip + 16);

    const uint8_t *tcp = rec + 28;
    pkt.srcPort = util::loadBe16(tcp);
    pkt.dstPort = util::loadBe16(tcp + 2);
    pkt.seq = util::loadBe32(tcp + 4);
    pkt.ack = util::loadBe32(tcp + 8);
    pkt.tcpFlags = tcp[13];
    pkt.window = util::loadBe16(tcp + 14);
    return pkt;
}

std::vector<uint8_t>
writeTsh(const Trace &trace)
{
    std::vector<uint8_t> out;
    out.reserve(trace.size() * tshRecordBytes);
    for (const auto &pkt : trace)
        encodeTshRecord(pkt, out);
    return out;
}

Trace
readTsh(std::span<const uint8_t> data)
{
    util::require(data.size() % tshRecordBytes == 0,
                  "readTsh: size is not a multiple of 44 bytes");
    Trace trace;
    for (size_t off = 0; off < data.size(); off += tshRecordBytes)
        trace.add(decodeTshRecord(data.data() + off));
    return trace;
}

namespace {

struct FileCloser
{
    void operator()(std::FILE *f) const { if (f) std::fclose(f); }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

} // namespace

void
writeTshFile(const Trace &trace, const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "wb"));
    util::require(f != nullptr, "writeTshFile: cannot open output file");
    auto bytes = writeTsh(trace);
    if (bytes.empty())
        return;  // an empty vector's data() may be null
    size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f.get());
    util::require(n == bytes.size(), "writeTshFile: short write");
}

Trace
readTshFile(const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    util::require(f != nullptr, "readTshFile: cannot open input file");
    std::vector<uint8_t> bytes;
    uint8_t buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    return readTsh(bytes);
}

} // namespace fcc::trace
