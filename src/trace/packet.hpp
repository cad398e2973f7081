/**
 * @file
 * Header-level packet model.
 *
 * The paper works with TCP/IP header traces (no payload): the unit of
 * data is a 40-byte TCP/IP header plus timing. PacketRecord captures
 * every field any codec in this library reads, including the fields
 * the Van Jacobson baseline delta-encodes (sequence numbers, IP id,
 * window).
 */

#ifndef FCC_TRACE_PACKET_HPP
#define FCC_TRACE_PACKET_HPP

#include <cstdint>
#include <string>

namespace fcc::trace {

/** TCP header flag bits (RFC 793 order, low bit = FIN). */
namespace tcp_flags {
constexpr uint8_t Fin = 0x01;
constexpr uint8_t Syn = 0x02;
constexpr uint8_t Rst = 0x04;
constexpr uint8_t Psh = 0x08;
constexpr uint8_t Ack = 0x10;
constexpr uint8_t Urg = 0x20;
} // namespace tcp_flags

/** IP protocol numbers used by the library. */
namespace ip_proto {
constexpr uint8_t Tcp = 6;
constexpr uint8_t Udp = 17;
} // namespace ip_proto

/**
 * One captured packet header.
 *
 * All integral fields are host-order; the capture formats (TSH, pcap)
 * convert to/from network order at the file boundary. Sizes follow the
 * paper's conventions: a stored header is 40 B of TCP/IP header plus
 * timing, and payloadBytes is the TCP payload length implied by the IP
 * total length.
 */
struct PacketRecord
{
    uint64_t timestampNs = 0;  ///< absolute capture time, nanoseconds
    uint32_t srcIp = 0;        ///< IPv4 source address
    uint32_t dstIp = 0;        ///< IPv4 destination address
    uint16_t srcPort = 0;      ///< TCP/UDP source port
    uint16_t dstPort = 0;      ///< TCP/UDP destination port
    uint8_t protocol = ip_proto::Tcp;  ///< IP protocol number
    uint8_t tcpFlags = 0;      ///< TCP flag byte (tcp_flags bits)
    uint16_t payloadBytes = 0; ///< TCP payload length in bytes
    uint32_t seq = 0;          ///< TCP sequence number
    uint32_t ack = 0;          ///< TCP acknowledgment number
    uint16_t window = 0;       ///< TCP advertised window
    uint16_t ipId = 0;         ///< IP identification field

    /** IP total length implied by a 20 B IP + 20 B TCP header. */
    uint16_t ipTotalLength() const
    {
        return static_cast<uint16_t>(40 + payloadBytes);
    }

    /** Timestamp in (truncated) microseconds. */
    uint64_t timestampUs() const { return timestampNs / 1000; }
    /** Timestamp in seconds as a double. */
    double timestampSec() const
    {
        return static_cast<double>(timestampNs) * 1e-9;
    }

    bool hasSyn() const { return tcpFlags & tcp_flags::Syn; }
    bool hasAck() const { return tcpFlags & tcp_flags::Ack; }
    bool hasFin() const { return tcpFlags & tcp_flags::Fin; }
    bool hasRst() const { return tcpFlags & tcp_flags::Rst; }

    /** Human-readable one-line rendering (for debugging / examples). */
    std::string str() const;
};

/**
 * Field-wise total order on packets, extending timestamp order with
 * every header field as tie-breaker. Reconstruction paths merge
 * concurrently produced packets in this order (trace::RunMerge)
 * instead of by bare timestamp: equal-timestamp packets would
 * otherwise be emitted in an order that depends on batch boundaries
 * — i.e. on the thread count — breaking byte-exact reproducibility.
 */
bool packetCanonicalLess(const PacketRecord &a,
                         const PacketRecord &b);

/** Render an IPv4 address in dotted-quad notation. */
std::string formatIp(uint32_t addr);

/** Parse a dotted-quad IPv4 address. @throws fcc::util::Error */
uint32_t parseIp(const std::string &text);

/** Render a TCP flag byte like "SYN|ACK". */
std::string formatTcpFlags(uint8_t flags);

} // namespace fcc::trace

#endif // FCC_TRACE_PACKET_HPP
