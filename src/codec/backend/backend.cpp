/**
 * @file
 * Entropy-backend dispatch: store (identity), deflate (zlib
 * container from codec/deflate), and the decode-only range coder
 * behind tags 2 and 3.
 */

#include "codec/backend/backend.hpp"

#include <algorithm>

#include "codec/deflate/deflate.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace fcc::codec::backend {

namespace {

// ---- Range decoder (tags 2 and 3) ---------------------------------
//
// Witten–Neal–Cleary binary arithmetic decoder with 32-bit low/high
// registers and E3 underflow handling, driven by an adaptive
// bit-tree byte model: each byte is 8 binary decisions whose context
// is the byte's already-decoded prefix bits. Probabilities are 12-bit
// (P(bit == 0) out of 4096) with shift-by-5 adaptation. Stream bits
// are read LSB-first within each byte.

constexpr uint32_t kTop = 0xffffffffu;
constexpr uint32_t kHalf = 0x80000000u;
constexpr uint32_t kQuarter = 0x40000000u;
constexpr uint32_t kThreeQuarters = 0xc0000000u;

constexpr int kProbBits = 12;
constexpr uint16_t kProbOne = 1u << kProbBits;
constexpr int kAdaptShift = 5;

/** Upper bound on the lane count of a tag-3 payload. */
constexpr size_t kMaxLanes = 8;

/**
 * The writer's flush leaves the final bits of a stream implicit: a
 * valid stream reads at most 30 zero bits past its physical end
 * (the decoder reads 32 + S bits for S renormalization shifts, the
 * writer emitted at least S + 2). Reading more than 32 is corruption.
 */
constexpr size_t kMaxPastEndBytes = 4;

/**
 * A probability adapts no closer to certainty than 4065/4096, so
 * every decision narrows the interval by at least 0.011 bits and
 * every byte (8 decisions) by at least 0.087: fewer than 12 bytes
 * decode per bit read. Caps the output reservation for a payload.
 */
constexpr size_t kMaxBytesPerBit = 12;

/**
 * Bit-tree model: node i holds P(bit == 0) after the prefix whose
 * binary representation (with a leading 1) is i. 256 nodes cover
 * all 255 contexts of one byte.
 */
struct ByteModel
{
    uint16_t p[256];

    ByteModel()
    {
        for (uint16_t &v : p)
            v = kProbOne / 2;
    }
};

/** Decoder of one lane: a single tag-2 stream. */
class RangeDecoder
{
  public:
    explicit RangeDecoder(std::span<const uint8_t> stream)
        : data_(stream.data()), len_(stream.size())
    {
        for (int i = 0; i < 32; ++i)
            value_ = (value_ << 1) | nextBit();
    }

    uint8_t
    decodeByte()
    {
        uint32_t ctx = 1;
        for (int i = 0; i < 8; ++i)
            ctx = (ctx << 1) |
                  static_cast<uint32_t>(decodeBit(model_.p[ctx]));
        return static_cast<uint8_t>(ctx & 0xff);
    }

  private:
    uint32_t
    nextBit()
    {
        if (nbits_ == 0) {
            if (pos_ < len_) {
                cur_ = data_[pos_++];
            } else {
                util::require(++pastEnd_ <= kMaxPastEndBytes,
                              "range: stream exhausted");
                cur_ = 0;
            }
            nbits_ = 8;
        }
        uint32_t bit = cur_ & 1;
        cur_ >>= 1;
        --nbits_;
        return bit;
    }

    int
    decodeBit(uint16_t &prob)
    {
        uint32_t mid =
            low_ + static_cast<uint32_t>(
                       (static_cast<uint64_t>(high_ - low_) * prob) >>
                       kProbBits);
        int bit;
        if (value_ <= mid) {
            bit = 0;
            high_ = mid;
            prob += (kProbOne - prob) >> kAdaptShift;
        } else {
            bit = 1;
            low_ = mid + 1;
            prob -= prob >> kAdaptShift;
        }
        for (;;) {
            if (high_ < kHalf) {
                // nothing to subtract
            } else if (low_ >= kHalf) {
                low_ -= kHalf;
                high_ -= kHalf;
                value_ -= kHalf;
            } else if (low_ >= kQuarter && high_ < kThreeQuarters) {
                low_ -= kQuarter;
                high_ -= kQuarter;
                value_ -= kQuarter;
            } else {
                break;
            }
            low_ <<= 1;
            high_ = (high_ << 1) | 1;
            value_ = (value_ << 1) | nextBit();
        }
        return bit;
    }

    const uint8_t *data_;
    size_t len_;
    size_t pos_ = 0;
    size_t pastEnd_ = 0;
    uint32_t cur_ = 0;
    int nbits_ = 0;
    uint32_t value_ = 0;
    uint32_t low_ = 0;
    uint32_t high_ = kTop;
    ByteModel model_;
};

/** Append the @p rawSize bytes of one tag-2 @p stream to @p out. */
void
decodeLane(std::span<const uint8_t> stream, size_t rawSize,
           std::vector<uint8_t> &out)
{
    if (rawSize == 0) {
        util::require(stream.empty(),
                      "range: trailing bytes after empty stream");
        return;
    }
    RangeDecoder dec(stream);
    for (size_t i = 0; i < rawSize; ++i)
        out.push_back(dec.decodeByte());
}

/**
 * Decode a tag-2 stream (@p lanes false) or a tag-3 payload: a lane
 * count, varint byte lengths of all lanes but the last, then the
 * lanes' tag-2 streams, decoded one after another.
 */
std::vector<uint8_t>
rangeDecode(std::span<const uint8_t> data, size_t rawSize,
            bool lanes)
{
    std::vector<uint8_t> out;
    if (rawSize == 0) {
        util::require(data.empty(),
                      "range: trailing bytes after empty stream");
        return out;
    }
    const size_t maxBits =
        8 * (data.size() + kMaxPastEndBytes * kMaxLanes);
    out.reserve(std::min(rawSize, kMaxBytesPerBit * maxBits));
    if (!lanes) {
        decodeLane(data, rawSize, out);
        return out;
    }

    util::ByteReader hdr(data);
    const size_t count = hdr.u8();
    util::require(count >= 1 && count <= kMaxLanes,
                  "range: bad lane count");
    size_t laneBytes[kMaxLanes] = {};
    for (size_t l = 0; l + 1 < count; ++l)
        laneBytes[l] = hdr.varint();
    size_t pos = hdr.position();
    for (size_t l = 0; l + 1 < count; ++l) {
        util::require(laneBytes[l] <= data.size() - pos,
                      "range: truncated lane stream");
        pos += laneBytes[l];
    }
    laneBytes[count - 1] = data.size() - pos;

    // Lane l covers q + (l < r) raw bytes: the split is a function
    // of the raw size alone.
    const size_t q = rawSize / count;
    const size_t r = rawSize % count;
    pos = hdr.position();
    for (size_t l = 0; l < count; ++l) {
        decodeLane(data.subspan(pos, laneBytes[l]),
                   q + (l < r ? 1 : 0), out);
        pos += laneBytes[l];
    }
    return out;
}

} // namespace

const char *
backendName(EntropyBackend backend)
{
    switch (backend) {
      case EntropyBackend::Store:
        return "store";
      case EntropyBackend::Deflate:
        return "deflate";
      case EntropyBackend::Range:
        return "range";
      case EntropyBackend::RangeLanes:
        return "range-lanes";
    }
    return "?";
}

void
requireWritable(EntropyBackend backend)
{
    if (backend == EntropyBackend::Store ||
        backend == EntropyBackend::Deflate)
        return;
    util::require(static_cast<uint8_t>(backend) < entropyBackendCount,
                  "backend: bad backend tag");
    std::string msg = "entropy backend ";
    msg.append(backendName(backend))
        .append(" is decode-only: old archives still read, new "
                "ones are written with store or deflate");
    throw util::Error(msg);
}

EntropyBackend
parseBackendName(const std::string &name)
{
    for (uint8_t t = 0; t < entropyBackendCount; ++t) {
        auto backend = static_cast<EntropyBackend>(t);
        if (name == backendName(backend)) {
            requireWritable(backend);
            return backend;
        }
    }
    throw util::Error("unknown entropy backend: " + name);
}

std::vector<uint8_t>
entropyCompress(std::span<const uint8_t> data, EntropyBackend backend)
{
    requireWritable(backend);
    if (backend == EntropyBackend::Store)
        return {data.begin(), data.end()};
    return deflate::zlibCompress(data);
}

std::vector<uint8_t>
entropyDecompress(std::span<const uint8_t> data,
                  EntropyBackend backend, size_t rawSize)
{
    std::vector<uint8_t> out;
    switch (backend) {
      case EntropyBackend::Store:
        out.assign(data.begin(), data.end());
        break;
      case EntropyBackend::Deflate:
        out = deflate::zlibDecompress(data);
        break;
      case EntropyBackend::Range:
        out = rangeDecode(data, rawSize, /*lanes=*/false);
        break;
      case EntropyBackend::RangeLanes:
        out = rangeDecode(data, rawSize, /*lanes=*/true);
        break;
      default:
        throw util::Error("backend: bad backend tag");
    }
    util::require(out.size() == rawSize,
                  "backend: decompressed size mismatch");
    return out;
}

} // namespace fcc::codec::backend
