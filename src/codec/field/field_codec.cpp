/**
 * @file
 * Field-codec implementations (plain varint, zigzag-delta,
 * first-appearance dictionary, run-length) plus the analytical
 * cost model behind chooseCodec().
 */

#include "codec/field/field_codec.hpp"

#include <cstdint>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace fcc::codec::field {

namespace {

using util::varintLen;

uint64_t
plainSize(std::span<const uint64_t> values)
{
    return util::varintLenSum(values);
}

uint64_t
zigzagDeltaSize(std::span<const uint64_t> values)
{
    // Pure per-element arithmetic (difference, zigzag, bit_width) —
    // auto-vectorizes, unlike the trial-encode it replaces.
    uint64_t bytes = 0;
    uint64_t prev = 0;
    for (uint64_t v : values) {
        bytes += varintLen(
            zigzagEncode(static_cast<int64_t>(v - prev)));
        prev = v;
    }
    return bytes;
}

/**
 * First-appearance numbering of a column's distinct values: a flat
 * open-addressing table (linear probing, at most half full) that
 * starts small and doubles, so a low-cardinality column stays in a
 * few cache lines whatever its length.
 */
class FirstAppearance
{
  public:
    FirstAppearance() : slots_(16) {}

    /**
     * Number of @p v in first-appearance order (0, 1, ...); @p isNew
     * tells whether this call assigned it.
     */
    uint64_t
    number(uint64_t v, bool &isNew)
    {
        size_t i = slotOf(v);
        for (; slots_[i].ref != 0; i = (i + 1) & mask())
            if (slots_[i].key == v) {
                isNew = false;
                return slots_[i].ref - 1;
            }
        isNew = true;
        slots_[i] = Slot{v, ++count_};
        if (2 * count_ > slots_.size())
            grow();
        return count_ - 1;
    }

    /** Distinct values seen so far. */
    uint64_t size() const { return count_; }

  private:
    struct Slot
    {
        uint64_t key = 0;
        uint64_t ref = 0;  // number + 1; 0 marks an empty slot
    };

    size_t mask() const { return slots_.size() - 1; }

    size_t
    slotOf(uint64_t v) const
    {
        // Fibonacci hashing: the top bits of a golden-ratio multiply.
        return static_cast<size_t>((v * 0x9e3779b97f4a7c15ull) >>
                                   (64 - shift_));
    }

    void
    grow()
    {
        std::vector<Slot> old(slots_.size() * 2);
        old.swap(slots_);
        ++shift_;
        for (const Slot &s : old) {
            if (s.ref == 0)
                continue;
            size_t i = slotOf(s.key);
            while (slots_[i].ref != 0)
                i = (i + 1) & mask();
            slots_[i] = s;
        }
    }

    std::vector<Slot> slots_;
    int shift_ = 4;  // log2 of slots_.size()
    uint64_t count_ = 0;
};

/**
 * Dict encoding size, or @p giveUpAt as soon as the size cannot come
 * out below it: every value still to come costs at least its one
 * index byte, and the dictionary count at least one more.
 */
uint64_t
dictSize(std::span<const uint64_t> values,
         uint64_t giveUpAt = UINT64_MAX)
{
    FirstAppearance index;
    uint64_t bytes = 0;
    uint64_t left = values.size();
    for (uint64_t v : values) {
        bool isNew = false;
        uint64_t ref = index.number(v, isNew);
        if (isNew)
            bytes += varintLen(v);
        bytes += varintLen(ref);
        if (bytes + --left + 1 >= giveUpAt)
            return giveUpAt;
    }
    return bytes + varintLen(index.size());
}

uint64_t
rleSize(std::span<const uint64_t> values)
{
    uint64_t bytes = 0;
    size_t i = 0;
    while (i < values.size()) {
        size_t run = 1;
        while (i + run < values.size() &&
               values[i + run] == values[i])
            ++run;
        bytes += varintLen(values[i]) + varintLen(run);
        i += run;
    }
    return bytes;
}

} // namespace

const char *
fieldCodecName(FieldCodec codec)
{
    switch (codec) {
      case FieldCodec::Plain:
        return "plain";
      case FieldCodec::ZigzagDelta:
        return "zigzag";
      case FieldCodec::Dict:
        return "dict";
      case FieldCodec::Rle:
        return "rle";
    }
    return "?";
}

FieldCodec
parseFieldCodecName(const std::string &name)
{
    for (uint8_t t = 0; t < fieldCodecCount; ++t)
        if (name == fieldCodecName(static_cast<FieldCodec>(t)))
            return static_cast<FieldCodec>(t);
    throw util::Error("unknown field codec: " + name);
}

uint64_t
encodedSize(std::span<const uint64_t> values, FieldCodec codec)
{
    switch (codec) {
      case FieldCodec::Plain:
        return plainSize(values);
      case FieldCodec::ZigzagDelta:
        return zigzagDeltaSize(values);
      case FieldCodec::Dict:
        return dictSize(values);
      case FieldCodec::Rle:
        return rleSize(values);
    }
    throw util::Error("field: bad codec tag");
}

void
floorToGrid(std::span<uint64_t> values, uint64_t quantum)
{
    util::require(quantum >= 1, "field: grid quantum must be >= 1");
    for (uint64_t &v : values)
        v -= v % quantum;
}

bool
isOnGrid(std::span<const uint64_t> values, uint64_t quantum)
{
    util::require(quantum >= 1, "field: grid quantum must be >= 1");
    for (uint64_t v : values)
        if (v % quantum != 0)
            return false;
    return true;
}

FieldCodec
chooseCodec(std::span<const uint64_t> values)
{
    // In tag order, so a tie keeps the lower tag.
    FieldCodec best = FieldCodec::Plain;
    uint64_t bestSize = plainSize(values);
    auto consider = [&](FieldCodec codec, uint64_t size) {
        if (size < bestSize) {
            best = codec;
            bestSize = size;
        }
    };
    consider(FieldCodec::ZigzagDelta, zigzagDeltaSize(values));
    // Sizing a high-cardinality dictionary is the costly part; stop
    // once it cannot win (a give-up reports bestSize, which loses).
    consider(FieldCodec::Dict, dictSize(values, bestSize));
    consider(FieldCodec::Rle, rleSize(values));
    return best;
}

std::vector<uint8_t>
encodeColumn(std::span<const uint64_t> values, FieldCodec codec,
             util::Dispatch d)
{
    util::ByteWriter w;
    switch (codec) {
      case FieldCodec::Plain: {
        std::vector<uint8_t> out;
        util::varintEncodeBatch(values, out, d);
        return out;
      }

      case FieldCodec::ZigzagDelta: {
        if (!util::useAccel(d)) {
            uint64_t prev = 0;
            for (uint64_t v : values) {
                w.varint(
                    zigzagEncode(static_cast<int64_t>(v - prev)));
                prev = v;
            }
            break;
        }
        // Delta+zigzag is vectorizable arithmetic; materialize the
        // mapped values once, then batch-encode the varints.
        std::vector<uint64_t> mapped(values.size());
        uint64_t prev = 0;
        for (size_t i = 0; i < values.size(); ++i) {
            mapped[i] =
                zigzagEncode(static_cast<int64_t>(values[i] - prev));
            prev = values[i];
        }
        std::vector<uint8_t> out;
        util::varintEncodeBatch(mapped, out, d);
        return out;
      }

      case FieldCodec::Dict: {
        FirstAppearance index;
        std::vector<uint64_t> dict;
        std::vector<uint64_t> refs;
        refs.reserve(values.size());
        for (uint64_t v : values) {
            bool isNew = false;
            refs.push_back(index.number(v, isNew));
            if (isNew)
                dict.push_back(v);
        }
        std::vector<uint8_t> out;
        const uint64_t dictCount = dict.size();
        util::varintEncodeBatch({&dictCount, 1}, out, d);
        util::varintEncodeBatch(dict, out, d);
        util::varintEncodeBatch(refs, out, d);
        return out;
      }

      case FieldCodec::Rle: {
        size_t i = 0;
        while (i < values.size()) {
            size_t run = 1;
            while (i + run < values.size() &&
                   values[i + run] == values[i])
                ++run;
            w.varint(values[i]);
            w.varint(run);
            i += run;
        }
        break;
      }

      default:
        throw util::Error("field: bad codec tag");
    }
    return w.take();
}

std::vector<uint64_t>
decodeColumn(std::span<const uint8_t> data, FieldCodec codec,
             size_t count, util::Dispatch d)
{
    util::ByteReader r(data);
    std::vector<uint64_t> values;
    values.reserve(count);
    switch (codec) {
      case FieldCodec::Plain: {
        values.resize(count);
        size_t consumed = util::varintDecodeBatch(
            data.data(), data.size(), values.data(), count, d);
        util::require(consumed == data.size(),
                      "field: trailing bytes after column");
        return values;
      }

      case FieldCodec::ZigzagDelta: {
        if (!util::useAccel(d)) {
            uint64_t prev = 0;
            for (size_t i = 0; i < count; ++i) {
                prev +=
                    static_cast<uint64_t>(zigzagDecode(r.varint()));
                values.push_back(prev);
            }
            break;
        }
        values.resize(count);
        size_t consumed = util::varintDecodeBatch(
            data.data(), data.size(), values.data(), count, d);
        util::require(consumed == data.size(),
                      "field: trailing bytes after column");
        // Prefix sum stays serial — each element depends on the
        // previous one — but runs over registers, not the decoder.
        uint64_t prev = 0;
        for (size_t i = 0; i < count; ++i) {
            prev += static_cast<uint64_t>(zigzagDecode(values[i]));
            values[i] = prev;
        }
        return values;
      }

      case FieldCodec::Dict: {
        uint64_t dictCount = r.varint();
        // Every distinct value appears at least once, so a valid
        // dictionary is never larger than the column.
        util::require(dictCount <= count,
                      "field: dictionary larger than column");
        if (util::useAccel(d)) {
            std::vector<uint64_t> dict(dictCount);
            size_t pos = r.position();
            pos += util::varintDecodeBatch(
                data.data() + pos, data.size() - pos, dict.data(),
                dictCount, d);
            std::vector<uint64_t> refs(count);
            pos += util::varintDecodeBatch(
                data.data() + pos, data.size() - pos, refs.data(),
                count, d);
            util::require(pos == data.size(),
                          "field: trailing bytes after column");
            values.resize(count);
            for (size_t i = 0; i < count; ++i) {
                util::require(refs[i] < dictCount,
                              "field: dictionary index out of range");
                values[i] = dict[refs[i]];
            }
            return values;
        }
        std::vector<uint64_t> dict;
        dict.reserve(dictCount);
        for (uint64_t i = 0; i < dictCount; ++i)
            dict.push_back(r.varint());
        for (size_t i = 0; i < count; ++i) {
            uint64_t ref = r.varint();
            util::require(ref < dictCount,
                          "field: dictionary index out of range");
            values.push_back(dict[ref]);
        }
        break;
      }

      case FieldCodec::Rle: {
        while (values.size() < count) {
            uint64_t v = r.varint();
            uint64_t run = r.varint();
            util::require(run >= 1 &&
                              run <= count - values.size(),
                          "field: run length out of range");
            values.insert(values.end(), run, v);
        }
        break;
      }

      default:
        throw util::Error("field: bad codec tag");
    }
    util::require(r.exhausted(),
                  "field: trailing bytes after column");
    return values;
}

} // namespace fcc::codec::field
