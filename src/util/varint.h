/**
 * @file
 * LEB128-style variable-length integer coding plus a byte-stream reader and
 * writer.  This is the primitive the MGZ container and the compressed GBWT
 * record store are built on: small values (edge ranks, run lengths, delta
 * gaps) dominate those streams, so a byte-oriented varint gives most of the
 * compression the GBZ format gets from its sdsl bit vectors at a fraction of
 * the complexity.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/common.h"
#include "util/status.h"

namespace mg::util {

/** Append v to out as an unsigned LEB128 varint (1..10 bytes). */
void putVarint(std::vector<uint8_t>& out, uint64_t v);

/** ZigZag-encode a signed value so small magnitudes stay small. */
inline uint64_t
zigzagEncode(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

/** Inverse of zigzagEncode. */
inline int64_t
zigzagDecode(uint64_t v)
{
    return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/** Longest valid varint: ten bytes carry 64 bits (9 x 7 + 1). */
inline constexpr size_t kMaxVarintBytes = 10;

/**
 * Sequential reader over a byte span.  Bounds-checked: reading past the end
 * throws mg::util::StatusError (corrupt input is a user-facing error) whose
 * Status carries the reader's provenance context (see setContext) plus the
 * byte offset of the violation.
 *
 * getVarint() and getByte() are inline.  getVarint() checks bounds once per
 * value: with at least kMaxVarintBytes left it decodes without per-byte
 * checks, and in a shorter tail it still decodes a one-byte value inline
 * (small spans such as GBWT records are mostly that).  Anything else — a
 * longer value in the tail, or an encoding the fast path declines — goes
 * through getVarintChecked(), so every error carries the same (code,
 * section, offset) whichever path saw the bytes first.
 */
class ByteReader
{
  public:
    ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
    explicit ByteReader(const std::vector<uint8_t>& bytes)
        : ByteReader(bytes.data(), bytes.size()) {}

    /**
     * Attach provenance for error reporting.  The file name is kept by
     * reference and must outlive the reader; the section must be a string
     * with static storage (a literal).
     */
    void
    setContext(std::string_view file, const char* section = nullptr)
    {
        ctxFile_ = file;
        ctxSection_ = section;
    }

    /** Update only the section component of the context. */
    void setSection(const char* section) { ctxSection_ = section; }

    /** Decode one unsigned varint and advance. */
    uint64_t
    getVarint()
    {
        if (size_ - pos_ >= kMaxVarintBytes) [[likely]] {
            const uint8_t* p = data_ + pos_;
            uint64_t byte = p[0];
            if (byte < 0x80) {
                pos_ += 1;
                return byte;
            }
            uint64_t value = byte & 0x7f;
            for (size_t i = 1; i < kMaxVarintBytes; ++i) {
                byte = p[i];
                value |= (byte & 0x7f) << (7 * i);
                if (byte < 0x80) {
                    if (i == kMaxVarintBytes - 1 && byte > 1) {
                        break; // overflows 64 bits: the checked path throws
                    }
                    pos_ += i + 1;
                    return value;
                }
            }
        } else if (pos_ < size_ && data_[pos_] < 0x80) {
            return data_[pos_++]; // one-byte value in a short tail
        }
        return getVarintChecked();
    }
    /**
     * Decode one unsigned varint with a bounds check per byte.  The
     * reference decoder behind getVarint(): Truncated past the end,
     * Corrupt on a 10th byte above 1 (bits beyond 64, or an overlong
     * encoding), both at the offending byte's offset.
     */
    uint64_t getVarintChecked();
    /** Decode one zigzag-coded signed varint and advance. */
    int64_t getSignedVarint() { return zigzagDecode(getVarint()); }
    /** Read one raw byte and advance. */
    uint8_t
    getByte()
    {
        if (pos_ >= size_) [[unlikely]] {
            failByteRead();
        }
        return data_[pos_++];
    }
    /** Read n raw bytes into dst and advance. */
    void getBytes(void* dst, size_t n);
    /** Read a varint-length-prefixed string. */
    std::string
    getString()
    {
        std::string s;
        getString(s);
        return s;
    }
    /** Read a varint-length-prefixed string into `out`, reusing its
     *  capacity. */
    void getString(std::string& out);

    size_t pos() const { return pos_; }
    size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }
    void seek(size_t pos);
    const uint8_t* data() const { return data_; }
    size_t size() const { return size_; }

  protected:
    /** Throw a StatusError at the current position with this reader's
     *  provenance context. */
    [[noreturn]] void fail(StatusCode code, std::string what) const;

  private:
    [[noreturn]] void failByteRead() const;

    const uint8_t* data_;
    size_t size_;
    size_t pos_ = 0;
    std::string_view ctxFile_{};
    const char* ctxSection_ = nullptr;
};

/** Sequential writer producing a byte vector. */
class ByteWriter
{
  public:
    void putVarint(uint64_t v) { mg::util::putVarint(bytes_, v); }
    void putSignedVarint(int64_t v) { putVarint(zigzagEncode(v)); }
    void putByte(uint8_t b) { bytes_.push_back(b); }
    void putBytes(const void* src, size_t n);
    /** Write a varint length prefix followed by the raw characters. */
    void putString(const std::string& s);

    const std::vector<uint8_t>& bytes() const { return bytes_; }
    std::vector<uint8_t> takeBytes() { return std::move(bytes_); }
    size_t size() const { return bytes_.size(); }

  private:
    std::vector<uint8_t> bytes_;
};

} // namespace mg::util
