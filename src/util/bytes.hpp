// Byte-buffer reader/writer used for wire framing, codecs, and the
// persistent-store object namespace. Little-endian fixed-width integers
// plus length-prefixed strings/blobs.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ace::util {

using Bytes = std::vector<std::uint8_t>;

// Non-owning read view over contiguous bytes. Parsers take this so they can
// decode straight out of owned buffers (Bytes) or shared ones (SharedBytes)
// without a copy.
using BytesView = std::span<const std::uint8_t>;

// Ref-counted immutable payload with an offset/length window. This is the
// currency of the zero-copy media data plane: one serialized frame is
// wrapped once and every queue hop, fan-out sink and retained recording
// shares the same underlying buffer. Copying a SharedBytes copies two
// pointers; the bytes themselves are copied only by an explicit
// to_bytes(). Immutability is structural — there is no mutable
// accessor — so sharing across reactor workers needs no synchronization.
class SharedBytes {
 public:
  SharedBytes() = default;
  // Takes ownership of `b` (move in; an lvalue argument pays one copy at
  // the call site, never again afterwards). Intentionally implicit: it is
  // the migration path for every `send(Bytes)` call site.
  SharedBytes(Bytes b)
      : owner_(std::make_shared<const Bytes>(std::move(b))),
        offset_(0),
        size_(owner_->size()) {}

  const std::uint8_t* data() const {
    return owner_ ? owner_->data() + offset_ : nullptr;
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint8_t operator[](std::size_t i) const { return data()[i]; }

  BytesView view() const { return {data(), size_}; }
  operator BytesView() const { return view(); }

  // A narrower window sharing the same owner (no copy). Clamps to bounds.
  SharedBytes slice(std::size_t offset, std::size_t length) const {
    SharedBytes out;
    if (!owner_ || offset >= size_) return out;
    out.owner_ = owner_;
    out.offset_ = offset_ + offset;
    out.size_ = std::min(length, size_ - offset);
    return out;
  }

  // Materializes an owned copy (the only way bytes leave the shared arena).
  Bytes to_bytes() const { return Bytes(data(), data() + size_); }

  // How many SharedBytes alias this buffer (tests assert sharing).
  long use_count() const { return owner_.use_count(); }

  // Content equality (size + bytes), not owner identity.
  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data(), b.data(), a.size_) == 0);
  }

 private:
  std::shared_ptr<const Bytes> owner_;
  std::size_t offset_ = 0;
  std::size_t size_ = 0;
};

class ByteWriter {
 public:
  ByteWriter() = default;

  // Sizes the buffer up front, for a caller that knows what it will write.
  void reserve(std::size_t n) { buf_.reserve(n); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i16(std::int16_t v) { u16(static_cast<std::uint16_t>(v)); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  // Unsigned LEB128 (7 bits per byte, low group first). One byte for
  // values < 128 — the common case for wire call-ids.
  void varint(std::uint64_t v);
  // Length-prefixed (u32) string.
  void str(std::string_view s);
  // Length-prefixed (u32) blob.
  void blob(const Bytes& b);
  // Raw bytes, no prefix.
  void raw(const std::uint8_t* data, std::size_t n);
  void raw(const Bytes& b) { raw(b.data(), b.size()); }

  const Bytes& bytes() const { return buf_; }
  Bytes take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

// Non-owning reader. All accessors return std::nullopt on underflow and
// poison the reader (subsequent reads also fail) so callers can check once.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& b) : data_(b.data()), size_(b.size()) {}
  explicit ByteReader(BytesView v) : data_(v.data()), size_(v.size()) {}
  explicit ByteReader(const SharedBytes& b)
      : data_(b.data()), size_(b.size()) {}
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::optional<std::uint8_t> u8();
  std::optional<std::uint16_t> u16();
  std::optional<std::uint32_t> u32();
  std::optional<std::uint64_t> u64();
  std::optional<std::int64_t> i64();
  std::optional<std::int32_t> i32();
  std::optional<std::int16_t> i16();
  std::optional<double> f64();
  std::optional<std::uint64_t> varint();
  std::optional<std::string> str();
  std::optional<Bytes> blob();
  std::optional<Bytes> raw(std::size_t n);

  bool failed() const { return failed_; }
  std::size_t remaining() const { return size_ - pos_; }
  bool at_end() const { return pos_ == size_; }

 private:
  bool need(std::size_t n);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

Bytes to_bytes(std::string_view s);
std::string to_string(const Bytes& b);
std::string to_string(BytesView b);
// Non-owning text view over a byte buffer (copy-free frame decode).
std::string_view to_string_view(const Bytes& b);
std::string_view to_string_view(BytesView b);
// Table-driven hex codec. Store values cross the wire hex-encoded twice
// per read, so these are hot: encode emits both nibbles of each byte with
// one 2-char table lookup; decode maps each input char through a 256-entry
// nibble table (no branching per character). hex_decode returns empty on
// odd length or any non-hex character.
std::string hex_encode(const Bytes& b);
Bytes hex_decode(std::string_view hex);

// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over the view. Used to frame
// WAL records and seal snapshot files so torn or bit-rotted bytes are
// detected before they are replayed into live state.
std::uint32_t crc32(BytesView data);

}  // namespace ace::util
