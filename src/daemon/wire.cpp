#include "daemon/wire.hpp"

namespace ace::daemon::wire {

util::Bytes encode_frame(std::uint64_t call_id, std::uint8_t flags,
                         std::string_view body) {
  std::size_t header = 2;  // the varint's last byte, then the flags
  for (std::uint64_t v = call_id; v >= 0x80; v >>= 7) ++header;
  util::ByteWriter w;
  w.reserve(header + body.size());
  w.varint(call_id);
  w.u8(flags);
  w.raw(reinterpret_cast<const std::uint8_t*>(body.data()), body.size());
  return w.take();
}

std::optional<Frame> decode_frame(const util::Bytes& frame) {
  util::ByteReader r(frame);
  Frame f;
  auto id = r.varint();
  auto flags = r.u8();
  if (!id || !flags) return std::nullopt;
  f.call_id = *id;
  f.flags = *flags;
  std::size_t header = frame.size() - r.remaining();
  f.body = std::string_view(
      reinterpret_cast<const char*>(frame.data()) + header, r.remaining());
  return f;
}

std::string pack_batch(const std::vector<std::string>& records) {
  std::size_t total = 0;
  for (const auto& r : records) total += r.size() + 24;
  std::string out;
  out.reserve(total);
  for (const auto& r : records) {
    out += std::to_string(r.size());
    out += ':';
    out += r;
    out += ',';
  }
  return out;
}

std::optional<std::vector<std::string>> unpack_batch(std::string_view packed) {
  std::vector<std::string> records;
  std::size_t pos = 0;
  while (pos < packed.size()) {
    std::size_t len = 0;
    std::size_t digits = 0;
    while (pos < packed.size() && packed[pos] >= '0' && packed[pos] <= '9') {
      len = len * 10 + static_cast<std::size_t>(packed[pos] - '0');
      ++pos;
      if (++digits > 12) return std::nullopt;  // implausible length
    }
    if (digits == 0 || pos >= packed.size() || packed[pos] != ':')
      return std::nullopt;
    ++pos;  // ':'
    if (packed.size() - pos < len + 1) return std::nullopt;
    records.emplace_back(packed.substr(pos, len));
    pos += len;
    if (packed[pos] != ',') return std::nullopt;
    ++pos;
  }
  return records;
}

}  // namespace ace::daemon::wire
