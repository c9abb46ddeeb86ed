// Lint fixture (never compiled): the serializer idiom from
// src/common/binio.cpp — byte-explicit little-endian writers, a bounds-checked
// payload reader, and an FNV-1a trailer, all cold-path.  None of it may trip
// the hot-path, determinism, or header rules; this file is the serializer
// false-positive regression net.
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace fixture {

// Byte-explicit little-endian emission: shifts and masks, never memcpy of a
// host-endian struct.  Cold-path growth of the output buffer is sanctioned.
inline void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

inline void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

// Length-prefixed strings: u64 byte count, then the raw bytes.
inline void put_string(std::string& out, std::string_view s) {
  put_u64(out, s.size());
  out.append(s.data(), s.size());
}

// FNV-1a over the serialized payload — a pure function of the bytes, so the
// determinism rules stay silent.
inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Bounds-checked cursor over an untrusted payload.  Throwing on truncation is
// the sanctioned typed-error idiom (cold path; exceptions are fine here).
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : payload_(payload) {}

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(payload_[pos_ + i]))
           << (8 * i);
    pos_ += 8;
    return v;
  }

  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(payload_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  std::size_t remaining() const { return payload_.size() - pos_; }

 private:
  void need(std::uint64_t n) const {
    if (n > remaining()) throw std::runtime_error("payload truncated");
  }

  std::string_view payload_;
  std::size_t pos_ = 0;
};

// Round-trip of a record through the writers and the reader: cold-path
// std::string construction and vector growth are both unrestricted.
inline std::vector<std::string> round_trip_labels(
    const std::vector<std::string>& labels) {
  std::string blob;
  put_u32(blob, 1u);
  put_u64(blob, labels.size());
  for (const std::string& label : labels) put_string(blob, label);
  put_u64(blob, fnv1a(blob));

  PayloadReader reader(std::string_view(blob).substr(4));
  const std::uint64_t count = reader.u64();
  std::vector<std::string> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) out.push_back(reader.str());
  return out;
}

}  // namespace fixture
