#include "common/binio.hpp"

#include <bit>
#include <cmath>
#include <fstream>
#include <iterator>

namespace ecthub::binio {

namespace {

constexpr std::size_t kSectionHeader = 4 + 8;  ///< u32 id + u64 payload size
constexpr std::size_t kTrailer = 8;            ///< u64 FNV-1a checksum

template <typename T>
void put_le(std::string& out, T v) {
  char buf[sizeof(T)];
  for (unsigned i = 0; i < sizeof(T); ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xffu);
  }
  out.append(buf, sizeof(T));
}

template <typename T>
[[nodiscard]] T load_le(const char* p) noexcept {
  T v = 0;
  for (unsigned i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(T{static_cast<unsigned char>(p[i])} << (8 * i));
  }
  return v;
}

}  // namespace

std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

void put_u32(std::string& out, std::uint32_t v) { put_le(out, v); }

void put_u64(std::string& out, std::uint64_t v) { put_le(out, v); }

void put_double(std::string& out, double v) { put_le(out, std::bit_cast<std::uint64_t>(v)); }

void put_string(std::string& out, std::string_view s) {
  put_u64(out, s.size());
  out.append(s);
}

std::string seal(const Container& c, std::span<const std::string_view> payloads) {
  if (payloads.size() != c.section_ids.size()) {
    throw std::invalid_argument(std::string(c.name) + ": " + std::to_string(payloads.size()) +
                                " payloads for " + std::to_string(c.section_ids.size()) +
                                " sections");
  }
  std::string out(c.magic);
  put_u32(out, c.version);
  put_u32(out, static_cast<std::uint32_t>(payloads.size()));
  for (std::size_t s = 0; s < payloads.size(); ++s) {
    put_u32(out, c.section_ids[s]);
    put_u64(out, payloads[s].size());
    out.append(payloads[s]);
  }
  put_u64(out, fnv1a(out));
  return out;
}

std::vector<std::string_view> open(std::string_view bytes, const Container& c) {
  const std::string name(c.name);
  const std::size_t header = c.magic.size() + 4 + 4;
  if (bytes.size() < c.magic.size()) {
    throw TruncatedError(name + " input shorter than the magic (" +
                         std::to_string(bytes.size()) + " bytes)");
  }
  if (bytes.substr(0, c.magic.size()) != c.magic) {
    throw MagicError(name + " input does not start with the " + std::string(c.magic) +
                     " magic");
  }
  if (bytes.size() < header) throw TruncatedError(name + " input ends inside the header");
  const auto version = load_le<std::uint32_t>(bytes.data() + c.magic.size());
  if (version != c.version) {
    throw VersionError(name + " format version " + std::to_string(version) +
                       "; this build reads version " + std::to_string(c.version));
  }
  const auto count = load_le<std::uint32_t>(bytes.data() + c.magic.size() + 4);

  // Size walk: every section header and payload, plus the checksum trailer,
  // must fit — anything short is truncation.  Each step consumes at least a
  // section header, so a corrupt count cannot make this loop outrun the input.
  std::size_t cursor = header;
  for (std::uint32_t s = 0; s < count; ++s) {
    if (bytes.size() - cursor < kSectionHeader + kTrailer) {
      throw TruncatedError(name + " input ends inside section header " + std::to_string(s));
    }
    const auto size = load_le<std::uint64_t>(bytes.data() + cursor + 4);
    if (size > bytes.size() - cursor - kSectionHeader - kTrailer) {
      throw TruncatedError(name + " input ends inside section " + std::to_string(s) +
                           " payload (" + std::to_string(size) + " bytes promised)");
    }
    cursor += kSectionHeader + static_cast<std::size_t>(size);
  }
  if (bytes.size() - cursor < kTrailer) {
    throw TruncatedError(name + " input ends inside the checksum trailer");
  }
  if (bytes.size() - cursor > kTrailer) {
    throw FormatError(name + " input has trailing bytes after the checksum");
  }
  if (load_le<std::uint64_t>(bytes.data() + cursor) != fnv1a(bytes.substr(0, cursor))) {
    throw ChecksumError(name + " checksum mismatch (corrupted payload)");
  }

  const auto wrong_sequence = [&] {
    return FormatError(name + " input does not carry the section sequence of format version " +
                       std::to_string(c.version));
  };
  if (count != c.section_ids.size()) throw wrong_sequence();
  std::vector<std::string_view> payloads;
  payloads.reserve(count);
  cursor = header;
  for (const std::uint32_t id : c.section_ids) {
    if (load_le<std::uint32_t>(bytes.data() + cursor) != id) throw wrong_sequence();
    const auto size = static_cast<std::size_t>(load_le<std::uint64_t>(bytes.data() + cursor + 4));
    payloads.push_back(bytes.substr(cursor + kSectionHeader, size));
    cursor += kSectionHeader + size;
  }
  return payloads;
}

void Reader::need(std::uint64_t n) const {
  if (n > remaining()) throw FormatError(std::string(what_) + ": ends before its contents");
}

std::uint64_t Reader::u64() {
  need(8);
  const auto v = load_le<std::uint64_t>(bytes_.data() + pos_);
  pos_ += 8;
  return v;
}

double Reader::f64() {
  const auto v = std::bit_cast<double>(u64());
  if (!std::isfinite(v)) throw FormatError(std::string(what_) + ": non-finite double");
  return v;
}

std::string_view Reader::bytes(std::uint64_t n) {
  need(n);
  const std::string_view v = bytes_.substr(pos_, static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return v;
}

std::string Reader::str() { return std::string(bytes(u64())); }

void Reader::expect_end() const {
  if (pos_ != bytes_.size()) throw FormatError(std::string(what_) + ": trailing bytes");
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open '" + path.string() + "'");
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (in.bad()) throw Error("read from '" + path.string() + "' failed");
  return bytes;
}

void write_file(const std::filesystem::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("cannot open '" + path.string() + "' for writing");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) throw Error("write to '" + path.string() + "' failed");
}

}  // namespace ecthub::binio
