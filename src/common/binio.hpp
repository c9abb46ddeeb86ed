// binio: the one binary codec and container behind every ecthub file format
// — sweep shard files (sim/shard_io), DRL checkpoints (policy/drl_policy)
// and, as a bare payload, nn parameter blobs (nn/serialize).
//
// Every integer and every double bit pattern is little-endian, written byte
// by byte, so the encoding is identical on any host.  A container is
//
//   magic    4 bytes                 per format ("ECSH", "ECDR")
//   u32      format version
//   u32      section count
//   count × { u32 section id, u64 payload size, payload }
//   u64      FNV-1a checksum over every preceding byte
//
// open() checks in this order, so each corruption class maps to one error
// type: magic → MagicError, version → VersionError, any size shortfall →
// TruncatedError, checksum (a flipped byte anywhere) → ChecksumError, then
// the section id sequence → FormatError.  No payload byte is interpreted
// before these checks pass.  Payload parsers read through Reader, whose
// reads are bounded by the payload (never by a length field), so a corrupt
// count or length can never size an allocation; structural nonsense inside
// a payload — one that ends early, has trailing bytes, or holds a NaN or
// infinite double — is a FormatError.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ecthub::binio {

/// Base of every binio failure; thrown directly for file-system errors
/// (unreadable path, failed write).
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The input ends before the bytes its own headers promise.
class TruncatedError : public Error {
 public:
  using Error::Error;
};

/// The input does not start with the format's magic: not that kind of file.
class MagicError : public Error {
 public:
  using Error::Error;
};

/// The input's format version is not the one this build reads.
class VersionError : public Error {
 public:
  using Error::Error;
};

/// The input is the right shape but its bytes fail the FNV-1a checksum.
class ChecksumError : public Error {
 public:
  using Error::Error;
};

/// The bytes are structurally inconsistent: wrong section sequence,
/// impossible counts, trailing bytes, non-finite doubles, or values the
/// format's own schema rejects.
class FormatError : public Error {
 public:
  using Error::Error;
};

/// One container format: the name every error message starts with, its
/// 4-byte magic, the version this build writes and reads, and the section
/// ids in the order they appear.
struct Container {
  std::string_view name;
  std::string_view magic;
  std::uint32_t version;
  std::span<const std::uint32_t> section_ids;
};

[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes) noexcept;

void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
void put_double(std::string& out, double v);
/// u64 byte count, then the bytes.
void put_string(std::string& out, std::string_view s);

/// Wraps one payload per section id (in `c.section_ids` order) in the
/// container.  Throws std::invalid_argument when the payload count differs.
[[nodiscard]] std::string seal(const Container& c, std::span<const std::string_view> payloads);

/// Checks `bytes` as a `c` container (the order above) and returns its
/// payloads in section order, as views into `bytes`.
[[nodiscard]] std::vector<std::string_view> open(std::string_view bytes, const Container& c);

/// Bounded cursor over one untrusted payload.  `what` starts every error
/// message; every failure is a FormatError.
class Reader {
 public:
  Reader(std::string_view bytes, std::string_view what) noexcept
      : bytes_(bytes), what_(what) {}

  [[nodiscard]] std::uint64_t u64();
  /// A finite double; NaN and ±inf are FormatErrors.
  [[nodiscard]] double f64();
  [[nodiscard]] std::string_view bytes(std::uint64_t n);
  /// put_string's encoding.
  [[nodiscard]] std::string str();

  [[nodiscard]] std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  /// Throws when any byte is left unread.
  void expect_end() const;

 private:
  void need(std::uint64_t n) const;

  std::string_view bytes_;
  std::string_view what_;
  std::size_t pos_ = 0;
};

/// Whole-file I/O; throws Error naming the path on failure.
[[nodiscard]] std::string read_file(const std::filesystem::path& path);
void write_file(const std::filesystem::path& path, std::string_view bytes);

}  // namespace ecthub::binio
