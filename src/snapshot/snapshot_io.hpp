// Binary framing for warm-state checkpoints (snapshot/checkpoint.hpp).
//
// The container is deliberately dumb and self-describing, modeled on the
// trace archive format (trace/trace_io.hpp): a fixed magic + version +
// config-fingerprint header, then a flat sequence of sections, each
//
//     u32 fourcc | u64 payloadLen | u32 crc32(payload) | payload bytes
//
// Readers skip sections whose fourcc they do not recognize (forward
// compatibility: a newer writer may append sections without bumping the
// format version), verify every recognized section's CRC before parsing a
// byte of it, and bounds-check every length against the remaining file
// before allocating — a truncated or bit-flipped file produces a typed
// CheckpointError, never UB (tests/snapshot/snapshot_hostile_test.cpp runs
// this layer under ASan).
//
// Scalars and bulk arrays are little-endian; the simulator only targets
// little-endian hosts (enforced below), so serialization is memcpy-speed:
// a 1M-node world's ~0.5 GB of views and slivers must save and restore in
// seconds, not minutes (the scale_sweep restore_s budget).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace avmem::snapshot {

static_assert(std::endian::native == std::endian::little,
              "checkpoint serialization assumes a little-endian host");

// --- error taxonomy --------------------------------------------------------
//
// Every failure mode a hostile or stale checkpoint can produce maps to one
// of these; callers that want to distinguish "regenerate the checkpoint"
// (version/config) from "the file is damaged" (io/format/crc) catch the
// derived types, and everything is still a CheckpointError.

/// Base of all checkpoint failures.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The underlying stream failed (open, read, write, flush).
class CheckpointIoError : public CheckpointError {
 public:
  using CheckpointError::CheckpointError;
};

/// Structurally invalid data: bad magic, truncated section, impossible
/// length, out-of-range field.
class CheckpointFormatError : public CheckpointError {
 public:
  using CheckpointError::CheckpointError;
};

/// A well-formed checkpoint of an incompatible format version.
class CheckpointVersionError : public CheckpointError {
 public:
  using CheckpointError::CheckpointError;
};

/// A section's payload does not match its stored CRC (bit rot, tampering).
class CheckpointCrcError : public CheckpointError {
 public:
  using CheckpointError::CheckpointError;
};

/// The checkpoint was taken under a different configuration (fingerprint
/// or population mismatch) — restoring it would silently change results.
class CheckpointConfigError : public CheckpointError {
 public:
  using CheckpointError::CheckpointError;
};

/// The live system holds state the format cannot capture (an in-flight
/// anycast, an aged/central backend, an already-started restore
/// target). Saving anyway would produce a silently partial snapshot.
class CheckpointUnsupportedError : public CheckpointError {
 public:
  using CheckpointError::CheckpointError;
};

// --- primitives ------------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected), the checksum gating every section.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data,
                                  std::size_t len) noexcept;

/// Section tags are human-greppable four-character codes.
[[nodiscard]] constexpr std::uint32_t fourcc(char a, char b, char c,
                                             char d) noexcept {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24);
}

/// File magic: eight bytes, never versioned (the version field is).
inline constexpr char kMagic[8] = {'A', 'V', 'M', 'E', 'M', 'C', 'K', 'P'};
/// Current format version. Bump on any incompatible layout change; the CI
/// checkpoint cache keys on it so stale artifacts regenerate.
/// v2: NETW gained the duplicated/injectedDrops counters and the FALT
/// fault-injector section joined the format.
/// v3: the AVMN avmon-overlay section joined the format, FALT's wireSeq
/// array grew a kPing lane, and the config fingerprint absorbed the
/// avmon knobs.
inline constexpr std::uint32_t kFormatVersion = 3;

/// Everything in the fixed header after the magic.
struct FileHeader {
  std::uint32_t version = kFormatVersion;
  std::uint64_t fingerprint = 0;  ///< configFingerprint() of the writer
  std::uint64_t hosts = 0;
  std::uint64_t seed = 0;
};

// --- writing ---------------------------------------------------------------

/// Accumulates one section's payload in memory — the length and CRC in the
/// section frame are only known once the payload is complete.
class SectionWriter {
 public:
  /// One fixed-width arithmetic value, little-endian.
  template <typename T>
  void scalar(T v) {
    static_assert(std::is_arithmetic_v<T>);
    append(&v, sizeof(T));
  }

  /// Length-prefixed bulk array of a trivially-copyable element type:
  /// u64 count + raw bytes. The memcpy path every large table uses.
  template <typename T>
  void raw(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    scalar<std::uint64_t>(values.size());
    append(values.data(), values.size() * sizeof(T));
  }

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const noexcept {
    return buf_;
  }
  void clear() noexcept { buf_.clear(); }

 private:
  void append(const void* data, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }

  std::vector<std::uint8_t> buf_;
};

/// Streams the header and framed sections to an ostream; any stream
/// failure surfaces as CheckpointIoError.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(std::ostream& out) : out_(out) {}

  void writeHeader(const FileHeader& header);
  void writeSection(std::uint32_t id, const SectionWriter& payload);
  /// Flush and surface any deferred stream error.
  void finish();

 private:
  void write(const void* data, std::size_t len);

  std::ostream& out_;
};

// --- reading ---------------------------------------------------------------

/// Bounds-checked parser over one section's (CRC-verified) payload. Every
/// read past the end throws CheckpointFormatError.
class Cursor {
 public:
  Cursor(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Cursor(std::span<const std::uint8_t> payload)
      : Cursor(payload.data(), payload.size()) {}

  /// Inverse of SectionWriter::scalar.
  template <typename T>
  [[nodiscard]] T scalar() {
    static_assert(std::is_arithmetic_v<T>);
    T v{};
    copy(&v, sizeof(T));
    return v;
  }

  /// Inverse of SectionWriter::raw — the element count is validated
  /// against the remaining payload before anything is allocated.
  template <typename T>
  [[nodiscard]] std::vector<T> raw() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t count = scalar<std::uint64_t>();
    if (count > remaining() / sizeof(T)) {
      throw CheckpointFormatError(
          "checkpoint section: array length exceeds payload");
    }
    std::vector<T> out(static_cast<std::size_t>(count));
    copy(out.data(), static_cast<std::size_t>(count) * sizeof(T));
    return out;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return size_ - pos_;
  }
  [[nodiscard]] bool atEnd() const noexcept { return pos_ == size_; }

 private:
  void copy(void* dst, std::size_t len) {
    if (len > remaining()) {
      throw CheckpointFormatError("checkpoint section: truncated payload");
    }
    // raw<T>() of an empty array hands us the null data() of an empty
    // vector; memcpy's arguments are declared nonnull even for len 0.
    if (len > 0) {
      std::memcpy(dst, data_ + pos_, len);
      pos_ += len;
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Validates the header on construction, then iterates sections. Section
/// payload lengths are checked against the remaining stream size (when the
/// stream is seekable — files and stringstreams are) before allocation, and
/// every payload's CRC is verified before it is handed out.
class CheckpointReader {
 public:
  explicit CheckpointReader(std::istream& in);

  [[nodiscard]] const FileHeader& header() const noexcept { return header_; }

  /// Read the next section frame into `id` + `payload`. Returns false at
  /// clean end-of-file; throws on truncation, impossible lengths, or CRC
  /// mismatch.
  bool nextSection(std::uint32_t& id, std::vector<std::uint8_t>& payload);

 private:
  void read(void* data, std::size_t len, const char* what);

  std::istream& in_;
  FileHeader header_;
  /// Bytes left in the stream after the header, when knowable (seekable
  /// stream); SIZE_MAX otherwise.
  std::size_t remaining_;
};

}  // namespace avmem::snapshot
