#ifndef GREATER_COMMON_ARTIFACT_IO_H_
#define GREATER_COMMON_ARTIFACT_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"

namespace greater {

/// Durable artifact I/O: the binary container every persisted model,
/// mapping, and pipeline checkpoint in this repo is written in, plus the
/// atomic file writer that gets it to disk (see DESIGN.md, "Durability &
/// recovery").
///
/// Container layout (all integers little-endian):
///
///   magic            8 bytes   "GRTRART1"
///   format_version   u32       container layout version (kFormatVersion)
///   kind             string    component tag, e.g. "greater.vocabulary"
///   artifact_version u32       component payload version
///   chunk_count      u32
///   chunk[i]:
///     name           string    chunk tag, unique within the document
///     payload_len    u64
///     payload        bytes
///     crc32          u32       CRC-32 (IEEE) chained over name + payload
///
/// where `string` is a u32 length prefix followed by raw bytes. Every
/// failure mode maps to a typed Status: truncation / bad magic / CRC
/// mismatch -> kDataLoss, unknown versions or kind mismatch ->
/// kFailedPrecondition. Components embed their children as chunk payloads
/// holding full nested documents, so one parser covers files and blobs.

/// CRC-32 (IEEE 802.3 polynomial, slice-by-8: eight bytes per step through
/// eight 256-entry tables, bytewise for the tail). `seed` chains calls:
/// Crc32(b, Crc32(a)) == Crc32(a + b).
uint32_t Crc32(std::string_view data, uint32_t seed = 0);

/// Container layout version written by ArtifactWriter.
inline constexpr uint32_t kArtifactFormatVersion = 1;

/// Little-endian append-only byte sink for chunk payloads.
class ByteWriter {
 public:
  /// Pre-sizes the buffer for a payload whose length the caller knows.
  void Reserve(size_t n) { buf_.reserve(n); }

  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  /// Doubles travel as their IEEE-754 bit pattern: round-trips are bitwise
  /// exact, which the seeded-replay contract depends on.
  void PutF64(double v);
  /// u32 length prefix + raw bytes.
  void PutString(std::string_view s);
  /// Raw bytes, no prefix (caller encodes its own framing).
  void PutRaw(std::string_view s) { buf_.append(s.data(), s.size()); }

  const std::string& bytes() const& { return buf_; }
  std::string Take() && { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked reader over a byte span. Every getter returns kDataLoss
/// on truncation instead of reading past the end — a torn artifact can
/// never turn into undefined behaviour. Does not own the bytes.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Status GetU8(uint8_t* out);
  Status GetBool(bool* out);
  Status GetU32(uint32_t* out);
  Status GetU64(uint64_t* out);
  Status GetI64(int64_t* out);
  Status GetF64(double* out);
  Status GetString(std::string* out);
  /// View of the next `n` bytes (valid while the underlying span lives).
  Status GetBytes(size_t n, std::string_view* out);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  /// kDataLoss unless every byte has been consumed — catches payloads with
  /// trailing garbage (a symptom of framing bugs or concatenated writes).
  Status ExpectEnd() const;

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// Builds an artifact document: named, CRC-checksummed chunks under a kind
/// tag and a component version.
class ArtifactWriter {
 public:
  ArtifactWriter(std::string kind, uint32_t artifact_version)
      : kind_(std::move(kind)), version_(artifact_version) {}

  void AddChunk(std::string name, std::string payload) {
    chunks_.emplace_back(std::move(name), std::move(payload));
  }

  /// Serializes the whole document.
  std::string Finish() const;

 private:
  std::string kind_;
  uint32_t version_;
  std::vector<std::pair<std::string, std::string>> chunks_;
};

/// Parses and validates an artifact document. Owns the byte buffer; chunk
/// views stay valid for the reader's lifetime.
class ArtifactReader {
 public:
  /// Full validation pass: magic, format version, kind match, component
  /// version <= `max_version`, every chunk's framing and CRC. Typed
  /// errors: kDataLoss for torn/truncated/corrupt bytes,
  /// kFailedPrecondition for version or kind mismatches.
  static Result<ArtifactReader> Parse(std::string bytes,
                                      std::string_view expected_kind,
                                      uint32_t max_version);

  const std::string& kind() const { return kind_; }
  uint32_t version() const { return version_; }

  bool HasChunk(std::string_view name) const;
  /// kNotFound when the document has no such chunk.
  Result<std::string_view> Chunk(std::string_view name) const;
  /// Chunk names in document order.
  const std::vector<std::string>& chunk_names() const { return names_; }
  /// The whole serialized document, as parsed.
  std::string_view bytes() const { return buffer_; }

 private:
  ArtifactReader() = default;

  std::string buffer_;
  std::string kind_;
  uint32_t version_ = 0;
  std::vector<std::string> names_;
  /// Chunk payloads as (offset, length) into buffer_ — offsets stay valid
  /// across moves of the reader, unlike views into a possibly-SSO string.
  std::unordered_map<std::string, std::pair<size_t, size_t>> chunks_;
};

/// Writes `bytes` to `path` atomically: tmp file in the same directory,
/// fsync, rename over the target, fsync the directory. Readers see either
/// the old file or the complete new one — never a torn mix. Evaluates the
/// "ckpt.write" fault point (a fired fault simulates a crash before the
/// rename: the target is untouched). Exports ckpt.writes /
/// ckpt.write_failures / ckpt.bytes_written metrics.
Status AtomicWriteFile(const std::string& path, std::string_view bytes);

/// Reads a whole file. Evaluates the "ckpt.read" fault point; exports
/// ckpt.reads / ckpt.read_failures.
Result<std::string> ReadFileBytes(const std::string& path);

/// AtomicWriteFile of a finished document.
Status SaveArtifactFile(const std::string& path, const ArtifactWriter& doc);

/// ReadFileBytes + ArtifactReader::Parse with provenance context.
Result<ArtifactReader> LoadArtifactFile(const std::string& path,
                                        std::string_view expected_kind,
                                        uint32_t max_version);

}  // namespace greater

#endif  // GREATER_COMMON_ARTIFACT_IO_H_
