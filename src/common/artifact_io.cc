#include "common/artifact_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/fault.h"
#include "obs/metrics.h"

namespace greater {

namespace {

constexpr char kMagic[8] = {'G', 'R', 'T', 'R', 'A', 'R', 'T', '1'};

/// Slice-by-8 CRC-32 tables for the reflected IEEE 802.3 polynomial.
/// kCrcTables[0] is the classic bytewise table; kCrcTables[k][b] is the CRC
/// of byte b followed by k zero bytes, so eight lookups advance the CRC over
/// eight input bytes at once.
constexpr std::array<std::array<uint32_t, 256>, 8> MakeCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr std::array<std::array<uint32_t, 256>, 8> kCrcTables =
    MakeCrcTables();

uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

std::string DirName(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status Errno(const std::string& op, const std::string& path) {
  return Status::Internal(op + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t seed) {
  const auto& t = kCrcTables;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t c = seed ^ 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

void ByteWriter::PutU32(uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xffu);
  }
  buf_.append(bytes, sizeof(bytes));
}

void ByteWriter::PutU64(uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xffu);
  }
  buf_.append(bytes, sizeof(bytes));
}

void ByteWriter::PutF64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void ByteWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

Status ByteReader::GetU8(uint8_t* out) {
  if (remaining() < 1) {
    return Status::DataLoss("truncated artifact: need 1 byte, have 0");
  }
  *out = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status ByteReader::GetBool(bool* out) {
  uint8_t byte = 0;
  GREATER_RETURN_NOT_OK(GetU8(&byte));
  if (byte > 1) {
    return Status::DataLoss("corrupt artifact: bool byte out of range");
  }
  *out = byte != 0;
  return Status::OK();
}

Status ByteReader::GetU32(uint32_t* out) {
  if (remaining() < 4) {
    return Status::DataLoss("truncated artifact: need 4 bytes, have " +
                            std::to_string(remaining()));
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  *out = v;
  return Status::OK();
}

Status ByteReader::GetU64(uint64_t* out) {
  if (remaining() < 8) {
    return Status::DataLoss("truncated artifact: need 8 bytes, have " +
                            std::to_string(remaining()));
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  *out = v;
  return Status::OK();
}

Status ByteReader::GetI64(int64_t* out) {
  uint64_t v = 0;
  GREATER_RETURN_NOT_OK(GetU64(&v));
  *out = static_cast<int64_t>(v);
  return Status::OK();
}

Status ByteReader::GetF64(double* out) {
  uint64_t bits = 0;
  GREATER_RETURN_NOT_OK(GetU64(&bits));
  std::memcpy(out, &bits, sizeof(bits));
  return Status::OK();
}

Status ByteReader::GetString(std::string* out) {
  uint32_t len = 0;
  GREATER_RETURN_NOT_OK(GetU32(&len));
  std::string_view view;
  GREATER_RETURN_NOT_OK(GetBytes(len, &view));
  out->assign(view.data(), view.size());
  return Status::OK();
}

Status ByteReader::GetBytes(size_t n, std::string_view* out) {
  if (remaining() < n) {
    return Status::DataLoss("truncated artifact: need " + std::to_string(n) +
                            " bytes, have " + std::to_string(remaining()));
  }
  *out = data_.substr(pos_, n);
  pos_ += n;
  return Status::OK();
}

Status ByteReader::ExpectEnd() const {
  if (!AtEnd()) {
    return Status::DataLoss("corrupt artifact: " +
                            std::to_string(remaining()) +
                            " unexpected trailing bytes");
  }
  return Status::OK();
}

std::string ArtifactWriter::Finish() const {
  // Exact size: magic, format version, kind, artifact version, chunk
  // count, then per chunk its name, length, payload and CRC.
  size_t size = sizeof(kMagic) + 4 + (4 + kind_.size()) + 4 + 4;
  for (const auto& [name, payload] : chunks_) {
    size += (4 + name.size()) + 8 + payload.size() + 4;
  }
  ByteWriter w;
  w.Reserve(size);
  w.PutRaw(std::string_view(kMagic, sizeof(kMagic)));
  w.PutU32(kArtifactFormatVersion);
  w.PutString(kind_);
  w.PutU32(version_);
  w.PutU32(static_cast<uint32_t>(chunks_.size()));
  for (const auto& [name, payload] : chunks_) {
    w.PutString(name);
    w.PutU64(payload.size());
    w.PutRaw(payload);
    w.PutU32(Crc32(payload, Crc32(name)));
  }
  return std::move(w).Take();
}

Result<ArtifactReader> ArtifactReader::Parse(std::string bytes,
                                             std::string_view expected_kind,
                                             uint32_t max_version) {
  ArtifactReader out;
  out.buffer_ = std::move(bytes);
  ByteReader r(out.buffer_);

  std::string_view magic;
  GREATER_RETURN_NOT_OK_CTX(r.GetBytes(sizeof(kMagic), &magic),
                            "artifact header");
  if (magic != std::string_view(kMagic, sizeof(kMagic))) {
    return Status::DataLoss(
        "not an artifact file (bad magic; torn write or foreign format)");
  }
  uint32_t format_version = 0;
  GREATER_RETURN_NOT_OK_CTX(r.GetU32(&format_version), "artifact header");
  if (format_version != kArtifactFormatVersion) {
    return Status::FailedPrecondition(
        "unsupported artifact container version " +
        std::to_string(format_version) + " (this build reads " +
        std::to_string(kArtifactFormatVersion) + ")");
  }
  GREATER_RETURN_NOT_OK_CTX(r.GetString(&out.kind_), "artifact header");
  if (!expected_kind.empty() && out.kind_ != expected_kind) {
    return Status::FailedPrecondition("artifact kind mismatch: expected '" +
                                      std::string(expected_kind) +
                                      "', found '" + out.kind_ + "'");
  }
  GREATER_RETURN_NOT_OK_CTX(r.GetU32(&out.version_), "artifact header");
  if (out.version_ > max_version) {
    return Status::FailedPrecondition(
        "artifact '" + out.kind_ + "' version " +
        std::to_string(out.version_) + " is newer than this build reads (" +
        std::to_string(max_version) + ")");
  }

  uint32_t chunk_count = 0;
  GREATER_RETURN_NOT_OK_CTX(r.GetU32(&chunk_count), "artifact header");
  for (uint32_t i = 0; i < chunk_count; ++i) {
    const std::string ctx = "chunk " + std::to_string(i) + " of '" +
                            out.kind_ + "'";
    std::string name;
    GREATER_RETURN_NOT_OK_CTX(r.GetString(&name), ctx);
    uint64_t payload_len = 0;
    GREATER_RETURN_NOT_OK_CTX(r.GetU64(&payload_len), ctx);
    std::string_view payload;
    GREATER_RETURN_NOT_OK_CTX(r.GetBytes(payload_len, &payload),
                              ctx + " ('" + name + "')");
    uint32_t stored_crc = 0;
    GREATER_RETURN_NOT_OK_CTX(r.GetU32(&stored_crc),
                              ctx + " ('" + name + "')");
    uint32_t actual_crc = Crc32(payload, Crc32(name));
    if (actual_crc != stored_crc) {
      return Status::DataLoss("checksum mismatch in chunk '" + name +
                              "' of '" + out.kind_ +
                              "' (stored " + std::to_string(stored_crc) +
                              ", computed " + std::to_string(actual_crc) +
                              "): corrupt artifact");
    }
    if (out.chunks_.count(name) > 0) {
      return Status::DataLoss("duplicate chunk '" + name + "' in '" +
                              out.kind_ + "'");
    }
    out.chunks_.emplace(
        name, std::make_pair(
                  static_cast<size_t>(payload.data() - out.buffer_.data()),
                  payload.size()));
    out.names_.push_back(std::move(name));
  }
  GREATER_RETURN_NOT_OK_CTX(r.ExpectEnd(), "artifact '" + out.kind_ + "'");
  return out;
}

bool ArtifactReader::HasChunk(std::string_view name) const {
  return chunks_.count(std::string(name)) > 0;
}

Result<std::string_view> ArtifactReader::Chunk(std::string_view name) const {
  auto it = chunks_.find(std::string(name));
  if (it == chunks_.end()) {
    return Status::NotFound("artifact '" + kind_ + "' has no chunk '" +
                            std::string(name) + "'");
  }
  return std::string_view(buffer_).substr(it->second.first,
                                          it->second.second);
}

Status AtomicWriteFile(const std::string& path, std::string_view bytes) {
  static Counter& writes = MetricsRegistry::Global().GetCounter("ckpt.writes");
  static Counter& failures =
      MetricsRegistry::Global().GetCounter("ckpt.write_failures");
  static Counter& bytes_written =
      MetricsRegistry::Global().GetCounter("ckpt.bytes_written");

  // A fired fault models a crash before the rename: per the atomicity
  // contract the target file must be left untouched, so the point sits
  // ahead of any filesystem mutation.
  if (FaultRegistry::AnyArmed()) {
    Status injected = FaultRegistry::Global().Check("ckpt.write");
    if (!injected.ok()) {
      failures.Increment();
      return injected;
    }
  }

  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    failures.Increment();
    return Errno("open", tmp);
  }
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = Errno("write", tmp);
      ::close(fd);
      ::unlink(tmp.c_str());
      failures.Increment();
      return st;
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    Status st = Errno("fsync", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    failures.Increment();
    return st;
  }
  if (::close(fd) != 0) {
    Status st = Errno("close", tmp);
    ::unlink(tmp.c_str());
    failures.Increment();
    return st;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status st = Errno("rename", tmp);
    ::unlink(tmp.c_str());
    failures.Increment();
    return st;
  }
  // Persist the rename itself: fsync the containing directory so the new
  // directory entry survives a power cut. The rename already happened, so
  // the file IS visible — but without the directory fsync a crash could
  // roll it back, which for a checkpoint is silent data loss. A failure
  // here is therefore an error, not a best-effort shrug.
  int dir_fd = ::open(DirName(path).c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) {
    failures.Increment();
    return Errno("open (directory fsync)", DirName(path));
  }
  if (::fsync(dir_fd) != 0) {
    Status st = Errno("fsync (directory)", DirName(path));
    ::close(dir_fd);
    failures.Increment();
    return st;
  }
  if (::close(dir_fd) != 0) {
    failures.Increment();
    return Errno("close (directory)", DirName(path));
  }
  writes.Increment();
  bytes_written.Increment(bytes.size());
  return Status::OK();
}

Result<std::string> ReadFileBytes(const std::string& path) {
  static Counter& reads = MetricsRegistry::Global().GetCounter("ckpt.reads");
  static Counter& failures =
      MetricsRegistry::Global().GetCounter("ckpt.read_failures");

  if (FaultRegistry::AnyArmed()) {
    Status injected = FaultRegistry::Global().Check("ckpt.read");
    if (!injected.ok()) {
      failures.Increment();
      return injected;
    }
  }

  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    failures.Increment();
    if (errno == ENOENT) {
      return Status::NotFound("no such artifact file: '" + path + "'");
    }
    return Errno("open", path);
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = Errno("read", path);
      ::close(fd);
      failures.Increment();
      return st;
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  reads.Increment();
  return out;
}

Status SaveArtifactFile(const std::string& path, const ArtifactWriter& doc) {
  return AtomicWriteFile(path, doc.Finish());
}

Result<ArtifactReader> LoadArtifactFile(const std::string& path,
                                        std::string_view expected_kind,
                                        uint32_t max_version) {
  GREATER_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  GREATER_ASSIGN_OR_RETURN_CTX(
      ArtifactReader reader,
      ArtifactReader::Parse(std::move(bytes), expected_kind, max_version),
      "artifact file '" + path + "'");
  return reader;
}

}  // namespace greater
