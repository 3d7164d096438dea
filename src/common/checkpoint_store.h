#ifndef GREATER_COMMON_CHECKPOINT_STORE_H_
#define GREATER_COMMON_CHECKPOINT_STORE_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

#include "common/artifact_io.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace greater {

/// Running content fingerprint that keys checkpoints: 64-bit FNV-1a over
/// length-prefixed contributions, so Mix("ab") + Mix("c") never collides
/// with Mix("a") + Mix("bc"). Not cryptographic — the chain guards against
/// stale reuse across honest input changes; the artifact container's
/// CRC-32 covers on-disk corruption.
class CheckpointChain {
 public:
  CheckpointChain();
  /// Resumes a chain at a value another chain reached: Mix calls from
  /// here key exactly as they would have continued on that chain.
  explicit CheckpointChain(uint64_t value) : value_(value) {}

  void Mix(std::string_view bytes);
  uint64_t value() const { return value_; }

 private:
  uint64_t value_;
};

/// Content-addressed checkpoint store (DESIGN.md, "Checkpoint store"):
/// documents of one artifact kind, each at
/// `<dir>/<name>.<16-hex key>.ckpt`, where the caller picks the name (its
/// namespace: a stage, or a chunk label plus index) and derives the key
/// from a CheckpointChain. The store knows nothing about what the caller
/// keys on or what a document holds.
///
/// Failure policy: checkpoints accelerate, never gate. An absent or
/// unreadable file (or an injected "ckpt.read" fault) is a miss; a file
/// that does not parse as this store's kind and version, or whose payload
/// the caller cannot restore, is corrupt and a miss. A hit counts only
/// after the restore succeeded. A failed build or write (torn disk,
/// injected "ckpt.write" fault) is counted and swallowed; the atomic
/// writer leaves any previous file intact.
///
/// Exports `<family>_hits`, `_misses`, `_corrupt`, `_stores` and
/// `_store_failures`. With an empty `dir` the store is disabled: Restore
/// misses without counting and Store builds nothing. Restore and Store are
/// thread-safe.
class CheckpointStore {
 public:
  /// Decodes a parsed document into the caller's state. It must leave that
  /// state untouched when it fails.
  using RestoreFn = std::function<Status(const ArtifactReader&)>;
  /// Fills a fresh document of the store's kind and version.
  using BuildFn = std::function<Status(ArtifactWriter*)>;

  CheckpointStore(std::string dir, std::string kind, uint32_t version,
                  const std::string& counter_family);

  bool enabled() const { return !dir_.empty(); }

  std::string Path(std::string_view name, uint64_t key) const;

  /// Reads, parses and restores `name` at `key`; true on a hit.
  bool Restore(std::string_view name, uint64_t key,
               const RestoreFn& restore);

  /// Builds, serializes and atomically writes `name` at `key`. Returns the
  /// serialized document (even when the write failed), or an empty string
  /// when disabled or when `build` failed.
  std::string Store(std::string_view name, uint64_t key,
                    const BuildFn& build);

 private:
  const std::string dir_;
  const std::string kind_;
  const uint32_t version_;
  Counter& hits_;
  Counter& misses_;
  Counter& corrupt_;
  Counter& stores_;
  Counter& store_failures_;

  std::mutex dir_mu_;
  bool dir_ready_ = false;
};

}  // namespace greater

#endif  // GREATER_COMMON_CHECKPOINT_STORE_H_
