#include "common/checkpoint_store.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <utility>

namespace greater {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x00000100000001b3ull;

uint64_t Fnv1a(std::string_view bytes, uint64_t seed) {
  uint64_t h = seed;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::string HexU64(uint64_t v) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kDigits[v & 0xf];
    v >>= 4;
  }
  return out;
}

}  // namespace

CheckpointChain::CheckpointChain() : value_(kFnvOffset) {}

void CheckpointChain::Mix(std::string_view bytes) {
  uint64_t len = bytes.size();
  char prefix[8];
  for (int i = 0; i < 8; ++i) {
    prefix[i] = static_cast<char>((len >> (8 * i)) & 0xff);
  }
  value_ = Fnv1a(std::string_view(prefix, 8), value_);
  value_ = Fnv1a(bytes, value_);
}

CheckpointStore::CheckpointStore(std::string dir, std::string kind,
                                 uint32_t version,
                                 const std::string& counter_family)
    : dir_(std::move(dir)),
      kind_(std::move(kind)),
      version_(version),
      hits_(MetricsRegistry::Global().GetCounter(counter_family + "_hits")),
      misses_(
          MetricsRegistry::Global().GetCounter(counter_family + "_misses")),
      corrupt_(
          MetricsRegistry::Global().GetCounter(counter_family + "_corrupt")),
      stores_(
          MetricsRegistry::Global().GetCounter(counter_family + "_stores")),
      store_failures_(MetricsRegistry::Global().GetCounter(
          counter_family + "_store_failures")) {}

std::string CheckpointStore::Path(std::string_view name, uint64_t key) const {
  std::string path = dir_;
  path += '/';
  path += name;
  path += '.';
  path += HexU64(key);
  path += ".ckpt";
  return path;
}

bool CheckpointStore::Restore(std::string_view name, uint64_t key,
                              const RestoreFn& restore) {
  if (!enabled()) return false;
  Result<std::string> bytes = ReadFileBytes(Path(name, key));
  if (!bytes.ok()) {
    misses_.Increment();
    return false;
  }
  Result<ArtifactReader> doc =
      ArtifactReader::Parse(std::move(bytes).ValueOrDie(), kind_, version_);
  if (!doc.ok() || !restore(*doc).ok()) {
    // Torn write survivor, bit rot, a future format, or a document that
    // parses but does not decode: degraded to a recompute.
    corrupt_.Increment();
    misses_.Increment();
    return false;
  }
  hits_.Increment();
  return true;
}

std::string CheckpointStore::Store(std::string_view name, uint64_t key,
                                   const BuildFn& build) {
  if (!enabled()) return std::string();
  ArtifactWriter doc(kind_, version_);
  if (!build(&doc).ok()) {
    store_failures_.Increment();
    return std::string();
  }
  std::string bytes = doc.Finish();
  {
    std::lock_guard<std::mutex> lock(dir_mu_);
    if (!dir_ready_) {
      if (::mkdir(dir_.c_str(), 0777) != 0 && errno != EEXIST) {
        store_failures_.Increment();
        return bytes;
      }
      dir_ready_ = true;
    }
  }
  if (AtomicWriteFile(Path(name, key), bytes).ok()) {
    stores_.Increment();
  } else {
    store_failures_.Increment();
  }
  return bytes;
}

}  // namespace greater
