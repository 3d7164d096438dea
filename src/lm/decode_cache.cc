#include "lm/decode_cache.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "obs/metrics.h"

namespace greater {
namespace {

// SplitMix64-style mixing shared by the key hashes.
inline uint64_t MixStep(uint64_t h, uint64_t value) {
  h ^= value;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

uint64_t HashTokenSpan(const TokenId* ids, size_t len, uint64_t seed) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ seed;
  for (size_t i = 0; i < len; ++i) {
    h = MixStep(h, static_cast<uint64_t>(static_cast<uint32_t>(ids[i])));
  }
  return h;
}

// Global cache instrumentation; pointers cached once per process so the
// hit path is one relaxed atomic add.
struct CacheCounters {
  Counter* hits;
  Counter* misses;
  Counter* evictions;
  Gauge* bytes;
  Counter* sample_restricted;
  CacheCounters() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    hits = &registry.GetCounter("lm.cache.hits");
    misses = &registry.GetCounter("lm.cache.misses");
    evictions = &registry.GetCounter("lm.cache.evictions");
    bytes = &registry.GetGauge("lm.cache.bytes");
    sample_restricted = &registry.GetCounter("lm.sample_next_restricted");
  }
};

const CacheCounters& GetCacheCounters() {
  static const CacheCounters counters;
  return counters;
}

// The cumulative table replays Rng::Categorical's left-to-right running
// sum bit for bit.
void FillCdf(const std::vector<double>& weights, std::vector<double>* cdf,
             double* total) {
  cdf->clear();
  double cum = 0.0;
  for (double w : weights) {
    cum += w;
    cdf->push_back(cum);
  }
  *total = cum;
}

}  // namespace

// ---------------------------------------------------------------------------
// AllowListInterner

size_t AllowListInterner::VectorHash::operator()(
    const std::vector<TokenId>& ids) const {
  return static_cast<size_t>(HashTokenSpan(ids.data(), ids.size(), 0));
}

AllowListId AllowListInterner::Intern(std::vector<TokenId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  auto it = index_.find(ids);
  if (it != index_.end()) return it->second;
  AllowListId id = static_cast<AllowListId>(lists_.size());
  lists_.push_back(ids);
  index_.emplace(std::move(ids), id);
  return id;
}

AllowListId AllowListInterner::Find(
    const std::vector<TokenId>& sorted) const {
  auto it = index_.find(sorted);
  return it == index_.end() ? kNoAllowList : it->second;
}

// ---------------------------------------------------------------------------
// HiddenStateCache

size_t HiddenStateCache::KeyHash::operator()(const Key& key) const {
  return static_cast<size_t>(
      HashTokenSpan(key.ids.data(), key.len, 0xabcdef12u));
}

const std::vector<double>* HiddenStateCache::Find(const TokenId* window,
                                                  size_t len) {
  if (capacity_ == 0 || len > kMaxKeyTokens) return nullptr;
  Key key;
  key.len = static_cast<uint32_t>(len);
  std::copy(window, window + len, key.ids.begin());
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return &it->second;
}

void HiddenStateCache::Insert(const TokenId* window, size_t len,
                              const std::vector<double>& hidden) {
  if (capacity_ == 0 || len > kMaxKeyTokens) return;
  if (map_.size() >= capacity_) map_.clear();  // wholesale epoch eviction
  Key key;
  key.len = static_cast<uint32_t>(len);
  std::copy(window, window + len, key.ids.begin());
  map_.emplace(key, hidden);
}

// ---------------------------------------------------------------------------
// DecodeCache

size_t DecodeCache::KeyHash::operator()(const Key& key) const {
  uint64_t h = HashTokenSpan(key.ctx.data(), key.ctx_len,
                             static_cast<uint64_t>(key.allow));
  h = MixStep(h, key.temp_bits);
  h = MixStep(h, key.ctx_len);
  return static_cast<size_t>(h);
}

size_t DecodeCache::TransientHash::operator()(
    const std::vector<TokenId>& ids) const {
  return static_cast<size_t>(HashTokenSpan(ids.data(), ids.size(), 0x7177u));
}

DecodeCache::DecodeCache(const DecodeCacheOptions& options)
    : options_(options) {
  options_.capacity = std::max<size_t>(1, options_.capacity);
}

DecodeCache::~DecodeCache() {
  if (bytes_ > 0) {
    GetCacheCounters().bytes->Add(-static_cast<double>(bytes_));
  }
}

bool DecodeCache::PackContext(const TokenSequence& context, size_t limit,
                              Key* key) {
  // Effective prefix = bos + context; the model reads its last `limit`
  // tokens. Replicate that window without materializing the prefix.
  size_t padded_size = context.size() + 1;
  size_t take = std::min(limit, padded_size);
  if (take > kMaxKeyTokens) return false;
  key->ctx_len = static_cast<uint32_t>(take);
  size_t start = padded_size - take;  // index into [bos, context...]
  for (size_t j = 0; j < take; ++j) {
    size_t idx = start + j;
    key->ctx[j] = idx == 0 ? Vocabulary::kBosId : context[idx - 1];
  }
  return true;
}

size_t DecodeCache::EntryBytes(const Entry& entry) const {
  return sizeof(Entry) + entry.cdf.capacity() * sizeof(double);
}

void DecodeCache::NoteLookup(bool hit) {
  window_hits_ += hit ? 1 : 0;
  ++window_lookups_;
  // The first window fills a cold cache unjudged. After it, insertion
  // stops as soon as a window can no longer reach half hits, and a
  // closing window that did reach them turns it back on. Only a miss can
  // stop it, so no caller holds a slot when DropUnreferenced runs.
  if (warm_ && admitting_ &&
      2 * (window_lookups_ - window_hits_) > kAdmitWindow) {
    admitting_ = false;
    DropUnreferenced();
  }
  if (window_lookups_ < kAdmitWindow) return;
  admitting_ = !warm_ || 2 * window_hits_ >= kAdmitWindow;
  warm_ = true;
  window_lookups_ = 0;
  window_hits_ = 0;
}

void DecodeCache::DropUnreferenced() {
  size_t kept = 0;
  for (size_t slot = 0; slot < slots_.size(); ++slot) {
    Entry& entry = slots_[slot];
    if (!entry.referenced) {
      const size_t freed = EntryBytes(entry);
      bytes_ -= freed;
      GetCacheCounters().bytes->Add(-static_cast<double>(freed));
      index_.erase(entry.key);
      ++stats_.evictions;
      GetCacheCounters().evictions->Increment();
      continue;
    }
    if (kept != slot) {
      slots_[kept] = std::move(entry);
      index_[slots_[kept].key] = static_cast<uint32_t>(kept);
    }
    ++kept;
  }
  slots_.resize(kept);
  clock_hand_ = 0;
}

uint32_t DecodeCache::Insert(const Key& key,
                             const std::vector<double>& weights) {
  uint32_t slot;
  if (slots_.size() < options_.capacity) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    // Second-chance (clock) eviction: skip recently referenced entries
    // once, evict the first unreferenced one the hand reaches.
    for (;;) {
      Entry& candidate = slots_[clock_hand_];
      if (candidate.referenced) {
        candidate.referenced = 0;
        clock_hand_ = (clock_hand_ + 1) % slots_.size();
        continue;
      }
      slot = static_cast<uint32_t>(clock_hand_);
      clock_hand_ = (clock_hand_ + 1) % slots_.size();
      break;
    }
    Entry& victim = slots_[slot];
    bytes_ -= EntryBytes(victim);
    GetCacheCounters().bytes->Add(-static_cast<double>(EntryBytes(victim)));
    index_.erase(victim.key);
    ++stats_.evictions;
    GetCacheCounters().evictions->Increment();
  }

  Entry& entry = slots_[slot];
  entry.key = key;
  entry.referenced = 0;
  // A reused slot takes exactly the new list's size: keeping the largest
  // table it ever held would let every slot creep to the widest list.
  if (entry.cdf.capacity() != weights.size()) {
    std::vector<double> exact;
    exact.reserve(weights.size());
    entry.cdf.swap(exact);
  }
  FillCdf(weights, &entry.cdf, &entry.total);
  size_t added = EntryBytes(entry);
  bytes_ += added;
  GetCacheCounters().bytes->Add(static_cast<double>(added));
  index_[key] = slot;
  return slot;
}

TokenId DecodeCache::Draw(const Entry& entry,
                          const std::vector<TokenId>& candidates,
                          Rng* rng) const {
  if (entry.total <= 0.0 || candidates.empty()) {
    // All-zero candidate mass: uniform over the allow-list, exactly like
    // LanguageModel::SampleNext's degradation path.
    if (!candidates.empty()) return candidates[rng->Index(candidates.size())];
    return Vocabulary::kEosId;
  }
  assert(entry.cdf.size() == candidates.size());
  // target < cum_i selects the same bucket (and consumes the same single
  // uniform) as the linear scan in Rng::Categorical.
  double target = rng->Uniform() * entry.total;
  auto it = std::upper_bound(entry.cdf.begin(), entry.cdf.end(), target);
  size_t idx = it == entry.cdf.end()
                   ? entry.cdf.size() - 1  // numerical slack, as uncached
                   : static_cast<size_t>(it - entry.cdf.begin());
  return candidates[idx];
}

AllowListId DecodeCache::InternTransient(
    const std::vector<TokenId>& candidates) {
  auto it = transient_.find(candidates);
  if (it != transient_.end()) return it->second;
  AllowListId id =
      kTransientBase + static_cast<AllowListId>(transient_.size());
  if (id >= kNoAllowList) return kNoAllowList;  // namespace exhausted
  transient_.emplace(candidates, id);
  return id;
}

DecodeCache::ResolvedDist DecodeCache::ResolveRestricted(
    const LanguageModel& lm, const TokenSequence& context,
    const std::vector<TokenId>& candidates, AllowListId allow_id,
    double temperature, DecodeWorkspace* ws) {
  ResolvedDist dist;
  if (!options_.enabled || allow_id == kNoAllowList) return dist;
  Key key;
  if (!PackContext(context, lm.context_dependence(), &key)) return dist;
  key.allow = allow_id;
  uint64_t temp_bits;
  static_assert(sizeof(temp_bits) == sizeof(temperature));
  std::memcpy(&temp_bits, &temperature, sizeof(temp_bits));
  key.temp_bits = temp_bits;

  GetCacheCounters().sample_restricted->Increment();
  dist.cacheable = true;
  auto it = index_.find(key);
  if (it != index_.end()) {
    NoteLookup(true);
    Entry& entry = slots_[it->second];
    entry.referenced = 1;
    ++stats_.hits;
    GetCacheCounters().hits->Increment();
    dist.slot = it->second;
    return dist;
  }
  NoteLookup(false);
  ++stats_.misses;
  GetCacheCounters().misses->Increment();
  lm.NextTokenWeightsRestricted(context, candidates, ws, &ws->weights);
  ApplyTemperatureShaping(&ws->weights, temperature);
  if (admitting_) {
    dist.slot = Insert(key, ws->weights);
    return dist;
  }
  ++stats_.refused;
  FillCdf(ws->weights, &scratch_.cdf, &scratch_.total);
  dist.slot = kScratchSlot;
  return dist;
}

TokenId DecodeCache::DrawResolved(const ResolvedDist& dist,
                                  const std::vector<TokenId>& candidates,
                                  Rng* rng) const {
  assert(dist.cacheable);
  return Draw(EntryFor(dist), candidates, rng);
}

void DecodeCache::DrawResolvedMany(const ResolvedDist& dist,
                                   const std::vector<TokenId>& candidates,
                                   Rng* const* rngs, size_t count,
                                   TokenId* out,
                                   std::vector<size_t>* scratch) const {
  assert(dist.cacheable);
  const Entry& entry = EntryFor(dist);
  if (entry.total <= 0.0 || candidates.empty()) {
    // Zero candidate mass: Draw's uniform degradation path, per lane.
    for (size_t k = 0; k < count; ++k) {
      out[k] = candidates.empty()
                   ? Vocabulary::kEosId
                   : candidates[rngs[k]->Index(candidates.size())];
    }
    return;
  }
  assert(entry.cdf.size() == candidates.size());
  // Each lane consumes its single uniform exactly as Draw does; indices are
  // staged, then mapped to candidate tokens in one sweep.
  if (scratch->size() < count) scratch->resize(count);
  size_t* idx = scratch->data();
  for (size_t k = 0; k < count; ++k) {
    double target = rngs[k]->Uniform() * entry.total;
    auto it = std::upper_bound(entry.cdf.begin(), entry.cdf.end(), target);
    idx[k] = it == entry.cdf.end()
                 ? entry.cdf.size() - 1  // numerical slack, as uncached
                 : static_cast<size_t>(it - entry.cdf.begin());
  }
  for (size_t k = 0; k < count; ++k) out[k] = candidates[idx[k]];
}

TokenId DecodeCache::SampleRestricted(const LanguageModel& lm,
                                      const TokenSequence& context,
                                      const std::vector<TokenId>& candidates,
                                      AllowListId allow_id, double temperature,
                                      Rng* rng, DecodeWorkspace* ws) {
  ResolvedDist dist = ResolveRestricted(lm, context, candidates, allow_id,
                                        temperature, ws);
  if (!dist.cacheable) {
    ++stats_.uncacheable;
    return lm.SampleNext(context, rng, temperature, &candidates, ws);
  }
  return DrawResolved(dist, candidates, rng);
}

}  // namespace greater
