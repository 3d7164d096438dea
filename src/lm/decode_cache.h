#ifndef GREATER_LM_DECODE_CACHE_H_
#define GREATER_LM_DECODE_CACHE_H_

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "lm/language_model.h"

namespace greater {

/// Stable small-integer id of an interned allow-list (see
/// AllowListInterner). Cache keys compare ids in O(1) instead of hashing
/// the candidate vector per draw.
using AllowListId = uint32_t;

/// "No interned id": the draw bypasses the distribution cache.
inline constexpr AllowListId kNoAllowList = 0xffffffffu;

/// Configuration surface for the per-sampler decode cache (exposed on
/// GreatSynthesizer::Options and PipelineOptions). Every cached draw
/// replays Rng::Categorical exactly, so no setting here changes output.
struct DecodeCacheOptions {
  /// Master switch. Off = every draw recomputes the distribution (the
  /// pre-cache reference behaviour).
  bool enabled = true;
  /// Maximum distribution entries per cache (second-chance eviction above
  /// this bound).
  size_t capacity = 4096;
  /// Neural backbone only: memoize context-window -> hidden-layer vectors
  /// so repeated windows pay the O(h*W) embedding pass once.
  bool cache_hidden_states = true;
  /// Maximum cached hidden vectors (cache clears wholesale when full).
  size_t hidden_capacity = 1024;
};

/// Content-addressed registry of sorted, deduplicated candidate lists.
/// Built once (encoder Build + synthesizer Fit), read-only while sampling,
/// so many worker caches can share it without locks. Ids are assigned
/// densely from 0 in interning order and never change.
class AllowListInterner {
 public:
  /// Interns `ids` (sort-deduplicated first). Returns the existing id when
  /// an identical list was interned before.
  AllowListId Intern(std::vector<TokenId> ids);

  /// Id of an already-interned sorted list, or kNoAllowList.
  AllowListId Find(const std::vector<TokenId>& sorted) const;

  /// The canonical (strictly ascending) list behind an id.
  const std::vector<TokenId>& list(AllowListId id) const {
    return lists_[id];
  }

  size_t size() const { return lists_.size(); }

 private:
  struct VectorHash {
    size_t operator()(const std::vector<TokenId>& ids) const;
  };

  std::vector<std::vector<TokenId>> lists_;
  std::unordered_map<std::vector<TokenId>, AllowListId, VectorHash> index_;
};

/// Bounded memo of context-window -> hidden-layer activations for the
/// neural backbone. Capacity 0 disables it. Windows longer than
/// kMaxKeyTokens bypass the cache. Eviction is wholesale (clear when
/// full), which bounds memory while keeping the steady-state hit path
/// allocation-free.
class HiddenStateCache {
 public:
  static constexpr size_t kMaxKeyTokens = 16;

  void set_capacity(size_t n) {
    capacity_ = n;
    if (n == 0) map_.clear();
  }
  size_t capacity() const { return capacity_; }
  size_t size() const { return map_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

  /// Cached activations for the window, or nullptr (counts a miss).
  const std::vector<double>* Find(const TokenId* window, size_t len);
  void Insert(const TokenId* window, size_t len,
              const std::vector<double>& hidden);

 private:
  struct Key {
    std::array<TokenId, kMaxKeyTokens> ids{};
    uint32_t len = 0;
    bool operator==(const Key& other) const {
      return len == other.len && ids == other.ids;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };

  size_t capacity_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  std::unordered_map<Key, std::vector<double>, KeyHash> map_;
};

/// Reusable per-sampler decode buffers: one allocation set per worker
/// instead of one per scored or sampled token. Threaded through
/// LanguageModel::SampleNext / NextTokenWeightsRestricted / TokenLogProb
/// and owned by GreatSynthesizer::SamplerWorkspace.
struct DecodeWorkspace {
  std::vector<double> weights;   ///< candidate-weight scratch
  std::vector<double> probs;     ///< full-vocabulary scratch
  std::vector<double> hidden;    ///< neural hidden activations
  std::vector<TokenId> window;   ///< neural context window
  HiddenStateCache hidden_cache; ///< neural window->hidden memo
};

/// Memoizes restricted next-token distributions keyed by (packed context
/// suffix, allow-list id, temperature). One instance per sampling worker —
/// never shared across threads — with bounded second-chance eviction.
///
/// Each entry stores the temperature-shaped candidate weights as a
/// cumulative table, so a repeat draw costs a key pack + hash lookup +
/// O(log K) draw instead of the model's full interpolation or output-layer
/// pass. The context part of the key covers exactly the suffix the model
/// conditions on (LanguageModel::context_dependence), which is what makes
/// encoded rows that share templates hit the cache thousands of times per
/// run.
///
/// Admission: lookups are scored in windows of kAdmitWindow. The first
/// window admits every miss (a cold cache misses by construction). After
/// it, insertion stops as soon as a window can no longer hit at least half
/// the time, and a window that does turns it back on, so a workload whose
/// contexts rarely repeat stops paying for entries it never reuses. When
/// insertion stops, entries with a clear referenced bit (no hit since they
/// were admitted or since the clock hand last passed them) are evicted;
/// lookups keep probing the rest. A refused miss resolves into one
/// per-cache scratch entry, valid until the next resolution like any other
/// handle. Each entry's table is held at its live
/// size, so bytes() tracks what the entries actually store.
///
/// Determinism: every draw is bitwise-identical to LanguageModel::SampleNext
/// with the same arguments, including Rng stream advance (golden-tested).
/// Admission only decides where a distribution is kept, never its values.
/// Counters lm.cache.{hits,misses,evictions} and the lm.cache.bytes gauge
/// track the global registry; per-instance LocalStats back unit tests
/// without registry coupling.
class DecodeCache {
 public:
  struct LocalStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t uncacheable = 0;  ///< draws bypassing the cache entirely
    uint64_t refused = 0;      ///< misses resolved without insertion
  };

  /// Lookups per admission window.
  static constexpr uint32_t kAdmitWindow = 256;

  explicit DecodeCache(const DecodeCacheOptions& options);
  ~DecodeCache();
  DecodeCache(const DecodeCache&) = delete;
  DecodeCache& operator=(const DecodeCache&) = delete;

  /// Samples the next token from lm's restricted distribution under
  /// `temperature`, through the cache. `candidates` must be strictly
  /// ascending and must be the list registered under `allow_id` (pass
  /// kNoAllowList to bypass — the draw then goes through lm.SampleNext
  /// with the workspace, still allocation-free but uncached).
  TokenId SampleRestricted(const LanguageModel& lm,
                           const TokenSequence& context,
                           const std::vector<TokenId>& candidates,
                           AllowListId allow_id, double temperature,
                           Rng* rng, DecodeWorkspace* ws);

  /// Content-addressed interning for allow-lists not known at Build time
  /// (the synthesizer's shrinking column-name lists). `candidates` must be
  /// strictly ascending. Ids live in a private per-cache namespace
  /// disjoint from AllowListInterner ids; the first sighting of a list
  /// copies it, later calls are a find (no allocation).
  AllowListId InternTransient(const std::vector<TokenId>& candidates);

  /// Handle to a resolved distribution, for the batched decode engine's
  /// one-evaluation-per-group draws. Valid only until the next
  /// ResolveRestricted / SampleRestricted call on this cache (resolution
  /// may insert, which can evict or move slot storage, or overwrite the
  /// scratch entry).
  struct ResolvedDist {
    uint32_t slot = 0;
    bool cacheable = false;  ///< false: fall back to per-lane sampling
  };

  /// Looks up or computes (and, when admitting, inserts) the restricted
  /// distribution WITHOUT drawing, counting one hit or miss — so one
  /// resolution can serve a draw for every lane of a batch group. Returns
  /// cacheable=false (and counts nothing) when the cache is disabled,
  /// `allow_id` is kNoAllowList, or the context window is unpackable.
  ResolvedDist ResolveRestricted(const LanguageModel& lm,
                                 const TokenSequence& context,
                                 const std::vector<TokenId>& candidates,
                                 AllowListId allow_id, double temperature,
                                 DecodeWorkspace* ws);

  /// One draw from a resolved distribution: bitwise-identical (tokens and
  /// Rng advance) to the draw SampleRestricted would have made against the
  /// same entry. `candidates` must equal the list the entry was built for.
  TokenId DrawResolved(const ResolvedDist& dist,
                       const std::vector<TokenId>& candidates,
                       Rng* rng) const;

  /// Vectorized DrawResolved over a lane group: out[k] receives exactly
  /// the token DrawResolved(dist, candidates, rngs[k]) would return, with
  /// each rng advancing identically — every lane draws only from its own
  /// stream, so the grouped draw is bitwise-equal to the per-lane loop at
  /// any group size. `scratch` stages the drawn indices and is only grown,
  /// never shrunk, so a reserved buffer makes the steady state
  /// allocation-free.
  void DrawResolvedMany(const ResolvedDist& dist,
                        const std::vector<TokenId>& candidates,
                        Rng* const* rngs, size_t count, TokenId* out,
                        std::vector<size_t>* scratch) const;

  const LocalStats& stats() const { return stats_; }
  size_t size() const { return index_.size(); }
  /// Memory held by admitted entries (the scratch entry is not counted).
  size_t bytes() const { return bytes_; }
  /// Whether the next miss would be inserted.
  bool admitting() const { return admitting_; }
  const DecodeCacheOptions& options() const { return options_; }

 private:
  static constexpr size_t kMaxKeyTokens = 16;
  /// Transient allow-list ids start here (still < kNoAllowList).
  static constexpr AllowListId kTransientBase = 0x80000000u;
  /// ResolvedDist::slot of a refused miss: the scratch entry.
  static constexpr uint32_t kScratchSlot = 0xffffffffu;

  struct Key {
    std::array<TokenId, kMaxKeyTokens> ctx{};
    uint32_t ctx_len = 0;
    AllowListId allow = kNoAllowList;
    uint64_t temp_bits = 0;
    bool operator==(const Key& other) const {
      return ctx_len == other.ctx_len && allow == other.allow &&
             temp_bits == other.temp_bits && ctx == other.ctx;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  struct Entry {
    Key key;
    std::vector<double> cdf;  ///< running weight sums
    double total = 0.0;       ///< left-to-right weight sum (cdf.back())
    uint8_t referenced = 0;   ///< second-chance bit
  };
  struct TransientHash {
    size_t operator()(const std::vector<TokenId>& ids) const;
  };

  /// Packs the trailing `limit`-token window of (bos + context) into
  /// `key`. False when the window exceeds kMaxKeyTokens (uncacheable).
  static bool PackContext(const TokenSequence& context, size_t limit,
                          Key* key);

  size_t EntryBytes(const Entry& entry) const;
  /// Counts one lookup toward the admission window; closing a window sets
  /// admitting_ from its hit rate.
  void NoteLookup(bool hit);
  /// Evicts every entry whose referenced bit is clear, compacting the
  /// rest to the front of slots_.
  void DropUnreferenced();
  const Entry& EntryFor(const ResolvedDist& dist) const {
    return dist.slot == kScratchSlot ? scratch_ : slots_[dist.slot];
  }
  uint32_t Insert(const Key& key, const std::vector<double>& weights);
  TokenId Draw(const Entry& entry, const std::vector<TokenId>& candidates,
               Rng* rng) const;

  DecodeCacheOptions options_;
  std::vector<Entry> slots_;
  std::unordered_map<Key, uint32_t, KeyHash> index_;
  size_t clock_hand_ = 0;
  size_t bytes_ = 0;
  LocalStats stats_;
  bool admitting_ = true;
  bool warm_ = false;  ///< the first (unjudged) window has closed
  uint32_t window_lookups_ = 0;
  uint32_t window_hits_ = 0;
  Entry scratch_;  ///< a refused miss's distribution
  std::unordered_map<std::vector<TokenId>, AllowListId, TransientHash>
      transient_;
};

}  // namespace greater

#endif  // GREATER_LM_DECODE_CACHE_H_
