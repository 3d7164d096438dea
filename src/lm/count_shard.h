#ifndef GREATER_LM_COUNT_SHARD_H_
#define GREATER_LM_COUNT_SHARD_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "text/vocabulary.h"

namespace greater {

/// Token sequence alias mirrored from lm/language_model.h (kept local so
/// the count layer does not pull in the full model interface).
using CountTokenSequence = std::vector<TokenId>;

/// Maximum n-gram order shared by the count shards and NGramLm
/// (NGramLm::kMaxOrder aliases this).
inline constexpr size_t kNGramMaxOrder = 8;

/// Open-addressed hash table from a packed u64 key to a `V`: one
/// contiguous slot array, linear probing, power-of-two capacity that
/// doubles at half load, no erase. Keys are `Pack(hi, lo)` of a node id
/// and a token id; token ids are non-negative TokenIds, so the low half is
/// never all ones and the all-ones key can mark an empty slot.
template <typename V>
class FlatU64Table {
 public:
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  struct Slot {
    uint64_t key = kEmpty;
    V value{};
  };

  static uint64_t Pack(uint32_t hi, TokenId lo) {
    return (uint64_t{hi} << 32) | static_cast<uint32_t>(lo);
  }

  /// Value for `key`, value-initialized when absent (`*inserted`, if
  /// given, reports which). The pointer is valid until the next insertion.
  V* FindOrInsert(uint64_t key, bool* inserted = nullptr) {
    if ((size_ + 1) * 2 > slots_.size()) {
      Rehash(std::max<size_t>(16, slots_.size() * 2));
    }
    const size_t mask = slots_.size() - 1;
    for (size_t i = MixKey(key) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.key == key) {
        if (inserted != nullptr) *inserted = false;
        return &slot.value;
      }
      if (slot.key == kEmpty) {
        slot.key = key;
        ++size_;
        if (inserted != nullptr) *inserted = true;
        return &slot.value;
      }
    }
  }

  /// Value for `key`, or nullptr when absent.
  const V* Find(uint64_t key) const {
    if (slots_.empty()) return nullptr;
    const size_t mask = slots_.size() - 1;
    for (size_t i = MixKey(key) & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.key == key) return &slot.value;
      if (slot.key == kEmpty) return nullptr;
    }
  }

  /// Hints the cache to load the slot where a probe for `key` starts.
  void Prefetch(uint64_t key) const {
    if (!slots_.empty()) {
      __builtin_prefetch(&slots_[MixKey(key) & (slots_.size() - 1)]);
    }
  }

  /// Sizes the slot array for `n` keys without further growth.
  void Reserve(size_t n) {
    size_t capacity = 16;
    while (capacity < n * 2) capacity *= 2;
    if (capacity > slots_.size()) Rehash(capacity);
  }

  /// Every slot, empty ones included (key == kEmpty); order is the hash
  /// layout, so callers that need a canonical order must sort.
  const std::vector<Slot>& slots() const { return slots_; }

  size_t MemoryBytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  // MurmurHash3 fmix64: spreads the (id, token) halves over the low bits
  // the power-of-two mask keeps.
  static size_t MixKey(uint64_t key) {
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdULL;
    key ^= key >> 33;
    key *= 0xc4ceb9fe1a85ec53ULL;
    key ^= key >> 33;
    return static_cast<size_t>(key);
  }

  void Rehash(size_t capacity) {
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    const size_t mask = capacity - 1;
    for (const Slot& slot : old) {
      if (slot.key == kEmpty) continue;
      size_t i = MixKey(slot.key) & mask;
      while (slots_[i].key != kEmpty) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

/// The frozen model's child index: (suffix context, oldest token) ->
/// context id.
using FlatU64Map = FlatU64Table<uint64_t>;

/// One shard's n-gram counts: the exact integer fit-time accumulator.
/// Counts are unsigned integers, so merging shards is exact regardless of
/// merge order — the foundation of NGramLm::FitStreaming's "bitwise-
/// identical at any shard count" contract (floating-point arithmetic
/// happens once, when NGramLm freezes the merged counts).
///
/// Contexts are nodes of a forward trie. Node 0 is the empty context; node
/// n is the context `prefix[n]` with `token[n]` appended as its newest
/// token, and `suffix[n]` is the node of the same context without its
/// oldest token. The trie is closed under both: creating a node creates
/// its suffix first. One FlatU64Table keyed by (context, next token) holds
/// a Cell per pair.
///
/// Counting a position probes ONE cell: the one of its longest context
/// (min(position, order-1) tokens) and the target. That cell's `next` is
/// the longest context of the following position — the context extended
/// by the target while it is shorter than order-1, else its suffix
/// extended by the target — so a token costs one probe and the walk never
/// hashes a shorter context. For a context shorter than order-1, `next`
/// is therefore also the trie edge to its extension. The shorter contexts'
/// counts are implied by the longest ones: FinishCounts adds each cell's
/// count into the cell of its context's suffix, longest contexts first,
/// and sums the per-context totals.
///
/// After FinishCounts, every node other than the root precedes at least
/// one target (total > 0), and the only zero-count cell is the <bos> edge
/// from the root: <bos> starts every sequence but is never a target.
/// Contexts ending in the closing <eos> are never created.
///
/// A shard is also the per-worker arena for streaming fit: counting keeps
/// no per-sequence state beyond one node id, and the tables grow by
/// doubling, so steady-state accumulation performs no per-sequence heap
/// allocation.
class CountShard {
 public:
  /// Node id that marks "not created yet" in a Cell (the root is never
  /// anyone's successor).
  static constexpr uint32_t kNoNode = 0;

  struct Cell {
    uint64_t count = 0;      // observations of the token after the context
    uint32_t next = kNoNode;  // the following position's longest context
  };
  using CellTable = FlatU64Table<Cell>;

  /// `order` is the n-gram order (context lengths 0 .. order-1), already
  /// clamped by the caller to [2, kNGramMaxOrder].
  explicit CountShard(size_t order);

  size_t order() const { return order_; }
  uint64_t sequences() const { return sequences_; }
  size_t num_nodes() const { return prefix_.size(); }
  /// Per node: the context without its newest token, the newest token
  /// (unused at the root), the context without its oldest token, and the
  /// context length.
  const std::vector<uint32_t>& prefixes() const { return prefix_; }
  const std::vector<TokenId>& tokens() const { return token_; }
  const std::vector<uint32_t>& suffixes() const { return suffix_; }
  const std::vector<uint8_t>& depths() const { return depth_; }
  /// Observations of any successor after each context; filled by
  /// FinishCounts.
  const std::vector<uint64_t>& totals() const { return total_; }
  /// (node, next token) -> Cell. Counts cover every context length only
  /// after FinishCounts.
  const CellTable& cells() const { return cells_; }

  /// `node` (shorter than order-1) extended by `token` as its newest
  /// token, or -1 when absent.
  int64_t FindChild(uint32_t node, TokenId token) const;

  /// Count of `target` after `node` (0 when absent).
  uint64_t SuccessorCount(uint32_t node, TokenId target) const;

  /// Validates every token id in `sequences` against `vocab_size` (same
  /// error contract as NGramLm::Fit), then counts every n-gram of each
  /// [bos, ...sequence, eos] with unit weight.
  /// Validation completes before any accumulation, so a failed chunk
  /// leaves the shard with no partial contribution from it.
  Status AccumulateChunk(const std::vector<CountTokenSequence>& sequences,
                         size_t vocab_size);

  /// Folds `other`'s counts into this shard. Other's nodes are remapped in
  /// id order (prefixes precede extensions, so one pass suffices). Integer
  /// addition is exact, so any fold order yields identical counts; callers
  /// still fold in fixed shard-index order to keep the plan auditable.
  /// Both shards must be unfinished.
  void Merge(CountShard&& other);

  /// Completes the counts at every context length and the per-context
  /// totals (see the class comment). Call once, after the last
  /// AccumulateChunk or Merge.
  void FinishCounts();

 private:
  /// Counts one token of a sequence whose longest context is `context`
  /// and returns the following position's longest context.
  uint32_t Step(uint32_t context, TokenId token);

  /// Counts sequences[0 .. count), already validated.
  void AccumulateSequences(const CountTokenSequence* sequences, size_t count);

  /// The node extending `node` (shorter than order-1) by `token`, created
  /// — after its suffix — when absent.
  uint32_t ChildOrInsert(uint32_t node, TokenId token);

  size_t order_;
  uint64_t sequences_ = 0;
  std::vector<uint32_t> prefix_;  // index 0 is the empty context
  std::vector<TokenId> token_;
  std::vector<uint32_t> suffix_;
  std::vector<uint8_t> depth_;
  std::vector<uint64_t> total_;
  CellTable cells_;
};

}  // namespace greater

#endif  // GREATER_LM_COUNT_SHARD_H_
