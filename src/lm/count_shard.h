#ifndef GREATER_LM_COUNT_SHARD_H_
#define GREATER_LM_COUNT_SHARD_H_

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

/// Open-addressed hash table from a packed u64 key to a u64 value: one
/// contiguous slot array, linear probing, power-of-two capacity that
/// doubles at half load, no erase. Keys are `Pack(hi, lo)` of a node id
/// and a token id; token ids are non-negative TokenIds, so the low half is
/// never all ones and the all-ones key can mark an empty slot.
class FlatU64Map {
 public:
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  struct Slot {
    uint64_t key = kEmpty;
    uint64_t value = 0;
  };

  static uint64_t Pack(uint32_t hi, TokenId lo) {
    return (uint64_t{hi} << 32) | static_cast<uint32_t>(lo);
  }

  /// Value for `key`, inserted as 0 when absent (`*inserted`, if given,
  /// reports which). The pointer is valid until the next insertion.
  uint64_t* FindOrInsert(uint64_t key, bool* inserted = nullptr);

  /// Value for `key`, or nullptr when absent.
  const uint64_t* Find(uint64_t key) const;

  /// Sizes the slot array for `n` keys without further growth.
  void Reserve(size_t n);

  /// Every slot, empty ones included (key == kEmpty); order is the hash
  /// layout, so callers that need a canonical order must sort.
  const std::vector<Slot>& slots() const { return slots_; }

  size_t MemoryBytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  void Rehash(size_t capacity);

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

/// One shard's n-gram counts: the exact integer fit-time accumulator.
/// Counts are unsigned integers, so merging shards is exact regardless of
/// merge order — the foundation of NGramLm::FitStreaming's "bitwise-
/// identical at any shard count" contract (floating-point arithmetic
/// happens once, when NGramLm freezes the merged counts).
///
/// Contexts are nodes of a suffix trie. Node 0 is the empty context; node
/// n is the context of `parent` with `token` prepended as its oldest
/// token, so walking from the root prepends one older token per step.
/// Children are found through one FlatU64Map keyed by (parent, token);
/// successor counts live in a second FlatU64Map keyed by (node, target).
/// A node's id is always larger than its parent's.
///
/// A shard is also the per-worker arena for streaming fit: the padded
/// scratch sequence is a member reused across every accumulated sequence,
/// and the tables grow by doubling, so steady-state accumulation performs
/// no per-sequence heap allocation.
class CountShard {
 public:
  struct Node {
    uint32_t parent = 0;
    TokenId token = 0;   // oldest token of the context (unused at the root)
    uint64_t total = 0;  // observations of any successor after the context
  };

  /// `order` is the n-gram order (context lengths 0 .. order-1), already
  /// clamped by the caller to [2, kNGramMaxOrder].
  explicit CountShard(size_t order);

  size_t order() const { return order_; }
  uint64_t sequences() const { return sequences_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  /// (node, target) -> count.
  const FlatU64Map& successors() const { return successors_; }

  /// Child of `node` with `token` prepended, or -1 when absent.
  int64_t FindChild(uint32_t node, TokenId token) const;

  /// Count of `target` after `node` (0 when absent).
  uint64_t SuccessorCount(uint32_t node, TokenId target) const;

  /// Counts every n-gram of [bos, ...sequence, eos] with unit weight.
  void Accumulate(const CountTokenSequence& sequence);

  /// Validates every token id in `sequences` against `vocab_size` (same
  /// error contract as NGramLm::Fit), then accumulates each sequence.
  /// Validation completes before any accumulation, so a failed chunk
  /// leaves the shard with no partial contribution from it.
  Status AccumulateChunk(const std::vector<CountTokenSequence>& sequences,
                         size_t vocab_size);

  /// Folds `other`'s counts into this shard. Other's nodes are remapped in
  /// id order (parents precede children, so one pass suffices). Integer
  /// addition is exact, so any fold order yields identical counts; callers
  /// still fold in fixed shard-index order to keep the plan auditable.
  void Merge(CountShard&& other);

 private:
  uint32_t ChildOrInsert(uint32_t node, TokenId token);
  void Count(uint32_t node, TokenId target);

  size_t order_;
  uint64_t sequences_ = 0;
  std::vector<Node> nodes_;  // nodes_[0] is the empty context
  FlatU64Map children_;      // (parent, token) -> node id
  FlatU64Map successors_;    // (node, target) -> count
  CountTokenSequence padded_;  // reusable [bos, seq..., eos] scratch
};

}  // namespace greater

#endif  // GREATER_LM_COUNT_SHARD_H_
