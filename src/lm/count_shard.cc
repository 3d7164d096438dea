#include "lm/count_shard.h"

#include <algorithm>
#include <string>
#include <utility>

namespace greater {
namespace {

// MurmurHash3 fmix64: spreads the (id, token) halves over the low bits the
// power-of-two mask keeps.
size_t MixKey(uint64_t key) {
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdULL;
  key ^= key >> 33;
  key *= 0xc4ceb9fe1a85ec53ULL;
  key ^= key >> 33;
  return static_cast<size_t>(key);
}

}  // namespace

uint64_t* FlatU64Map::FindOrInsert(uint64_t key, bool* inserted) {
  if ((size_ + 1) * 2 > slots_.size()) {
    Rehash(std::max<size_t>(16, slots_.size() * 2));
  }
  size_t mask = slots_.size() - 1;
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

const uint64_t* FlatU64Map::Find(uint64_t key) const {
  if (slots_.empty()) return nullptr;
  size_t mask = slots_.size() - 1;
  for (size_t i = MixKey(key) & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.key == key) return &slot.value;
    if (slot.key == kEmpty) return nullptr;
  }
}

void FlatU64Map::Reserve(size_t n) {
  size_t capacity = 16;
  while (capacity < n * 2) capacity *= 2;
  if (capacity > slots_.size()) Rehash(capacity);
}

void FlatU64Map::Rehash(size_t capacity) {
  std::vector<Slot> old(capacity);
  old.swap(slots_);
  size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.key == kEmpty) continue;
    size_t i = MixKey(slot.key) & mask;
    while (slots_[i].key != kEmpty) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

CountShard::CountShard(size_t order)
    : order_(std::clamp<size_t>(order, 2, kNGramMaxOrder)), nodes_(1) {}

int64_t CountShard::FindChild(uint32_t node, TokenId token) const {
  const uint64_t* child = children_.Find(FlatU64Map::Pack(node, token));
  return child == nullptr ? -1 : static_cast<int64_t>(*child);
}

uint64_t CountShard::SuccessorCount(uint32_t node, TokenId target) const {
  const uint64_t* count = successors_.Find(FlatU64Map::Pack(node, target));
  return count == nullptr ? 0 : *count;
}

uint32_t CountShard::ChildOrInsert(uint32_t node, TokenId token) {
  bool inserted = false;
  uint64_t* child =
      children_.FindOrInsert(FlatU64Map::Pack(node, token), &inserted);
  if (inserted) {
    *child = nodes_.size();
    nodes_.push_back(Node{node, token, 0});
  }
  return static_cast<uint32_t>(*child);
}

void CountShard::Count(uint32_t node, TokenId target) {
  ++nodes_[node].total;
  ++*successors_.FindOrInsert(FlatU64Map::Pack(node, target));
}

void CountShard::Accumulate(const CountTokenSequence& sequence) {
  padded_.clear();
  padded_.reserve(sequence.size() + 2);
  padded_.push_back(Vocabulary::kBosId);
  padded_.insert(padded_.end(), sequence.begin(), sequence.end());
  padded_.push_back(Vocabulary::kEosId);

  for (size_t pos = 1; pos < padded_.size(); ++pos) {
    TokenId target = padded_[pos];
    size_t max_ctx = std::min(pos, order_ - 1);
    // Context length k is the length k-1 context with padded_[pos - k]
    // prepended: one trie step per level.
    uint32_t node = 0;
    Count(node, target);
    for (size_t ctx_len = 1; ctx_len <= max_ctx; ++ctx_len) {
      node = ChildOrInsert(node, padded_[pos - ctx_len]);
      Count(node, target);
    }
  }
  ++sequences_;
}

Status CountShard::AccumulateChunk(
    const std::vector<CountTokenSequence>& sequences, size_t vocab_size) {
  for (const CountTokenSequence& seq : sequences) {
    for (TokenId id : seq) {
      if (id < 0 || static_cast<size_t>(id) >= vocab_size) {
        return Status::OutOfRange("token id " + std::to_string(id) +
                                  " outside vocab of size " +
                                  std::to_string(vocab_size));
      }
    }
  }
  for (const CountTokenSequence& seq : sequences) Accumulate(seq);
  return Status::OK();
}

void CountShard::Merge(CountShard&& other) {
  if (sequences_ == 0) {
    std::swap(nodes_, other.nodes_);
    std::swap(children_, other.children_);
    std::swap(successors_, other.successors_);
  } else {
    std::vector<uint32_t> remap(other.nodes_.size());
    nodes_[0].total += other.nodes_[0].total;
    for (size_t n = 1; n < other.nodes_.size(); ++n) {
      const Node& src = other.nodes_[n];
      remap[n] = ChildOrInsert(remap[src.parent], src.token);
      nodes_[remap[n]].total += src.total;
    }
    for (const FlatU64Map::Slot& slot : other.successors_.slots()) {
      if (slot.key == FlatU64Map::kEmpty) continue;
      uint32_t node = remap[slot.key >> 32];
      auto target = static_cast<TokenId>(slot.key & 0xffffffffu);
      *successors_.FindOrInsert(FlatU64Map::Pack(node, target)) += slot.value;
    }
  }
  sequences_ += other.sequences_;
  other = CountShard(other.order_);
}

}  // namespace greater
