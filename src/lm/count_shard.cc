#include "lm/count_shard.h"

#include <string>
#include <utility>

namespace greater {

CountShard::CountShard(size_t order)
    : order_(std::clamp<size_t>(order, 2, kNGramMaxOrder)),
      prefix_(1, 0),
      token_(1, 0),
      suffix_(1, 0),
      depth_(1, 0) {}

int64_t CountShard::FindChild(uint32_t node, TokenId token) const {
  const Cell* cell = cells_.Find(CellTable::Pack(node, token));
  return cell == nullptr || cell->next == kNoNode
             ? -1
             : static_cast<int64_t>(cell->next);
}

uint64_t CountShard::SuccessorCount(uint32_t node, TokenId target) const {
  const Cell* cell = cells_.Find(CellTable::Pack(node, target));
  return cell == nullptr ? 0 : cell->count;
}

uint32_t CountShard::ChildOrInsert(uint32_t node, TokenId token) {
  const uint64_t key = CellTable::Pack(node, token);
  if (uint32_t child = cells_.FindOrInsert(key)->next; child != kNoNode) {
    return child;
  }
  // The suffix first (the empty context's extensions have the empty
  // suffix). Creating it may rehash, so the cell is looked up again.
  const uint32_t suffix = node == 0 ? 0 : ChildOrInsert(suffix_[node], token);
  const auto child = static_cast<uint32_t>(prefix_.size());
  prefix_.push_back(node);
  token_.push_back(token);
  suffix_.push_back(suffix);
  depth_.push_back(static_cast<uint8_t>(depth_[node] + 1));
  cells_.FindOrInsert(key)->next = child;
  return child;
}

uint32_t CountShard::Step(uint32_t context, TokenId token) {
  const uint64_t key = CellTable::Pack(context, token);
  Cell* cell = cells_.FindOrInsert(key);
  ++cell->count;
  if (cell->next != kNoNode) return cell->next;
  if (depth_[context] + size_t{1} < order_) {
    return ChildOrInsert(context, token);  // sets this cell's `next`
  }
  // The longest context slides: drop its oldest token. ChildOrInsert may
  // rehash, so the cell is looked up again.
  const uint32_t next = ChildOrInsert(suffix_[context], token);
  cells_.FindOrInsert(key)->next = next;
  return next;
}

void CountShard::AccumulateSequences(const CountTokenSequence* sequences,
                                     size_t count) {
  // Each step needs the previous step's cell, so one sequence is a chain
  // of dependent cache misses. Up to kLanes sequences advance in lockstep
  // so their chains overlap: every lane's probe is prefetched before any
  // is made.
  constexpr size_t kLanes = 8;
  struct Lane {
    const TokenId* next;
    const TokenId* end;
    uint32_t context;
  };
  if (count == 0) return;
  Lane lanes[kLanes] = {};
  size_t started = 0;
  size_t active = 0;
  // <bos> opens every context but is never a target: its root edge is a
  // zero-count cell.
  const uint32_t bos = ChildOrInsert(0, Vocabulary::kBosId);
  auto start = [&](Lane* lane) {
    if (started == count) return false;
    const CountTokenSequence& seq = sequences[started++];
    *lane = Lane{seq.data(), seq.data() + seq.size(), bos};
    return true;
  };
  while (active < kLanes && start(&lanes[active])) ++active;
  while (active > 0) {
    for (size_t i = 0; i < active; ++i) {
      const Lane& lane = lanes[i];
      const TokenId token =
          lane.next == lane.end ? Vocabulary::kEosId : *lane.next;
      cells_.Prefetch(CellTable::Pack(lane.context, token));
    }
    for (size_t i = 0; i < active;) {
      Lane& lane = lanes[i];
      if (lane.next != lane.end) {
        lane.context = Step(lane.context, *lane.next++);
        ++i;
        continue;
      }
      // <eos> ends the sequence: the contexts ending with it are never
      // needed. The lane takes the next sequence, or the last active one.
      ++cells_.FindOrInsert(CellTable::Pack(lane.context, Vocabulary::kEosId))
            ->count;
      ++sequences_;
      if (!start(&lane)) lane = lanes[--active];
    }
  }
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
  AccumulateSequences(sequences.data(), sequences.size());
  return Status::OK();
}

void CountShard::Merge(CountShard&& other) {
  if (sequences_ == 0) {
    std::swap(prefix_, other.prefix_);
    std::swap(token_, other.token_);
    std::swap(suffix_, other.suffix_);
    std::swap(depth_, other.depth_);
    std::swap(cells_, other.cells_);
  } else {
    std::vector<uint32_t> remap(other.num_nodes(), 0);
    for (size_t n = 1; n < other.num_nodes(); ++n) {
      remap[n] = ChildOrInsert(remap[other.prefix_[n]], other.token_[n]);
    }
    // Only counts move: a merged cell's `next` is re-derived lazily if
    // this shard counts on.
    for (const CellTable::Slot& slot : other.cells_.slots()) {
      if (slot.key == CellTable::kEmpty || slot.value.count == 0) continue;
      const uint32_t node = remap[slot.key >> 32];
      const auto token = static_cast<TokenId>(slot.key & 0xffffffffu);
      cells_.FindOrInsert(CellTable::Pack(node, token))->count +=
          slot.value.count;
    }
  }
  sequences_ += other.sequences_;
  other = CountShard(other.order_);
}

void CountShard::FinishCounts() {
  // A position whose longest context has length k was counted only
  // there; its shorter contexts are that context's suffixes. Level by
  // level, longest first, each cell's (by then complete) count flows into
  // its suffix's cell for the same token, and into its context's total.
  std::vector<std::vector<uint64_t>> level(order_);  // cell keys by length
  for (const CellTable::Slot& slot : cells_.slots()) {
    if (slot.key != CellTable::kEmpty) {
      level[depth_[slot.key >> 32]].push_back(slot.key);
    }
  }
  total_.assign(num_nodes(), 0);
  for (size_t k = order_; k-- > 0;) {
    for (const uint64_t key : level[k]) {
      const uint64_t count = cells_.Find(key)->count;
      const uint32_t node = static_cast<uint32_t>(key >> 32);
      total_[node] += count;
      if (k == 0 || count == 0) continue;
      const uint64_t suffix_key = CellTable::Pack(
          suffix_[node], static_cast<TokenId>(key & 0xffffffffu));
      bool inserted = false;
      cells_.FindOrInsert(suffix_key, &inserted)->count += count;
      if (inserted) level[k - 1].push_back(suffix_key);
    }
  }
}

}  // namespace greater
