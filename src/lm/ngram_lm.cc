#include "lm/ngram_lm.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <future>
#include <limits>
#include <utility>

#include "common/artifact_io.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace greater {
namespace {

// Applies `count` unit-weight observations to a slot exactly as `count`
// serial `+= 1.0` increments would. When the slot is empty the result is
// the integer itself (bitwise-equal to the stepwise sum for counts below
// 2^53); when fractional prior mass is already present, replay the
// increments so the frozen value matches the historical
// one-observation-at-a-time accumulation bit for bit.
void AddUnitCounts(double* slot, uint64_t count) {
  if (*slot == 0.0) {
    *slot = static_cast<double>(count);
    return;
  }
  for (uint64_t i = 0; i < count; ++i) *slot += 1.0;
}

// First position in [from, end) whose token is >= `token`, or `end`.
// Probes from + 0, 1, 3, 7, ... and binary-searches the bracket, so a run
// of ascending lookups that each resume from the previous answer walks
// the span once instead of searching it from the start every time.
size_t GallopLowerBound(const std::vector<TokenId>& tokens, size_t from,
                        size_t end, TokenId token) {
  size_t lo = from;  // every token in [from, lo) is < token
  size_t hi = from;
  for (size_t step = 1; hi < end && tokens[hi] < token; step *= 2) {
    lo = hi + 1;
    hi += step;
  }
  hi = std::min(hi, end);
  return static_cast<size_t>(
      std::lower_bound(tokens.begin() + static_cast<ptrdiff_t>(lo),
                       tokens.begin() + static_cast<ptrdiff_t>(hi), token) -
      tokens.begin());
}

}  // namespace

NGramLm::NGramLm(size_t vocab_size, const Options& options)
    : vocab_size_(vocab_size), options_(options) {
  options_.order = std::clamp<size_t>(options_.order, 2, kMaxOrder);
  level_begin_.assign(options_.order + 1, 0);  // context lengths 0..order-1
  succ_begin_.assign(1, 0);
}

Status NGramLm::SetPriorCorpus(const std::vector<TokenSequence>& sequences) {
  if (fitted_) {
    return Status::FailedPrecondition("SetPriorCorpus must precede Fit");
  }
  prior_ = sequences;
  return Status::OK();
}

Status NGramLm::Freeze(CountShard counts) {
  // The prior corpus is counted as integers too. A slot seen n times in it
  // held n serial `+= prior_weight` increments under the historical
  // accumulate-in-place fit; slot_value replays exactly those. Merging a
  // copy into `counts` gives the union of keys, and the prior share is
  // subtracted back per slot.
  CountShard prior(options_.order);
  if (options_.prior_weight > 0.0) {
    GREATER_RETURN_NOT_OK(prior.AccumulateChunk(prior_, vocab_size_));
    counts.Merge(CountShard(prior));
  }
  counts.FinishCounts();
  prior.FinishCounts();
  const std::vector<uint32_t>& prefix = counts.prefixes();
  const std::vector<TokenId>& newest = counts.tokens();
  const std::vector<uint8_t>& depth = counts.depths();
  const size_t num_contexts = counts.num_nodes();

  std::vector<uint64_t> level_begin(options_.order + 1, 0);
  level_begin[1] = 1;
  for (size_t n = 1; n < num_contexts; ++n) ++level_begin[depth[n] + 1];
  for (size_t k = 1; k < level_begin.size(); ++k) {
    level_begin[k] += level_begin[k - 1];
  }

  // Context ids in (length, ids) order, level by level. A length-k
  // context's ids (oldest first) are its prefix's ids followed by its
  // newest token, and the prefixes are already ranked, so (prefix rank,
  // newest token) sorts it.
  std::vector<uint32_t> frozen(num_contexts, 0);
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> ranked(
      options_.order);
  for (size_t n = 1; n < num_contexts; ++n) {
    ranked[depth[n]].emplace_back(0, static_cast<uint32_t>(n));
  }
  for (size_t k = 1; k < options_.order; ++k) {
    for (auto& [key, n] : ranked[k]) {
      key = (uint64_t{frozen[prefix[n]]} << 32) |
            static_cast<uint32_t>(newest[n]);
    }
    std::sort(ranked[k].begin(), ranked[k].end());
    for (size_t i = 0; i < ranked[k].size(); ++i) {
      frozen[ranked[k][i].second] = static_cast<uint32_t>(level_begin[k] + i);
    }
    ranked[k] = {};
  }

  // The lookups walk suffixes: each context is its one-shorter suffix
  // with its oldest token prepended. The oldest token follows the prefix
  // chain down to length 1, and so does the prior trie node matching each
  // merged node (-1: not in the prior).
  std::vector<TokenId> oldest(num_contexts, 0);
  std::vector<int64_t> prior_node(num_contexts, -1);
  prior_node[0] = 0;
  for (size_t n = 1; n < num_contexts; ++n) {
    const uint32_t p = prefix[n];
    oldest[n] = depth[n] == 1 ? newest[n] : oldest[p];
    if (prior_node[p] >= 0) {
      prior_node[n] =
          prior.FindChild(static_cast<uint32_t>(prior_node[p]), newest[n]);
    }
  }
  auto slot_value = [&](uint64_t merged, uint64_t from_prior) {
    double slot = 0.0;
    for (uint64_t i = 0; i < from_prior; ++i) slot += options_.prior_weight;
    AddUnitCounts(&slot, merged - from_prior);
    return slot;
  };

  std::vector<uint32_t> ctx_parent(num_contexts, 0);
  std::vector<TokenId> ctx_token(num_contexts, 0);
  std::vector<double> ctx_total(num_contexts, 0.0);
  for (size_t n = 0; n < num_contexts; ++n) {
    uint32_t c = frozen[n];
    ctx_parent[c] = frozen[counts.suffixes()[n]];
    ctx_token[c] = oldest[n];
    uint64_t from_prior =
        prior_node[n] < 0 ? 0 : prior.totals()[prior_node[n]];
    ctx_total[c] = slot_value(counts.totals()[n], from_prior);
  }

  // CSR successor spans: bucket counted cells by context, then sort each
  // span by token.
  const std::vector<CountShard::CellTable::Slot>& slots =
      counts.cells().slots();
  auto counted = [](const CountShard::CellTable::Slot& slot) {
    return slot.key != CountShard::CellTable::kEmpty && slot.value.count > 0;
  };
  std::vector<uint64_t> succ_begin(num_contexts + 1, 0);
  for (const auto& slot : slots) {
    if (counted(slot)) ++succ_begin[frozen[slot.key >> 32] + 1];
  }
  for (size_t c = 1; c <= num_contexts; ++c) {
    succ_begin[c] += succ_begin[c - 1];
  }
  std::vector<std::pair<TokenId, double>> cells(succ_begin[num_contexts]);
  std::vector<uint64_t> cursor(succ_begin.begin(), succ_begin.end() - 1);
  for (const auto& slot : slots) {
    if (!counted(slot)) continue;
    size_t n = slot.key >> 32;
    auto target = static_cast<TokenId>(slot.key & 0xffffffffu);
    uint64_t from_prior =
        prior_node[n] < 0
            ? 0
            : prior.SuccessorCount(static_cast<uint32_t>(prior_node[n]),
                                   target);
    cells[cursor[frozen[n]]++] = {target,
                                  slot_value(slot.value.count, from_prior)};
  }
  for (size_t c = 0; c < num_contexts; ++c) {
    std::sort(cells.begin() + static_cast<ptrdiff_t>(succ_begin[c]),
              cells.begin() + static_cast<ptrdiff_t>(succ_begin[c + 1]));
  }
  std::vector<TokenId> succ_token(cells.size());
  std::vector<double> succ_count(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    succ_token[i] = cells[i].first;
    succ_count[i] = cells[i].second;
  }

  FlatU64Map child;
  child.Reserve(num_contexts);
  for (size_t c = 1; c < num_contexts; ++c) {
    *child.FindOrInsert(FlatU64Map::Pack(ctx_parent[c], ctx_token[c])) = c;
  }

  level_begin_ = std::move(level_begin);
  ctx_parent_ = std::move(ctx_parent);
  ctx_token_ = std::move(ctx_token);
  ctx_total_ = std::move(ctx_total);
  succ_begin_ = std::move(succ_begin);
  succ_token_ = std::move(succ_token);
  succ_count_ = std::move(succ_count);
  child_ = std::move(child);
  PublishGauges();
  return Status::OK();
}

Status NGramLm::Fit(const std::vector<TokenSequence>& sequences) {
  if (fitted_) {
    return Status::FailedPrecondition("NGramLm already fitted");
  }
  if (sequences.empty()) {
    return Status::Invalid("NGramLm::Fit requires at least one sequence");
  }
  // Count into the integer trie, then freeze into the flat double tables.
  // Bitwise-identical to the historical accumulate-in-place path; see
  // AddUnitCounts.
  CountShard shard(options_.order);
  GREATER_RETURN_NOT_OK(shard.AccumulateChunk(sequences, vocab_size_));
  GREATER_RETURN_NOT_OK(Freeze(std::move(shard)));
  fitted_ = true;
  return Status::OK();
}

Status NGramLm::FitStreaming(const SequenceChunkIterator& next_chunk,
                             size_t num_shards) {
  if (fitted_) {
    return Status::FailedPrecondition("NGramLm already fitted");
  }
  num_shards = std::max<size_t>(1, num_shards);
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.GetGauge("lm.fit.shards").Set(static_cast<double>(num_shards));
  Counter& chunk_counter = metrics.GetCounter("lm.fit.shard_chunks");
  Counter& seq_counter = metrics.GetCounter("lm.fit.shard_sequences");

  std::vector<CountShard> shards;
  shards.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) shards.emplace_back(options_.order);
  std::vector<std::vector<TokenSequence>> buffers(num_shards);
  ThreadPool pool(num_shards);

  // Pulls up to num_shards chunks into `wave`. On a pull error, `wave`
  // keeps the chunks pulled before it, so they still run first.
  bool exhausted = false;
  auto pull_wave = [&](std::vector<DeferredChunk>* wave) -> Status {
    wave->clear();
    while (!exhausted && wave->size() < num_shards) {
      GREATER_ASSIGN_OR_RETURN(std::optional<DeferredChunk> chunk,
                               next_chunk());
      if (!chunk.has_value()) {
        exhausted = true;
        break;
      }
      wave->push_back(std::move(*chunk));
    }
    return Status::OK();
  };

  // Wave position j runs on shard j, so global chunk i always lands on
  // shard i % num_shards — a fixed plan independent of scheduling.
  uint64_t total_sequences = 0;
  std::vector<DeferredChunk> wave;
  std::vector<DeferredChunk> next;
  Status pulled = pull_wave(&wave);
  while (!wave.empty()) {
    std::vector<Status> status(wave.size());
    std::vector<std::future<void>> running;
    running.reserve(wave.size());
    for (size_t j = 0; j < wave.size(); ++j) {
      running.push_back(pool.Submit([&, j] {
        status[j] = wave[j](&buffers[j]);
        wave[j] = nullptr;  // the chunk's input is no longer needed
        if (status[j].ok()) {
          status[j] = shards[j].AccumulateChunk(buffers[j], vocab_size_);
        }
      }));
    }
    next.clear();
    if (pulled.ok()) pulled = pull_wave(&next);
    {
      Span span("lm.fit.wave");
      for (std::future<void>& done : running) done.wait();
    }
    for (std::future<void>& done : running) done.get();
    for (size_t j = 0; j < wave.size(); ++j) {
      GREATER_RETURN_NOT_OK(status[j]);
      total_sequences += buffers[j].size();
      seq_counter.Increment(buffers[j].size());
      if (!buffers[j].empty()) chunk_counter.Increment();
    }
    wave.swap(next);
  }
  GREATER_RETURN_NOT_OK(pulled);
  if (total_sequences == 0) {
    return Status::Invalid(
        "NGramLm::FitStreaming requires at least one sequence");
  }
  buffers = {};

  // Fixed-order fold: shard 0 absorbs 1, then 2, ... Integer counts make
  // any order exact; the fixed order keeps the plan auditable.
  {
    Span span("lm.fit.merge");
    Counter& merge_counter = metrics.GetCounter("lm.fit.shard_merges");
    for (size_t s = 1; s < shards.size(); ++s) {
      shards[0].Merge(std::move(shards[s]));
      merge_counter.Increment();
    }
  }
  {
    Span span("lm.fit.freeze");
    GREATER_RETURN_NOT_OK(Freeze(std::move(shards[0])));
  }
  fitted_ = true;
  return Status::OK();
}

template <typename Visit>
void NGramLm::WalkContexts(const TokenSequence& context, Visit visit) const {
  if (ctx_total_.empty()) return;
  // Only the last order-1 tokens of (bos + context) can be read. Step k
  // prepends the k-th most recent of them to the length k-1 context.
  size_t padded_size = context.size() + 1;
  size_t eff_len = std::min(options_.order - 1, padded_size);
  uint32_t ctx = 0;
  visit(ctx);
  for (size_t ctx_len = 1; ctx_len <= eff_len; ++ctx_len) {
    size_t idx = padded_size - ctx_len;
    TokenId oldest = idx == 0 ? Vocabulary::kBosId : context[idx - 1];
    const uint64_t* child = child_.Find(FlatU64Map::Pack(ctx, oldest));
    if (child == nullptr) return;  // longer contexts unseen too
    ctx = static_cast<uint32_t>(*child);
    visit(ctx);
  }
}

double NGramLm::Lambda(uint32_t ctx) const {
  double total = ctx_total_[ctx];
  double distinct =
      static_cast<double>(succ_begin_[ctx + 1] - succ_begin_[ctx]);
  return total / (total + distinct);
}

std::vector<double> NGramLm::NextTokenDistribution(
    const TokenSequence& context) const {
  // Base distribution: uniform over the vocabulary.
  std::vector<double> dist(vocab_size_, 1.0 / static_cast<double>(vocab_size_));
  if (!fitted_) return dist;

  // Interpolate from short to long contexts (Witten–Bell): at each level,
  // dist <- lambda * ML(level) + (1 - lambda) * dist.
  WalkContexts(context, [&](uint32_t ctx) {
    double total = ctx_total_[ctx];
    double lambda = Lambda(ctx);
    double keep = 1.0 - lambda;
    for (double& p : dist) p *= keep;
    for (uint64_t i = succ_begin_[ctx]; i < succ_begin_[ctx + 1]; ++i) {
      dist[static_cast<size_t>(succ_token_[i])] +=
          lambda * succ_count_[i] / total;
    }
  });
  return dist;
}

void NGramLm::NextTokenWeightsRestricted(const TokenSequence& context,
                                         const std::vector<TokenId>& candidates,
                                         DecodeWorkspace* ws,
                                         std::vector<double>* out) const {
  (void)ws;  // the n-gram fast path needs no scratch buffers
  static Counter* fast_path =
      &MetricsRegistry::Global().GetCounter("lm.restricted_fast_path");
  fast_path->Increment();
  // Per-candidate replay of the interpolation above, touching only the
  // candidate counts. Each candidate's value goes through the identical
  // multiply-then-add sequence as its slot in the full-vocabulary walk, so
  // the result matches a gather of NextTokenDistribution bit for bit.
  double base = 1.0 / static_cast<double>(vocab_size_);
  out->assign(candidates.size(), 0.0);
  for (size_t i = 0; i < candidates.size(); ++i) {
    TokenId id = candidates[i];
    if (id >= 0 && static_cast<size_t>(id) < vocab_size_) (*out)[i] = base;
  }
  if (!fitted_) return;

  WalkContexts(context, [&](uint32_t ctx) {
    double total = ctx_total_[ctx];
    double lambda = Lambda(ctx);
    double keep = 1.0 - lambda;
    // Candidates usually arrive ascending (interned allow-lists), so each
    // lookup resumes where the previous one ended; a descending step
    // restarts from the span's first successor.
    const size_t begin = succ_begin_[ctx];
    const size_t end = succ_begin_[ctx + 1];
    size_t cursor = begin;
    TokenId prev = 0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      TokenId id = candidates[i];
      if (id < 0 || static_cast<size_t>(id) >= vocab_size_) continue;
      (*out)[i] *= keep;
      if (id < prev) cursor = begin;
      prev = id;
      cursor = GallopLowerBound(succ_token_, cursor, end, id);
      if (cursor < end && succ_token_[cursor] == id) {
        (*out)[i] += lambda * succ_count_[cursor] / total;
      }
    }
  });
}

double NGramLm::TokenLogProb(const TokenSequence& context, TokenId token,
                             DecodeWorkspace* ws) const {
  (void)ws;
  // Single-token replay of the interpolation: identical multiply-then-add
  // sequence as the token's slot in NextTokenDistribution, so the result
  // (and therefore Perplexity) is bitwise-unchanged — without the V-sized
  // vector per scored token.
  if (token < 0 || static_cast<size_t>(token) >= vocab_size_) {
    return std::log(1e-300);
  }
  double p = 1.0 / static_cast<double>(vocab_size_);
  if (!fitted_) return std::log(std::max(p, 1e-300));

  WalkContexts(context, [&](uint32_t ctx) {
    double total = ctx_total_[ctx];
    double lambda = Lambda(ctx);
    double keep = 1.0 - lambda;
    p *= keep;
    const size_t end = succ_begin_[ctx + 1];
    size_t pos = GallopLowerBound(succ_token_, succ_begin_[ctx], end, token);
    if (pos < end && succ_token_[pos] == token) {
      p += lambda * succ_count_[pos] / total;
    }
  });
  return std::log(std::max(p, 1e-300));
}

size_t NGramLm::model_bytes() const {
  auto bytes = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  return bytes(level_begin_) + bytes(ctx_parent_) + bytes(ctx_token_) +
         bytes(ctx_total_) + bytes(succ_begin_) + bytes(succ_token_) +
         bytes(succ_count_) + child_.MemoryBytes();
}

void NGramLm::PublishGauges() const {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.GetGauge("lm.ngram.contexts")
      .Set(static_cast<double>(num_contexts()));
  metrics.GetGauge("lm.ngram.successors")
      .Set(static_cast<double>(num_successors()));
  metrics.GetGauge("lm.ngram.model_bytes")
      .Set(static_cast<double>(model_bytes()));
}

std::string NGramLm::SerializeBinary() const {
  // The frozen tables are already in canonical order: a linear dump, into
  // a buffer sized exactly up front. The 29-byte header, then per level an
  // entry count; per context its length, ids, total and successor count;
  // 12 bytes per successor.
  size_t size = 29;
  for (size_t k = 0; k < options_.order; ++k) {
    const uint64_t begin = level_begin_[k];
    const uint64_t end = level_begin_[k + 1];
    size += 8 + (end - begin) * (16 + 4 * k) +
            12 * (succ_begin_[end] - succ_begin_[begin]);
  }
  ByteWriter w;
  w.Reserve(size);
  w.PutU64(vocab_size_);
  w.PutU64(options_.order);
  w.PutF64(options_.prior_weight);
  w.PutBool(fitted_);
  w.PutU32(static_cast<uint32_t>(options_.order));
  for (size_t k = 0; k < options_.order; ++k) {
    w.PutU64(level_begin_[k + 1] - level_begin_[k]);
    for (uint64_t c = level_begin_[k]; c < level_begin_[k + 1]; ++c) {
      w.PutU32(static_cast<uint32_t>(k));
      // Oldest token first: each suffix step yields the next newer one.
      uint64_t id = c;
      for (size_t i = 0; i < k; ++i, id = ctx_parent_[id]) {
        w.PutU32(static_cast<uint32_t>(ctx_token_[id]));
      }
      w.PutF64(ctx_total_[c]);
      w.PutU32(static_cast<uint32_t>(succ_begin_[c + 1] - succ_begin_[c]));
      for (uint64_t i = succ_begin_[c]; i < succ_begin_[c + 1]; ++i) {
        w.PutU32(static_cast<uint32_t>(succ_token_[i]));
        w.PutF64(succ_count_[i]);
      }
    }
  }
  ArtifactWriter doc("greater.ngram_lm", 1);
  doc.AddChunk("model", std::move(w).Take());
  return doc.Finish();
}

Status NGramLm::DeserializeBinary(std::string_view bytes) {
  GREATER_ASSIGN_OR_RETURN(
      ArtifactReader doc,
      ArtifactReader::Parse(std::string(bytes), "greater.ngram_lm", 1));
  GREATER_ASSIGN_OR_RETURN(std::string_view payload, doc.Chunk("model"));
  ByteReader r(payload);
  auto corrupt = [](const std::string& what) {
    return Status::DataLoss("corrupt n-gram model: " + what);
  };
  uint64_t vocab_size = 0, order = 0;
  GREATER_RETURN_NOT_OK(r.GetU64(&vocab_size));
  GREATER_RETURN_NOT_OK(r.GetU64(&order));
  if (order < 2 || order > kMaxOrder) {
    return corrupt("order " + std::to_string(order) + " outside [2, " +
                   std::to_string(kMaxOrder) + "]");
  }
  if (vocab_size >
      static_cast<uint64_t>(std::numeric_limits<TokenId>::max()) + 1) {
    return corrupt("vocab size " + std::to_string(vocab_size) +
                   " exceeds the token id range");
  }
  Options options;
  options.order = order;
  GREATER_RETURN_NOT_OK(r.GetF64(&options.prior_weight));
  NGramLm model(vocab_size, options);
  GREATER_RETURN_NOT_OK(r.GetBool(&model.fitted_));
  uint32_t num_levels = 0;
  GREATER_RETURN_NOT_OK(r.GetU32(&num_levels));
  if (num_levels != order) {
    return corrupt(std::to_string(num_levels) + " levels for order " +
                   std::to_string(order));
  }
  auto valid_value = [](double v) { return std::isfinite(v) && v > 0.0; };
  for (uint32_t l = 0; l < num_levels; ++l) {
    const std::string where = " at level " + std::to_string(l);
    uint64_t num_entries = 0;
    GREATER_RETURN_NOT_OK(r.GetU64(&num_entries));
    // Smallest entry: length, ids, total, one (token, count) successor.
    if (num_entries > r.remaining() / (4 + 4 * l + 8 + 4 + 12)) {
      return corrupt(std::to_string(num_entries) + " contexts" + where +
                     " exceed the remaining bytes");
    }
    std::array<uint32_t, kMaxOrder> prev{};
    for (uint64_t e = 0; e < num_entries; ++e) {
      uint32_t len = 0;
      GREATER_RETURN_NOT_OK(r.GetU32(&len));
      if (len != l) {
        return corrupt("context length " + std::to_string(len) + where);
      }
      std::array<uint32_t, kMaxOrder> ids{};
      for (uint32_t i = 0; i < len; ++i) {
        GREATER_RETURN_NOT_OK(r.GetU32(&ids[i]));
        if (ids[i] >= vocab_size) {
          return corrupt("context token id " + std::to_string(ids[i]) +
                         " outside vocab of size " +
                         std::to_string(vocab_size));
        }
      }
      if (e > 0 && !(prev < ids)) {
        return corrupt("contexts" + where + " unsorted or duplicated");
      }
      prev = ids;
      // The suffix (ids[1..len)) must already be stored: walk to it from
      // the empty context, newest token first.
      uint32_t suffix = 0;
      if (len > 0 && model.ctx_total_.empty()) {
        return corrupt("context" + where + " without its suffix");
      }
      for (uint32_t i = len; i-- > 1;) {
        const uint64_t* child = model.child_.Find(
            FlatU64Map::Pack(suffix, static_cast<TokenId>(ids[i])));
        if (child == nullptr) {
          return corrupt("context" + where + " without its suffix");
        }
        suffix = static_cast<uint32_t>(*child);
      }
      double total = 0.0;
      GREATER_RETURN_NOT_OK(r.GetF64(&total));
      if (!valid_value(total)) {
        return corrupt("context total " + std::to_string(total) + where);
      }
      uint32_t num_counts = 0;
      GREATER_RETURN_NOT_OK(r.GetU32(&num_counts));
      if (num_counts == 0 || num_counts > r.remaining() / 12) {
        return corrupt(std::to_string(num_counts) + " successors" + where);
      }
      for (uint32_t c = 0; c < num_counts; ++c) {
        uint32_t token = 0;
        double count = 0.0;
        GREATER_RETURN_NOT_OK(r.GetU32(&token));
        GREATER_RETURN_NOT_OK(r.GetF64(&count));
        if (token >= vocab_size) {
          return corrupt("successor id " + std::to_string(token) +
                         " outside vocab of size " +
                         std::to_string(vocab_size));
        }
        if (c > 0 && static_cast<TokenId>(token) <= model.succ_token_.back()) {
          return corrupt("successors" + where + " unsorted or duplicated");
        }
        if (!valid_value(count)) {
          return corrupt("successor count " + std::to_string(count) + where);
        }
        model.succ_token_.push_back(static_cast<TokenId>(token));
        model.succ_count_.push_back(count);
      }
      auto id = static_cast<uint32_t>(model.ctx_total_.size());
      if (len > 0) {
        *model.child_.FindOrInsert(
            FlatU64Map::Pack(suffix, static_cast<TokenId>(ids[0]))) = id;
      }
      model.ctx_parent_.push_back(suffix);
      model.ctx_token_.push_back(len > 0 ? static_cast<TokenId>(ids[0]) : 0);
      model.ctx_total_.push_back(total);
      model.succ_begin_.push_back(model.succ_token_.size());
    }
    model.level_begin_[l + 1] = model.ctx_total_.size();
  }
  GREATER_RETURN_NOT_OK(r.ExpectEnd());
  *this = std::move(model);
  PublishGauges();
  return Status::OK();
}

Status NGramLm::Save(const std::string& path) const {
  return AtomicWriteFile(path, SerializeBinary())
      .WithContext("saving n-gram LM to '" + path + "'");
}

Status NGramLm::Load(const std::string& path) {
  GREATER_ASSIGN_OR_RETURN_CTX(std::string bytes, ReadFileBytes(path),
                               "loading n-gram LM from '" + path + "'");
  return DeserializeBinary(bytes)
      .WithContext("loading n-gram LM from '" + path + "'");
}

}  // namespace greater
