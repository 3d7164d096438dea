#ifndef GREATER_LM_NGRAM_LM_H_
#define GREATER_LM_NGRAM_LM_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lm/count_shard.h"
#include "lm/language_model.h"

namespace greater {

/// Interpolated back-off n-gram language model (Witten–Bell smoothing).
///
/// This is the default synthesis backbone: fast enough to run the paper's
/// full 8-trial evaluation sweeps while sharing GPT-2's critical property —
/// all statistics are keyed by token identity, so the repeated "1"s of
/// Fig. 2 pool their counts across unrelated columns and mislead the model
/// exactly the way the paper describes.
///
/// An optional *prior corpus* simulates pre-trained knowledge: prior
/// sequences contribute fractional counts, so tokens that occur in natural
/// prior text (e.g. "Male", "Chicago") start with better-calibrated
/// back-off statistics than never-seen invented names. This is what lets
/// the understandability-based transformation edge out the
/// differentiability-based one, mirroring the paper's in-context-learning
/// argument (Sec. 4.4.1).
class NGramLm : public LanguageModel {
 public:
  struct Options {
    /// Maximum n-gram order (context length + 1). 2..8. The default of 5
    /// is the minimum that lets a value prediction see the PREVIOUS
    /// column's value across the "<v> , <col> is" bridge (4 context
    /// tokens) — the channel through which cross-column dependence (and
    /// the Fig. 2 token ambiguity) flows.
    size_t order = 5;
    /// Weight applied to each prior-corpus occurrence (0 disables).
    double prior_weight = 0.0;
  };

  /// `vocab_size` fixes the distribution dimension; all token ids in the
  /// training data must be < vocab_size.
  NGramLm(size_t vocab_size, const Options& options);
  explicit NGramLm(size_t vocab_size) : NGramLm(vocab_size, Options()) {}

  /// Registers pre-training sequences (used with options.prior_weight > 0).
  /// Must be called before Fit.
  Status SetPriorCorpus(const std::vector<TokenSequence>& sequences);

  Status Fit(const std::vector<TokenSequence>& sequences) override;

  /// One chunk of out-of-core input whose sequences are produced on the
  /// shard that counts it: fills `out` (a buffer the shard reuses across
  /// its chunks) or fails. Chunks of one wave run concurrently on
  /// different shards, so a producer may only read shared state.
  using DeferredChunk = std::function<Status(std::vector<TokenSequence>*)>;

  /// Pull iterator for out-of-core fitting: each call returns the next
  /// deferred chunk, std::nullopt at end of input, or an error. Called
  /// from the caller's thread only, in chunk order.
  using SequenceChunkIterator =
      std::function<Result<std::optional<DeferredChunk>>()>;

  /// Out-of-core Fit: drains `next_chunk` in waves of `num_shards` chunks
  /// over an internal ThreadPool. Chunk i is produced and counted on
  /// CountShard i % num_shards; while a wave runs, the caller pulls the
  /// next one. Shards then fold in fixed shard-index order and the result
  /// freezes into the flat tables. Shard counts are integers, so the
  /// resulting model is bitwise-identical to serial Fit on the
  /// concatenated chunks at ANY shard count — the same contract NeuralLm
  /// keeps for its gradients. Errors surface in chunk order: a chunk's
  /// producer or validation error wins over any later chunk's, and a pull
  /// error is returned once every chunk pulled before it has run. Peak
  /// memory is the count tables, one sequence buffer per shard, and the
  /// deferred chunks of two waves (the one running and the one being
  /// pulled); a shard drops its chunk's input once it has produced the
  /// sequences.
  /// Emits lm.fit.shard_* metrics and, on the calling thread, one
  /// lm.fit.wave span per wave waited on plus lm.fit.merge and
  /// lm.fit.freeze.
  Status FitStreaming(const SequenceChunkIterator& next_chunk,
                      size_t num_shards);

  std::vector<double> NextTokenDistribution(
      const TokenSequence& context) const override;

  /// Restricted path: Witten–Bell interpolation evaluated per candidate
  /// (count lookups only for the candidate set), bitwise-identical to
  /// gathering NextTokenDistribution at the candidate ids. Allocation-free
  /// once `out` has capacity.
  void NextTokenWeightsRestricted(const TokenSequence& context,
                                  const std::vector<TokenId>& candidates,
                                  DecodeWorkspace* ws,
                                  std::vector<double>* out) const override;

  /// Single-token interpolation walk: O(order) count lookups instead of a
  /// V-sized distribution per scored token, bitwise-identical to the
  /// full-distribution gather.
  double TokenLogProb(const TokenSequence& context, TokenId token,
                      DecodeWorkspace* ws) const override;

  /// The model reads at most order-1 trailing tokens of bos + context.
  size_t context_dependence() const override { return options_.order - 1; }

  size_t vocab_size() const override { return vocab_size_; }
  bool fitted() const override { return fitted_; }

  const Options& options() const { return options_; }

  /// Persistence (artifact kind "greater.ngram_lm"). The frozen tables
  /// are already in the artifact's canonical order (contexts by (length,
  /// ids), successors by token), so equal models serialize to equal bytes
  /// by a linear dump and a loaded model reproduces the saved model's
  /// distributions bit for bit. The prior corpus is not persisted — its
  /// fractional counts are already folded into the tables at Fit.
  /// DeserializeBinary rejects (kDataLoss) any artifact the lookups could
  /// not walk safely: ids outside the vocabulary, a context whose length
  /// differs from its level, unsorted or duplicate contexts or successors,
  /// a context whose one-shorter suffix is missing, and non-finite or
  /// non-positive totals or counts.
  std::string SerializeBinary() const;
  Status DeserializeBinary(std::string_view bytes);
  Status Save(const std::string& path) const;
  Status Load(const std::string& path);

  /// Frozen table sizes: contexts (all lengths), (context, successor)
  /// cells, and the bytes the arrays and the child index hold. Also
  /// published as the lm.ngram.* gauges whenever a model is frozen or
  /// loaded.
  size_t num_contexts() const { return ctx_total_.size(); }
  size_t num_successors() const { return succ_token_.size(); }
  size_t model_bytes() const;

  /// Maximum supported n-gram order (Options::order is clamped to it).
  static constexpr size_t kMaxOrder = kNGramMaxOrder;

 private:
  /// Freezes merged integer counts into the flat tables: contexts sorted
  /// by (length, ids), CSR successor spans sorted by token, double totals
  /// and counts. The count trie's zero-count cell (the <bos> edge) is not
  /// a successor and is left out. With prior_weight > 0 the prior corpus
  /// is counted too and each slot gets its serial prior increments first,
  /// then the data count as unit increments — the historical rounding
  /// order.
  Status Freeze(CountShard counts);

  /// Walks the contexts of bos + `context` from the empty one, prepending
  /// one older token per step, and calls `visit(ctx)` for each stored
  /// context id; the first unseen context ends the walk (longer ones are
  /// unseen too).
  template <typename Visit>
  void WalkContexts(const TokenSequence& context, Visit visit) const;

  /// Witten–Bell weight of context `ctx`: total / (total + distinct).
  double Lambda(uint32_t ctx) const;

  void PublishGauges() const;

  size_t vocab_size_;
  Options options_;
  bool fitted_ = false;
  std::vector<TokenSequence> prior_;

  // Frozen tables. Context ids are positions in (length, ids) order;
  // contexts of length k occupy [level_begin_[k], level_begin_[k + 1]).
  // Context 0 (when present) is the empty context; every other context is
  // its one-shorter suffix ctx_parent_ with ctx_token_ prepended.
  std::vector<uint64_t> level_begin_;
  std::vector<uint32_t> ctx_parent_;
  std::vector<TokenId> ctx_token_;
  std::vector<double> ctx_total_;
  std::vector<uint64_t> succ_begin_;  // CSR offsets, num_contexts() + 1
  std::vector<TokenId> succ_token_;   // ascending within each context
  std::vector<double> succ_count_;
  FlatU64Map child_;  // (suffix context, oldest token) -> context id
};

}  // namespace greater

#endif  // GREATER_LM_NGRAM_LM_H_
