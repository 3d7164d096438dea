#ifndef GREATER_SYNTH_GREAT_SYNTHESIZER_H_
#define GREATER_SYNTH_GREAT_SYNTHESIZER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "lm/decode_cache.h"
#include "lm/language_model.h"
#include "lm/neural_lm.h"
#include "lm/ngram_lm.h"
#include "synth/sample_report.h"
#include "synth/textual_encoder.h"
#include "tabular/table.h"
#include "tabular/table_stream.h"

namespace greater {

class BatchDecodeEngine;
class ByteReader;
class ByteWriter;

/// The GReaT pipeline (Borisov et al., ICLR 2023), as reproduced here:
/// textual-encode every row, fit an autoregressive language model on the
/// sentences, then sample sentences back and parse them into rows.
///
/// Sampling uses constrained (grammar-guided) decoding — the structural
/// tokens of the sentence grammar are enforced while the *content* tokens
/// are chosen by the model — which plays the role of GReaT's
/// rejection-and-retry loop and keeps invalid-row rates low. Rows that
/// still fail validation (multi-token values recombined into unseen
/// categories, etc.) are rejected and resampled.
class GreatSynthesizer {
 public:
  /// Which language-model substitute backs the synthesizer (see DESIGN.md).
  enum class Backbone {
    kNGram,   ///< fast; used by the full evaluation sweeps
    kNeural,  ///< embedding-based; the closer GPT-2 analogue
  };

  struct Options {
    Backbone backbone = Backbone::kNGram;
    NGramLm::Options ngram;
    NeuralLm::Options neural;
    TextualEncoder::Options encoder;
    /// Sampling temperature for content tokens.
    double temperature = 1.0;
    /// Reject generated categorical values never observed in training.
    bool restrict_to_observed = true;
    /// When true, a column's value tokens are constrained to the tokens
    /// observed in that column (tight grammar). When false — the
    /// GReaT-faithful mode — value tokens may come from ANY column's
    /// observed vocabulary and validity is enforced only by rejection.
    /// This is where Fig. 2's ambiguity bites: a confused "1" borrowed
    /// from another column still *passes* validation whenever the label
    /// sets collide, while semantically enhanced (globally distinct)
    /// categories make such leakage detectable and resampled away.
    bool constrain_values_to_column = true;
    /// With constrain_values_to_column=false, retry budgets can exhaust on
    /// hard rows; when set, the final attempt falls back to the tight
    /// grammar instead of failing the whole Sample call.
    bool fallback_to_constrained = true;
    /// Resampling budget per output row before giving up.
    size_t max_attempts_per_row = 25;
    /// What happens when a row exhausts that budget: strict fails the
    /// whole Sample call (with provenance context); lenient keeps the
    /// rows that succeeded and accounts for the rest in the SampleReport.
    SamplePolicy policy = SamplePolicy::kStrict;
    /// Optional natural-language prior corpus simulating pre-trained
    /// knowledge (see NGramLm). Weight <= 0 disables.
    std::vector<std::string> prior_corpus;
    double prior_weight = 0.25;
    /// Fixed training budget: if the encoded corpus exceeds this many
    /// sentences, a uniform subsample is used. Models the paper's compute
    /// constraint (Sec. 4.1.4 cut the default 1000 epochs to 10 "due to a
    /// large dataset size"): an inflated flattened table burns the budget
    /// on duplicated engaged-subject rows and under-trains everything
    /// else. 0 = unlimited.
    size_t max_training_sequences = 0;
    /// Worker threads for Sample/SampleConditional row generation; also
    /// forwarded to neural-backbone training when it exceeds the neural
    /// options' own num_threads. 1 = serial reference behaviour, which is
    /// bitwise-identical to prior releases; any fixed (seed, num_threads)
    /// pair reproduces itself (see DESIGN.md, "Parallel execution layer").
    size_t num_threads = 1;
    /// Decode-time distribution cache (see DESIGN.md, "Decode cache &
    /// sampling kernels"). Each worker owns a private cache, so parallel
    /// determinism is unchanged, and cached draws replay the uncached
    /// token stream bit for bit.
    DecodeCacheOptions decode_cache;
    /// Lockstep chunk size of the decode engine (see DESIGN.md, "Batched
    /// columnar decode"): rows decoded together per chunk. Larger chunks
    /// group lanes that share a (context window, allow-list, temperature)
    /// key so each group costs one model evaluation per step; every row
    /// draws from its own derived Rng stream, so Sample/SampleConditional
    /// output is bitwise-identical at ANY batch_rows value (and any
    /// num_threads). 0 is treated as 1.
    size_t batch_rows = 1;
    /// Count shards for out-of-core fitting (FitStreaming): chunks fan out
    /// over an internal thread pool onto this many integer-count
    /// accumulators, folded in fixed shard order — the fitted model is
    /// bitwise-identical at ANY value, so this is a pure throughput knob.
    /// Excluded from the serialized options codec for that reason (two
    /// runs differing only here produce identical artifacts).
    size_t num_fit_shards = 1;
  };

  GreatSynthesizer() : GreatSynthesizer(Options()) {}
  explicit GreatSynthesizer(const Options& options);
  GreatSynthesizer(GreatSynthesizer&&) noexcept;
  GreatSynthesizer& operator=(GreatSynthesizer&&) noexcept;
  ~GreatSynthesizer();

  /// Fits encoder + language model on `train`. One-shot.
  Status Fit(const Table& train, Rng* rng);

  /// Out-of-core Fit: consumes `chunks` (a restartable typed-chunk source,
  /// e.g. FitStage::ChunkSource over a CSV on disk) in two streaming
  /// passes — first collecting each column's distinct values to build the
  /// encoder and observed-value pools, then handing chunk by chunk to
  /// NGramLm::FitStreaming with options().num_fit_shards accumulators:
  /// the calling thread draws each chunk's feature orders in chunk order,
  /// and the shard that counts the chunk encodes it. Peak memory is
  /// bounded by the chunk size plus the model's count tables; the whole
  /// table is never materialized. The fitted synthesizer
  /// is bitwise-identical to Fit on the concatenated chunks (same
  /// encoder, same counts, same samples at a fixed seed), because the
  /// encoder's vocabulary depends only on first-seen distinct values and
  /// the shard counts are exact integers. Requires the n-gram backbone
  /// and max_training_sequences == 0 (a subsample needs the whole corpus).
  Status FitStreaming(const TableChunkSource& chunks, Rng* rng);

  /// Samples `n` synthetic rows. Under SamplePolicy::kLenient the result
  /// may hold fewer than `n` rows; `report` (optional) receives the
  /// per-call counts (merged into whatever it already holds) and always
  /// reconciles: rows_emitted + rows_exhausted == rows_requested.
  Result<Table> Sample(size_t n, Rng* rng,
                       SampleReport* report = nullptr) const;

  /// Samples one row per row of `conditions`, forcing the condition
  /// columns (a subset of the training schema) to the given values and
  /// letting the model generate the rest — conditional generation via
  /// constrained decoding. This is how the relational synthesizer
  /// conditions child rows on parent observations. Lenient mode skips
  /// condition rows whose generation exhausts the attempt budget.
  Result<Table> SampleConditional(const Table& conditions, Rng* rng,
                                  SampleReport* report = nullptr) const;

  /// Samples a single row, optionally with forced column values. A chunk
  /// of one through the decode engine: the result equals row 0 of
  /// SampleConditional over a one-row table holding `forced` (or of
  /// Sample(1) when `forced` is null or empty) from the same `rng`, under
  /// strict policy. The row draws from the stream derived for row 0
  /// rather than straight from `rng`, so a seeded SampleRow returns a
  /// different row than the earlier per-row decoder did.
  Result<Row> SampleRow(Rng* rng,
                        const std::map<std::string, Value>* forced =
                            nullptr) const;

  /// Samples `n` independent rows on `pool`'s workers. One base value is
  /// drawn from `rng` (advancing it by the same amount regardless of
  /// worker count or batch size) and row `i` draws from a private stream
  /// seeded with Rng::DeriveStreamSeed(base, i), so for a fixed seed the
  /// output is identical at every (worker count, batch_rows) combination.
  /// With a null pool or a single worker rows are produced serially; this
  /// is exactly Sample.
  Result<Table> SampleRows(size_t n, Rng* rng, ThreadPool* pool,
                           SampleReport* report = nullptr) const;

  /// The stream-base derivation every Sample* call makes exactly once
  /// (advancing `rng` by two engine draws): row i of that call then
  /// samples from Rng(Rng::DeriveStreamSeed(base, i)). Exposed so an
  /// external scheduler — the serving layer packing rows of many requests
  /// into shared decode batches — can reproduce a request's rows
  /// bitwise-identically to `Rng r(seed); SampleRows(n, &r, ...)` without
  /// going through SampleRows itself.
  static uint64_t DeriveSampleBase(Rng* rng);

  bool fitted() const { return lm_ != nullptr && lm_->fitted(); }
  const TextualEncoder& encoder() const { return *encoder_; }
  const LanguageModel& lm() const { return *lm_; }
  const Options& options() const { return options_; }

  /// Cumulative sampling diagnostics across every Sample* call.
  const SampleReport& stats() const { return stats_; }

  /// Persistence of the whole trained bundle (artifact kind
  /// "greater.great_synthesizer"): options, the encoder and language model
  /// as nested artifacts, and the observed-value pools. Requires fitted().
  /// A loaded synthesizer draws the exact token stream of the saved one —
  /// Save -> Load -> Sample(seed) is bitwise-identical to Sample(seed) on
  /// the in-memory instance, for both backbones (grammars and allow-list
  /// ids are rebuilt in Fit order; observed pools are stored sorted).
  ///
  /// Each call counts into the `synth.serializations` counter, and the
  /// first one on a fitted model also fills the content-fingerprint memo
  /// (see ContentFingerprint). DeserializeBinary and Load build a fresh
  /// object and move-assign it over this one, so the memo resets with
  /// every other piece of state.
  Result<std::string> SerializeBinary() const;
  Status DeserializeBinary(std::string_view bytes);
  Status Save(const std::string& path) const;
  Status Load(const std::string& path);

  /// The model's content fingerprint: the value of a fresh CheckpointChain
  /// after mixing this model's SerializeBinary() bytes. Emission keys its
  /// chunk checkpoints by resuming a chain from it. Memoized: only a call
  /// that finds the memo empty serializes, so a durable run that has
  /// already serialized its model for the stage checkpoint never
  /// serializes it again. Requires fitted().
  Result<uint64_t> ContentFingerprint() const;

  /// Binary codec for Options, shared by the synthesizer bundle and the
  /// pipeline checkpoint fingerprint (two configurations hash equal iff
  /// these bytes are equal).
  static void AppendOptionsTo(const Options& options, ByteWriter* w);
  static Status ReadOptionsFrom(ByteReader* r, Options* options);

  /// Perplexity of the fitted model on a held-out table (encoded once,
  /// schema order).
  Result<double> EvaluatePerplexity(const Table& held_out) const;

 private:
  friend class BatchDecodeEngine;
  /// The uncached per-row decoder the tests check the engine against.
  friend class ReferenceDecoder;

  /// Hard cap on tokens per generated value; guards against degenerate
  /// loops when the model keeps emitting value tokens.
  static constexpr size_t kMaxValueTokens = 24;

  /// Reusable per-sampler state: one set per worker (or per Sample call)
  /// instead of one per chunk. Owns the worker's decode engine and private
  /// DecodeCache — caches are never shared across workers, so the
  /// parallel determinism contract is untouched.
  struct SamplerWorkspace {
    DecodeWorkspace decode;
    std::unique_ptr<DecodeCache> cache;
    std::unique_ptr<BatchDecodeEngine> engine;
  };

  /// Allow-list variants for one value grammar, interned once at Fit: the
  /// raw observed-token list plus the terminator-admitted copies used from
  /// the second value token onward. Prebuilding them removes the per-step
  /// copy + sorted-insert the sampler used to do.
  struct ValueGrammar {
    std::vector<TokenId> values;
    std::vector<TokenId> with_comma;
    std::vector<TokenId> with_eos;
    AllowListId values_id = kNoAllowList;
    AllowListId with_comma_id = kNoAllowList;
    AllowListId with_eos_id = kNoAllowList;
  };

  /// Prepares a sampler workspace: constructs its engine and, when
  /// enabled, its private DecodeCache (idempotent — an existing cache is
  /// kept warm) and sizes the neural hidden-state cache.
  void InitWorkspace(SamplerWorkspace* ws) const;

  /// Shared core of every Sample* call and SampleRow. `conditions` null
  /// -> unconditional; row i otherwise forces conditions row i. Rows are
  /// decoded in lockstep chunks of batch_rows, serially unless `pool` has
  /// > 1 worker and n > 1. `policy` is the effective degradation policy
  /// for this call (options_.policy, or strict for SampleRow).
  Result<Table> SampleMany(size_t n, const Table* conditions, Rng* rng,
                           ThreadPool* pool, SampleReport* report,
                           SamplePolicy policy) const;

  /// Observed display strings of one column: a hash set for O(1) validity
  /// checks plus the same strings sorted ascending, so the last-resort
  /// snap draw indexes a container whose order survives a Save/Load
  /// rebuild (unordered_set iteration order would not).
  struct ObservedColumn {
    std::unordered_set<std::string> set;
    std::vector<std::string> sorted;

    void Insert(const std::string& value) {
      if (set.insert(value).second) sorted.push_back(value);
    }
    void SortPool() { std::sort(sorted.begin(), sorted.end()); }
  };

  /// Rebuilds the derived sampling state — the value-token union, the
  /// per-column and free-mode grammars, and their interned allow-list ids
  /// — from the encoder. Called at the end of Fit and of Load; the
  /// interning order is identical in both, which is what keeps a loaded
  /// synthesizer's decode-cache keys (and token stream) equal to the
  /// saved one's.
  void BuildGrammars();

  /// 8-byte memo of ContentFingerprint, 0 while unknown (a fingerprint
  /// that happens to be 0 is simply never memoized). Written at most once
  /// per model content through an atomic, so concurrent const calls do
  /// not race; every writer stores the same value. Moving resets both
  /// sides, which covers every path that replaces the model
  /// (DeserializeBinary, Load, move-assignment) and leaves a moved-from
  /// object free to be fitted afresh.
  class FingerprintMemo {
   public:
    FingerprintMemo() = default;
    FingerprintMemo(FingerprintMemo&& other) noexcept { other.Reset(); }
    FingerprintMemo& operator=(FingerprintMemo&& other) noexcept {
      Reset();
      other.Reset();
      return *this;
    }
    uint64_t Get() const { return value_.load(std::memory_order_relaxed); }
    void Set(uint64_t v) const { value_.store(v, std::memory_order_relaxed); }

   private:
    void Reset() { value_.store(0, std::memory_order_relaxed); }
    mutable std::atomic<uint64_t> value_{0};
  };

  Options options_;
  std::unique_ptr<TextualEncoder> encoder_;
  std::unique_ptr<LanguageModel> lm_;
  /// Observed display strings per column, for validity checking and
  /// deterministic last-resort snapping.
  std::vector<ObservedColumn> observed_values_;
  /// Union of every column's value tokens (free-value decoding mode).
  std::vector<TokenId> all_value_tokens_;
  /// Per-column tight grammars plus the free-mode union grammar, interned
  /// into the encoder's AllowListInterner at Fit.
  std::vector<ValueGrammar> column_grammars_;
  ValueGrammar free_grammar_;
  /// Serial-path workspace, persistent across Sample* calls so the decode
  /// cache stays warm between them (a repeated SampleConditional over many
  /// parents reuses one cache). Cache contents never influence output, so
  /// reuse cannot perturb determinism. Parallel workers
  /// get fresh private workspaces per call instead — like stats_, this
  /// member makes concurrent Sample* calls on one synthesizer unsupported.
  mutable SamplerWorkspace serial_ws_;
  mutable SampleReport stats_;
  FingerprintMemo fingerprint_;
};

}  // namespace greater

#endif  // GREATER_SYNTH_GREAT_SYNTHESIZER_H_
