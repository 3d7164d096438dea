#include "synth/great_synthesizer.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <string_view>
#include <utility>

#include "common/artifact_io.h"
#include "common/checkpoint_store.h"
#include "common/fault.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "synth/batch_decode.h"
#include "tabular/table_builder.h"

namespace greater {
namespace {

// Inserts `id` into a strictly ascending list, keeping it sorted and
// deduplicated — the same insert-if-absent the sampler used to run per
// decode step, now done once at Fit.
void InsertSorted(std::vector<TokenId>* ids, TokenId id) {
  auto pos = std::lower_bound(ids->begin(), ids->end(), id);
  if (pos == ids->end() || *pos != id) ids->insert(pos, id);
}

// `value`'s display string as a view: a string cell's own bytes, or any
// other value's display string built into `scratch`.
std::string_view DisplayView(const Value& value, std::string* scratch) {
  if (value.is_string()) return value.as_string();
  *scratch = value.ToDisplayString();
  return *scratch;
}

}  // namespace

GreatSynthesizer::GreatSynthesizer(const Options& options)
    : options_(options) {}

// Defined here, where BatchDecodeEngine is complete (SamplerWorkspace holds
// it behind a unique_ptr).
GreatSynthesizer::GreatSynthesizer(GreatSynthesizer&&) noexcept = default;
GreatSynthesizer& GreatSynthesizer::operator=(GreatSynthesizer&&) noexcept =
    default;
GreatSynthesizer::~GreatSynthesizer() = default;

Status GreatSynthesizer::Fit(const Table& train, Rng* rng) {
  Span fit_span("synth.fit");
  if (fitted()) {
    return Status::FailedPrecondition("GreatSynthesizer already fitted");
  }
  if (train.num_rows() == 0) {
    return Status::Invalid("cannot fit on an empty table");
  }
  GREATER_FAULT_POINT("lm.fit");
  GREATER_ASSIGN_OR_RETURN(
      TextualEncoder encoder,
      TextualEncoder::Build(train, options_.encoder, options_.prior_corpus));
  encoder_ = std::make_unique<TextualEncoder>(std::move(encoder));

  GREATER_ASSIGN_OR_RETURN(std::vector<TokenSequence> sequences,
                           encoder_->EncodeTable(train, rng));
  if (options_.max_training_sequences > 0 &&
      sequences.size() > options_.max_training_sequences) {
    rng->Shuffle(&sequences);
    sequences.resize(options_.max_training_sequences);
  }

  std::vector<TokenSequence> prior_sequences;
  bool use_prior = options_.prior_weight > 0.0 && !options_.prior_corpus.empty();
  if (use_prior) {
    prior_sequences.reserve(options_.prior_corpus.size());
    for (const auto& line : options_.prior_corpus) {
      prior_sequences.push_back(encoder_->EncodeTextLine(line));
    }
  }

  size_t vocab_size = encoder_->vocab().size();
  switch (options_.backbone) {
    case Backbone::kNGram: {
      NGramLm::Options lm_options = options_.ngram;
      if (use_prior) lm_options.prior_weight = options_.prior_weight;
      auto lm = std::make_unique<NGramLm>(vocab_size, lm_options);
      if (use_prior) {
        GREATER_RETURN_NOT_OK(lm->SetPriorCorpus(prior_sequences));
      }
      GREATER_RETURN_NOT_OK(lm->Fit(sequences));
      lm_ = std::move(lm);
      break;
    }
    case Backbone::kNeural: {
      NeuralLm::Options lm_options = options_.neural;
      lm_options.num_threads =
          std::max(lm_options.num_threads, options_.num_threads);
      auto lm = std::make_unique<NeuralLm>(vocab_size, lm_options);
      if (use_prior) {
        GREATER_RETURN_NOT_OK(lm->SetPriorCorpus(prior_sequences));
      }
      GREATER_RETURN_NOT_OK(lm->Fit(sequences));
      lm_ = std::move(lm);
      break;
    }
  }

  observed_values_.clear();
  observed_values_.resize(train.num_columns());
  for (size_t c = 0; c < train.num_columns(); ++c) {
    for (size_t r = 0; r < train.num_rows(); ++r) {
      observed_values_[c].Insert(train.at(r, c).ToDisplayString());
    }
    observed_values_[c].SortPool();
  }
  BuildGrammars();
  return Status::OK();
}

Status GreatSynthesizer::FitStreaming(const TableChunkSource& chunks,
                                      Rng* rng) {
  Span fit_span("synth.fit_streaming");
  if (fitted()) {
    return Status::FailedPrecondition("GreatSynthesizer already fitted");
  }
  if (options_.backbone != Backbone::kNGram) {
    return Status::Invalid(
        "FitStreaming requires the n-gram backbone (neural training needs "
        "the whole corpus in memory)");
  }
  if (options_.max_training_sequences > 0) {
    return Status::Invalid(
        "FitStreaming does not support max_training_sequences (a uniform "
        "subsample needs the whole corpus)");
  }
  GREATER_FAULT_POINT("lm.fit");

  // Pass A: one streaming scan collecting each column's distinct values in
  // first-seen order (deduplicated on display string, exactly how both the
  // encoder's vocabulary and the observed-value pools key values). Cells
  // probe by view, int cells by value first; a display string is copied
  // only on first sight.
  struct DistinctColumn {
    std::vector<Value> values;  // first occurrence of each display string
    std::unordered_set<std::string, TransparentStringHash, std::equal_to<>>
        seen;
    // Int cells whose display string is already in `seen`: an int probe
    // is cheaper than formatting and hashing its display string.
    std::unordered_set<int64_t> seen_ints;
  };
  std::string display_scratch;
  std::vector<DistinctColumn> distinct;
  std::optional<Schema> schema;
  uint64_t total_rows = 0;
  {
    Span distinct_span("synth.fit.distinct");
    GREATER_ASSIGN_OR_RETURN(TableChunkStream next_chunk, chunks());
    for (;;) {
      GREATER_ASSIGN_OR_RETURN(std::optional<Table> chunk, next_chunk());
      if (!chunk.has_value()) break;
      if (!schema.has_value()) {
        schema = chunk->schema();
        distinct.resize(chunk->num_columns());
      } else if (!(chunk->schema() == *schema)) {
        return Status::Invalid(
            "FitStreaming chunk source changed schema mid-stream");
      }
      for (size_t c = 0; c < chunk->num_columns(); ++c) {
        DistinctColumn& column = distinct[c];
        for (size_t r = 0; r < chunk->num_rows(); ++r) {
          const Value& value = chunk->at(r, c);
          if (value.is_int() &&
              !column.seen_ints.insert(value.as_int()).second) {
            continue;
          }
          const std::string_view display =
              DisplayView(value, &display_scratch);
          if (column.seen.find(display) != column.seen.end()) continue;
          column.seen.emplace(display);
          column.values.push_back(value);
        }
      }
      total_rows += chunk->num_rows();
    }
  }
  if (total_rows == 0) {
    return Status::Invalid("cannot fit on an empty table");
  }

  // The encoder's vocabulary, value-token lists, and error checks depend
  // only on the SET of distinct display strings per column and the order
  // in which they are first seen (TextualEncoder::Build scans
  // column-major with idempotent token insertion). A compact table whose
  // column c lists exactly those distinct values in first-seen order —
  // short columns padded by repeating their last value — therefore builds
  // a bitwise-identical encoder without materializing the input.
  size_t max_distinct = 0;
  for (const DistinctColumn& column : distinct) {
    max_distinct = std::max(max_distinct, column.values.size());
  }
  Table distinct_table(*schema);
  for (size_t r = 0; r < max_distinct; ++r) {
    Row row;
    row.reserve(distinct.size());
    for (const DistinctColumn& column : distinct) {
      if (column.values.empty()) {
        row.push_back(Value::Null());
      } else {
        row.push_back(column.values[std::min(r, column.values.size() - 1)]);
      }
    }
    GREATER_RETURN_NOT_OK(distinct_table.AppendRow(std::move(row)));
  }
  GREATER_ASSIGN_OR_RETURN(
      TextualEncoder encoder,
      TextualEncoder::Build(distinct_table, options_.encoder,
                            options_.prior_corpus));
  encoder_ = std::make_unique<TextualEncoder>(std::move(encoder));

  std::vector<TokenSequence> prior_sequences;
  bool use_prior =
      options_.prior_weight > 0.0 && !options_.prior_corpus.empty();
  if (use_prior) {
    prior_sequences.reserve(options_.prior_corpus.size());
    for (const auto& line : options_.prior_corpus) {
      prior_sequences.push_back(encoder_->EncodeTextLine(line));
    }
  }

  size_t vocab_size = encoder_->vocab().size();
  NGramLm::Options lm_options = options_.ngram;
  if (use_prior) lm_options.prior_weight = options_.prior_weight;
  auto lm = std::make_unique<NGramLm>(vocab_size, lm_options);
  if (use_prior) {
    GREATER_RETURN_NOT_OK(lm->SetPriorCorpus(prior_sequences));
  }

  // Pass B: re-open the source and hand chunk by chunk to the model's
  // sharded counting. The caller draws each chunk's feature orders in
  // chunk order from ONE shared rng and ONE shared permutation state (the
  // shuffle mutates the order vector in place across rows, so it must
  // persist across chunks too), which makes the permutation stream
  // identical to whole-table EncodeTable. The draws never read cell
  // values, so the encoding itself runs on the shard that counts the
  // chunk.
  {
    GREATER_ASSIGN_OR_RETURN(TableChunkStream next_chunk, chunks());
    std::vector<size_t> order;
    const TextualEncoder* encoder = encoder_.get();
    NGramLm::SequenceChunkIterator next_deferred =
        [encoder, &next_chunk, rng,
         &order]() -> Result<std::optional<NGramLm::DeferredChunk>> {
      GREATER_ASSIGN_OR_RETURN(std::optional<Table> chunk, next_chunk());
      if (!chunk.has_value()) return std::optional<NGramLm::DeferredChunk>();
      TextualEncoder::FeatureOrders orders =
          encoder->DrawFeatureOrders(chunk->num_rows(), rng, &order);
      return std::optional<NGramLm::DeferredChunk>(
          [encoder, table = std::move(*chunk),
           orders = std::move(orders)](std::vector<TokenSequence>* out) {
            return encoder->EncodeTableWithOrders(table, orders, out);
          });
    };
    size_t shards = std::max<size_t>(1, options_.num_fit_shards);
    GREATER_RETURN_NOT_OK(lm->FitStreaming(next_deferred, shards));
  }
  lm_ = std::move(lm);

  // The observed-value pools dedupe on display string and sort afterwards,
  // so feeding each column's distinct list reproduces the full-table scan.
  observed_values_.clear();
  observed_values_.resize(distinct.size());
  for (size_t c = 0; c < distinct.size(); ++c) {
    for (const Value& value : distinct[c].values) {
      observed_values_[c].Insert(value.ToDisplayString());
    }
    observed_values_[c].SortPool();
  }
  BuildGrammars();
  return Status::OK();
}

void GreatSynthesizer::BuildGrammars() {
  std::unordered_set<TokenId> union_tokens;
  for (const auto& column : encoder_->columns()) {
    union_tokens.insert(column.value_tokens.begin(),
                        column.value_tokens.end());
  }
  all_value_tokens_.assign(union_tokens.begin(), union_tokens.end());
  std::sort(all_value_tokens_.begin(), all_value_tokens_.end());

  // Intern every constrained-decoding allow-list once: per-column value
  // lists, their terminator-admitted variants, and the free-mode union.
  // The interner is read-only from here on, so parallel workers share the
  // stable small-int ids without synchronization.
  AllowListInterner& interner = encoder_->mutable_allow_lists();
  auto build_grammar = [&](const std::vector<TokenId>& values) {
    ValueGrammar grammar;
    grammar.values = values;
    grammar.with_comma = values;
    InsertSorted(&grammar.with_comma, encoder_->comma_token());
    grammar.with_eos = values;
    InsertSorted(&grammar.with_eos, Vocabulary::kEosId);
    grammar.values_id = interner.Intern(grammar.values);
    grammar.with_comma_id = interner.Intern(grammar.with_comma);
    grammar.with_eos_id = interner.Intern(grammar.with_eos);
    return grammar;
  };
  column_grammars_.clear();
  column_grammars_.reserve(encoder_->columns().size());
  for (const auto& column : encoder_->columns()) {
    column_grammars_.push_back(build_grammar(column.value_tokens));
  }
  free_grammar_ = build_grammar(all_value_tokens_);
}

void GreatSynthesizer::InitWorkspace(SamplerWorkspace* ws) const {
  if (options_.decode_cache.enabled && ws->cache == nullptr) {
    ws->cache = std::make_unique<DecodeCache>(options_.decode_cache);
  }
  if (ws->engine == nullptr) {
    ws->engine = std::make_unique<BatchDecodeEngine>(*this);
  }
  ws->decode.hidden_cache.set_capacity(
      options_.decode_cache.cache_hidden_states
          ? options_.decode_cache.hidden_capacity
          : 0);
}

Result<Row> GreatSynthesizer::SampleRow(
    Rng* rng, const std::map<std::string, Value>* forced) const {
  if (!fitted()) {
    return Status::FailedPrecondition("SampleRow before Fit");
  }
  // A chunk of one: row 0 of SampleConditional over a one-row table of the
  // forced values (or of Sample(1) when nothing is forced). Strict, so an
  // exhausted row comes back as its error rather than as an empty table.
  std::optional<Table> conditions;
  if (forced != nullptr && !forced->empty()) {
    std::vector<Field> fields;
    Row row;
    for (const auto& [name, value] : *forced) {
      fields.emplace_back(name, value.type());
      row.push_back(value);
    }
    conditions.emplace(Schema(std::move(fields)));
    GREATER_RETURN_NOT_OK(conditions->AppendRow(std::move(row)));
  }
  GREATER_ASSIGN_OR_RETURN(
      Table table,
      SampleMany(1, conditions.has_value() ? &*conditions : nullptr, rng,
                 nullptr, nullptr, SamplePolicy::kStrict));
  return table.GetRow(0);
}

uint64_t GreatSynthesizer::DeriveSampleBase(Rng* rng) {
  uint64_t base_a = rng->engine()();
  uint64_t base_b = rng->engine()();
  return base_a ^ (base_b * 0x2545F4914F6CDD1DULL + 0x9e3779b97f4a7c15ULL);
}

Result<Table> GreatSynthesizer::SampleMany(size_t n, const Table* conditions,
                                           Rng* rng, ThreadPool* pool,
                                           SampleReport* report,
                                           SamplePolicy policy) const {
  auto context_for = [&](size_t i) {
    return std::string(conditions != nullptr ? "sampling conditioned row "
                                             : "sampling row ") +
           std::to_string(i + 1) + " of " + std::to_string(n);
  };
  // Captured before any dispatch: pool workers have no view of this
  // thread's span stack, so batch spans take their parent explicitly.
  const uint64_t parent_span = Span::CurrentId();

  // One base draw (fixed Rng advance regardless of worker count or chunk
  // size), then row i samples from the private stream seeded with
  // DeriveStreamSeed(base, i). Because every draw a row makes comes from
  // its own stream, the output is invariant to how rows are scheduled —
  // serial or pooled, in chunks of any size — which is the whole
  // determinism contract: identical tables at any (num_threads,
  // batch_rows) for a fixed seed.
  uint64_t base = 0;
  if (n > 0) {
    base = DeriveSampleBase(rng);
  }
  const size_t batch = std::max<size_t>(1, options_.batch_rows);

  // Samples rows [begin, end) in lockstep chunks of `batch` rows through
  // the workspace's engine, appending one Result<Row> per row to `rows`.
  auto sample_range = [&](size_t begin, size_t end, SamplerWorkspace* ws,
                          SampleReport* stats,
                          std::vector<Result<Row>>* rows) {
    for (size_t chunk = begin; chunk < end; chunk += batch) {
      size_t chunk_end = std::min(end, chunk + batch);
      ws->engine->RunChunk(chunk, chunk_end, conditions, base,
                           ws->cache.get(), &ws->decode, stats, parent_span,
                           rows);
    }
  };

  // Output assembly is columnar: decoded cells append straight into
  // per-column storage reserved once for all n rows.
  TableBuilder builder(encoder_->schema());
  builder.Reserve(n);
  size_t workers = pool != nullptr ? std::min(pool->num_workers(), n) : 1;
  if (workers <= 1 || n <= 1) {
    // Serial path: one chunk at a time, stopping at the first failure a
    // strict policy surfaces (rows in later chunks are never attempted).
    SampleReport before = stats_;
    InitWorkspace(&serial_ws_);
    std::vector<Result<Row>> rows;
    for (size_t chunk_begin = 0; chunk_begin < n; chunk_begin += batch) {
      size_t chunk_end = std::min(n, chunk_begin + batch);
      rows.clear();
      sample_range(chunk_begin, chunk_end, &serial_ws_, &stats_, &rows);
      for (size_t k = 0; k < rows.size(); ++k) {
        Result<Row>& row = rows[k];
        if (!row.ok()) {
          if (policy == SamplePolicy::kLenient &&
              row.status().code() == StatusCode::kResourceExhausted) {
            continue;  // degrade: keep what succeeded, account for the rest
          }
          SampleReport delta = stats_.DeltaSince(before);
          delta.ExportToMetrics();
          if (report) report->Merge(delta);
          return row.status().WithContext(context_for(chunk_begin + k));
        }
        GREATER_RETURN_NOT_OK(
            builder.AppendRow(std::move(row).ValueOrDie()));
      }
    }
    SampleReport delta = stats_.DeltaSince(before);
    delta.ExportToMetrics();
    if (report) report->Merge(delta);
    return builder.Build();
  }

  // Parallel path: worker w samples its contiguous row range (each row
  // still on its own derived stream). Every row is attempted even if an
  // earlier one fails, so under strict policy the report covers all n rows
  // while the returned error is the one the serial path would have hit
  // first.
  struct WorkerOutput {
    std::vector<Result<Row>> rows;
    SampleReport report;
  };
  std::vector<WorkerOutput> outputs(workers);
  pool->ParallelFor(n, workers, [&](size_t shard, size_t begin, size_t end) {
    SamplerWorkspace ws;  // private decode cache + engine per worker
    InitWorkspace(&ws);
    WorkerOutput& output = outputs[shard];
    output.rows.reserve(end - begin);
    sample_range(begin, end, &ws, &output.report, &output.rows);
  });

  SampleReport delta;
  for (const WorkerOutput& output : outputs) delta.Merge(output.report);
  stats_.Merge(delta);
  delta.ExportToMetrics();
  if (report) report->Merge(delta);
  size_t row_index = 0;
  for (WorkerOutput& output : outputs) {
    for (Result<Row>& row : output.rows) {
      size_t i = row_index++;
      if (!row.ok()) {
        if (policy == SamplePolicy::kLenient &&
            row.status().code() == StatusCode::kResourceExhausted) {
          continue;
        }
        return row.status().WithContext(context_for(i));
      }
      GREATER_RETURN_NOT_OK(builder.AppendRow(std::move(row).ValueOrDie()));
    }
  }
  return builder.Build();
}

Result<Table> GreatSynthesizer::Sample(size_t n, Rng* rng,
                                       SampleReport* report) const {
  if (!fitted()) {
    return Status::FailedPrecondition("Sample before Fit");
  }
  if (options_.num_threads > 1 && n > 1) {
    ThreadPool pool(options_.num_threads);
    return SampleMany(n, nullptr, rng, &pool, report, options_.policy);
  }
  return SampleMany(n, nullptr, rng, nullptr, report, options_.policy);
}

Result<Table> GreatSynthesizer::SampleRows(size_t n, Rng* rng,
                                           ThreadPool* pool,
                                           SampleReport* report) const {
  if (!fitted()) {
    return Status::FailedPrecondition("SampleRows before Fit");
  }
  return SampleMany(n, nullptr, rng, pool, report, options_.policy);
}

Result<Table> GreatSynthesizer::SampleConditional(const Table& conditions,
                                                  Rng* rng,
                                                  SampleReport* report) const {
  if (!fitted()) {
    return Status::FailedPrecondition("SampleConditional before Fit");
  }
  size_t n = conditions.num_rows();
  if (options_.num_threads > 1 && n > 1) {
    ThreadPool pool(options_.num_threads);
    return SampleMany(n, &conditions, rng, &pool, report, options_.policy);
  }
  return SampleMany(n, &conditions, rng, nullptr, report, options_.policy);
}

namespace {

constexpr char kSynthesizerKind[] = "greater.great_synthesizer";
// v2: appended batch_rows to the options codec.
constexpr uint32_t kSynthesizerVersion = 2;

void AppendOptions(const GreatSynthesizer::Options& o, ByteWriter* w) {
  w->PutU8(static_cast<uint8_t>(o.backbone));
  w->PutU64(o.ngram.order);
  w->PutF64(o.ngram.prior_weight);
  w->PutU64(o.neural.context_window);
  w->PutU64(o.neural.embed_dim);
  w->PutU64(o.neural.hidden_dim);
  w->PutU64(o.neural.epochs);
  w->PutU64(o.neural.batch_size);
  w->PutF64(o.neural.learning_rate);
  w->PutU64(o.neural.pretrain_epochs);
  w->PutU64(o.neural.seed);
  w->PutU64(o.neural.num_threads);
  w->PutU64(o.encoder.permutations_per_row);
  w->PutBool(o.encoder.permute_features);
  w->PutF64(o.temperature);
  w->PutBool(o.restrict_to_observed);
  w->PutBool(o.constrain_values_to_column);
  w->PutBool(o.fallback_to_constrained);
  w->PutU64(o.max_attempts_per_row);
  w->PutU8(static_cast<uint8_t>(o.policy));
  w->PutU32(static_cast<uint32_t>(o.prior_corpus.size()));
  for (const std::string& line : o.prior_corpus) w->PutString(line);
  w->PutF64(o.prior_weight);
  w->PutU64(o.max_training_sequences);
  w->PutU64(o.num_threads);
  w->PutBool(o.decode_cache.enabled);
  w->PutU64(o.decode_cache.capacity);
  w->PutU8(0);  // retired decode-mode byte (see ReadOptions)
  w->PutBool(o.decode_cache.cache_hidden_states);
  w->PutU64(o.decode_cache.hidden_capacity);
  w->PutU64(o.batch_rows);
}

Status ReadOptions(ByteReader* r, GreatSynthesizer::Options* o) {
  uint8_t backbone = 0;
  GREATER_RETURN_NOT_OK(r->GetU8(&backbone));
  if (backbone > static_cast<uint8_t>(GreatSynthesizer::Backbone::kNeural)) {
    return Status::DataLoss("corrupt synthesizer options: unknown backbone " +
                            std::to_string(backbone));
  }
  o->backbone = static_cast<GreatSynthesizer::Backbone>(backbone);
  GREATER_RETURN_NOT_OK(r->GetU64(&o->ngram.order));
  GREATER_RETURN_NOT_OK(r->GetF64(&o->ngram.prior_weight));
  GREATER_RETURN_NOT_OK(r->GetU64(&o->neural.context_window));
  GREATER_RETURN_NOT_OK(r->GetU64(&o->neural.embed_dim));
  GREATER_RETURN_NOT_OK(r->GetU64(&o->neural.hidden_dim));
  GREATER_RETURN_NOT_OK(r->GetU64(&o->neural.epochs));
  GREATER_RETURN_NOT_OK(r->GetU64(&o->neural.batch_size));
  GREATER_RETURN_NOT_OK(r->GetF64(&o->neural.learning_rate));
  GREATER_RETURN_NOT_OK(r->GetU64(&o->neural.pretrain_epochs));
  GREATER_RETURN_NOT_OK(r->GetU64(&o->neural.seed));
  GREATER_RETURN_NOT_OK(r->GetU64(&o->neural.num_threads));
  GREATER_RETURN_NOT_OK(r->GetU64(&o->encoder.permutations_per_row));
  GREATER_RETURN_NOT_OK(r->GetBool(&o->encoder.permute_features));
  GREATER_RETURN_NOT_OK(r->GetF64(&o->temperature));
  GREATER_RETURN_NOT_OK(r->GetBool(&o->restrict_to_observed));
  GREATER_RETURN_NOT_OK(r->GetBool(&o->constrain_values_to_column));
  GREATER_RETURN_NOT_OK(r->GetBool(&o->fallback_to_constrained));
  GREATER_RETURN_NOT_OK(r->GetU64(&o->max_attempts_per_row));
  uint8_t policy = 0;
  GREATER_RETURN_NOT_OK(r->GetU8(&policy));
  if (policy > static_cast<uint8_t>(SamplePolicy::kLenient)) {
    return Status::DataLoss("corrupt synthesizer options: unknown policy " +
                            std::to_string(policy));
  }
  o->policy = static_cast<SamplePolicy>(policy);
  uint32_t prior_lines = 0;
  GREATER_RETURN_NOT_OK(r->GetU32(&prior_lines));
  o->prior_corpus.clear();
  o->prior_corpus.reserve(prior_lines);
  for (uint32_t i = 0; i < prior_lines; ++i) {
    std::string line;
    GREATER_RETURN_NOT_OK(r->GetString(&line));
    o->prior_corpus.push_back(std::move(line));
  }
  GREATER_RETURN_NOT_OK(r->GetF64(&o->prior_weight));
  GREATER_RETURN_NOT_OK(r->GetU64(&o->max_training_sequences));
  GREATER_RETURN_NOT_OK(r->GetU64(&o->num_threads));
  GREATER_RETURN_NOT_OK(r->GetBool(&o->decode_cache.enabled));
  GREATER_RETURN_NOT_OK(r->GetU64(&o->decode_cache.capacity));
  // Retired decode-mode byte: 0 was exact replay, the only draw scheme
  // left. Anything else asked for a scheme this build cannot honour.
  uint8_t mode = 0;
  GREATER_RETURN_NOT_OK(r->GetU8(&mode));
  if (mode != 0) {
    return Status::FailedPrecondition(
        "synthesizer options request decode mode " + std::to_string(mode) +
        "; only exact-replay draws (mode 0) are supported");
  }
  GREATER_RETURN_NOT_OK(r->GetBool(&o->decode_cache.cache_hidden_states));
  GREATER_RETURN_NOT_OK(r->GetU64(&o->decode_cache.hidden_capacity));
  GREATER_RETURN_NOT_OK(r->GetU64(&o->batch_rows));
  return Status::OK();
}

}  // namespace

void GreatSynthesizer::AppendOptionsTo(const Options& options,
                                       ByteWriter* w) {
  AppendOptions(options, w);
}

Status GreatSynthesizer::ReadOptionsFrom(ByteReader* r, Options* options) {
  return ReadOptions(r, options);
}

Result<std::string> GreatSynthesizer::SerializeBinary() const {
  if (!fitted()) {
    return Status::FailedPrecondition(
        "cannot serialize an unfitted synthesizer");
  }
  ArtifactWriter doc(kSynthesizerKind, kSynthesizerVersion);
  {
    ByteWriter w;
    AppendOptions(options_, &w);
    doc.AddChunk("options", std::move(w).Take());
  }
  doc.AddChunk("encoder", encoder_->SerializeBinary());
  switch (options_.backbone) {
    case Backbone::kNGram:
      doc.AddChunk("lm",
                   static_cast<const NGramLm*>(lm_.get())->SerializeBinary());
      break;
    case Backbone::kNeural:
      doc.AddChunk(
          "lm", static_cast<const NeuralLm*>(lm_.get())->SerializeBinary());
      break;
  }
  {
    ByteWriter w;
    w.PutU32(static_cast<uint32_t>(observed_values_.size()));
    for (const ObservedColumn& column : observed_values_) {
      w.PutU32(static_cast<uint32_t>(column.sorted.size()));
      for (const std::string& value : column.sorted) w.PutString(value);
    }
    doc.AddChunk("observed", std::move(w).Take());
  }
  static Counter& serializations =
      MetricsRegistry::Global().GetCounter("synth.serializations");
  serializations.Increment();
  std::string bytes = doc.Finish();
  if (fingerprint_.Get() == 0) {
    CheckpointChain chain;
    chain.Mix(bytes);
    fingerprint_.Set(chain.value());
  }
  return bytes;
}

Result<uint64_t> GreatSynthesizer::ContentFingerprint() const {
  if (const uint64_t memo = fingerprint_.Get(); memo != 0) return memo;
  GREATER_RETURN_NOT_OK(SerializeBinary().status());
  // SerializeBinary filled the memo; it reads 0 only if 0 is the value.
  return fingerprint_.Get();
}

Status GreatSynthesizer::DeserializeBinary(std::string_view bytes) {
  GREATER_ASSIGN_OR_RETURN(
      ArtifactReader doc,
      ArtifactReader::Parse(std::string(bytes), kSynthesizerKind,
                            kSynthesizerVersion));
  Options options;
  {
    GREATER_ASSIGN_OR_RETURN(std::string_view payload, doc.Chunk("options"));
    ByteReader r(payload);
    GREATER_RETURN_NOT_OK_CTX(ReadOptions(&r, &options),
                              "synthesizer options");
    GREATER_RETURN_NOT_OK(r.ExpectEnd());
  }
  auto encoder = std::make_unique<TextualEncoder>();
  {
    GREATER_ASSIGN_OR_RETURN(std::string_view payload, doc.Chunk("encoder"));
    GREATER_RETURN_NOT_OK_CTX(encoder->DeserializeBinary(payload),
                              "synthesizer encoder");
  }
  std::unique_ptr<LanguageModel> lm;
  {
    GREATER_ASSIGN_OR_RETURN(std::string_view payload, doc.Chunk("lm"));
    switch (options.backbone) {
      case Backbone::kNGram: {
        auto ngram = std::make_unique<NGramLm>(1);
        GREATER_RETURN_NOT_OK_CTX(ngram->DeserializeBinary(payload),
                                  "synthesizer n-gram LM");
        lm = std::move(ngram);
        break;
      }
      case Backbone::kNeural: {
        // Cheap throwaway shape: DeserializeBinary overwrites everything,
        // so the constructor's parameter init should touch as little
        // memory as possible.
        NeuralLm::Options tiny;
        tiny.context_window = 1;
        tiny.embed_dim = 1;
        tiny.hidden_dim = 1;
        auto neural = std::make_unique<NeuralLm>(1, tiny);
        GREATER_RETURN_NOT_OK_CTX(neural->DeserializeBinary(payload),
                                  "synthesizer neural LM");
        lm = std::move(neural);
        break;
      }
    }
    // Decode indexes model distributions by encoder token id: a model over
    // a different vocabulary would read or write out of bounds.
    if (lm->vocab_size() != encoder->vocab().size()) {
      return Status::DataLoss("corrupt synthesizer: LM vocab size " +
                              std::to_string(lm->vocab_size()) +
                              " differs from encoder vocab size " +
                              std::to_string(encoder->vocab().size()));
    }
  }
  std::vector<ObservedColumn> observed;
  {
    GREATER_ASSIGN_OR_RETURN(std::string_view payload, doc.Chunk("observed"));
    ByteReader r(payload);
    uint32_t num_columns = 0;
    GREATER_RETURN_NOT_OK(r.GetU32(&num_columns));
    if (num_columns != encoder->schema().num_fields()) {
      return Status::DataLoss(
          "corrupt synthesizer: observed-value pools cover " +
          std::to_string(num_columns) + " columns, encoder has " +
          std::to_string(encoder->schema().num_fields()));
    }
    observed.resize(num_columns);
    for (uint32_t c = 0; c < num_columns; ++c) {
      uint32_t num_values = 0;
      GREATER_RETURN_NOT_OK(r.GetU32(&num_values));
      for (uint32_t i = 0; i < num_values; ++i) {
        std::string value;
        GREATER_RETURN_NOT_OK(r.GetString(&value));
        observed[c].Insert(value);
      }
      if (!std::is_sorted(observed[c].sorted.begin(),
                          observed[c].sorted.end())) {
        return Status::DataLoss(
            "corrupt synthesizer: observed pool of column " +
            std::to_string(c) + " is not sorted");
      }
    }
    GREATER_RETURN_NOT_OK(r.ExpectEnd());
  }

  // A fresh object, move-assigned over this one: the sampling workspace,
  // stats and fingerprint memo all start over with the new model.
  GreatSynthesizer loaded(options);
  loaded.encoder_ = std::move(encoder);
  loaded.lm_ = std::move(lm);
  loaded.observed_values_ = std::move(observed);
  loaded.BuildGrammars();
  *this = std::move(loaded);
  return Status::OK();
}

Status GreatSynthesizer::Save(const std::string& path) const {
  GREATER_ASSIGN_OR_RETURN_CTX(std::string bytes, SerializeBinary(),
                               "saving synthesizer to '" + path + "'");
  return AtomicWriteFile(path, bytes)
      .WithContext("saving synthesizer to '" + path + "'");
}

Status GreatSynthesizer::Load(const std::string& path) {
  GREATER_ASSIGN_OR_RETURN_CTX(std::string bytes, ReadFileBytes(path),
                               "loading synthesizer from '" + path + "'");
  return DeserializeBinary(bytes)
      .WithContext("loading synthesizer from '" + path + "'");
}

Result<double> GreatSynthesizer::EvaluatePerplexity(
    const Table& held_out) const {
  if (!fitted()) {
    return Status::FailedPrecondition("EvaluatePerplexity before Fit");
  }
  // Encode with this synthesizer's encoder in fixed schema order.
  std::vector<TokenSequence> sequences;
  std::vector<size_t> order(held_out.num_columns());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t r = 0; r < held_out.num_rows(); ++r) {
    sequences.push_back(encoder_->EncodeRow(held_out.GetRow(r), order));
  }
  return lm_->Perplexity(sequences);
}

}  // namespace greater
