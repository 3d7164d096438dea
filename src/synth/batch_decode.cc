#include "synth/batch_decode.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <string>
#include <utility>

#include "common/fault.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace greater {
namespace {

// Batch-engine instrumentation; pointers cached once per process so the
// lockstep loop pays one relaxed atomic add per flush.
struct BatchCounters {
  Counter* lanes;
  Counter* steps;
  Counter* lane_steps;
  Counter* group_evals;
  Counter* model_evals_saved;
  Counter* restricted_evals;
  Histogram* groups_per_step;
  BatchCounters() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    lanes = &registry.GetCounter("synth.batch.lanes");
    steps = &registry.GetCounter("synth.batch.steps");
    lane_steps = &registry.GetCounter("synth.batch.lane_steps");
    group_evals = &registry.GetCounter("synth.batch.group_evals");
    model_evals_saved = &registry.GetCounter("synth.batch.model_evals_saved");
    // The uncached grouped path evaluates the model directly, so it keeps
    // the per-evaluation counter SampleNext would have bumped.
    restricted_evals = &registry.GetCounter("lm.sample_next_restricted");
    groups_per_step = &registry.GetHistogram(
        "synth.batch.groups_per_step",
        {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0});
  }
};

const BatchCounters& GetBatchCounters() {
  static const BatchCounters counters;
  return counters;
}

// The name memo's index is open-addressed: power-of-two size (`wrap` is
// size - 1), linear probing, -1 marks an empty slot. A mask's probe run
// starts at its home slot.
size_t NameHomeSlot(uint64_t mask, size_t wrap) {
  uint64_t h = mask;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<size_t>(h) & wrap;
}

size_t FreeNameSlot(const std::vector<int32_t>& index, uint64_t mask) {
  const size_t wrap = index.size() - 1;
  size_t slot = NameHomeSlot(mask, wrap);
  while (index[slot] >= 0) slot = (slot + 1) & wrap;
  return slot;
}

}  // namespace

BatchDecodeEngine::BatchDecodeEngine(const GreatSynthesizer& synth)
    : synth_(synth), name_index_(16, -1) {}

void BatchDecodeEngine::PrepareLanes() {
  num_lanes_ = lane_specs_.size();
  num_columns_ = synth_.encoder_->columns().size();
  const size_t lanes = num_lanes_;
  const size_t cells = lanes * num_columns_;

  rng_.clear();
  rng_.reserve(lanes);
  for (size_t i = 0; i < lanes; ++i) {
    rng_.emplace_back(
        Rng::DeriveStreamSeed(lane_specs_[i].base, lane_specs_[i].row));
  }
  state_.assign(lanes, LaneState::kName);
  ctx_len_.assign(lanes, 0);
  prefix_len_.assign(lanes, 0);
  attempt_.assign(lanes, 0);
  col_.assign(lanes, 0);
  value_len_.assign(lanes, 0);
  remaining_.assign(lanes, 0);
  last_column_.assign(lanes, 0);
  closed_.assign(lanes, 0);
  constrain_.assign(lanes, 0);
  lane_failed_.assign(lanes, 0);
  final_status_.assign(lanes, Status::OK());
  emitted_.assign(cells, 0);
  // Forced-cell state exists only for calls that condition some lane; an
  // unconditioned chunk never touches (or sizes) it.
  has_conditions_ = std::any_of(
      lane_specs_.begin(), lane_specs_.end(),
      [](const LaneRequest& spec) { return spec.conditions != nullptr; });
  if (has_conditions_) {
    forced_has_.assign(cells, 0);
    forced_value_.assign(cells, Value::Null());
  }
  row_scratch_.resize(lanes);
  prefix_buf_.resize(lanes);
  if (num_columns_ > 64) lane_names_.resize(lanes);
  // Clear only the index slots the previous call filled: a small call
  // after a large one pays for its predecessor's entries, not for the
  // capacity the large one grew.
  for (size_t i = 0; i < name_memo_used_; ++i) {
    name_index_[name_memo_[i].slot] = -1;
  }
  name_memo_used_ = 0;
  ctx_limit_ = synth_.lm_->context_dependence();
  allowed_.assign(lanes, nullptr);
  allow_id_.assign(lanes, kNoAllowList);
  list_key_.assign(lanes, 0);
  take_.assign(lanes, 0);
  hash_.assign(lanes, 0);
  solo_.assign(lanes, 0);
  token_.assign(lanes, 0);

  // Grouping scratch, reserved to the one-group-per-lane worst case up
  // front so steady-state steps never grow a vector. The probe table gets
  // 2x slack to keep open-addressing runs short.
  size_t table = 16;
  while (table < 2 * lanes) table <<= 1;
  gtable_.resize(table);
  group_id_.resize(lanes);
  group_rep_.reserve(lanes);
  group_count_.reserve(lanes);
  group_offset_.reserve(lanes + 1);
  order_.reserve(lanes);
  scatter_.reserve(lanes);
  group_rngs_.reserve(lanes);
  group_tokens_.reserve(lanes);
  draw_scratch_.reserve(lanes);

  active_ = lanes;
  local_stats_.lanes += lanes;
  GetBatchCounters().lanes->Increment(lanes);

  // Phase A: per-lane accounting, forced resolution, prefix encoding.
  // Lanes that fail here (injected fault, unknown condition column) finish
  // before the lockstep loop ever sees them.
  for (size_t lane = 0; lane < lanes; ++lane) {
    StartLane(lane);
  }

  // Phase B: the arena. No attempt outgrows the longest forced prefix
  // plus every generated column at the value-token cap (arena_cap_), but
  // real rows are several times shorter, so the stride starts at a short
  // row — or at the widest stride an earlier call needed — and Step
  // widens it only when some lane could outgrow it. Token appends stay
  // plain stores.
  size_t max_prefix = 0;
  for (size_t lane = 0; lane < lanes; ++lane) {
    max_prefix = std::max(max_prefix, prefix_buf_[lane].size());
  }
  arena_cap_ =
      max_prefix +
      num_columns_ * (GreatSynthesizer::kMaxValueTokens + 3);
  arena_stride_ = std::min(
      arena_cap_,
      std::max(arena_stride_, max_prefix + 4 * num_columns_ + 3));
  if (arena_.size() < lanes * arena_stride_) {
    arena_.resize(lanes * arena_stride_);
  }

  // Phase C: seed each surviving lane's context with its prefix and enter
  // the first attempt.
  for (size_t lane = 0; lane < lanes; ++lane) {
    if (state_[lane] == LaneState::kDone) continue;
    const std::vector<TokenId>& prefix = prefix_buf_[lane];
    std::copy(prefix.begin(), prefix.end(),
              arena_.begin() + lane * arena_stride_);
    prefix_len_[lane] = prefix.size();
    BeginAttempt(lane);
  }
}

void BatchDecodeEngine::StartLane(size_t lane) {
  const Table* conditions = lane_specs_[lane].conditions;
  ++rep(lane).rows_requested;
  // Injected per-row failure ("synth.sample_row"): kResourceExhausted
  // counts as a natural exhaustion so lenient callers degrade gracefully
  // and the report still reconciles.
  if (FaultRegistry::AnyArmed()) {
    Status fault = FaultRegistry::Global().Check("synth.sample_row");
    if (!fault.ok()) {
      ++rep(lane).injected_faults;
      if (fault.code() == StatusCode::kResourceExhausted) {
        ++rep(lane).rows_exhausted;
      }
      FinishLane(lane, std::move(fault));
      return;
    }
  }

  const TextualEncoder& encoder = *synth_.encoder_;
  const auto& columns = encoder.columns();
  if (conditions != nullptr) {
    const size_t cond_row = lane_specs_[lane].cond_row;
    const Schema& schema = encoder.schema();
    for (size_t c = 0; c < conditions->num_columns(); ++c) {
      Result<size_t> idx =
          schema.FieldIndex(conditions->schema().field(c).name);
      if (!idx.ok()) {
        FinishLane(lane, idx.status());
        return;
      }
      size_t field = std::move(idx).ValueOrDie();
      forced_has_[lane * num_columns_ + field] = 1;
      forced_value_[lane * num_columns_ + field] = conditions->at(cond_row, c);
    }
  }

  // Forced columns become the conditioning prefix (schema order), encoded
  // once per lane — every attempt replays the same prefix tokens.
  std::vector<TokenId>& prefix = prefix_buf_[lane];
  prefix.clear();
  size_t written = 0;
  for (size_t c = 0; c < num_columns_; ++c) {
    if (!Forced(lane, c)) continue;
    if (written > 0) prefix.push_back(encoder.comma_token());
    prefix.push_back(columns[c].name_token);
    prefix.push_back(encoder.is_token());
    std::string text =
        forced_value_[lane * num_columns_ + c].ToDisplayString();
    for (TokenId id : encoder.EncodeTextLine(text)) prefix.push_back(id);
    ++written;
  }
}

void BatchDecodeEngine::BeginAttempt(size_t lane) {
  const GreatSynthesizer::Options& options = synth_.options_;
  ++rep(lane).attempts;
  // In free-value mode the last attempt falls back to the tight grammar so
  // the surrounding Sample call cannot die on an unlucky row.
  bool constrain = options.constrain_values_to_column ||
                   (options.fallback_to_constrained &&
                    attempt_[lane] + 1 == options.max_attempts_per_row);
  if (constrain && !options.constrain_values_to_column) {
    ++rep(lane).fallback_grammar_uses;
  }
  constrain_[lane] = constrain ? 1 : 0;
  ctx_len_[lane] = prefix_len_[lane];
  size_t forced_count = 0;
  for (size_t c = 0; c < num_columns_; ++c) {
    uint8_t has = Forced(lane, c) ? 1 : 0;
    emitted_[lane * num_columns_ + c] = has;
    forced_count += has;
  }
  remaining_[lane] = num_columns_ - forced_count;
  if (remaining_[lane] == 0) {
    // Every column forced: the attempt needs no draws at all.
    FinalizeAttempt(lane);
    return;
  }
  EnterNameState(lane);
}

void BatchDecodeEngine::EnterNameState(size_t lane) {
  if (ctx_len_[lane] > 0) {
    arena_[lane * arena_stride_ + ctx_len_[lane]] =
        synth_.encoder_->comma_token();
    ++ctx_len_[lane];
  }
  state_[lane] = LaneState::kName;
}

void BatchDecodeEngine::FinalizeAttempt(size_t lane) {
  const TextualEncoder& encoder = *synth_.encoder_;
  const GreatSynthesizer::Options& options = synth_.options_;
  Status decoded = encoder.DecodeTokensInto(
      arena_.data() + lane * arena_stride_, ctx_len_[lane],
      &row_scratch_[lane], &decode_scratch_);
  if (!decoded.ok()) {
    ++rep(lane).rejected_decode_failure;
    FailAttempt(lane, std::move(decoded));
    return;
  }
  Row& row = row_scratch_[lane];

  if (options.restrict_to_observed) {
    bool valid = true;
    for (size_t c = 0; c < num_columns_; ++c) {
      if (Forced(lane, c)) continue;
      display_scratch_ = row[c].ToDisplayString();
      if (synth_.observed_values_[c].set.count(display_scratch_) == 0) {
        if (attempt_[lane] + 1 == options.max_attempts_per_row &&
            options.fallback_to_constrained) {
          // Last resort: snap the cell to a uniformly drawn observed
          // value, indexing the sorted pool with this lane's own stream
          // (sorted, so picks map to values identically after Save/Load).
          const auto& pool = synth_.observed_values_[c].sorted;
          const std::string& snapped =
              pool[rng_[lane].Index(pool.size())];
          Result<Value> parsed = encoder.ParseValue(c, snapped);
          if (!parsed.ok()) {
            FinishLane(lane, parsed.status());
            return;
          }
          row[c] = std::move(parsed).ValueOrDie();
          ++rep(lane).snapped_cells;
          continue;
        }
        valid = false;
        break;
      }
    }
    if (!valid) {
      ++rep(lane).rejected_invalid_value;
      FailAttempt(lane, Status::DataLoss(
                            "generated value outside the observed "
                            "category set"));
      return;
    }
  }
  // Forced values override whatever round-tripped through tokens (they
  // may contain words outside the vocabulary).
  for (size_t c = 0; c < num_columns_; ++c) {
    if (Forced(lane, c)) {
      row[c] = forced_value_[lane * num_columns_ + c];
    }
  }
  ++rep(lane).rows_emitted;
  lane_failed_[lane] = 0;
  state_[lane] = LaneState::kDone;
  --active_;
}

void BatchDecodeEngine::FailAttempt(size_t lane, const Status& error) {
  const GreatSynthesizer::Options& options = synth_.options_;
  if (attempt_[lane] + 1 >= options.max_attempts_per_row) {
    ++rep(lane).rows_exhausted;
    FinishLane(lane,
               Status::ResourceExhausted(
                   "no valid row after " +
                   std::to_string(options.max_attempts_per_row) +
                   " attempts; last error: " + error.ToString()));
    return;
  }
  ++attempt_[lane];
  BeginAttempt(lane);
}

void BatchDecodeEngine::FinishLane(size_t lane, Status status) {
  final_status_[lane] = std::move(status);
  lane_failed_[lane] = 1;
  state_[lane] = LaneState::kDone;
  --active_;
}

void BatchDecodeEngine::CompleteValue(size_t lane) {
  emitted_[lane * num_columns_ + col_[lane]] = 1;
  if (--remaining_[lane] == 0) {
    FinalizeAttempt(lane);
    return;
  }
  EnterNameState(lane);
}

void BatchDecodeEngine::ApplyToken(size_t lane, TokenId token) {
  const TextualEncoder& encoder = *synth_.encoder_;
  TokenId* ctx = arena_.data() + lane * arena_stride_;
  if (state_[lane] == LaneState::kName) {
    const auto& columns = encoder.columns();
    size_t col = num_columns_;
    for (size_t c = 0; c < num_columns_; ++c) {
      if (!emitted_[lane * num_columns_ + c] &&
          columns[c].name_token == token) {
        col = c;
        break;
      }
    }
    if (col == num_columns_) {
      ++rep(lane).rejected_mid_row;
      FailAttempt(lane, Status::DataLoss("generation failed mid-row"));
      return;
    }
    ctx[ctx_len_[lane]++] = token;
    ctx[ctx_len_[lane]++] = encoder.is_token();
    col_[lane] = col;
    value_len_[lane] = 0;
    last_column_[lane] = remaining_[lane] == 1 ? 1 : 0;
    closed_[lane] = last_column_[lane];  // last column ends at eos
    state_[lane] = LaneState::kValue;
    return;
  }
  // LaneState::kValue: a terminator after at least one value token closes
  // the value (the terminator itself is not appended), otherwise the token
  // joins the value up to the shared cap.
  if (value_len_[lane] > 0 &&
      (token == encoder.comma_token() || token == Vocabulary::kEosId)) {
    closed_[lane] = 1;
    CompleteValue(lane);
    return;
  }
  ctx[ctx_len_[lane]++] = token;
  ++value_len_[lane];
  if (value_len_[lane] >= GreatSynthesizer::kMaxValueTokens) {
    if (closed_[lane]) {
      // Last column at the cap: the value counts as closed by eos.
      CompleteValue(lane);
    } else {
      ++rep(lane).rejected_mid_row;
      FailAttempt(lane, Status::DataLoss("generation failed mid-row"));
    }
  }
}

void BatchDecodeEngine::PrepareDraw(size_t lane) {
  const TextualEncoder& encoder = *synth_.encoder_;
  if (state_[lane] == LaneState::kName) {
    if (num_columns_ <= 64) {
      // Remaining column names, memoized by the lane's emitted-column
      // bitmask: every lane at the same decode frontier shares one list
      // object and one interned id, so name-state draws group instead of
      // each lane rebuilding (and hashing) its own copy per step.
      uint64_t mask = 0;
      const uint8_t* emitted = emitted_.data() + lane * num_columns_;
      for (size_t c = 0; c < num_columns_; ++c) {
        mask |= static_cast<uint64_t>(emitted[c]) << c;
      }
      const NameMemoEntry& entry = NameEntry(mask);
      allowed_[lane] = &entry.names;
      allow_id_[lane] = entry.id;
    } else {
      // Wide-schema fallback (memo masks cap at 64 columns): lane-local
      // remaining-name list, interned per draw.
      std::vector<TokenId>& names = lane_names_[lane];
      names.clear();
      const auto& columns = encoder.columns();
      for (size_t c = 0; c < num_columns_; ++c) {
        if (!emitted_[lane * num_columns_ + c]) {
          names.push_back(columns[c].name_token);
        }
      }
      allowed_[lane] = &names;
      allow_id_[lane] =
          cache_ != nullptr ? cache_->InternTransient(names) : kNoAllowList;
    }
  } else {
    const GreatSynthesizer::ValueGrammar& grammar =
        constrain_[lane] ? synth_.column_grammars_[col_[lane]]
                         : synth_.free_grammar_;
    if (value_len_[lane] == 0) {
      allowed_[lane] = &grammar.values;
      allow_id_[lane] = grammar.values_id;
    } else if (last_column_[lane]) {
      allowed_[lane] = &grammar.with_eos;
      allow_id_[lane] = grammar.with_eos_id;
    } else {
      allowed_[lane] = &grammar.with_comma;
      allow_id_[lane] = grammar.with_comma_id;
    }
  }

  // Sort key: a mixed hash of the context window (exactly the suffix the
  // model conditions on, bos-padded like DecodeCache::PackContext) and a
  // tagged allow-list identity. Interned ids tag the low bit; raw list
  // pointers (shared, stable lists) are pointer-aligned, so the two
  // namespaces cannot collide. Group formation verifies exact equality
  // (SameKey) within hash runs.
  size_t padded = ctx_len_[lane] + 1;
  size_t take = std::min(ctx_limit_, padded);
  if (take > kMaxWindow) {
    solo_[lane] = 1;  // window wider than the packed key: draw per lane
    return;
  }
  if (cache_ != nullptr && allow_id_[lane] == kNoAllowList) {
    solo_[lane] = 1;  // transient namespace exhausted: uncached draw
    return;
  }
  solo_[lane] = 0;
  uint64_t list_key =
      allow_id_[lane] != kNoAllowList
          ? (static_cast<uint64_t>(allow_id_[lane]) << 1) | 1u
          : static_cast<uint64_t>(
                reinterpret_cast<uintptr_t>(allowed_[lane]));
  list_key_[lane] = list_key;
  take_[lane] = static_cast<uint32_t>(take);
  const TokenId* ctx = arena_.data() + lane * arena_stride_;
  size_t start = padded - take;
  uint64_t h = list_key * 0x9e3779b97f4a7c15ULL + take;
  for (size_t j = 0; j < take; ++j) {
    size_t idx = start + j;
    TokenId t = idx == 0 ? Vocabulary::kBosId : ctx[idx - 1];
    h = h * 0x100000001b3ULL +
        static_cast<uint64_t>(static_cast<uint32_t>(t));
  }
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  hash_[lane] = h;
}

const BatchDecodeEngine::NameMemoEntry& BatchDecodeEngine::NameEntry(
    uint64_t mask) {
  const size_t wrap = name_index_.size() - 1;
  for (size_t slot = NameHomeSlot(mask, wrap); name_index_[slot] >= 0;
       slot = (slot + 1) & wrap) {
    const NameMemoEntry& entry =
        name_memo_[static_cast<size_t>(name_index_[slot])];
    if (entry.mask == mask) return entry;
  }

  // First use of this mask within the call. Keep 2x slack: double the
  // index and re-probe this call's entries before adding one more.
  if (2 * (name_memo_used_ + 1) > name_index_.size()) {
    name_index_.assign(2 * name_index_.size(), -1);
    for (size_t i = 0; i < name_memo_used_; ++i) {
      NameMemoEntry& moved = name_memo_[i];
      moved.slot =
          static_cast<uint32_t>(FreeNameSlot(name_index_, moved.mask));
      name_index_[moved.slot] = static_cast<int32_t>(i);
    }
  }
  if (name_memo_used_ == name_memo_.size()) name_memo_.emplace_back();
  NameMemoEntry& entry = name_memo_[name_memo_used_];
  entry.mask = mask;
  entry.slot = static_cast<uint32_t>(FreeNameSlot(name_index_, mask));
  name_index_[entry.slot] = static_cast<int32_t>(name_memo_used_);
  ++name_memo_used_;
  entry.names.clear();
  const auto& columns = synth_.encoder_->columns();
  for (size_t c = 0; c < num_columns_; ++c) {
    if (!((mask >> c) & 1)) entry.names.push_back(columns[c].name_token);
  }
  entry.id = cache_ != nullptr ? cache_->InternTransient(entry.names)
                               : kNoAllowList;
  return entry;
}

bool BatchDecodeEngine::SameKey(size_t a, size_t b) const {
  if (list_key_[a] != list_key_[b] || take_[a] != take_[b]) return false;
  const size_t take = take_[a];
  const TokenId* ca = arena_.data() + a * arena_stride_;
  const TokenId* cb = arena_.data() + b * arena_stride_;
  const size_t sa = ctx_len_[a] + 1 - take;
  const size_t sb = ctx_len_[b] + 1 - take;
  for (size_t j = 0; j < take; ++j) {
    TokenId ta = sa + j == 0 ? Vocabulary::kBosId : ca[sa + j - 1];
    TokenId tb = sb + j == 0 ? Vocabulary::kBosId : cb[sb + j - 1];
    if (ta != tb) return false;
  }
  return true;
}

void BatchDecodeEngine::CopyContext(size_t lane) {
  const TokenId* ctx = arena_.data() + lane * arena_stride_;
  ctx_scratch_.assign(ctx, ctx + ctx_len_[lane]);
}

void BatchDecodeEngine::DrawGroup(size_t first, size_t last) {
  const size_t rep = order_[first];
  const LanguageModel& lm = *synth_.lm_;
  const double temperature = synth_.options_.temperature;
  CopyContext(rep);

  if (solo_[rep]) {
    // Singleton group that could not be keyed: one plain per-lane draw.
    for (size_t k = first; k < last; ++k) {
      size_t lane = order_[k];
      if (k != first) CopyContext(lane);
      if (cache_ != nullptr) {
        token_[lane] = cache_->SampleRestricted(
            lm, ctx_scratch_, *allowed_[lane], allow_id_[lane], temperature,
            &rng_[lane], decode_);
      } else {
        token_[lane] = lm.SampleNext(ctx_scratch_, &rng_[lane], temperature,
                                     allowed_[lane], decode_);
      }
    }
    return;
  }

  if (cache_ != nullptr) {
    // One resolution (lookup-or-compute) serves every lane of the group;
    // each lane then draws from the resolved entry with its own stream,
    // bitwise as SampleRestricted would have.
    DecodeCache::ResolvedDist dist = cache_->ResolveRestricted(
        lm, ctx_scratch_, *allowed_[rep], allow_id_[rep], temperature,
        decode_);
    if (dist.cacheable) {
      // Vectorized group draw: gather the group's lane streams, draw them
      // all against the one resolved entry, then scatter the tokens back.
      // Lanes of one group share an allow-list identity, so the
      // representative's candidate list serves every member; each lane
      // still consumes only its own stream, bitwise as DrawResolved.
      const size_t count = last - first;
      group_rngs_.clear();
      for (size_t k = first; k < last; ++k) {
        group_rngs_.push_back(&rng_[order_[k]]);
      }
      group_tokens_.resize(count);
      cache_->DrawResolvedMany(dist, *allowed_[rep], group_rngs_.data(),
                               count, group_tokens_.data(), &draw_scratch_);
      for (size_t k = first; k < last; ++k) {
        token_[order_[k]] = group_tokens_[k - first];
      }
      return;
    }
    // Unreachable by construction (PrepareDraw pre-screens the key), but
    // degrade to plain per-lane draws rather than asserting.
    for (size_t k = first; k < last; ++k) {
      size_t lane = order_[k];
      CopyContext(lane);
      token_[lane] = cache_->SampleRestricted(
          lm, ctx_scratch_, *allowed_[lane], allow_id_[lane], temperature,
          &rng_[lane], decode_);
    }
    return;
  }

  // Cache off: evaluate the restricted distribution once for the group,
  // then replay Rng::Categorical per lane against the shared running-sum
  // table — the same draw scheme LanguageModel::SampleNext uses, so each
  // lane's token and stream advance are bitwise-identical to a direct
  // per-lane SampleNext call.
  const std::vector<TokenId>& candidates = *allowed_[rep];
  GetBatchCounters().restricted_evals->Increment();
  lm.NextTokenWeightsRestricted(ctx_scratch_, candidates, decode_,
                                &weights_);
  ApplyTemperatureShaping(&weights_, temperature);
  cdf_.clear();
  double total = 0.0;
  for (double w : weights_) {
    total += w;
    cdf_.push_back(total);
  }
  for (size_t k = first; k < last; ++k) {
    size_t lane = order_[k];
    const std::vector<TokenId>& lane_candidates = *allowed_[lane];
    if (total <= 0.0) {
      // Zero candidate mass: uniform over the allow-list, exactly like
      // SampleNext's degradation path.
      token_[lane] = lane_candidates.empty()
                         ? Vocabulary::kEosId
                         : lane_candidates[rng_[lane].Index(
                               lane_candidates.size())];
      continue;
    }
    double target = rng_[lane].Uniform() * total;
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), target);
    size_t idx = it == cdf_.end()
                     ? cdf_.size() - 1  // numerical slack, as uncached
                     : static_cast<size_t>(it - cdf_.begin());
    token_[lane] = lane_candidates[idx];
  }
}

size_t BatchDecodeEngine::Step() {
  // O(active) group formation. Walking lanes in ascending order makes the
  // first lane of each key its group's representative and keeps members
  // lane-ascending after the scatter, so the grouping is deterministic.
  // Group processing order cannot affect output either way: every draw
  // consumes only its own lane's stream.
  const uint64_t mask = gtable_.size() - 1;
  std::fill(gtable_.begin(), gtable_.end(), -1);
  order_.clear();
  group_rep_.clear();
  group_count_.clear();
  size_t longest = 0;
  for (size_t lane = 0; lane < num_lanes_; ++lane) {
    if (state_[lane] == LaneState::kDone) continue;
    longest = std::max(longest, ctx_len_[lane]);
    PrepareDraw(lane);
    order_.push_back(static_cast<uint32_t>(lane));
    if (solo_[lane]) {
      // Singleton by decree; never entered in the table, never probed.
      group_id_[lane] = static_cast<uint32_t>(group_rep_.size());
      group_rep_.push_back(static_cast<uint32_t>(lane));
      group_count_.push_back(1);
      continue;
    }
    size_t slot = hash_[lane] & mask;
    for (;;) {
      int32_t g = gtable_[slot];
      if (g < 0) {
        gtable_[slot] = static_cast<int32_t>(group_rep_.size());
        group_id_[lane] = static_cast<uint32_t>(group_rep_.size());
        group_rep_.push_back(static_cast<uint32_t>(lane));
        group_count_.push_back(1);
        break;
      }
      size_t rep = group_rep_[static_cast<size_t>(g)];
      if (hash_[rep] == hash_[lane] && SameKey(lane, rep)) {
        group_id_[lane] = static_cast<uint32_t>(g);
        ++group_count_[static_cast<size_t>(g)];
        break;
      }
      slot = (slot + 1) & mask;
    }
  }

  // Prefix-sum the counts into per-group runs, then scatter the active
  // lanes into them; group_offset_ doubles as the fill cursor and is
  // rewound before DrawGroup consumes the runs.
  const size_t groups = group_rep_.size();
  group_offset_.resize(groups + 1);
  uint32_t off = 0;
  for (size_t g = 0; g < groups; ++g) {
    group_offset_[g] = off;
    off += group_count_[g];
  }
  group_offset_[groups] = off;
  scatter_.resize(order_.size());
  for (uint32_t lane : order_) {
    scatter_[group_offset_[group_id_[lane]]++] = lane;
  }
  for (size_t g = groups; g > 0; --g) {
    group_offset_[g] = group_offset_[g - 1];
  }
  group_offset_[0] = 0;
  order_.swap(scatter_);

  for (size_t g = 0; g < groups; ++g) {
    DrawGroup(group_offset_[g], group_offset_[g + 1]);
  }

  local_stats_.steps += 1;
  local_stats_.lane_steps += order_.size();
  local_stats_.group_evals += groups;
  local_stats_.model_evals_saved += order_.size() - groups;
  GetBatchCounters().groups_per_step->Observe(static_cast<double>(groups));

  // A step appends at most two tokens per lane (name + "is", or a value
  // token + the comma that opens the next column).
  if (longest + 2 > arena_stride_) WidenArena(longest + 2);

  // Token application is lane-local, so the grouped draw order above
  // cannot leak between lanes here.
  for (uint32_t lane : order_) {
    ApplyToken(lane, token_[lane]);
  }
  return groups;
}

void BatchDecodeEngine::WidenArena(size_t need) {
  if (arena_stride_ >= arena_cap_) return;  // no attempt outgrows the cap
  const size_t old_stride = arena_stride_;
  arena_stride_ = std::min(arena_cap_, std::max(2 * old_stride, need));
  arena_.resize(std::max(arena_.size(), num_lanes_ * arena_stride_));
  // Re-lay lanes highest first: a lane's new slice starts at or after its
  // old one and ends before any higher lane's new slice, so no context is
  // overwritten before it moves.
  for (size_t lane = num_lanes_; lane-- > 1;) {
    TokenId* from = arena_.data() + lane * old_stride;
    std::copy_backward(from, from + ctx_len_[lane],
                       arena_.data() + lane * arena_stride_ + ctx_len_[lane]);
  }
}

void BatchDecodeEngine::RunLanes(const LaneRequest* lanes, size_t count,
                                 DecodeCache* cache, DecodeWorkspace* decode,
                                 uint64_t parent_span,
                                 std::vector<Result<Row>>* out) {
  if (count == 0) return;
  cache_ = cache;
  decode_ = decode;
  lane_specs_.assign(lanes, lanes + count);
  Span span("synth.batch", parent_span);
  const LocalStats before = local_stats_;

  PrepareLanes();
  size_t step = 0;
  while (active_ > 0) {
    size_t groups = Step();
    if (on_step_for_testing != nullptr) {
      on_step_for_testing(step, groups, on_step_user);
    }
    ++step;
  }

  const BatchCounters& counters = GetBatchCounters();
  counters.steps->Increment(local_stats_.steps - before.steps);
  counters.lane_steps->Increment(local_stats_.lane_steps -
                                 before.lane_steps);
  counters.group_evals->Increment(local_stats_.group_evals -
                                  before.group_evals);
  counters.model_evals_saved->Increment(local_stats_.model_evals_saved -
                                        before.model_evals_saved);

  for (size_t lane = 0; lane < num_lanes_; ++lane) {
    if (lane_failed_[lane]) {
      out->push_back(Result<Row>(std::move(final_status_[lane])));
    } else {
      out->push_back(Result<Row>(std::move(row_scratch_[lane])));
    }
  }
  cache_ = nullptr;
  decode_ = nullptr;
}

void BatchDecodeEngine::RunChunk(size_t begin, size_t end,
                                 const Table* conditions, uint64_t base,
                                 DecodeCache* cache, DecodeWorkspace* decode,
                                 SampleReport* stats, uint64_t parent_span,
                                 std::vector<Result<Row>>* out) {
  assert(end >= begin);
  if (end == begin) return;
  chunk_scratch_.clear();
  chunk_scratch_.reserve(end - begin);
  for (size_t row = begin; row < end; ++row) {
    chunk_scratch_.push_back(
        LaneRequest{row, base, conditions, row, stats});
  }
  RunLanes(chunk_scratch_.data(), chunk_scratch_.size(), cache, decode,
           parent_span, out);
}

}  // namespace greater
