#include "reference_decoder.h"

#include <utility>
#include <vector>

#include "lm/language_model.h"
#include "synth/textual_encoder.h"
#include "text/vocabulary.h"

namespace greater {

Result<Table> ReferenceDecoder::Sample(size_t n, const Table* conditions,
                                       Rng* rng, SampleReport* report) const {
  SampleReport local;
  SampleReport* stats = report != nullptr ? report : &local;
  const uint64_t base = n > 0 ? GreatSynthesizer::DeriveSampleBase(rng) : 0;
  Table out(synth_.encoder_->schema());
  std::map<std::string, Value> forced;
  for (size_t i = 0; i < n; ++i) {
    Rng row_rng(Rng::DeriveStreamSeed(base, i));
    if (conditions != nullptr) {
      forced.clear();
      for (size_t c = 0; c < conditions->num_columns(); ++c) {
        forced[conditions->schema().field(c).name] = conditions->at(i, c);
      }
    }
    Result<Row> row =
        SampleRow(&row_rng, conditions != nullptr ? &forced : nullptr, stats);
    if (!row.ok()) {
      if (synth_.options_.policy == SamplePolicy::kLenient &&
          row.status().code() == StatusCode::kResourceExhausted) {
        continue;
      }
      return row.status().WithContext(
          std::string(conditions != nullptr ? "sampling conditioned row "
                                            : "sampling row ") +
          std::to_string(i + 1) + " of " + std::to_string(n));
    }
    GREATER_RETURN_NOT_OK(out.AppendRow(std::move(row).ValueOrDie()));
  }
  return out;
}

Result<Row> ReferenceDecoder::SampleRow(
    Rng* rng, const std::map<std::string, Value>* forced,
    SampleReport* stats) const {
  const GreatSynthesizer::Options& options = synth_.options_;
  const TextualEncoder& encoder = *synth_.encoder_;
  const LanguageModel& lm = *synth_.lm_;
  const auto& columns = encoder.columns();
  const size_t num_columns = columns.size();
  ++stats->rows_requested;

  std::vector<const Value*> forced_value(num_columns, nullptr);
  if (forced != nullptr) {
    for (const auto& [name, value] : *forced) {
      GREATER_ASSIGN_OR_RETURN(size_t idx, encoder.schema().FieldIndex(name));
      forced_value[idx] = &value;
    }
  }
  auto draw = [&](const TokenSequence& context,
                  const std::vector<TokenId>& allowed) {
    return lm.SampleNext(context, rng, options.temperature, &allowed);
  };

  Status last_error = Status::OK();
  for (size_t attempt = 0; attempt < options.max_attempts_per_row;
       ++attempt) {
    ++stats->attempts;
    const bool last_attempt = attempt + 1 == options.max_attempts_per_row;
    // Free-value mode falls back to the tight grammar on the last attempt.
    const bool constrain =
        options.constrain_values_to_column ||
        (options.fallback_to_constrained && last_attempt);
    if (constrain && !options.constrain_values_to_column) {
      ++stats->fallback_grammar_uses;
    }

    // Forced columns form the conditioning prefix, in schema order.
    TokenSequence context;
    std::vector<bool> emitted(num_columns, false);
    size_t remaining = num_columns;
    for (size_t c = 0; c < num_columns; ++c) {
      if (forced_value[c] == nullptr) continue;
      if (!context.empty()) context.push_back(encoder.comma_token());
      context.push_back(columns[c].name_token);
      context.push_back(encoder.is_token());
      for (TokenId id :
           encoder.EncodeTextLine(forced_value[c]->ToDisplayString())) {
        context.push_back(id);
      }
      emitted[c] = true;
      --remaining;
    }

    // "<name> is <value>" clauses: the model picks the next column among
    // those not yet emitted, then its value tokens; a value closes on a
    // comma (or eos after the last column) once it has one token.
    bool failed = false;
    while (remaining > 0 && !failed) {
      if (!context.empty()) context.push_back(encoder.comma_token());
      std::vector<TokenId> names;
      for (size_t c = 0; c < num_columns; ++c) {
        if (!emitted[c]) names.push_back(columns[c].name_token);
      }
      const TokenId name = draw(context, names);
      size_t col = num_columns;
      for (size_t c = 0; c < num_columns; ++c) {
        if (!emitted[c] && columns[c].name_token == name) {
          col = c;
          break;
        }
      }
      if (col == num_columns) {
        failed = true;
        break;
      }
      context.push_back(name);
      context.push_back(encoder.is_token());

      const GreatSynthesizer::ValueGrammar& grammar =
          constrain ? synth_.column_grammars_[col] : synth_.free_grammar_;
      const bool last_column = remaining == 1;
      size_t value_len = 0;
      bool closed = last_column;  // the last value may run into the cap
      while (value_len < GreatSynthesizer::kMaxValueTokens) {
        const std::vector<TokenId>& allowed =
            value_len == 0 ? grammar.values
            : last_column  ? grammar.with_eos
                           : grammar.with_comma;
        const TokenId next = draw(context, allowed);
        if (value_len > 0 && (next == encoder.comma_token() ||
                              next == Vocabulary::kEosId)) {
          closed = true;
          break;
        }
        context.push_back(next);
        ++value_len;
      }
      if (!closed) {
        failed = true;
        break;
      }
      emitted[col] = true;
      --remaining;
    }
    if (failed) {
      ++stats->rejected_mid_row;
      last_error = Status::DataLoss("generation failed mid-row");
      continue;
    }

    Result<Row> decoded = encoder.DecodeTokens(context);
    if (!decoded.ok()) {
      ++stats->rejected_decode_failure;
      last_error = decoded.status();
      continue;
    }
    Row row = std::move(decoded).ValueOrDie();

    if (options.restrict_to_observed) {
      bool valid = true;
      for (size_t c = 0; c < num_columns && valid; ++c) {
        if (forced_value[c] != nullptr) continue;
        const auto& observed = synth_.observed_values_[c];
        if (observed.set.count(row[c].ToDisplayString()) > 0) continue;
        if (last_attempt && options.fallback_to_constrained) {
          // Last resort: snap to a uniformly drawn observed value.
          const std::string& snapped =
              observed.sorted[rng->Index(observed.sorted.size())];
          GREATER_ASSIGN_OR_RETURN(row[c], encoder.ParseValue(c, snapped));
          ++stats->snapped_cells;
        } else {
          valid = false;
        }
      }
      if (!valid) {
        ++stats->rejected_invalid_value;
        last_error = Status::DataLoss(
            "generated value outside the observed category set");
        continue;
      }
    }
    // Forced values override whatever round-tripped through tokens.
    for (size_t c = 0; c < num_columns; ++c) {
      if (forced_value[c] != nullptr) row[c] = *forced_value[c];
    }
    ++stats->rows_emitted;
    return row;
  }
  ++stats->rows_exhausted;
  return Status::ResourceExhausted(
      "no valid row after " + std::to_string(options.max_attempts_per_row) +
      " attempts; last error: " + last_error.ToString());
}

}  // namespace greater
