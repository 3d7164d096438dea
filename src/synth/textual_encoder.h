#ifndef GREATER_SYNTH_TEXTUAL_ENCODER_H_
#define GREATER_SYNTH_TEXTUAL_ENCODER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "lm/decode_cache.h"
#include "lm/language_model.h"
#include "tabular/table.h"
#include "text/vocabulary.h"
#include "text/word_tokenizer.h"

namespace greater {

/// Grammar metadata for one encoded column, used by constrained decoding.
struct EncodedColumn {
  std::string name;
  TokenId name_token = Vocabulary::kUnkId;
  /// Every token observed inside this column's values during Build,
  /// strictly ascending (sort-deduped once here, never per decode step).
  std::vector<TokenId> value_tokens;
  /// Stable id of value_tokens in the encoder's AllowListInterner; decode
  /// caches key restricted distributions on it in O(1) instead of hashing
  /// the list per draw.
  AllowListId allow_list_id = kNoAllowList;
};

/// GReaT's textual layer: converts between table rows and token sequences.
///
/// A row encodes as the sentence
///   "Gender is Male, Age is From 20 to 29, Residence is Chicago"
/// with an optional random feature-order permutation per encoded copy (the
/// GReaT training augmentation). Values are word-tokenized, so the string
/// "1" is one token wherever it appears — the Fig. 2 ambiguity — while a
/// semantically enhanced value like "From 20 to 29" spans several tokens.
class TextualEncoder {
 public:
  struct Options {
    /// Number of differently-permuted encodings of each row emitted by
    /// EncodeTable (GReaT's feature-order augmentation).
    size_t permutations_per_row = 2;
    /// When false, every encoding uses schema order.
    bool permute_features = true;
  };

  /// Builds the encoder (and its vocabulary) from a training table.
  /// `extra_corpus` lines (e.g. a pre-training prior) are tokenized into
  /// the vocabulary too, so prior text shares token ids with table text.
  static Result<TextualEncoder> Build(const Table& table,
                                      const Options& options,
                                      const std::vector<std::string>&
                                          extra_corpus = {});
  static Result<TextualEncoder> Build(const Table& table) {
    return Build(table, Options());
  }

  const Vocabulary& vocab() const { return vocab_; }
  const Schema& schema() const { return schema_; }
  const std::vector<EncodedColumn>& columns() const { return columns_; }

  /// Registry of canonical (sorted, deduped) constrained-decoding
  /// allow-lists. Columns intern their value-token lists at Build; the
  /// synthesizer interns its grammar variants at Fit. Read-only during
  /// sampling, so workers share it without locks.
  const AllowListInterner& allow_lists() const { return allow_lists_; }
  AllowListInterner& mutable_allow_lists() { return allow_lists_; }

  TokenId is_token() const { return is_token_; }
  TokenId comma_token() const { return comma_token_; }

  /// Renders the human-readable sentence for a row in the given column
  /// order (indices into the schema).
  std::string RenderSentence(const Row& row,
                             const std::vector<size_t>& order) const;

  /// Encodes one row in the given column order (any list of column
  /// indices, repeats and omissions allowed).
  TokenSequence EncodeRow(const Row& row,
                          const std::vector<size_t>& order) const;

  /// The feature orders of a run of rows: `copies` encodings per row,
  /// each a list of the schema's column indices. `columns` holds either
  /// rows * copies lists, row-major, or a single list that every copy of
  /// every row uses (the unpermuted case).
  struct FeatureOrders {
    size_t rows = 0;
    size_t copies = 1;
    std::vector<uint32_t> columns;
  };

  /// Draws the feature orders of the next `num_rows` rows: for each row,
  /// options.permutations_per_row shuffles of `order` in place (none when
  /// permute_features is false). The shuffle mutates `order` across rows,
  /// so drawing a table chunk by chunk reproduces one whole-table draw
  /// only when the SAME `order` vector (and rng) persists across the chunk
  /// calls — the streaming fit path's contract. An `order` of the wrong
  /// size (e.g. empty) restarts from the identity order. Draws never read
  /// cell values, so a chunk's orders can be drawn in chunk order on one
  /// thread and the chunk encoded later on another.
  FeatureOrders DrawFeatureOrders(size_t num_rows, Rng* rng,
                                  std::vector<size_t>* order) const;

  /// Encodes `table` against drawn orders into `out`, one sequence per
  /// (row, copy) in that order. `out` is resized and its sequences keep
  /// their capacity, so a caller reusing it across chunks stops
  /// allocating. Each cell is tokenized once per row and every copy is
  /// assembled from those tokens. Const and lock-free: concurrent calls
  /// on one encoder are safe.
  Status EncodeTableWithOrders(const Table& table,
                               const FeatureOrders& orders,
                               std::vector<TokenSequence>* out) const;

  /// Encodes the whole table, emitting options.permutations_per_row copies
  /// of each row with independently drawn feature orders:
  /// DrawFeatureOrders from the identity order, then
  /// EncodeTableWithOrders.
  Result<std::vector<TokenSequence>> EncodeTable(const Table& table,
                                                 Rng* rng) const;

  /// Tokenizes an arbitrary text line against this vocabulary (for prior
  /// corpora; unknown words become <unk>).
  TokenSequence EncodeTextLine(const std::string& line) const;

  /// Parses a generated token sequence back into a row aligned with the
  /// schema. Fails (DataLoss) on malformed grammar, unknown column names,
  /// duplicate or missing columns, or values that do not parse into the
  /// column's physical type.
  Result<Row> DecodeTokens(const TokenSequence& tokens) const;

  /// Reusable buffers for DecodeTokensInto, so steady-state decoding does
  /// not reallocate them per row.
  struct DecodeScratch {
    std::string text;
    std::vector<uint8_t> assigned;
  };

  /// Span-based variant of DecodeTokens that writes into an existing row
  /// (resized and overwritten) and reuses `scratch`. Identical parse
  /// semantics and error statuses; the batched decode engine uses this to
  /// avoid per-row buffer churn.
  Status DecodeTokensInto(const TokenId* tokens, size_t count, Row* row,
                          DecodeScratch* scratch) const;

  /// True if `token` was observed among `column`'s value tokens at Build.
  bool IsObservedValueToken(size_t column, TokenId token) const;

  /// Converts a decoded value string into the column's physical type.
  Result<Value> ParseValue(size_t column, const std::string& text) const;

  /// Persistence (artifact kind "greater.textual_encoder"): options,
  /// schema, the full vocabulary (as a nested artifact), and every
  /// column's grammar metadata. Load rebuilds the derived state — value
  /// token sets and the allow-list interner, re-interned in column order
  /// exactly as Build does — so a loaded encoder's ids match the saved
  /// one's everywhere.
  std::string SerializeBinary() const;
  Status DeserializeBinary(std::string_view bytes);
  Status Save(const std::string& path) const;
  Status Load(const std::string& path);

 private:
  /// The value tokens of one row's cells: cell c is
  /// tokens[bounds[c] .. bounds[c + 1]).
  struct RowTokens {
    TokenSequence tokens;
    std::vector<size_t> bounds;
  };

  /// Tokenizes cell(0) .. cell(num_columns - 1) into `out`.
  template <typename CellAt>
  void TokenizeRow(size_t num_columns, const CellAt& cell,
                   RowTokens* out) const;

  /// Appends the sentence of `row` in column order order[0 .. n) to `out`.
  template <typename Index>
  void AppendSentence(const Index* order, size_t n, const RowTokens& row,
                      TokenSequence* out) const;

  Options options_;
  Schema schema_;
  Vocabulary vocab_;
  WordTokenizer word_tokenizer_;
  std::vector<EncodedColumn> columns_;
  AllowListInterner allow_lists_;
  std::vector<std::unordered_set<TokenId>> value_token_sets_;
  TokenId is_token_ = Vocabulary::kUnkId;
  TokenId comma_token_ = Vocabulary::kUnkId;
};

}  // namespace greater

#endif  // GREATER_SYNTH_TEXTUAL_ENCODER_H_
