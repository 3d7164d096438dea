#include "synth/textual_encoder.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/artifact_io.h"
#include "common/strings.h"
#include "tabular/table_serde.h"

namespace greater {

Result<TextualEncoder> TextualEncoder::Build(
    const Table& table, const Options& options,
    const std::vector<std::string>& extra_corpus) {
  if (table.num_columns() == 0) {
    return Status::Invalid("cannot build an encoder for a zero-column table");
  }
  TextualEncoder encoder;
  encoder.options_ = options;
  encoder.schema_ = table.schema();

  encoder.is_token_ = encoder.vocab_.AddToken("is");
  encoder.comma_token_ = encoder.vocab_.AddToken(",");

  encoder.columns_.resize(table.num_columns());
  encoder.value_token_sets_.resize(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    EncodedColumn& col = encoder.columns_[c];
    col.name = table.schema().field(c).name;
    // Column names must stay single tokens so decoding is unambiguous.
    auto name_tokens = encoder.word_tokenizer_.Tokenize(col.name);
    if (name_tokens.size() != 1) {
      return Status::Invalid("column name '" + col.name +
                             "' does not tokenize to a single token; use "
                             "underscores instead of spaces");
    }
    col.name_token = encoder.vocab_.AddToken(name_tokens[0]);
  }
  // Two passes so duplicate checks above run before value tokens intern.
  for (size_t c = 0; c < table.num_columns(); ++c) {
    EncodedColumn& col = encoder.columns_[c];
    auto& token_set = encoder.value_token_sets_[c];
    for (size_t r = 0; r < table.num_rows(); ++r) {
      std::string text = table.at(r, c).ToDisplayString();
      for (const auto& word : encoder.word_tokenizer_.Tokenize(text)) {
        if (word == ",") {
          return Status::Invalid("value '" + text + "' in column '" +
                                 col.name +
                                 "' contains the ',' separator");
        }
        TokenId id = encoder.vocab_.AddToken(word);
        if (token_set.insert(id).second) col.value_tokens.push_back(id);
      }
    }
    if (col.value_tokens.empty()) {
      return Status::Invalid("column '" + col.name +
                             "' has no non-empty values to learn from");
    }
    // Kept strictly ascending: the synthesizer's constrained decoder
    // requires sorted allow-lists for its no-copy fast path.
    std::sort(col.value_tokens.begin(), col.value_tokens.end());
    col.allow_list_id = encoder.allow_lists_.Intern(col.value_tokens);
  }
  for (const auto& line : extra_corpus) {
    for (const auto& word : encoder.word_tokenizer_.Tokenize(line)) {
      encoder.vocab_.AddToken(word);
    }
  }
  return encoder;
}

std::string TextualEncoder::RenderSentence(
    const Row& row, const std::vector<size_t>& order) const {
  std::string out;
  for (size_t k = 0; k < order.size(); ++k) {
    size_t c = order[k];
    if (k > 0) out += ", ";
    out += columns_[c].name;
    out += " is ";
    out += row[c].ToDisplayString();
  }
  return out;
}

template <typename CellAt>
void TextualEncoder::TokenizeRow(size_t num_columns, const CellAt& cell,
                                 RowTokens* out) const {
  out->tokens.clear();
  out->bounds.resize(num_columns + 1);
  for (size_t c = 0; c < num_columns; ++c) {
    out->bounds[c] = out->tokens.size();
    word_tokenizer_.ForEachToken(
        cell(c).ToDisplayString(), [this, out](std::string_view word) {
          out->tokens.push_back(vocab_.IdOf(word));
        });
  }
  out->bounds[num_columns] = out->tokens.size();
}

template <typename Index>
void TextualEncoder::AppendSentence(const Index* order, size_t n,
                                    const RowTokens& row,
                                    TokenSequence* out) const {
  for (size_t k = 0; k < n; ++k) {
    const size_t c = order[k];
    if (k > 0) out->push_back(comma_token_);
    out->push_back(columns_[c].name_token);
    out->push_back(is_token_);
    out->insert(out->end(), row.tokens.begin() + row.bounds[c],
                row.tokens.begin() + row.bounds[c + 1]);
  }
}

TokenSequence TextualEncoder::EncodeRow(
    const Row& row, const std::vector<size_t>& order) const {
  RowTokens cells;
  TokenizeRow(row.size(), [&row](size_t c) -> const Value& { return row[c]; },
              &cells);
  TokenSequence out;
  AppendSentence(order.data(), order.size(), cells, &out);
  return out;
}

TextualEncoder::FeatureOrders TextualEncoder::DrawFeatureOrders(
    size_t num_rows, Rng* rng, std::vector<size_t>* order) const {
  const size_t num_columns = schema_.num_fields();
  if (order->size() != num_columns) {
    order->resize(num_columns);
    std::iota(order->begin(), order->end(), 0);
  }
  FeatureOrders orders;
  orders.rows = num_rows;
  orders.copies = std::max<size_t>(1, options_.permutations_per_row);
  if (!options_.permute_features) {
    orders.columns.assign(order->begin(), order->end());
    return orders;
  }
  orders.columns.reserve(num_rows * orders.copies * num_columns);
  for (size_t i = 0; i < num_rows * orders.copies; ++i) {
    rng->Shuffle(order);
    orders.columns.insert(orders.columns.end(), order->begin(), order->end());
  }
  return orders;
}

Status TextualEncoder::EncodeTableWithOrders(
    const Table& table, const FeatureOrders& orders,
    std::vector<TokenSequence>* out) const {
  if (!(table.schema() == schema_)) {
    return Status::Invalid("EncodeTable: table schema differs from the "
                           "schema this encoder was built for");
  }
  const size_t num_columns = table.num_columns();
  const size_t sequences = table.num_rows() * orders.copies;
  const bool shared = orders.columns.size() == num_columns;
  if (orders.rows != table.num_rows() ||
      !(shared || orders.columns.size() == sequences * num_columns) ||
      std::any_of(orders.columns.begin(), orders.columns.end(),
                  [&](uint32_t c) { return c >= num_columns; })) {
    return Status::Invalid("EncodeTable: feature orders do not fit the table");
  }
  out->resize(sequences);
  RowTokens cells;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    TokenizeRow(
        num_columns,
        [&table, r](size_t c) -> const Value& { return table.at(r, c); },
        &cells);
    for (size_t k = 0; k < orders.copies; ++k) {
      const size_t i = r * orders.copies + k;
      const uint32_t* order =
          orders.columns.data() + (shared ? 0 : i * num_columns);
      TokenSequence& seq = (*out)[i];
      seq.clear();
      AppendSentence(order, num_columns, cells, &seq);
    }
  }
  return Status::OK();
}

Result<std::vector<TokenSequence>> TextualEncoder::EncodeTable(
    const Table& table, Rng* rng) const {
  std::vector<size_t> order;
  std::vector<TokenSequence> out;
  GREATER_RETURN_NOT_OK(EncodeTableWithOrders(
      table, DrawFeatureOrders(table.num_rows(), rng, &order), &out));
  return out;
}

TokenSequence TextualEncoder::EncodeTextLine(const std::string& line) const {
  TokenSequence out;
  for (const auto& word : word_tokenizer_.Tokenize(line)) {
    out.push_back(vocab_.IdOf(word));
  }
  return out;
}

Result<Value> TextualEncoder::ParseValue(size_t column,
                                         const std::string& text) const {
  const Field& field = schema_.field(column);
  switch (field.type) {
    case ValueType::kInt: {
      auto parsed = ParseInt(text);
      if (!parsed) {
        return Status::DataLoss("'" + text + "' is not an integer (column '" +
                                field.name + "')");
      }
      return Value(*parsed);
    }
    case ValueType::kDouble: {
      auto parsed = ParseDouble(text);
      if (!parsed) {
        return Status::DataLoss("'" + text + "' is not a real (column '" +
                                field.name + "')");
      }
      return Value(*parsed);
    }
    default:
      return Value(text);
  }
}

Result<Row> TextualEncoder::DecodeTokens(const TokenSequence& tokens) const {
  Row row;
  DecodeScratch scratch;
  GREATER_RETURN_NOT_OK(
      DecodeTokensInto(tokens.data(), tokens.size(), &row, &scratch));
  return row;
}

Status TextualEncoder::DecodeTokensInto(const TokenId* tokens, size_t count,
                                        Row* row,
                                        DecodeScratch* scratch) const {
  row->assign(schema_.num_fields(), Value::Null());
  scratch->assigned.assign(schema_.num_fields(), 0);

  // Map name tokens back to column indices.
  auto column_of = [&](TokenId id) -> int {
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (columns_[c].name_token == id) return static_cast<int>(c);
    }
    return -1;
  };

  size_t i = 0;
  while (i < count) {
    int col = column_of(tokens[i]);
    if (col < 0) {
      return Status::DataLoss("expected a column name, got '" +
                              vocab_.TokenOf(tokens[i]) + "'");
    }
    if (scratch->assigned[static_cast<size_t>(col)]) {
      return Status::DataLoss("column '" + columns_[static_cast<size_t>(col)].name +
                              "' assigned twice");
    }
    ++i;
    if (i >= count || tokens[i] != is_token_) {
      return Status::DataLoss("expected 'is' after column name '" +
                              columns_[static_cast<size_t>(col)].name + "'");
    }
    ++i;
    // Words join with single spaces, exactly as Join(words, " ") renders.
    scratch->text.clear();
    size_t words = 0;
    while (i < count && tokens[i] != comma_token_) {
      if (words > 0) scratch->text += ' ';
      scratch->text += vocab_.TokenOf(tokens[i]);
      ++words;
      ++i;
    }
    if (words == 0) {
      return Status::DataLoss("empty value for column '" +
                              columns_[static_cast<size_t>(col)].name + "'");
    }
    if (i < count) ++i;  // skip the comma
    GREATER_ASSIGN_OR_RETURN(
        Value value, ParseValue(static_cast<size_t>(col), scratch->text));
    (*row)[static_cast<size_t>(col)] = std::move(value);
    scratch->assigned[static_cast<size_t>(col)] = 1;
  }
  for (size_t c = 0; c < scratch->assigned.size(); ++c) {
    if (!scratch->assigned[c]) {
      return Status::DataLoss("column '" + columns_[c].name +
                              "' missing from generated row");
    }
  }
  return Status::OK();
}

bool TextualEncoder::IsObservedValueToken(size_t column, TokenId token) const {
  return value_token_sets_[column].count(token) > 0;
}

std::string TextualEncoder::SerializeBinary() const {
  ArtifactWriter doc("greater.textual_encoder", 1);
  {
    ByteWriter w;
    w.PutU64(options_.permutations_per_row);
    w.PutBool(options_.permute_features);
    w.PutU32(static_cast<uint32_t>(is_token_));
    w.PutU32(static_cast<uint32_t>(comma_token_));
    doc.AddChunk("options", std::move(w).Take());
  }
  {
    ByteWriter w;
    AppendSchema(schema_, &w);
    doc.AddChunk("schema", std::move(w).Take());
  }
  doc.AddChunk("vocab", vocab_.SerializeBinary());
  {
    ByteWriter w;
    w.PutU32(static_cast<uint32_t>(columns_.size()));
    for (const EncodedColumn& col : columns_) {
      w.PutString(col.name);
      w.PutU32(static_cast<uint32_t>(col.name_token));
      w.PutU32(static_cast<uint32_t>(col.value_tokens.size()));
      for (TokenId id : col.value_tokens) {
        w.PutU32(static_cast<uint32_t>(id));
      }
    }
    doc.AddChunk("columns", std::move(w).Take());
  }
  return doc.Finish();
}

Status TextualEncoder::DeserializeBinary(std::string_view bytes) {
  GREATER_ASSIGN_OR_RETURN(
      ArtifactReader doc,
      ArtifactReader::Parse(std::string(bytes), "greater.textual_encoder",
                            1));
  TextualEncoder enc;
  {
    GREATER_ASSIGN_OR_RETURN(std::string_view payload, doc.Chunk("options"));
    ByteReader r(payload);
    GREATER_RETURN_NOT_OK(r.GetU64(&enc.options_.permutations_per_row));
    GREATER_RETURN_NOT_OK(r.GetBool(&enc.options_.permute_features));
    uint32_t is_token = 0, comma_token = 0;
    GREATER_RETURN_NOT_OK(r.GetU32(&is_token));
    GREATER_RETURN_NOT_OK(r.GetU32(&comma_token));
    enc.is_token_ = static_cast<TokenId>(is_token);
    enc.comma_token_ = static_cast<TokenId>(comma_token);
    GREATER_RETURN_NOT_OK(r.ExpectEnd());
  }
  {
    GREATER_ASSIGN_OR_RETURN(std::string_view payload, doc.Chunk("schema"));
    ByteReader r(payload);
    GREATER_RETURN_NOT_OK_CTX(ReadSchema(&r, &enc.schema_),
                              "encoder schema");
    GREATER_RETURN_NOT_OK(r.ExpectEnd());
  }
  {
    GREATER_ASSIGN_OR_RETURN(std::string_view payload, doc.Chunk("vocab"));
    GREATER_RETURN_NOT_OK_CTX(enc.vocab_.DeserializeBinary(payload),
                              "encoder vocabulary");
  }
  {
    GREATER_ASSIGN_OR_RETURN(std::string_view payload, doc.Chunk("columns"));
    ByteReader r(payload);
    uint32_t num_columns = 0;
    GREATER_RETURN_NOT_OK(r.GetU32(&num_columns));
    if (num_columns != enc.schema_.num_fields()) {
      return Status::DataLoss("corrupt encoder: " +
                              std::to_string(num_columns) +
                              " columns for a schema of " +
                              std::to_string(enc.schema_.num_fields()));
    }
    enc.columns_.resize(num_columns);
    enc.value_token_sets_.resize(num_columns);
    for (uint32_t c = 0; c < num_columns; ++c) {
      EncodedColumn& col = enc.columns_[c];
      GREATER_RETURN_NOT_OK(r.GetString(&col.name));
      uint32_t name_token = 0;
      GREATER_RETURN_NOT_OK(r.GetU32(&name_token));
      col.name_token = static_cast<TokenId>(name_token);
      uint32_t num_tokens = 0;
      GREATER_RETURN_NOT_OK(r.GetU32(&num_tokens));
      col.value_tokens.reserve(num_tokens);
      for (uint32_t i = 0; i < num_tokens; ++i) {
        uint32_t id = 0;
        GREATER_RETURN_NOT_OK(r.GetU32(&id));
        col.value_tokens.push_back(static_cast<TokenId>(id));
        enc.value_token_sets_[c].insert(static_cast<TokenId>(id));
      }
      if (!std::is_sorted(col.value_tokens.begin(),
                          col.value_tokens.end())) {
        return Status::DataLoss("corrupt encoder: value tokens of column '" +
                                col.name + "' are not sorted");
      }
      // Re-intern in column order — the same order Build used — so every
      // column's allow-list id matches the saved encoder's.
      col.allow_list_id = enc.allow_lists_.Intern(col.value_tokens);
    }
    GREATER_RETURN_NOT_OK(r.ExpectEnd());
  }
  *this = std::move(enc);
  return Status::OK();
}

Status TextualEncoder::Save(const std::string& path) const {
  return AtomicWriteFile(path, SerializeBinary())
      .WithContext("saving textual encoder to '" + path + "'");
}

Status TextualEncoder::Load(const std::string& path) {
  GREATER_ASSIGN_OR_RETURN_CTX(std::string bytes, ReadFileBytes(path),
                               "loading textual encoder from '" + path + "'");
  return DeserializeBinary(bytes)
      .WithContext("loading textual encoder from '" + path + "'");
}

}  // namespace greater
