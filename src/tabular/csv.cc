#include "tabular/csv.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>

#include "common/artifact_io.h"
#include "common/fault.h"
#include "common/strings.h"
#include "obs/metrics.h"

namespace greater {
namespace {

// Recovery events: inputs that parsed only because the reader repaired or
// skipped something. Surfaced so silent data quirks show up in snapshots.
Counter& BomStrippedCounter() {
  static Counter* counter =
      &MetricsRegistry::Global().GetCounter("csv.bom_stripped");
  return *counter;
}

Counter& BlankLinesSkippedCounter() {
  static Counter* counter =
      &MetricsRegistry::Global().GetCounter("csv.blank_lines_skipped");
  return *counter;
}

// Appends one field's unescaped bytes: an unquoted field verbatim; a
// quoted one as its body up to the closing quote with each doubled quote
// unescaped, then any bytes after the closing quote verbatim.
void AppendField(const char* field, size_t size, std::string* out) {
  if (size == 0 || field[0] != '"') {
    out->append(field, size);
    return;
  }
  size_t i = 1;
  for (;;) {
    const void* quote = std::memchr(field + i, '"', size - i);
    if (quote == nullptr) {  // unreachable: the scan saw the field close
      out->append(field + i, size - i);
      return;
    }
    const size_t at = static_cast<const char*>(quote) - field;
    out->append(field + i, at - i);
    if (at + 1 < size && field[at + 1] == '"') {
      out->push_back('"');
      i = at + 2;
      continue;
    }
    out->append(field + at + 1, size - at - 1);
    return;
  }
}

}  // namespace

CsvRecordSplitter::CsvRecordSplitter(char delimiter) : delim_(delimiter) {}

void CsvRecordSplitter::Feed(std::string_view bytes) {
  // Everything before rec_start_ was emitted, and the scan state is
  // relative to rec_start_, so the consumed prefix can go.
  if (rec_start_ > 0) {
    buffer_.erase(0, rec_start_);
    scan_ -= rec_start_;
    rec_start_ = 0;
  }
  buffer_.append(bytes.data(), bytes.size());
}

void CsvRecordSplitter::FinishInput() { finished_ = true; }

Status CsvRecordSplitter::Oversized() const {
  return Status::ResourceExhausted(
      "CSV record " + std::to_string(records_emitted_ + 1) + " exceeds the " +
      std::to_string(max_record_bytes_) +
      "-byte record budget (unterminated quote or pathological row?)");
}

bool CsvRecordSplitter::Emit(size_t end, CsvRecordBatch* out) {
  const char* record = buffer_.data() + rec_start_;
  const size_t size = end - rec_start_;
  CsvCells& cells = out->cells;
  field_ends_.push_back(size);
  size_t begin = 0;
  size_t last_begin = 0;
  for (size_t field_end : field_ends_) {
    last_begin = cells.bytes.size();
    AppendField(record + begin, field_end - begin, &cells.bytes);
    cells.ends.push_back(cells.bytes.size());
    begin = field_end + 1;
  }
  // The '\r' of a CRLF ends the last field; drop it. A '\r' closing a
  // quoted last field goes too, so every table read so far keeps its bytes.
  if (cells.bytes.size() > last_begin && cells.bytes.back() == '\r') {
    cells.bytes.pop_back();
    --cells.ends.back();
  }
  const bool blank =
      field_ends_.size() == 1 && cells.bytes.size() == last_begin;
  field_ends_.clear();
  field_begin_ = 0;
  if (blank) {
    cells.ends.pop_back();  // its one field is empty: no bytes to drop
    BlankLinesSkippedCounter().Increment();
    return false;
  }
  const size_t raw_size =
      size > 0 && record[size - 1] == '\r' ? size - 1 : size;
  out->raw.append(record, raw_size);
  out->raw_ends.push_back(out->raw.size());
  out->raw.push_back('\n');
  out->field_ends.push_back(cells.size());
  out->numbers.push_back(++records_emitted_);
  return true;
}

Result<CsvRecordSplitter::Next> CsvRecordSplitter::NextRecord(
    CsvRecordBatch* out) {
  // Tolerate a UTF-8 byte-order mark at stream start: some exporters
  // (notably spreadsheet tools on Windows) prepend one, and without
  // stripping it the BOM bytes would silently become part of the first
  // header name. With fewer than 3 bytes buffered the prefix may still
  // turn into a BOM, so hold off until it is decidable.
  if (!bom_checked_) {
    static constexpr std::string_view kBom = "\xEF\xBB\xBF";
    std::string_view head = std::string_view(buffer_).substr(
        rec_start_, std::min<size_t>(buffer_.size() - rec_start_, 3));
    if (head == kBom) {
      rec_start_ += 3;
      scan_ = rec_start_;
      bom_checked_ = true;
      BomStrippedCounter().Increment();
    } else if (head.size() < 3 && kBom.substr(0, head.size()) == head &&
               !finished_) {
      return Next::kNeedMoreInput;
    } else {
      bom_checked_ = true;
    }
  }

  const char* const data = buffer_.data();
  const size_t size = buffer_.size();
  size_t i = scan_;
  for (;;) {
    // Scan the record in progress up to its newline or the buffer's end.
    // Only field boundaries are recorded; bytes are copied once the record
    // is complete.
    bool at_newline = false;
    while (i < size) {
      if (in_quotes_) {
        const void* quote = std::memchr(data + i, '"', size - i);
        if (quote == nullptr) {
          i = size;
          break;
        }
        i = static_cast<size_t>(static_cast<const char*>(quote) - data);
        if (i + 1 < size) {
          // A doubled quote is an escaped quote; anything else closes.
          if (data[i + 1] == '"') {
            i += 2;
          } else {
            in_quotes_ = false;
            i += 1;
          }
        } else if (finished_) {
          in_quotes_ = false;
          i += 1;
        } else {
          // A closing quote at the buffer edge is ambiguous (the next byte
          // may double it into an escape); wait for more input.
          break;
        }
        continue;
      }
      // A quote opens quoting only as a field's first byte.
      if (data[i] == '"' && i == rec_start_ + field_begin_) {
        in_quotes_ = true;
        i += 1;
        continue;
      }
      while (i < size && data[i] != delim_ && data[i] != '\n') ++i;
      if (i == size) break;
      if (data[i] == '\n') {
        at_newline = true;
        break;
      }
      field_ends_.push_back(i - rec_start_);
      field_begin_ = i + 1 - rec_start_;
      i += 1;
    }
    scan_ = i;
    if (max_record_bytes_ != 0 && i - rec_start_ > max_record_bytes_) {
      return Oversized();
    }
    if (!at_newline) break;
    const bool emitted = Emit(i, out);
    i += 1;
    rec_start_ = scan_ = i;
    if (emitted) return Next::kRecord;
  }
  if (!finished_) return Next::kNeedMoreInput;
  if (in_quotes_) {
    return Status::DataLoss("CSV ends inside a quoted field");
  }
  // Ragged final record without a trailing newline: emitted unless it is
  // a lone empty field (nothing, or an empty quoted field).
  const size_t field_start = rec_start_ + field_begin_;
  const size_t field_size = size - field_start;
  const bool empty_field =
      field_size == 0 || (field_size == 2 && data[field_start] == '"');
  if (!field_ends_.empty() || !empty_field) {
    const bool emitted = Emit(size, out);
    rec_start_ = scan_ = size;
    if (emitted) return Next::kRecord;
  }
  return Next::kEndOfInput;
}

void CsvColumnFlags::Observe(std::string_view cell) {
  any_value = true;
  // An int that from_chars accepts is always a valid double, so the
  // double probe runs only on a cell that is not an int.
  if (all_int && ParseInt(cell).has_value()) return;
  all_int = false;
  if (all_double && !ParseDouble(cell).has_value()) all_double = false;
}

Result<Schema> SchemaFromCsvFlags(const std::vector<std::string>& header,
                                  const std::vector<CsvColumnFlags>& merged,
                                  bool infer_types) {
  const size_t num_cols = header.size();
  std::vector<Field> fields;
  fields.reserve(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    ValueType type = ValueType::kString;
    if (infer_types && merged[c].any_value) {
      if (merged[c].all_int) {
        type = ValueType::kInt;
      } else if (merged[c].all_double) {
        type = ValueType::kDouble;
      }
    }
    SemanticType semantic = type == ValueType::kDouble
                                ? SemanticType::kContinuous
                                : SemanticType::kCategorical;
    fields.emplace_back(header[c], type, semantic);
  }
  return Schema::Make(std::move(fields));
}

Status AppendCsvRows(const CsvCells& cells, const std::string& null_token,
                     TableBuilder* builder) {
  const Schema& schema = builder->schema();
  const size_t num_cols = schema.num_fields();
  if (num_cols == 0 ? cells.size() != 0 : cells.size() % num_cols != 0) {
    return Status::Invalid(std::to_string(cells.size()) +
                           " cells do not fill rows of " +
                           std::to_string(num_cols) + " columns");
  }
  for (size_t first = 0; first < cells.size(); first += num_cols) {
    for (size_t c = 0; c < num_cols; ++c) {
      const std::string_view cell = cells.cell(first + c);
      Value value;
      if (cell != null_token) {
        switch (schema.field(c).type) {
          case ValueType::kInt: {
            std::optional<int64_t> parsed = ParseInt(cell);
            if (!parsed.has_value()) {
              return Status::DataLoss("cell '" + std::string(cell) +
                                      "' does not parse as int in column '" +
                                      schema.field(c).name + "'");
            }
            value = Value(*parsed);
            break;
          }
          case ValueType::kDouble: {
            std::optional<double> parsed = ParseDouble(cell);
            if (!parsed.has_value()) {
              return Status::DataLoss(
                  "cell '" + std::string(cell) +
                  "' does not parse as double in column '" +
                  schema.field(c).name + "'");
            }
            value = Value(*parsed);
            break;
          }
          default:
            value = Value(std::string(cell));
        }
      }
      GREATER_RETURN_NOT_OK(builder->AppendCell(c, std::move(value)));
    }
    GREATER_RETURN_NOT_OK(builder->CommitRow());
  }
  return Status::OK();
}

Result<Table> CsvRowsToTable(const Schema& schema, const CsvCells& cells,
                             const std::string& null_token) {
  TableBuilder builder(schema);
  builder.Reserve(cells.size() / std::max<size_t>(1, schema.num_fields()));
  GREATER_RETURN_NOT_OK(AppendCsvRows(cells, null_token, &builder));
  return builder.Build();
}

Result<Table> ReadCsvString(const std::string& text,
                            const CsvReadOptions& options) {
  GREATER_FAULT_POINT("csv.read");
  // Tolerate a UTF-8 byte-order mark: some exporters (notably spreadsheet
  // tools on Windows) prepend one, and without stripping it the BOM bytes
  // would silently become part of the first header name.
  std::string_view body(text);
  if (body.size() >= 3 && body.substr(0, 3) == "\xEF\xBB\xBF") {
    body.remove_prefix(3);
    BomStrippedCounter().Increment();
  }
  CsvRecordSplitter splitter(options.delimiter);
  splitter.set_max_record_bytes(0);  // whole-string path has no chunk budget
  splitter.Feed(body);
  splitter.FinishInput();
  CsvRecordBatch header;
  GREATER_ASSIGN_OR_RETURN(CsvRecordSplitter::Next next,
                           splitter.NextRecord(&header));
  CsvRecordBatch records;
  while (next == CsvRecordSplitter::Next::kRecord) {
    GREATER_ASSIGN_OR_RETURN(next, splitter.NextRecord(&records));
  }
  if (header.size() == 0) {
    return Status::DataLoss("CSV has no header record");
  }
  const size_t num_cols = header.num_fields(0);
  for (size_t r = 0; r < records.size(); ++r) {
    if (records.num_fields(r) != num_cols) {
      // 1-based record number counting the header as record 1, so the
      // number matches the line users see in an editor (blank lines aside).
      return Status::DataLoss("CSV record " +
                              std::to_string(records.numbers[r]) + " has " +
                              std::to_string(records.num_fields(r)) +
                              " fields, header has " +
                              std::to_string(num_cols));
    }
  }

  std::vector<std::string> names;
  names.reserve(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    names.emplace_back(header.field(0, c));
  }
  std::vector<CsvColumnFlags> flags(num_cols);
  for (size_t first = 0; options.infer_types && first < records.cells.size();
       first += num_cols) {
    for (size_t c = 0; c < num_cols; ++c) {
      const std::string_view cell = records.cells.cell(first + c);
      if (cell != options.null_token) flags[c].Observe(cell);
    }
  }
  GREATER_ASSIGN_OR_RETURN(
      Schema schema, SchemaFromCsvFlags(names, flags, options.infer_types));
  return CsvRowsToTable(schema, records.cells, options.null_token);
}

Result<Table> ReadCsvFile(const std::string& path,
                          const CsvReadOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open CSV file '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ReadCsvString(buffer.str(), options);
}

namespace {

std::string EscapeField(const std::string& field, char delim) {
  bool needs_quotes = field.find(delim) != std::string::npos ||
                      field.find('"') != std::string::npos ||
                      field.find('\n') != std::string::npos ||
                      field.find('\r') != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void AppendCsvHeader(const Schema& schema, char delimiter,
                     std::string* out) {
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    if (c > 0) out->push_back(delimiter);
    *out += EscapeField(schema.field(c).name, delimiter);
  }
  out->push_back('\n');
}

void AppendCsvRows(const Table& table, char delimiter, std::string* out) {
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out->push_back(delimiter);
      *out += EscapeField(table.at(r, c).ToDisplayString(), delimiter);
    }
    out->push_back('\n');
  }
}

std::string WriteCsvString(const Table& table, char delimiter) {
  std::string out;
  AppendCsvHeader(table.schema(), delimiter, &out);
  AppendCsvRows(table, delimiter, &out);
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    char delimiter) {
  // Atomic tmp-write + rename: a crash (or an injected "ckpt.write" fault)
  // can never leave a truncated CSV — readers see the previous file or the
  // complete new one.
  return AtomicWriteFile(path, WriteCsvString(table, delimiter))
      .WithContext("writing CSV '" + path + "'");
}

}  // namespace greater
