#ifndef GREATER_TABULAR_CSV_H_
#define GREATER_TABULAR_CSV_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "tabular/schema.h"
#include "tabular/table.h"
#include "tabular/table_builder.h"

namespace greater {

/// Options for CSV parsing.
struct CsvReadOptions {
  char delimiter = ',';
  /// When true, column types are inferred (int -> double -> string). When
  /// false, every column is read as string.
  bool infer_types = true;
  /// Cells equal to this string (after trimming) parse as null.
  std::string null_token = "";
};

/// Rows of raw CSV cells stored flat: cell i is
/// bytes[i == 0 ? 0 : ends[i - 1], ends[i]). Rows of a fixed width are
/// row-major, so row r's cell c is cell(r * width + c).
struct CsvCells {
  std::string bytes;
  std::vector<size_t> ends;

  size_t size() const { return ends.size(); }
  std::string_view cell(size_t i) const {
    const size_t begin = i == 0 ? 0 : ends[i - 1];
    return std::string_view(bytes).substr(begin, ends[i] - begin);
  }
  /// Appends one cell.
  void Append(std::string_view cell) {
    bytes.append(cell.data(), cell.size());
    ends.push_back(bytes.size());
  }
};

/// CSV records split by CsvRecordSplitter, stored flat: every record's
/// unescaped fields back to back in `cells`, and every record's raw text
/// followed by '\n' back to back in `raw`.
struct CsvRecordBatch {
  /// Fields of every record, in order.
  CsvCells cells;
  /// Per record: the end index of its fields in `cells` (record r owns
  /// cells [r == 0 ? 0 : field_ends[r - 1], field_ends[r])).
  std::vector<size_t> field_ends;
  /// Raw text of each record as read, without its record separator, each
  /// followed by '\n': exactly the bytes a chunk checkpoint chain mixes.
  std::string raw;
  /// Per record: the offset of its '\n' in `raw`.
  std::vector<size_t> raw_ends;
  /// Per record: its 1-based ordinal among emitted records (the header is
  /// record 1); skipped blank lines do not advance it, matching the record
  /// numbers ReadCsvString reports in ragged-record errors.
  std::vector<uint64_t> numbers;

  size_t size() const { return numbers.size(); }
  size_t first_field(size_t r) const { return r == 0 ? 0 : field_ends[r - 1]; }
  size_t num_fields(size_t r) const { return field_ends[r] - first_field(r); }
  std::string_view field(size_t r, size_t f) const {
    return cells.cell(first_field(r) + f);
  }
  std::string_view raw_record(size_t r) const {
    const size_t begin = r == 0 ? 0 : raw_ends[r - 1] + 1;
    return std::string_view(raw).substr(begin, raw_ends[r] - begin);
  }
};

/// Incremental RFC-4180 record splitter: the chunked-ingest primitive
/// behind both ReadCsvString and the streaming reader in src/stream. Bytes
/// arrive in arbitrary blocks via Feed — a quoted field containing a
/// newline may span any number of blocks — and complete records are
/// appended to a CsvRecordBatch as they materialize. Scan state (quote
/// nesting, the field boundaries of the record in progress) persists
/// across Feed calls, so splitting is independent of how the input was
/// blocked: splitting a file fed in 1-byte pieces yields byte-identical
/// records to splitting it fed whole. A complete record's fields and raw
/// text are copied a span at a time.
///
/// Quirks preserved from the historical whole-string parser: a UTF-8 BOM
/// at stream start is stripped (csv.bom_stripped counter), blank lines
/// (including a lone `""`) are skipped (csv.blank_lines_skipped counter)
/// and do not consume a record number, a trailing '\r' before '\n' is
/// dropped from the raw text and from the last field (CRLF and LF mix
/// freely), and a final record without a trailing newline is emitted at
/// FinishInput. Input ending inside a quoted field is kDataLoss. A record
/// whose raw text exceeds max_record_bytes (when set) is
/// kResourceExhausted — a typed error, never unbounded buffering.
class CsvRecordSplitter {
 public:
  /// NextRecord's output: the batch each split record is appended to.
  using Record = CsvRecordBatch;

  enum class Next {
    kRecord,         ///< one more record was appended to *out
    kNeedMoreInput,  ///< buffered bytes hold no complete record yet
    kEndOfInput,     ///< FinishInput seen and every record extracted
  };

  explicit CsvRecordSplitter(char delimiter = ',');

  /// Appends a block of input bytes.
  void Feed(std::string_view bytes);
  /// Marks end of input: a buffered final record (no trailing newline)
  /// becomes extractable, and NextRecord reports kEndOfInput after it.
  void FinishInput();

  /// Splits the next complete record and appends it to *out (on kRecord
  /// only; *out is untouched otherwise).
  Result<Next> NextRecord(CsvRecordBatch* out);

  /// 0 disables the bound (default 4 MiB).
  void set_max_record_bytes(size_t n) { max_record_bytes_ = n; }

 private:
  Status Oversized() const;
  /// Appends the record buffer_[rec_start_, end) to *out. Returns false,
  /// appending nothing, for a blank line.
  bool Emit(size_t end, CsvRecordBatch* out);

  char delim_;
  size_t max_record_bytes_ = size_t{4} << 20;
  std::string buffer_;      // unconsumed input bytes
  size_t rec_start_ = 0;    // start of the record being scanned
  size_t scan_ = 0;         // next byte to scan, >= rec_start_
  bool finished_ = false;   // FinishInput seen
  bool bom_checked_ = false;
  bool in_quotes_ = false;
  // Start of the current field and ends of the record's earlier fields,
  // as offsets from rec_start_ (so compaction leaves them valid).
  size_t field_begin_ = 0;
  std::vector<size_t> field_ends_;
  uint64_t records_emitted_ = 0;
};

/// Per-column type-inference accumulator: merged across chunks with
/// OR/AND/AND, reproducing a whole-column scan exactly.
struct CsvColumnFlags {
  bool any_value = false;
  bool all_int = true;
  bool all_double = true;

  /// Folds in one non-null cell.
  void Observe(std::string_view cell);
  void Merge(const CsvColumnFlags& other) {
    any_value |= other.any_value;
    all_int &= other.all_int;
    all_double &= other.all_double;
  }
};

/// Builds the inferred schema from the header and the flags merged across
/// every row — the ReadCsvString type-inference semantics (int -> double
/// -> string; value-less columns are string; continuous semantic type for
/// doubles, categorical otherwise).
Result<Schema> SchemaFromCsvFlags(const std::vector<std::string>& header,
                                  const std::vector<CsvColumnFlags>& merged,
                                  bool infer_types);

/// Types row-major cells (schema-width rows; null_token cells become
/// nulls) into `builder`. kDataLoss when a cell fails to parse as its
/// column's declared type — impossible when the schema was inferred from
/// the same input; kInvalid when the cells do not fill whole rows.
Status AppendCsvRows(const CsvCells& cells, const std::string& null_token,
                     TableBuilder* builder);

/// AppendCsvRows into a fresh Table under `schema`.
Result<Table> CsvRowsToTable(const Schema& schema, const CsvCells& cells,
                             const std::string& null_token);

/// Parses RFC-4180-style CSV text (double-quote quoting, embedded
/// delimiters/newlines/escaped quotes) into a Table. The first record is
/// the header. Inferred types: a column is kInt if every non-null cell
/// parses as an integer, else kDouble if every cell parses as a real,
/// else kString. Semantic types default to kCategorical (int/string) and
/// kContinuous (double); callers adjust via the schema afterwards.
Result<Table> ReadCsvString(const std::string& text,
                            const CsvReadOptions& options = {});

/// Reads a CSV file from disk. See ReadCsvString.
Result<Table> ReadCsvFile(const std::string& path,
                          const CsvReadOptions& options = {});

/// Appends the escaped header line for `schema` to *out — the exact bytes
/// WriteCsvString starts with. Factored out so chunked emitters (streaming
/// sample emission) can render incrementally yet byte-identically to a
/// whole-table write.
void AppendCsvHeader(const Schema& schema, char delimiter, std::string* out);

/// Appends `table`'s rows (no header) as escaped CSV lines to *out.
/// WriteCsvString(t) == header + rows, so emitting a table chunk-by-chunk
/// through this produces the same bytes as one whole-table write.
void AppendCsvRows(const Table& table, char delimiter, std::string* out);

/// Serializes a table to CSV text (header + rows, quoting fields that
/// contain the delimiter, quotes, or newlines). Nulls serialize as the
/// empty field.
std::string WriteCsvString(const Table& table, char delimiter = ',');

/// Writes a table to a CSV file on disk.
Status WriteCsvFile(const Table& table, const std::string& path,
                    char delimiter = ',');

}  // namespace greater

#endif  // GREATER_TABULAR_CSV_H_
