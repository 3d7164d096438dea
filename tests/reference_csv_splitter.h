#ifndef GREATER_TESTS_REFERENCE_CSV_SPLITTER_H_
#define GREATER_TESTS_REFERENCE_CSV_SPLITTER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "tabular/csv.h"

namespace greater {

/// One split CSV record, spelled out as strings.
struct CsvRecordCopy {
  uint64_t number = 0;
  std::vector<std::string> fields;
  /// Raw text without the record separator.
  std::string raw;
};

/// Copies every record of a flat batch out.
std::vector<CsvRecordCopy> CopyRecords(const CsvRecordBatch& batch);

/// The RFC-4180 record splitter written the plain way: one byte at a
/// time, each field and each record's raw text grown by push_back. It is
/// the oracle CsvRecordSplitter (which scans field boundaries and copies
/// whole spans into a flat batch) is checked against: the same records,
/// numbers, raw text, typed errors and recovery counts for any input fed
/// at any block boundaries. It keeps its own BOM and blank-line counts
/// instead of the global metrics.
class ReferenceCsvSplitter {
 public:
  explicit ReferenceCsvSplitter(char delimiter = ',') : delim_(delimiter) {}

  void Feed(std::string_view bytes) {
    buffer_.append(bytes.data(), bytes.size());
  }
  void FinishInput() { finished_ = true; }
  void set_max_record_bytes(size_t n) { max_record_bytes_ = n; }

  /// CsvRecordSplitter::NextRecord, filling *out on kRecord.
  Result<CsvRecordSplitter::Next> NextRecord(CsvRecordCopy* out);

  uint64_t boms_stripped() const { return boms_stripped_; }
  uint64_t blank_lines_skipped() const { return blank_lines_skipped_; }

 private:
  bool Emit(CsvRecordCopy* out);

  char delim_;
  size_t max_record_bytes_ = size_t{4} << 20;
  std::string buffer_;
  size_t pos_ = 0;
  bool finished_ = false;
  bool bom_checked_ = false;
  bool in_quotes_ = false;
  bool field_started_ = false;
  std::string field_;
  std::vector<std::string> fields_;
  std::string raw_;
  uint64_t records_emitted_ = 0;
  uint64_t boms_stripped_ = 0;
  uint64_t blank_lines_skipped_ = 0;
};

}  // namespace greater

#endif  // GREATER_TESTS_REFERENCE_CSV_SPLITTER_H_
