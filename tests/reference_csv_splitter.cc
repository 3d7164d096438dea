#include "reference_csv_splitter.h"

#include <algorithm>
#include <utility>

namespace greater {

std::vector<CsvRecordCopy> CopyRecords(const CsvRecordBatch& batch) {
  std::vector<CsvRecordCopy> records(batch.size());
  for (size_t r = 0; r < batch.size(); ++r) {
    records[r].number = batch.numbers[r];
    for (size_t f = 0; f < batch.num_fields(r); ++f) {
      records[r].fields.emplace_back(batch.field(r, f));
    }
    records[r].raw = std::string(batch.raw_record(r));
  }
  return records;
}

// Completes the buffered record. Returns false for a skipped blank line
// (a record that is a single empty field), true when *out was filled.
bool ReferenceCsvSplitter::Emit(CsvRecordCopy* out) {
  if (!field_.empty() && field_.back() == '\r') field_.pop_back();
  if (!raw_.empty() && raw_.back() == '\r') raw_.pop_back();
  fields_.push_back(std::move(field_));
  field_.clear();
  field_started_ = false;
  if (fields_.size() == 1 && fields_[0].empty()) {
    ++blank_lines_skipped_;
    fields_.clear();
    raw_.clear();
    return false;
  }
  out->number = ++records_emitted_;
  out->fields = std::move(fields_);
  fields_.clear();
  out->raw = std::move(raw_);
  raw_.clear();
  return true;
}

Result<CsvRecordSplitter::Next> ReferenceCsvSplitter::NextRecord(
    CsvRecordCopy* out) {
  using Next = CsvRecordSplitter::Next;
  if (!bom_checked_) {
    static constexpr std::string_view kBom = "\xEF\xBB\xBF";
    std::string_view head = std::string_view(buffer_).substr(
        pos_, std::min<size_t>(buffer_.size() - pos_, 3));
    if (head == kBom) {
      pos_ += 3;
      bom_checked_ = true;
      ++boms_stripped_;
    } else if (head.size() < 3 && kBom.substr(0, head.size()) == head &&
               !finished_) {
      return Next::kNeedMoreInput;
    } else {
      bom_checked_ = true;
    }
  }
  while (pos_ < buffer_.size()) {
    char c = buffer_[pos_];
    if (in_quotes_) {
      if (c == '"') {
        if (pos_ + 1 < buffer_.size()) {
          if (buffer_[pos_ + 1] == '"') {  // escaped quote
            field_ += '"';
            raw_ += "\"\"";
            pos_ += 2;
          } else {
            in_quotes_ = false;
            raw_ += '"';
            pos_ += 1;
          }
        } else if (finished_) {
          in_quotes_ = false;
          raw_ += '"';
          pos_ += 1;
        } else {
          return Next::kNeedMoreInput;  // the next byte may escape it
        }
      } else {
        field_ += c;
        raw_ += c;
        pos_ += 1;
      }
    } else if (c == '"' && !field_started_) {
      in_quotes_ = true;
      field_started_ = true;
      raw_ += c;
      pos_ += 1;
    } else if (c == delim_) {
      raw_ += c;
      fields_.push_back(std::move(field_));
      field_.clear();
      field_started_ = false;
      pos_ += 1;
    } else if (c == '\n') {
      pos_ += 1;
      if (Emit(out)) return Next::kRecord;
    } else {
      field_ += c;
      field_started_ = true;
      raw_ += c;
      pos_ += 1;
    }
    if (max_record_bytes_ != 0 && raw_.size() > max_record_bytes_) {
      return Status::ResourceExhausted(
          "CSV record " + std::to_string(records_emitted_ + 1) +
          " exceeds the " + std::to_string(max_record_bytes_) +
          "-byte record budget (unterminated quote or pathological row?)");
    }
  }
  if (!finished_) return Next::kNeedMoreInput;
  if (in_quotes_) {
    return Status::DataLoss("CSV ends inside a quoted field");
  }
  if (!field_.empty() || !fields_.empty()) {
    if (Emit(out)) return Next::kRecord;
  }
  return Next::kEndOfInput;
}

}  // namespace greater
