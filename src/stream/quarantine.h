#ifndef GREATER_STREAM_QUARANTINE_H_
#define GREATER_STREAM_QUARANTINE_H_

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>

#include "common/status.h"

namespace greater {

/// One record diverted from the stream instead of failing the run.
struct QuarantinedRecord {
  /// Which input it came from (e.g. the CSV path or an ingest label).
  std::string source;
  /// 1-based record number in that input (header = record 1).
  uint64_t record_number = 0;
  /// Why it was quarantined — the typed Status the strict policy would
  /// have failed the run with.
  Status why;
  /// Raw record text as read, for post-mortems.
  std::string raw;
};

/// Sink for quarantined records under the lenient policy. Writes one CSV
/// line per record — `source,record_number,code,message,raw` — to
/// `path`, or only counts when `path` is empty. Thread-safe; every
/// record increments the `stream.quarantined_records` counter, which the
/// ingest reconciliation (`rows_in == rows_out + quarantined`) reads.
class QuarantineWriter {
 public:
  /// Truncates any existing file at `path` (a rerun's quarantine reflects
  /// that run only). Empty path: count-only mode.
  explicit QuarantineWriter(std::string path);

  /// Appends one record. Returns the I/O error if persisting it failed —
  /// under the lenient policy losing quarantine evidence is itself a
  /// failure worth surfacing.
  Status Write(const QuarantinedRecord& record);

  /// Records written (or counted) through this writer.
  uint64_t count() const;

  const std::string& path() const { return path_; }

  QuarantineWriter(const QuarantineWriter&) = delete;
  QuarantineWriter& operator=(const QuarantineWriter&) = delete;

 private:
  const std::string path_;
  mutable std::mutex mu_;
  std::ofstream out_;
  uint64_t count_ = 0;
  bool open_failed_ = false;
};

}  // namespace greater

#endif  // GREATER_STREAM_QUARANTINE_H_
