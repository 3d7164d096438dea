#ifndef GREATER_STREAM_FIT_STAGE_H_
#define GREATER_STREAM_FIT_STAGE_H_

#include <string>

#include "common/status.h"
#include "stream/csv_ingest.h"
#include "stream/stream_options.h"
#include "tabular/csv.h"
#include "tabular/schema.h"
#include "tabular/table_stream.h"

namespace greater {

/// The ingest side of out-of-core fitting: binds a CSV file on disk to the
/// typed-chunk contract (tabular/table_stream.h) the synthesizer's
/// streaming fit consumes.
///
/// Open() runs one schema-only streaming pass (bounded memory — it builds
/// no rows, only type flags) and freezes the inferred schema.
/// ChunkSource() then hands out a restartable source: every open starts a
/// fresh chunked read of the same file whose parse workers type each
/// chunk into a Table under the frozen schema (CsvChunkRows::kTyped), so
/// the caller's pull only moves it. Fit makes multiple passes (observed
/// values, then encoding), and every pass re-reads the file under
/// backpressure instead of holding it in memory.
///
/// With a checkpoint directory configured, all passes share one chunk
/// store (same directory, label `oocore.fit`): the schema pass parses and
/// stores every chunk, later passes restore every chunk on the parse
/// workers (the reader still splits each record, to chain the input),
/// and a run killed mid-pass resumes from the chunks already stored —
/// re-running it is byte-identical because chunk keys hash the input
/// bytes and options fingerprint.
class FitStage {
 public:
  struct Options {
    CsvReadOptions csv;
    StreamOptions stream;
    StreamPolicy policy = StreamPolicy::kStrict;
    /// Directory for the shared chunk checkpoint store; empty disables
    /// checkpointing (every pass re-parses).
    std::string checkpoint_dir;
  };

  /// Runs the schema pass. The file must exist and have a header record.
  static Result<FitStage> Open(const std::string& csv_path,
                               const Options& options);

  const Schema& schema() const { return schema_; }

  /// Chunk-hash chain after the schema pass: a content fingerprint over
  /// the options, header, and every input byte, computed only with a
  /// checkpoint directory. Downstream stage checkpoints (the fitted-model
  /// artifact) key on it so any input edit invalidates them.
  uint64_t content_chain() const { return content_chain_; }

  /// Report of the most recent pass (schema pass at Open; each
  /// ChunkSource() stream overwrites it as it drains).
  const StreamIngestReport& report() const { return report_; }

  /// Restartable typed-chunk source over the file. The returned source
  /// (and its streams) borrow this FitStage, which must outlive them.
  TableChunkSource ChunkSource();

 private:
  FitStage(std::string csv_path, Options options, Schema schema)
      : csv_path_(std::move(csv_path)),
        options_(std::move(options)),
        schema_(std::move(schema)) {}

  std::string csv_path_;
  Options options_;
  Schema schema_;
  StreamIngestReport report_;
  uint64_t content_chain_ = 0;
};

}  // namespace greater

#endif  // GREATER_STREAM_FIT_STAGE_H_
