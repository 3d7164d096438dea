#ifndef GREATER_STREAM_CSV_INGEST_H_
#define GREATER_STREAM_CSV_INGEST_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/checkpoint_store.h"
#include "common/status.h"
#include "stream/quarantine.h"
#include "stream/stream_options.h"
#include "tabular/csv.h"
#include "tabular/schema.h"
#include "tabular/table.h"

namespace greater {

/// Per-chunk checkpointing of one chunked pass (CSV ingest or sample
/// emission). With a non-empty `dir`, chunk i persists in the chunk store
/// under the name `chunk.<label>.<i>`, keyed by a chain the pass owns;
/// passes with the same (dir, label, input, options) share chunks. An
/// empty `dir` disables it: the pass hashes, builds and writes nothing.
struct ChunkCheckpointing {
  std::string dir;
  std::string label;
};

/// The chunk-grain CheckpointStore: documents of kind
/// `greater.chunk_checkpoint` v1, counted under `stream.chunk_*`.
CheckpointStore ChunkCheckpointStore(std::string dir);

/// Store name of chunk `index` of the pass labelled `label`.
std::string ChunkCheckpointName(std::string_view label, uint64_t index);

/// Chunked, bounded-memory CSV ingest on the streaming runtime.
///
/// Topology (all queues bounded by `options.queue_capacity` chunks):
///
///   reader thread ──raw_q──> parse workers ──parsed_q──> caller (sink)
///
/// The reader only splits and chains: CsvRecordSplitter (quoted newlines
/// may span read blocks) appends records to one flat CsvRecordBatch per
/// chunk of `options.chunk_rows`, and the chunk-hash chain mixes each
/// batch's raw text. Everything else happens on the parse workers. A
/// worker first probes the chunk checkpoint store; a miss (or a corrupt
/// chunk) is parsed from the batch the task still holds, so the hit and
/// miss paths see the same chunk and chain. Parsing validates field
/// counts against the header — strict policy fails the run with the same
/// typed kDataLoss error the in-memory reader produces; lenient policy
/// diverts the record to the quarantine channel — computes per-column
/// type-inference flags, and persists a per-chunk checkpoint. The
/// caller's thread is the sink: a sequence-number reorder buffer restores
/// input order regardless of worker count, so output is byte-identical to
/// `ReadCsvFile` for any (num_workers, io_block_bytes, chunk_rows) — same
/// table, same inferred types, same errors in strict mode.
///
/// Every input record is accounted for in `report`:
/// `rows_in == rows_out + quarantined` (StreamIngestReport::Reconciles),
/// including on a resumed run (checkpointed chunks re-emit their
/// quarantined records).
///
/// With `checkpoint.dir` set, each chunk's key chains an options
/// fingerprint, the header and the raw bytes of every chunk so far.
/// Chaining over raw input, never stored documents, makes the hit and miss
/// paths chain-identical, so a rerun after a crash loads every completed
/// chunk and parses only the rest. `quarantine` (optional) receives
/// diverted records under the lenient policy; without it they are still
/// counted in the report and the `stream.quarantined_records` counter.
Result<Table> ReadCsvFileStreaming(const std::string& path,
                                   const CsvReadOptions& csv_options,
                                   const StreamOptions& options,
                                   StreamPolicy policy,
                                   StreamIngestReport* report = nullptr,
                                   const ChunkCheckpointing& checkpoint = {},
                                   QuarantineWriter* quarantine = nullptr);

/// In-memory variant (tests, embedded inputs): identical semantics, the
/// text is consumed in `options.io_block_bytes` blocks. `source_label`
/// names the input in quarantine provenance.
Result<Table> ReadCsvStringStreaming(const std::string& text,
                                     const CsvReadOptions& csv_options,
                                     const StreamOptions& options,
                                     StreamPolicy policy,
                                     StreamIngestReport* report = nullptr,
                                     const ChunkCheckpointing& checkpoint = {},
                                     QuarantineWriter* quarantine = nullptr,
                                     const std::string& source_label =
                                         "<memory>");

/// What a CsvChunkReader's chunks carry besides their type flags and
/// quarantined records. The parse workers build it, so the caller's pull
/// only moves it.
enum class CsvChunkRows {
  kNone,   ///< no rows: a schema-only pass
  kCells,  ///< CsvChunk::cells, the kept rows' raw cells
  kTyped,  ///< CsvChunk::table, the kept rows typed under a given schema
};

/// One in-order chunk of a streaming CSV pass: its kept rows (in the form
/// the reader was opened for) plus this chunk's type flags. Quarantined
/// records are counted (and written, when a quarantine file is
/// configured) as the chunk is delivered.
struct CsvChunk {
  uint64_t seq = 0;
  /// Kept rows, whatever the chunk carries.
  uint64_t num_rows = 0;
  /// kCells: the kept rows' cells, row-major, header width.
  CsvCells cells;
  /// kTyped: the kept rows under the reader's schema.
  Table table;
  std::vector<CsvColumnFlags> flags;
  std::vector<QuarantinedRecord> quarantined;
  bool from_checkpoint = false;
};

/// Pull-based chunked CSV reader — the same bounded-queue topology as
/// ReadCsvFileStreaming (reader thread ──raw_q──> parse workers
/// ──parsed_q──> caller), but the caller drains it one chunk at a time
/// through Next() instead of receiving a materialized Table. Backpressure
/// flows all the way to the file read: a slow consumer fills parsed_q,
/// which blocks the parse workers, which fills raw_q, which blocks the
/// reader — so peak memory is bounded by queue capacity times chunk size
/// no matter how large the file is. This is the primitive out-of-core fit
/// pulls typed chunks through: opened with CsvChunkRows::kTyped and a
/// schema, the parse workers type each chunk, so the caller only moves it.
///
/// Chunks arrive in input order (an internal sequence-number reorder
/// buffer absorbs worker reordering). Next() returns std::nullopt at
/// clean end of input and the pipeline's first error otherwise; the
/// report passed at open accumulates as chunks are delivered and
/// reconciles on a clean drain. Close() (also run by the destructor)
/// shuts the pipeline down early without waiting for the remaining
/// chunks.
class CsvChunkReader {
 public:
  /// Opens the file variant. Consumes the header before returning.
  /// `schema` is read with CsvChunkRows::kTyped only, and must have one
  /// field per header column.
  static Result<std::unique_ptr<CsvChunkReader>> OpenFile(
      const std::string& path, const CsvReadOptions& csv_options,
      const StreamOptions& options, StreamPolicy policy,
      StreamIngestReport* report = nullptr,
      const ChunkCheckpointing& checkpoint = {},
      QuarantineWriter* quarantine = nullptr,
      CsvChunkRows rows = CsvChunkRows::kCells, Schema schema = Schema());

  /// In-memory variant (tests, embedded inputs).
  static Result<std::unique_ptr<CsvChunkReader>> OpenString(
      const std::string& text, const CsvReadOptions& csv_options,
      const StreamOptions& options, StreamPolicy policy,
      StreamIngestReport* report = nullptr,
      const ChunkCheckpointing& checkpoint = {},
      QuarantineWriter* quarantine = nullptr,
      const std::string& source_label = "<memory>",
      CsvChunkRows rows = CsvChunkRows::kCells, Schema schema = Schema());

  ~CsvChunkReader();
  CsvChunkReader(const CsvChunkReader&) = delete;
  CsvChunkReader& operator=(const CsvChunkReader&) = delete;

  /// Header field names (consumed at open).
  const std::vector<std::string>& header() const;

  /// Next chunk in input order; std::nullopt at clean end of input.
  /// Returns the pipeline's first error (worker failure, watchdog
  /// conviction, strict-policy parse error) once the queues drain.
  Result<std::optional<CsvChunk>> Next();

  /// Stops the pipeline (early or after a drain), joins every worker, and
  /// returns the pipeline's terminal status. Idempotent.
  Status Close();

  /// The chunk chain after the last chunk read: a content fingerprint
  /// over the options, the header and every input byte read. Valid after
  /// Close(), and only with checkpointing enabled.
  uint64_t content_chain() const;

 private:
  struct Impl;
  explicit CsvChunkReader(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Schema-only streaming pass: runs the chunked topology, merges each
/// chunk's type flags, and builds no rows (CsvChunkRows::kNone) — peak
/// memory is one queue's worth of split batches. With checkpointing,
/// every chunk parsed here is stored, so later passes over the same file
/// (out-of-core fit's vocab and count passes) restore every chunk instead
/// of parsing it, and
/// `content_chain` (optional) receives CsvChunkReader::content_chain().
Result<Schema> InferCsvSchemaStreaming(const std::string& path,
                                       const CsvReadOptions& csv_options,
                                       const StreamOptions& options,
                                       StreamPolicy policy,
                                       StreamIngestReport* report = nullptr,
                                       const ChunkCheckpointing& checkpoint =
                                           {},
                                       uint64_t* content_chain = nullptr);

}  // namespace greater

#endif  // GREATER_STREAM_CSV_INGEST_H_
