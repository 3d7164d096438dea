#ifndef GREATER_STREAM_STREAM_OPTIONS_H_
#define GREATER_STREAM_STREAM_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace greater {

/// What to do with a record that fails to parse or validate.
enum class StreamPolicy {
  /// First malformed record fails the run with a typed Status.
  kStrict,
  /// Malformed records are diverted to the quarantine channel (written to
  /// `quarantine_path` when set, counted always) and the run continues.
  kLenient,
};

/// Knobs for the chunked, bounded-queue stage runtime in src/stream.
///
/// Memory ceiling: a stage holds at most `queue_capacity` chunks in its
/// inbox plus one in flight per worker, so peak queue-resident rows are
/// bounded by `queue_capacity * chunk_rows` per queue — backpressure, not
/// unbounded buffering, absorbs a slow consumer.
struct StreamOptions {
  /// Selects MultiTablePipeline's flatten path: DirectFlattenStreaming
  /// when true, the in-memory DirectFlatten when false. Chunked ingest
  /// (RunFromCsv, FitStage) streams either way.
  bool enabled = false;

  /// Records per chunk. Smaller chunks mean finer-grained resume and a
  /// lower memory ceiling; larger chunks amortize queue and checkpoint
  /// overhead.
  size_t chunk_rows = 1024;

  /// Max chunks buffered per queue before producers block (backpressure).
  size_t queue_capacity = 4;

  /// Parallel workers in the parse/transform stage. Output order (and thus
  /// byte-identical determinism) is preserved at any worker count by the
  /// sink's sequence-number reorder buffer.
  size_t num_workers = 1;

  /// Bytes per read() from the input file. Purely an I/O granularity —
  /// record splitting is independent of blocking.
  size_t io_block_bytes = size_t{1} << 16;

  /// Max raw bytes in a single CSV record; exceeding it is a typed
  /// kResourceExhausted error (never unbounded buffering). 0 disables.
  size_t max_record_bytes = size_t{4} << 20;

  /// A stage whose heartbeat goes silent for this long is declared hung
  /// and the run fails with kDeadlineExceeded instead of blocking forever.
  uint64_t watchdog_timeout_ms = 30000;

  /// How often the watchdog samples heartbeats.
  uint64_t watchdog_poll_ms = 10;

  /// Where quarantined records are written (CSV with provenance columns).
  /// Empty: records are counted and reported but not persisted.
  std::string quarantine_path;
};

/// Reconciliation report for one streaming ingest: every input record is
/// accounted for as either a kept row or a quarantined record.
struct StreamIngestReport {
  uint64_t rows_in = 0;       ///< data records seen (header excluded)
  uint64_t rows_out = 0;      ///< rows in the produced table
  uint64_t quarantined = 0;   ///< records diverted to quarantine
  uint64_t chunks = 0;        ///< chunks processed (hit or computed)
  uint64_t chunk_checkpoint_hits = 0;  ///< chunks restored from checkpoint

  /// The books balance: nothing was silently dropped.
  bool Reconciles() const { return rows_in == rows_out + quarantined; }
};

}  // namespace greater

#endif  // GREATER_STREAM_STREAM_OPTIONS_H_
