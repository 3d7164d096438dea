#ifndef GREATER_STREAM_SAMPLE_EMIT_H_
#define GREATER_STREAM_SAMPLE_EMIT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "synth/great_synthesizer.h"
#include "synth/sample_report.h"

namespace greater {

/// Knobs for streaming sample emission (SampleRowsToCsvStreaming).
struct SampleEmitOptions {
  /// Rows per checkpoint chunk: the unit of checkpointing, chunk keys,
  /// commit order and crash loss. At most `num_workers` chunks are held in
  /// memory at once.
  size_t chunk_rows = 1024;
  /// Decode slots, each with its own engine and decode cache. 0 = one per
  /// hardware thread. With at least this many chunks each chunk decodes
  /// as one unit; with fewer, each chunk splits into
  /// ceil(num_workers / chunks) near-equal decode units, so even a single
  /// chunk decodes on every slot. Capped at the unit count; one worker
  /// (or one unit) decodes inline on the caller and starts no thread. A
  /// pure throughput setting, like `num_fit_shards`: the output bytes,
  /// the report and the checkpoint keys are the same at every value.
  size_t num_workers = 0;
  char delimiter = ',';
  /// Overrides the model's configured policy when set to a value; strict
  /// fails on the first exhausted row, lenient drops it and keeps going.
  SamplePolicy policy = SamplePolicy::kStrict;
  bool use_model_policy = true;  ///< when true, `policy` is ignored
  /// Directory for per-chunk crash-resume checkpoints (chunk-store label
  /// `oocore.emit`); empty disables. A rerun after a kill -9 replays
  /// completed chunks from the store and produces a byte-identical output
  /// file.
  std::string checkpoint_dir;
};

/// Streams `n` sampled rows from a fitted synthesizer into a CSV file,
/// chunk by chunk. Each chunk's rows split into decode units (see
/// `num_workers`); unit u decodes on slot u % num_workers with that slot's
/// BatchDecodeEngine (lockstep, one model evaluation per shared-key group)
/// and renders its own CSV text and report through the columnar
/// TableBuilder and the incremental CSV writer. Slot 0 is the calling
/// thread. The caller joins a chunk's units in unit order and commits
/// chunks strictly in chunk order: it stores each chunk's checkpoint,
/// appends its text to `output_path` and merges its report. Unit
/// u + num_workers starts only after unit u has joined its chunk, so at
/// most num_workers units, and the at most num_workers chunks they belong
/// to, are held at once, regardless of `n`.
///
/// Determinism: the call derives one stream base from Rng(seed) and lane i
/// draws from Rng::DeriveStreamSeed(base, i), exactly like
/// `Rng r(seed); model.Sample(n, &r)` — the output file holds the same
/// rows, in the same order, at ANY chunk_rows and num_workers value.
///
/// Failure: the first failing unit in row order gives its chunk's status
/// (a strict row error, with the one-worker "sampling row k of n"
/// context); the first failing chunk in chunk order (that status, an
/// injected "stream.emit_chunk" fault, a write error) ends the call with
/// the status a one-worker run returns, after the same file prefix.
/// Units and chunks decoded past it are discarded and never stored.
///
/// Crash resume: with a checkpoint directory, each committed chunk stores
/// its rendered CSV text and report delta under a key chained from the
/// model fingerprint and emission options (not the worker count). Without
/// one, the model is not serialized and nothing is hashed. The output file
/// is rewritten from scratch on every run (a partial file from a killed
/// run is simply overwritten), completed chunks replay from the store
/// without touching the model, and the finished file is byte-identical to
/// an uninterrupted run. The caller probes each chunk once, before its
/// units are handed out, and a hit skips all of them; so a failed run's
/// stream.chunk_* counters may include up to num_workers - 1 chunks past
/// the failure. Emits stream.emit.* metrics, counted at commit
/// (stream.emit.units counts decoded units, not replayed ones); the
/// returned report reconciles.
Result<SampleReport> SampleRowsToCsvStreaming(const GreatSynthesizer& model,
                                              size_t n, uint64_t seed,
                                              const std::string& output_path,
                                              const SampleEmitOptions& options);

}  // namespace greater

#endif  // GREATER_STREAM_SAMPLE_EMIT_H_
