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
  /// Rows decoded, rendered, and flushed per chunk — the emission-side
  /// memory bound. One chunk of rows is the most ever held in memory.
  size_t chunk_rows = 1024;
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
/// chunk by chunk: each chunk is decoded by a BatchDecodeEngine (lockstep,
/// one model evaluation per shared-key group), assembled through the
/// columnar TableBuilder, rendered with the incremental CSV writer, and
/// appended to `output_path` before the next chunk starts — so peak memory
/// is one chunk of rows regardless of `n`.
///
/// Determinism: the call derives one stream base from Rng(seed) and lane i
/// draws from Rng::DeriveStreamSeed(base, i), exactly like
/// `Rng r(seed); model.Sample(n, &r)` — the output file holds the same
/// rows, in the same order, at ANY chunk_rows value.
///
/// Crash resume: with a checkpoint directory, each completed chunk stores
/// its rendered CSV text and report delta under a key chained from the
/// model fingerprint and emission options. Without one, the model is not
/// serialized and nothing is hashed. The output file is rewritten
/// from scratch on every run (a partial file from a killed run is simply
/// overwritten), completed chunks replay from the store without touching
/// the model, and the finished file is byte-identical to an uninterrupted
/// run. Emits stream.emit.* metrics; the returned report reconciles.
Result<SampleReport> SampleRowsToCsvStreaming(const GreatSynthesizer& model,
                                              size_t n, uint64_t seed,
                                              const std::string& output_path,
                                              const SampleEmitOptions& options);

}  // namespace greater

#endif  // GREATER_STREAM_SAMPLE_EMIT_H_
