#include "stream/sample_emit.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/artifact_io.h"
#include "common/checkpoint_store.h"
#include "common/fault.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "stream/csv_ingest.h"
#include "synth/batch_decode.h"
#include "tabular/csv.h"
#include "tabular/table_builder.h"

namespace greater {
namespace {

constexpr char kEmitLabel[] = "oocore.emit";

Status WriteBlock(std::ofstream* out, const std::string& bytes,
                  const std::string& path) {
  out->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out->flush();
  if (!out->good()) {
    return Status::Internal("I/O error writing CSV '" + path + "'");
  }
  return Status::OK();
}

}  // namespace

Result<SampleReport> SampleRowsToCsvStreaming(
    const GreatSynthesizer& model, size_t n, uint64_t seed,
    const std::string& output_path, const SampleEmitOptions& options) {
  Span span("stream.emit");
  if (!model.fitted()) {
    return Status::FailedPrecondition(
        "SampleRowsToCsvStreaming requires a fitted synthesizer");
  }
  const size_t chunk_rows = std::max<size_t>(1, options.chunk_rows);
  const SamplePolicy policy =
      options.use_model_policy ? model.options().policy : options.policy;

  MetricsRegistry& metrics = MetricsRegistry::Global();
  Counter& chunks_counter = metrics.GetCounter("stream.emit.chunks");
  Counter& hits_counter = metrics.GetCounter("stream.emit.checkpoint_hits");
  Counter& rows_counter = metrics.GetCounter("stream.emit.rows");

  // The chain covers everything that determines a chunk's bytes: the
  // trained model, the draw seed, and every emission option. Any change
  // flips every chunk key, so stale checkpoints can never replay.
  CheckpointStore ckpt = ChunkCheckpointStore(options.checkpoint_dir);
  CheckpointChain chain;
  if (ckpt.enabled()) {
    GREATER_ASSIGN_OR_RETURN(std::string model_bytes,
                             model.SerializeBinary());
    chain.Mix(model_bytes);
    ByteWriter fp;
    fp.PutU64(n);
    fp.PutU64(seed);
    fp.PutU64(chunk_rows);
    fp.PutU8(static_cast<uint8_t>(options.delimiter));
    fp.PutBool(policy == SamplePolicy::kLenient);
    chain.Mix(fp.bytes());
  }

  // Same base derivation as Sample: `Rng r(seed)` would hand this base to
  // every chunk, and lane i derives its private stream from (base, i) —
  // chunking cannot shift any row's draws.
  uint64_t base = 0;
  if (n > 0) {
    Rng seed_rng(seed);
    base = GreatSynthesizer::DeriveSampleBase(&seed_rng);
  }

  // External decode workspace, the serving layer's per-worker idiom: one
  // engine, an optional private decode cache, hidden-state capacity from
  // the model's cache options.
  BatchDecodeEngine engine(model);
  std::unique_ptr<DecodeCache> cache;
  const DecodeCacheOptions& cache_options = model.options().decode_cache;
  if (cache_options.enabled) {
    cache = std::make_unique<DecodeCache>(cache_options);
  }
  DecodeWorkspace decode;
  decode.hidden_cache.set_capacity(cache_options.cache_hidden_states
                                       ? cache_options.hidden_capacity
                                       : 0);

  // The file is rewritten from scratch on every run: a partial file left
  // by a killed run is overwritten, and completed chunks replay from the
  // checkpoint store, so the finished file is byte-identical to an
  // uninterrupted run.
  std::ofstream out(output_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot open CSV '" + output_path +
                            "' for writing");
  }
  std::string text;
  AppendCsvHeader(model.encoder().schema(), options.delimiter, &text);
  GREATER_RETURN_NOT_OK(WriteBlock(&out, text, output_path));

  SampleReport total;
  TableBuilder builder(model.encoder().schema());
  std::vector<Result<Row>> rows;
  uint64_t chunk_index = 0;
  for (size_t begin = 0; begin < n; begin += chunk_rows, ++chunk_index) {
    const size_t end = std::min(n, begin + chunk_rows);
    chunks_counter.Increment();

    const std::string name = ChunkCheckpointName(kEmitLabel, chunk_index);
    uint64_t key = 0;
    if (ckpt.enabled()) {
      ByteWriter descriptor;
      descriptor.PutU64(chunk_index);
      descriptor.PutU64(begin);
      descriptor.PutU64(end);
      chain.Mix(descriptor.bytes());
      key = chain.value();
    }

    SampleReport chunk_report;
    text.clear();
    // A stored chunk that does not decode is recomputed.
    const bool replayed =
        ckpt.Restore(name, key, [&](const ArtifactReader& doc) -> Status {
          GREATER_ASSIGN_OR_RETURN(std::string_view csv_bytes,
                                   doc.Chunk("csv"));
          GREATER_ASSIGN_OR_RETURN(std::string_view report_bytes,
                                   doc.Chunk("report"));
          ByteReader r(report_bytes);
          SampleReport stored;
          GREATER_RETURN_NOT_OK(ReadSampleReport(&r, &stored));
          GREATER_RETURN_NOT_OK(r.ExpectEnd());
          chunk_report = stored;
          text.assign(csv_bytes);
          return Status::OK();
        });
    if (replayed) {
      hits_counter.Increment();
    } else {
      GREATER_FAULT_POINT("stream.emit_chunk");
      rows.clear();
      engine.RunChunk(begin, end, /*conditions=*/nullptr, base, cache.get(),
                      &decode, &chunk_report, span.id(), &rows);
      builder.Reserve(end - begin);
      for (size_t i = 0; i < rows.size(); ++i) {
        Result<Row>& row = rows[i];
        if (row.ok()) {
          GREATER_RETURN_NOT_OK(builder.AppendRow(std::move(*row)));
          continue;
        }
        if (policy == SamplePolicy::kLenient &&
            row.status().code() == StatusCode::kResourceExhausted) {
          continue;  // dropped row, accounted as rows_exhausted
        }
        return row.status().WithContext(
            "sampling row " + std::to_string(begin + i + 1) + " of " +
            std::to_string(n));
      }
      GREATER_ASSIGN_OR_RETURN(Table chunk_table, builder.Build());
      AppendCsvRows(chunk_table, options.delimiter, &text);
      ckpt.Store(name, key, [&](ArtifactWriter* doc) {
        doc->AddChunk("csv", text);
        ByteWriter w;
        AppendSampleReport(chunk_report, &w);
        doc->AddChunk("report", std::move(w).Take());
        return Status::OK();
      });
    }

    GREATER_RETURN_NOT_OK(WriteBlock(&out, text, output_path));
    rows_counter.Increment(chunk_report.rows_emitted);
    total.Merge(chunk_report);
  }

  out.close();
  if (!out.good()) {
    return Status::Internal("I/O error writing CSV '" + output_path + "'");
  }
  return total;
}

}  // namespace greater
