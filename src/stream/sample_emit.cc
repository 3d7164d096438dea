#include "stream/sample_emit.h"

#include <algorithm>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/artifact_io.h"
#include "common/checkpoint_store.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/thread_pool.h"
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

/// One chunk of the emission: its rows, checkpoint name and chained key.
struct ChunkJob {
  uint64_t index = 0;
  size_t begin = 0;
  size_t end = 0;
  std::string name;
  uint64_t key = 0;
};

/// What a decoder leaves for the committer: the chunk's rendered CSV and
/// report, restored from the store or freshly decoded, or the row error a
/// strict policy stops on.
struct ChunkResult {
  bool replayed = false;
  Status status;
  SampleReport report;
  std::string text;
};

/// One worker's private decode state, the serving layer's idiom: an
/// engine, an optional decode cache, hidden-state capacity from the
/// model's cache options, and the render buffers it reuses chunk to chunk.
struct EmitDecoder {
  explicit EmitDecoder(const GreatSynthesizer& model)
      : engine(model), builder(model.encoder().schema()) {
    const DecodeCacheOptions& cache_options = model.options().decode_cache;
    if (cache_options.enabled) {
      cache = std::make_unique<DecodeCache>(cache_options);
    }
    decode.hidden_cache.set_capacity(cache_options.cache_hidden_states
                                         ? cache_options.hidden_capacity
                                         : 0);
  }

  BatchDecodeEngine engine;
  std::unique_ptr<DecodeCache> cache;
  DecodeWorkspace decode;
  TableBuilder builder;
  std::vector<Result<Row>> rows;
};

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
  // flips every chunk key, so stale checkpoints can never replay. The
  // worker count only decides where chunks decode, so it stays out. The
  // model's part resumes from its memoized fingerprint, which is exactly
  // the chain after mixing its serialized bytes.
  CheckpointStore ckpt = ChunkCheckpointStore(options.checkpoint_dir);
  CheckpointChain chain;
  if (ckpt.enabled()) {
    GREATER_ASSIGN_OR_RETURN(const uint64_t model_fingerprint,
                             model.ContentFingerprint());
    chain = CheckpointChain(model_fingerprint);
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
  // neither chunking nor the worker a chunk lands on can shift any row's
  // draws.
  uint64_t base = 0;
  if (n > 0) {
    Rng seed_rng(seed);
    base = GreatSynthesizer::DeriveSampleBase(&seed_rng);
  }

  // Chunks are numbered, and their keys chained, strictly in order.
  const size_t num_chunks = n / chunk_rows + (n % chunk_rows != 0 ? 1 : 0);
  uint64_t next_chunk = 0;
  auto next_job = [&](ChunkJob* job) {
    job->index = next_chunk++;
    job->begin = job->index * chunk_rows;
    job->end = job->begin + std::min(chunk_rows, n - job->begin);
    job->name = ChunkCheckpointName(kEmitLabel, job->index);
    if (ckpt.enabled()) {
      ByteWriter descriptor;
      descriptor.PutU64(job->index);
      descriptor.PutU64(job->begin);
      descriptor.PutU64(job->end);
      chain.Mix(descriptor.bytes());
      job->key = chain.value();
    }
  };

  // Decoder side, safe on any thread: replay the chunk from the store, or
  // decode and render it with the worker's own state. A stored chunk that
  // does not decode is recomputed.
  auto decode_chunk = [&](const ChunkJob& job, EmitDecoder* decoder,
                          ChunkResult* result) {
    result->status = Status::OK();
    result->report = SampleReport();
    result->text.clear();
    result->replayed =
        ckpt.Restore(job.name, job.key, [&](const ArtifactReader& doc) {
          GREATER_ASSIGN_OR_RETURN(std::string_view csv_bytes,
                                   doc.Chunk("csv"));
          GREATER_ASSIGN_OR_RETURN(std::string_view report_bytes,
                                   doc.Chunk("report"));
          ByteReader r(report_bytes);
          SampleReport stored;
          GREATER_RETURN_NOT_OK(ReadSampleReport(&r, &stored));
          GREATER_RETURN_NOT_OK(r.ExpectEnd());
          result->report = stored;
          result->text.assign(csv_bytes);
          return Status::OK();
        });
    if (result->replayed) return;
    result->status = [&]() -> Status {
      decoder->rows.clear();
      decoder->engine.RunChunk(job.begin, job.end, /*conditions=*/nullptr,
                               base, decoder->cache.get(), &decoder->decode,
                               &result->report, span.id(), &decoder->rows);
      TableBuilder& builder = decoder->builder;
      builder.Reserve(job.end - job.begin);
      for (size_t i = 0; i < decoder->rows.size(); ++i) {
        Result<Row>& row = decoder->rows[i];
        if (row.ok()) {
          GREATER_RETURN_NOT_OK(builder.AppendRow(std::move(*row)));
          continue;
        }
        if (policy == SamplePolicy::kLenient &&
            row.status().code() == StatusCode::kResourceExhausted) {
          continue;  // dropped row, accounted as rows_exhausted
        }
        return row.status().WithContext(
            "sampling row " + std::to_string(job.begin + i + 1) + " of " +
            std::to_string(n));
      }
      GREATER_ASSIGN_OR_RETURN(Table chunk_table, builder.Build());
      AppendCsvRows(chunk_table, options.delimiter, &result->text);
      return Status::OK();
    }();
  };

  // The file is rewritten from scratch on every run: a partial file left
  // by a killed run is overwritten, and completed chunks replay from the
  // checkpoint store, so the finished file is byte-identical to an
  // uninterrupted run.
  std::ofstream out(output_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot open CSV '" + output_path +
                            "' for writing");
  }
  std::string header;
  AppendCsvHeader(model.encoder().schema(), options.delimiter, &header);
  GREATER_RETURN_NOT_OK(WriteBlock(&out, header, output_path));

  // Committer side, on the calling thread, strictly in chunk order: the
  // first failing chunk ends the run with the serial run's status and
  // file prefix, and only committed chunks reach the store.
  SampleReport total;
  auto commit = [&](const ChunkJob& job, const ChunkResult& result) -> Status {
    chunks_counter.Increment();
    if (result.replayed) {
      hits_counter.Increment();
    } else {
      GREATER_FAULT_POINT("stream.emit_chunk");
      GREATER_RETURN_NOT_OK(result.status);
      ckpt.Store(job.name, job.key, [&](ArtifactWriter* doc) {
        doc->AddChunk("csv", result.text);
        ByteWriter w;
        AppendSampleReport(result.report, &w);
        doc->AddChunk("report", std::move(w).Take());
        return Status::OK();
      });
    }
    GREATER_RETURN_NOT_OK(WriteBlock(&out, result.text, output_path));
    rows_counter.Increment(result.report.rows_emitted);
    total.Merge(result.report);
    return Status::OK();
  };

  // Slot s decodes with decoders[s]. Slot 0 is the calling thread's: its
  // chunks decode inline just before they commit, so one worker starts no
  // thread at all. The other slots decode on the pool, one thread each,
  // so a handed-out chunk starts at once. Chunk c uses slot c % workers,
  // and chunk c + workers is handed out only once chunk c has committed,
  // so no two in-flight chunks share a slot and at most `workers` chunks
  // are held at once.
  const size_t workers = std::clamp<size_t>(
      options.num_workers != 0 ? options.num_workers
                               : std::thread::hardware_concurrency(),
      1, std::max<size_t>(1, num_chunks));
  std::vector<std::unique_ptr<EmitDecoder>> decoders;
  for (size_t w = 0; w < workers; ++w) {
    decoders.push_back(std::make_unique<EmitDecoder>(model));
  }
  std::vector<ChunkJob> jobs(workers);
  std::vector<ChunkResult> results(workers);
  std::vector<std::future<void>> pending(workers);
  // Declared last: an early return joins the pool (letting in-flight
  // chunks finish, unused) before anything its tasks touch goes away.
  std::optional<ThreadPool> pool;
  if (workers > 1) pool.emplace(workers - 1);
  auto hand_out = [&](size_t slot) {
    next_job(&jobs[slot]);
    if (slot == 0) return;
    pending[slot] = pool->Submit([&, slot] {
      decode_chunk(jobs[slot], decoders[slot].get(), &results[slot]);
    });
  };
  for (size_t c = 0; c < std::min(workers, num_chunks); ++c) hand_out(c);
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t slot = c % workers;
    if (slot == 0) {
      decode_chunk(jobs[0], decoders[0].get(), &results[0]);
    } else {
      pending[slot].get();
    }
    GREATER_RETURN_NOT_OK(commit(jobs[slot], results[slot]));
    if (c + workers < num_chunks) hand_out(slot);
  }

  out.close();
  if (!out.good()) {
    return Status::Internal("I/O error writing CSV '" + output_path + "'");
  }
  return total;
}

}  // namespace greater
