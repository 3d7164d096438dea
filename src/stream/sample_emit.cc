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

/// One checkpoint chunk of the emission: its rows, checkpoint name and
/// chained key, and what its units leave for the committer: the chunk's
/// rendered CSV and report, restored from the store or decoded, or the
/// row error a strict policy stops on.
struct ChunkJob {
  uint64_t index = 0;
  size_t begin = 0;
  size_t end = 0;
  std::string name;
  uint64_t key = 0;
  size_t num_units = 0;
  bool replayed = false;
  Status status;
  SampleReport report;
  std::string text;
};

/// One decode unit: rows [begin, end) of one chunk, decoded and rendered
/// on one slot into its own CSV text and report.
struct UnitJob {
  ChunkJob* chunk = nullptr;
  size_t begin = 0;
  size_t end = 0;
  Status status;
  SampleReport report;
  std::string text;
};

/// One worker's private decode state, the serving layer's idiom: an
/// engine, an optional decode cache, hidden-state capacity from the
/// model's cache options, and the render buffers it reuses unit to unit.
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
  Counter& units_counter = metrics.GetCounter("stream.emit.units");

  // The chain covers everything that determines a chunk's bytes: the
  // trained model, the draw seed, and every emission option. Any change
  // flips every chunk key, so stale checkpoints can never replay. The
  // worker count only decides where units decode, so it stays out. The
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
  // neither chunking, nor splitting chunks into units, nor the worker a
  // unit lands on can shift any row's draws.
  uint64_t base = 0;
  if (n > 0) {
    Rng seed_rng(seed);
    base = GreatSynthesizer::DeriveSampleBase(&seed_rng);
  }

  // The worker count W is the only input to the unit rule. With at least
  // W chunks each chunk is one unit; with fewer, each chunk splits into
  // ceil(W / chunks) near-equal units (never more than its rows), so one
  // big chunk still decodes on every slot. Units never cross a chunk.
  const size_t num_chunks = n / chunk_rows + (n % chunk_rows != 0 ? 1 : 0);
  const size_t requested = std::max<size_t>(
      1, options.num_workers != 0 ? options.num_workers
                                  : std::thread::hardware_concurrency());
  size_t units_per_chunk = 1;
  size_t num_units = 0;
  auto units_in = [&](size_t rows) { return std::min(units_per_chunk, rows); };
  if (num_chunks > 0) {
    units_per_chunk = (requested + num_chunks - 1) / num_chunks;
    num_units = (num_chunks - 1) * units_in(chunk_rows) +
                units_in(n - (num_chunks - 1) * chunk_rows);
  }
  const size_t workers = std::clamp<size_t>(requested, 1,
                                            std::max<size_t>(1, num_units));

  // Chunks are numbered, and their keys chained, strictly in order, and
  // each is probed in the store once, on the caller, before its units are
  // handed out: a hit skips every unit of the chunk. A stored chunk that
  // does not decode is recomputed.
  uint64_t next_chunk = 0;
  auto start_chunk = [&](ChunkJob* job) {
    job->index = next_chunk++;
    job->begin = job->index * chunk_rows;
    job->end = job->begin + std::min(chunk_rows, n - job->begin);
    job->name = ChunkCheckpointName(kEmitLabel, job->index);
    job->num_units = units_in(job->end - job->begin);
    job->status = Status::OK();
    job->report = SampleReport();
    job->text.clear();
    if (!ckpt.enabled()) {
      job->replayed = false;
      return;
    }
    ByteWriter descriptor;
    descriptor.PutU64(job->index);
    descriptor.PutU64(job->begin);
    descriptor.PutU64(job->end);
    chain.Mix(descriptor.bytes());
    job->key = chain.value();
    job->replayed =
        ckpt.Restore(job->name, job->key, [&](const ArtifactReader& doc) {
          GREATER_ASSIGN_OR_RETURN(std::string_view csv_bytes,
                                   doc.Chunk("csv"));
          GREATER_ASSIGN_OR_RETURN(std::string_view report_bytes,
                                   doc.Chunk("report"));
          ByteReader r(report_bytes);
          SampleReport stored;
          GREATER_RETURN_NOT_OK(ReadSampleReport(&r, &stored));
          GREATER_RETURN_NOT_OK(r.ExpectEnd());
          job->report = stored;
          job->text.assign(csv_bytes);
          return Status::OK();
        });
  };

  // Decoder side, safe on any thread: decode and render one unit with the
  // slot's own state. It reads only the unit's row range.
  auto decode_unit = [&](UnitJob* unit, EmitDecoder* decoder) {
    unit->report = SampleReport();
    unit->text.clear();
    unit->status = [&]() -> Status {
      decoder->rows.clear();
      decoder->engine.RunChunk(unit->begin, unit->end, /*conditions=*/nullptr,
                               base, decoder->cache.get(), &decoder->decode,
                               &unit->report, span.id(), &decoder->rows);
      TableBuilder& builder = decoder->builder;
      builder.Reserve(unit->end - unit->begin);
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
            "sampling row " + std::to_string(unit->begin + i + 1) + " of " +
            std::to_string(n));
      }
      GREATER_ASSIGN_OR_RETURN(Table unit_table, builder.Build());
      AppendCsvRows(unit_table, options.delimiter, &unit->text);
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

  // Committer side, on the calling thread. A unit's text and report join
  // its chunk in unit order; the first failing unit in row order gives
  // the chunk's status and the units past it are dropped. Chunks commit
  // strictly in chunk order: the first failing chunk ends the run with
  // the serial run's status and file prefix, and only committed chunks
  // reach the store.
  auto absorb = [](ChunkJob* chunk, UnitJob* unit) {
    if (!chunk->status.ok()) return;
    chunk->status = std::move(unit->status);
    chunk->report.Merge(unit->report);
    if (chunk->text.empty()) {
      chunk->text.swap(unit->text);
    } else {
      chunk->text += unit->text;
    }
  };
  SampleReport total;
  auto commit = [&](const ChunkJob& job) -> Status {
    chunks_counter.Increment();
    if (job.replayed) {
      hits_counter.Increment();
    } else {
      GREATER_FAULT_POINT("stream.emit_chunk");
      GREATER_RETURN_NOT_OK(job.status);
      units_counter.Increment(job.num_units);
      ckpt.Store(job.name, job.key, [&](ArtifactWriter* doc) {
        doc->AddChunk("csv", job.text);
        ByteWriter w;
        AppendSampleReport(job.report, &w);
        doc->AddChunk("report", std::move(w).Take());
        return Status::OK();
      });
    }
    GREATER_RETURN_NOT_OK(WriteBlock(&out, job.text, output_path));
    rows_counter.Increment(job.report.rows_emitted);
    total.Merge(job.report);
    return Status::OK();
  };

  // Slot s decodes with decoders[s]. Slot 0 is the calling thread's: its
  // units decode inline just before they join their chunk, so one worker
  // starts no thread at all. The other slots decode on the pool, one
  // thread each, so a handed-out unit starts at once. Unit u uses slot
  // u % W, and unit u + W is handed out only once unit u has joined its
  // chunk, so no two in-flight units share a slot, at most W units are in
  // flight, and the at most W chunks they touch live in chunks[c % W].
  std::vector<std::unique_ptr<EmitDecoder>> decoders;
  for (size_t w = 0; w < workers; ++w) {
    decoders.push_back(std::make_unique<EmitDecoder>(model));
  }
  std::vector<ChunkJob> chunks(workers);
  std::vector<UnitJob> units(workers);
  std::vector<std::future<void>> pending(workers);
  // Declared last: an early return joins the pool (letting in-flight
  // units finish, unused) before anything its tasks touch goes away.
  std::optional<ThreadPool> pool;
  if (workers > 1) pool.emplace(workers - 1);
  ChunkJob* open_chunk = nullptr;  // the chunk the next unit belongs to
  size_t next_unit_in_chunk = 0;
  auto hand_out = [&](size_t slot) {
    if (open_chunk == nullptr || next_unit_in_chunk == open_chunk->num_units) {
      open_chunk = &chunks[next_chunk % workers];
      start_chunk(open_chunk);
      next_unit_in_chunk = 0;
    }
    UnitJob& unit = units[slot];
    const size_t rows = open_chunk->end - open_chunk->begin;
    unit.chunk = open_chunk;
    unit.begin = open_chunk->begin +
                 rows * next_unit_in_chunk / open_chunk->num_units;
    ++next_unit_in_chunk;
    unit.end = open_chunk->begin +
               rows * next_unit_in_chunk / open_chunk->num_units;
    if (slot == 0 || open_chunk->replayed) return;
    pending[slot] = pool->Submit(
        [&, slot] { decode_unit(&units[slot], decoders[slot].get()); });
  };
  for (size_t u = 0; u < std::min(workers, num_units); ++u) hand_out(u);
  for (size_t u = 0; u < num_units; ++u) {
    const size_t slot = u % workers;
    UnitJob& unit = units[slot];
    ChunkJob& chunk = *unit.chunk;
    if (!chunk.replayed) {
      if (slot == 0) {
        decode_unit(&unit, decoders[0].get());
      } else {
        pending[slot].get();
      }
      absorb(&chunk, &unit);
    }
    if (unit.end == chunk.end) GREATER_RETURN_NOT_OK(commit(chunk));
    if (u + workers < num_units) hand_out(slot);
  }

  out.close();
  if (!out.good()) {
    return Status::Internal("I/O error writing CSV '" + output_path + "'");
  }
  return total;
}

}  // namespace greater
