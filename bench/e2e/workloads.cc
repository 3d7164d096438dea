// The four end-to-end workloads. Each one generates its inputs from the
// seed (datagen, outside every timed region), builds its reusable state,
// times operations through the library's public API for the configured
// number of seconds, and checks its outputs against an independent oracle
// after timing ends. See README.md for why each workload exists and which
// layer it stresses.

#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <string>
#include <utility>
#include <vector>

#include "common/artifact_io.h"
#include "crosstable/checkpoint.h"
#include "crosstable/pipeline.h"
#include "datagen/digix.h"
#include "obs/span.h"
#include "serve/synthesis_server.h"
#include "serve/workload.h"
#include "stream/csv_ingest.h"
#include "stream/fit_stage.h"
#include "stream/sample_emit.h"
#include "synth/streaming_synthesis.h"
#include "tabular/csv.h"

namespace greater {
namespace e2e {
namespace {

namespace fs = std::filesystem;

// Independent seed streams derived from --seed.
enum SeedStream : uint64_t {
  kDataSeed = 1,
  kFitSeed = 2,
  kSampleSeed = 3,
  kRequestSeed = 4,
};

uint64_t DeriveSeed(const Config& config, SeedStream stream,
                    uint64_t index = 0) {
  return Rng::DeriveStreamSeed(Rng::DeriveStreamSeed(config.seed, stream),
                               index);
}

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

std::string WorkPath(const Config& config, const std::string& name) {
  return (fs::path(config.work_dir) / name).string();
}

/// Exactly `rows` DIGIX-like ads rows (no identifier columns) written to
/// CSV one generated slice of `slice_users` subjects at a time, so the
/// input never sits in memory whole and its size does not vary with the
/// seed.
Status WriteAdsCsv(const std::string& path, uint64_t rows,
                   size_t slice_users, uint64_t seed) {
  DigixOptions options;
  options.num_users = slice_users;
  options.include_identifier_columns = false;
  DigixGenerator generator(options);
  Rng rng(seed);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  std::string text;
  for (uint64_t written = 0; written < rows;) {
    GREATER_ASSIGN_OR_RETURN(DigixDataset slice, generator.Generate(&rng));
    const size_t take = static_cast<size_t>(
        std::min<uint64_t>(slice.ads.num_rows(), rows - written));
    std::vector<size_t> keep(take);
    for (size_t i = 0; i < take; ++i) keep[i] = i;
    text.clear();
    if (written == 0) AppendCsvHeader(slice.ads.schema(), ',', &text);
    AppendCsvRows(slice.ads.TakeRows(keep), ',', &text);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    written += take;
  }
  out.close();
  if (!out.good()) return Status::Internal("cannot write '" + path + "'");
  return Status::OK();
}

void SetAcceptExtras(const SampleReport& report, uint64_t operations,
                     LayerExtras* extras) {
  extras->accept_ratio =
      report.attempts > 0 ? static_cast<double>(report.rows_emitted) /
                                static_cast<double>(report.attempts)
                          : 0.0;
  extras->attempts_per_op = static_cast<double>(report.attempts) /
                            static_cast<double>(std::max<uint64_t>(1, operations));
}

// ---------------------------------------------------------------------------
// Closed-loop batch runner shared by oocore_fit, emit_decode and
// pipeline_greater.

struct BatchSpec {
  /// Builds the state every operation reuses; empty when there is none.
  std::function<Status()> setup;
  /// Untimed preparation of operation `index` (fresh directories, cold
  /// copies).
  std::function<void(size_t index, bool traced)> prepare;
  /// One operation. `traced` selects the composed, span-annotated form.
  std::function<Status(size_t index, bool traced)> run;
  /// Untimed per-operation checks and clean-up; `timed` is false for the
  /// set-up's warm-up operation.
  std::function<void(size_t index, bool timed, RunResult* result)> after;
};

struct BatchTimes {
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<double> setup_s;
};

/// Runs kSetups set-ups (state build plus one untimed warm-up operation
/// each), then operations until `config.seconds` have passed. A trace run
/// alternates untraced and traced operations: the traced ones feed `log`,
/// the ratio of the two medians is the tracing overhead.
BatchTimes RunBatch(const Config& config, const BatchSpec& spec,
                    TraceLog* log, RunResult* result) {
  BatchTimes times;
  MetricsRegistry& registry = MetricsRegistry::Global();
  size_t index = 0;
  for (int i = 0; i < kSetups; ++i, ++index) {
    registry.Reset();
    if (spec.prepare) spec.prepare(index, false);
    const Clock::time_point start = Clock::now();
    Status status = spec.setup ? spec.setup() : Status::OK();
    if (status.ok()) status = spec.run(index, false);
    times.setup_s.push_back(SecondsSince(start));
    TallyStatus(status, "set-up " + std::to_string(i), result);
    if (spec.after) spec.after(index, false, result);
  }

  const size_t min_ops = config.smoke ? 2 : 5;
  const Clock::time_point start = Clock::now();
  uint64_t export_offset_ns = 0;
  for (size_t k = 0; k < min_ops || SecondsSince(start) < config.seconds;
       ++k, ++index) {
    const bool traced = config.trace && k % 2 == 1;
    registry.Reset();
    if (spec.prepare) spec.prepare(index, traced);
    uint64_t root_id = 0;
    const Clock::time_point op_start = Clock::now();
    Status status;
    if (traced) {
      Span root("bench.op");
      root_id = root.id();
      status = spec.run(index, true);
    } else {
      status = spec.run(index, false);
    }
    const double ms = SecondsSince(op_start) * 1e3;
    (traced ? times.traced_ms : times.untraced_ms).push_back(ms);
    TallyStatus(status, "operation " + std::to_string(k), result);
    if (traced) {
      MetricsSnapshot snapshot = registry.Snapshot();
      log->AddOperation(snapshot.spans, root_id, CounterMap(snapshot));
      // Span ids and the clock restart at every Reset; shift both so the
      // exported operations sit side by side.
      uint64_t root_start_ns = 0;
      for (const SpanRecord& span : snapshot.spans) {
        if (span.id == root_id) root_start_ns = span.start_ns;
      }
      std::vector<SpanRecord> shifted;
      for (SpanRecord span : snapshot.spans) {
        if (span.start_ns < root_start_ns) continue;
        span.start_ns = span.start_ns - root_start_ns + export_offset_ns;
        span.id += index << 32;
        if (span.parent_id != 0) span.parent_id += index << 32;
        shifted.push_back(std::move(span));
      }
      if (log->operations() <= 4) log->KeepForExport(shifted);
      export_offset_ns += static_cast<uint64_t>(ms * 1e6) + 1000000;
    }
    if (spec.after) spec.after(index, true, result);
  }
  return times;
}

/// End-to-end metrics of a batch workload (untraced run).
std::vector<Metric> BatchMetrics(const BatchTimes& times, double peak_rss_mb) {
  double total_ms = 0.0;
  std::printf("# operation ms:");
  for (double ms : times.untraced_ms) {
    total_ms += ms;
    std::printf(" %.1f", ms);
  }
  std::printf("\n# set-up s:");
  for (double s : times.setup_s) std::printf(" %.3f", s);
  std::printf("\n");
  return {
      {"op_p50_ms", Median(times.untraced_ms), "ms"},
      {"ops_per_s",
       total_ms > 0 ? static_cast<double>(times.untraced_ms.size()) /
                          (total_ms / 1e3)
                    : 0.0,
       "1/s"},
      {"setup_s", Median(times.setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };
}

/// A batch run's metrics: end-to-end when untraced, per-layer when traced.
/// `timed_report` pools the sampling reports of the timed operations.
std::vector<Metric> BatchRunMetrics(const Config& config,
                                    const BatchTimes& times,
                                    const SampleReport& timed_report,
                                    const TraceLog& log, double peak_rss_mb,
                                    LayerExtras extras = LayerExtras()) {
  if (!config.trace) return BatchMetrics(times, peak_rss_mb);
  const double untraced = Median(times.untraced_ms);
  extras.trace_overhead_ratio =
      untraced > 0 ? Median(times.traced_ms) / untraced : 0.0;
  SetAcceptExtras(timed_report,
                  times.untraced_ms.size() + times.traced_ms.size(), &extras);
  return LayerMetrics(log, extras);
}

// ---------------------------------------------------------------------------
// oocore_fit: CSV -> synthetic CSV, out of core, durable.

/// A chunk source whose pass opens and chunk pulls each run in a span, so
/// FitStreaming's self time is the fit's own compute.
TableChunkSource TracedSource(TableChunkSource inner) {
  return [inner]() -> Result<TableChunkStream> {
    Result<TableChunkStream> opened = [&] {
      Span span("stream.ChunkSource.open");
      return inner();
    }();
    if (!opened.ok()) return opened.status();
    return TableChunkStream(
        [next = std::move(opened).ValueOrDie()]() {
          Span span("stream.ChunkSource.pull");
          return next();
        });
  };
}

/// RunFromCsvStreaming composed from its public parts, one span per call:
/// FitStage::Open, the model stage checkpoint probe, FitStreaming over the
/// traced source, SerializeBinary plus StageCheckpointer::Store, then
/// SampleRowsToCsvStreaming. Every directory is fresh, so only the miss
/// path runs; its output is byte-identical to RunFromCsvStreaming's.
Result<SampleReport> ComposedStreamingRun(
    const std::string& input, const std::string& output, size_t rows,
    const StreamingSynthesisOptions& options) {
  FitStage::Options stage_options;
  stage_options.csv = options.csv;
  stage_options.stream = options.stream;
  stage_options.policy = options.ingest_policy;
  stage_options.checkpoint_dir = options.checkpoint_dir;
  Result<FitStage> stage = [&] {
    Span span("stream.FitStage::Open");
    return FitStage::Open(input, stage_options);
  }();
  GREATER_RETURN_NOT_OK(stage.status());

  StageCheckpointer ckpt(options.checkpoint_dir);
  {
    Span span("common.StageCheckpointer::TryLoad");
    ByteWriter fp;
    GreatSynthesizer::AppendOptionsTo(options.synthesizer, &fp);
    fp.PutU64(options.fit_seed);
    fp.PutU64(stage->content_chain());
    ckpt.Mix(fp.bytes());
    if (ckpt.TryLoad("oocore.model").has_value()) {
      return Status::FailedPrecondition(
          "model checkpoint present in a fresh directory");
    }
  }

  GreatSynthesizer model(options.synthesizer);
  {
    Span span("synth.FitStreaming");
    Rng fit_rng(options.fit_seed);
    GREATER_RETURN_NOT_OK(
        model.FitStreaming(TracedSource(stage->ChunkSource()), &fit_rng));
  }
  Result<std::string> bytes = [&] {
    Span span("synth.SerializeBinary");
    return model.SerializeBinary();
  }();
  GREATER_RETURN_NOT_OK(bytes.status());
  {
    Span span("common.StageCheckpointer::Store");
    ArtifactWriter doc(StageCheckpointer::kKind, StageCheckpointer::kVersion);
    doc.AddChunk("model", std::move(bytes).ValueOrDie());
    ckpt.Store("oocore.model", doc);
  }

  SampleEmitOptions emit;
  emit.chunk_rows = options.emit_chunk_rows;
  emit.delimiter = options.csv.delimiter;
  emit.use_model_policy = true;
  emit.checkpoint_dir = options.checkpoint_dir;
  Result<SampleReport> report = [&] {
    Span span("stream.SampleRowsToCsvStreaming");
    return SampleRowsToCsvStreaming(model, rows, options.sample_seed, output,
                                    emit);
  }();
  // Freeing the fitted model's count tables is part of the run, too.
  Span span("synth.~GreatSynthesizer");
  model = GreatSynthesizer();
  return report;
}

RunResult RunOocoreFit(const Config& config, TraceLog* log) {
  RunResult result;
  const std::string input = WorkPath(config, "oocore_input.csv");
  const std::string output = WorkPath(config, "oocore_output.csv");
  const uint64_t input_rows = config.smoke ? 3000 : 50000;
  const size_t sample_rows = config.smoke ? 100 : 1000;
  TallyStatus(WriteAdsCsv(input, input_rows, config.smoke ? 300 : 2000,
                          DeriveSeed(config, kDataSeed)),
              "input generation", &result);

  StreamingSynthesisOptions options;
  options.synthesizer.num_fit_shards = 2;
  options.stream.chunk_rows = config.smoke ? 512 : 4096;
  options.stream.num_workers = 2;
  options.fit_seed = DeriveSeed(config, kFitSeed);
  options.sample_seed = DeriveSeed(config, kSampleSeed);

  auto ckpt_dir = [&](size_t index) {
    return WorkPath(config, "oocore_ckpt_" + std::to_string(index));
  };
  SampleReport report;
  SampleReport timed_report;
  std::string first_output;

  BatchSpec spec;
  spec.prepare = [&](size_t index, bool) {
    options.checkpoint_dir = ckpt_dir(index);
  };
  spec.run = [&](size_t, bool traced) -> Status {
    if (traced) {
      GREATER_ASSIGN_OR_RETURN(
          report, ComposedStreamingRun(input, output, sample_rows, options));
      return Status::OK();
    }
    GREATER_ASSIGN_OR_RETURN(
        StreamingSynthesisResult run,
        RunFromCsvStreaming(input, output, sample_rows, options));
    report = run.sample;
    return Status::OK();
  };
  spec.after = [&](size_t index, bool timed, RunResult* r) {
    std::error_code ignored;
    fs::remove_all(ckpt_dir(index), ignored);
    if (!timed) return;
    timed_report.Merge(report);
    Result<std::string> bytes = ReadWholeFile(output);
    if (first_output.empty() && bytes.ok()) first_output = *bytes;
    Tally(bytes.ok() && report.Reconciles() && *bytes == first_output,
          "oocore_fit run " + std::to_string(index) +
              " output differs from the first run",
          r);
  };
  BatchTimes times = RunBatch(config, spec, log, &result);
  const double peak_rss_mb = PeakRssMb();

  // Oracle: in-memory ReadCsvFile + Fit + Sample of the same rows, rendered
  // whole, must equal the streamed output byte for byte.
  {
    Result<Table> table = ReadCsvFile(input, options.csv);
    GreatSynthesizer model(options.synthesizer);
    Rng fit_rng(options.fit_seed);
    Status status = table.status();
    if (status.ok()) status = model.Fit(*table, &fit_rng);
    Rng sample_rng(options.sample_seed);
    Result<Table> sample = status.ok() ? model.Sample(sample_rows, &sample_rng)
                                       : Result<Table>(status);
    Tally(sample.ok() && WriteCsvString(*sample) == first_output,
          "oocore_fit output differs from in-memory Fit + Sample", &result);
  }

  result.metrics =
      BatchRunMetrics(config, times, timed_report, *log, peak_rss_mb);
  return result;
}

// ---------------------------------------------------------------------------
// emit_decode: batch-engine decode plus render and write, no ingest.

RunResult RunEmitDecode(const Config& config, TraceLog* log) {
  RunResult result;
  const std::string input = WorkPath(config, "emit_train.csv");
  const std::string output = WorkPath(config, "emit_output.csv");
  const size_t emit_rows = config.smoke ? 256 : 4096;
  const size_t oracle_rows = std::min<size_t>(1000, emit_rows);
  TallyStatus(WriteAdsCsv(input, config.smoke ? 1500 : 20000,
                          config.smoke ? 300 : 2000,
                          DeriveSeed(config, kDataSeed)),
              "input generation", &result);

  GreatSynthesizer::Options synth_options;
  synth_options.batch_rows = 1024;
  SampleEmitOptions emit;
  emit.chunk_rows = 1024;

  std::unique_ptr<GreatSynthesizer> model;
  std::string model_bytes;
  GreatSynthesizer cold(synth_options);  // traced form's fresh-cache copy
  SampleReport report;
  SampleReport timed_report;
  // (seed, output) of the first two timed operations, for the oracle.
  std::vector<std::pair<uint64_t, std::string>> kept;

  BatchSpec spec;
  spec.setup = [&]() -> Status {
    GREATER_ASSIGN_OR_RETURN(Table table, ReadCsvFile(input));
    model = std::make_unique<GreatSynthesizer>(synth_options);
    Rng fit_rng(DeriveSeed(config, kFitSeed));
    return model->Fit(table, &fit_rng);
  };
  spec.prepare = [&](size_t, bool traced) {
    // SampleRowsToCsvStreaming decodes with a fresh cache per call; the
    // traced form samples from a freshly loaded copy to match.
    if (!traced) return;
    if (model_bytes.empty()) model_bytes = *model->SerializeBinary();
    cold = GreatSynthesizer(synth_options);
    (void)cold.DeserializeBinary(model_bytes);
  };
  spec.run = [&](size_t index, bool traced) -> Status {
    const uint64_t seed = DeriveSeed(config, kSampleSeed, index);
    if (!traced) {
      GREATER_ASSIGN_OR_RETURN(
          report, SampleRowsToCsvStreaming(*model, emit_rows, seed, output, emit));
      return Status::OK();
    }
    // The same work as the emitter, one span per layer: the model
    // fingerprint it hashes, the decode, the render, the write.
    {
      Span span("synth.SerializeBinary");
      GREATER_RETURN_NOT_OK(model->SerializeBinary().status());
    }
    report = SampleReport();
    Result<Table> table = [&] {
      Span span("synth.SampleRows");
      Rng rng(seed);
      return cold.SampleRows(emit_rows, &rng, nullptr, &report);
    }();
    GREATER_RETURN_NOT_OK(table.status());
    std::string text;
    {
      Span span("tabular.WriteCsvString");
      text = WriteCsvString(*table, emit.delimiter);
    }
    Span span("tabular.write");
    return WriteWholeFile(output, text);
  };
  spec.after = [&](size_t index, bool timed, RunResult* r) {
    if (!timed) return;
    timed_report.Merge(report);
    Tally(report.Reconciles() && report.rows_emitted == emit_rows,
          "emit_decode report does not reconcile", r);
    if (kept.size() < 2) {
      Result<std::string> bytes = ReadWholeFile(output);
      kept.emplace_back(DeriveSeed(config, kSampleSeed, index),
                        bytes.ok() ? *bytes : std::string());
    }
  };
  BatchTimes times = RunBatch(config, spec, log, &result);
  const double peak_rss_mb = PeakRssMb();

  // Oracle: a batch_rows=1 twin (the per-row decoder) fitted the same way;
  // the first rows of each kept emission equal the twin's Sample.
  {
    Result<Table> table = ReadCsvFile(input);
    GreatSynthesizer::Options twin_options = synth_options;
    twin_options.batch_rows = 1;
    GreatSynthesizer twin(twin_options);
    Rng fit_rng(DeriveSeed(config, kFitSeed));
    Status status = table.status();
    if (status.ok()) status = twin.Fit(*table, &fit_rng);
    for (const auto& [seed, bytes] : kept) {
      Rng rng(seed);
      Result<Table> expected = status.ok() ? twin.Sample(oracle_rows, &rng)
                                           : Result<Table>(status);
      const std::string text =
          expected.ok() ? WriteCsvString(*expected) : std::string();
      Tally(!text.empty() && bytes.compare(0, text.size(), text) == 0,
            "emit_decode rows differ from the per-row decoder", &result);
    }
  }

  result.metrics =
      BatchRunMetrics(config, times, timed_report, *log, peak_rss_mb);
  return result;
}

// ---------------------------------------------------------------------------
// pipeline_greater: the paper's multi-table pipeline over DIGIX trials.

/// Same settings as the fidelity sweeps (bench/bench_util.h,
/// SweepSynthOptions): the fixed training budget stands in for the paper's
/// constrained fine-tuning, free-value decoding matches GReaT.
PipelineOptions GreaterPipelineOptions() {
  PipelineOptions options;
  options.fusion = FusionMethod::kGreaterMedianThreshold;
  options.semantic = SemanticMode::kUnderstandability;
  options.apply_caret_transform = true;
  options.synth.encoder.permutations_per_row = 2;
  options.synth.max_training_sequences = 700;
  options.synth.constrain_values_to_column = false;
  options.stream.enabled = true;
  options.stream.chunk_rows = 256;
  return options;
}

std::string RenderPipeline(const PipelineResult& run) {
  return WriteCsvString(run.synthetic_parent) + "\n" +
         WriteCsvString(run.synthetic_flat);
}

RunResult RunPipelineGreater(const Config& config, TraceLog* log) {
  RunResult result;
  const size_t num_trials = config.smoke ? 1 : 8;
  DigixOptions data_options;
  data_options.num_users = config.smoke ? 30 : 110;
  // CSV carries no semantic types, so RunFromCsv cannot recognise the
  // identifier columns the paper drops (Sec. 4.1.2) and would synthesize
  // them as high-cardinality categories; leave them out of the inputs.
  data_options.include_identifier_columns = false;
  std::vector<std::pair<std::string, std::string>> files;
  {
    Rng rng(DeriveSeed(config, kDataSeed));
    Result<std::vector<DigixDataset>> trials =
        DigixGenerator(data_options).GenerateTrials(num_trials, &rng);
    TallyStatus(trials.status(), "input generation", &result);
    for (size_t t = 0; trials.ok() && t < trials->size(); ++t) {
      files.emplace_back(WorkPath(config, "ads_" + std::to_string(t) + ".csv"),
                         WorkPath(config, "feeds_" + std::to_string(t) + ".csv"));
      TallyStatus(WriteCsvFile((*trials)[t].ads, files[t].first),
                  "input write", &result);
      TallyStatus(WriteCsvFile((*trials)[t].feeds, files[t].second),
                  "input write", &result);
    }
  }
  if (files.empty()) return result;

  const PipelineOptions options = GreaterPipelineOptions();
  const MultiTablePipeline pipeline(options);
  const std::string key = DigixGenerator::KeyColumn();
  auto trial_seed = [&](size_t trial) {
    return DeriveSeed(config, kSampleSeed, trial);
  };

  PipelineResult last;
  SampleReport timed_report;
  std::vector<std::string> first_output(num_trials);
  size_t oracle_trial = num_trials;  // trial of the first timed pass
  LayerExtras extras;

  BatchSpec spec;
  spec.run = [&](size_t index, bool traced) -> Status {
    const size_t trial = index % num_trials;
    Rng rng(trial_seed(trial));
    if (!traced) {
      GREATER_ASSIGN_OR_RETURN(
          last, pipeline.RunFromCsv(files[trial].first, files[trial].second,
                                    key, &rng));
      return Status::OK();
    }
    // RunFromCsv composed: both streaming reads, then Run.
    Table child[2];
    const std::string* paths[2] = {&files[trial].first, &files[trial].second};
    for (int c = 0; c < 2; ++c) {
      Span span("stream.ReadCsvFileStreaming");
      GREATER_ASSIGN_OR_RETURN(
          child[c], ReadCsvFileStreaming(*paths[c], CsvReadOptions(),
                                         options.stream, StreamPolicy::kStrict));
    }
    Span span("crosstable.MultiTablePipeline::Run");
    GREATER_ASSIGN_OR_RETURN(last, pipeline.Run(child[0], child[1], key, &rng));
    return Status::OK();
  };
  spec.after = [&](size_t index, bool timed, RunResult* r) {
    if (!timed) return;
    const size_t trial = index % num_trials;
    timed_report.Merge(last.sample_report);
    extras.flattened_rows = static_cast<double>(last.flattened_rows);
    extras.fused_training_rows = static_cast<double>(last.fused_training_rows);
    std::string rendered = RenderPipeline(last);
    if (oracle_trial == num_trials) oracle_trial = trial;
    if (first_output[trial].empty()) first_output[trial] = rendered;
    Tally(last.sample_report.Reconciles() && rendered == first_output[trial],
          "pipeline_greater trial " + std::to_string(trial) +
              " output differs from its first pass",
          r);
  };
  BatchTimes times = RunBatch(config, spec, log, &result);
  const double peak_rss_mb = PeakRssMb();

  // Oracle: one trial in memory, streaming off, equals the streamed run.
  if (oracle_trial < num_trials) {
    PipelineOptions in_memory = options;
    in_memory.stream.enabled = false;
    Result<Table> ads = ReadCsvFile(files[oracle_trial].first);
    Result<Table> feeds = ReadCsvFile(files[oracle_trial].second);
    Rng rng(trial_seed(oracle_trial));
    Result<PipelineResult> run =
        ads.ok() && feeds.ok()
            ? MultiTablePipeline(in_memory).Run(*ads, *feeds, key, &rng)
            : Result<PipelineResult>(Status::Internal("cannot read trial"));
    Tally(run.ok() && RenderPipeline(*run) == first_output[oracle_trial],
          "pipeline_greater streaming run differs from the in-memory run",
          &result);
  }

  result.metrics =
      BatchRunMetrics(config, times, timed_report, *log, peak_rss_mb, extras);
  return result;
}

// ---------------------------------------------------------------------------
// serve_zipf: multi-tenant SynthesisServer under a Zipfian request mix.

constexpr size_t kNumTenants = 4;
constexpr size_t kServeWorkers = 2;
constexpr size_t kClosedLoopOutstanding = 64;
/// One request in this many is checked against the direct call (and, in
/// a trace run, gets a request span).
constexpr uint64_t kSampleEvery = 64;
/// Offered load of the open loop, requests per second.
constexpr double kOpenLoopRate = 30000.0;
constexpr int kWindows = 3;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// A served request kept for the oracle, with a hash of its rendered
/// rows (keeping every sampled table would dominate the run's memory).
struct Served {
  SampleRequest request;
  size_t csv_hash = 0;
};

size_t CsvHash(const Table& table) {
  return std::hash<std::string>()(WriteCsvString(table));
}

/// Tally for one served request; the message is built only on failure.
void TallyRequest(const Result<Table>& served, uint64_t index,
                  RunResult* result) {
  if (served.ok()) {
    ++result->attempted;
  } else {
    Tally(false, "request " + std::to_string(index) + ": " +
                     served.status().ToString(),
          result);
  }
}

struct Tenants {
  std::vector<std::shared_ptr<const GreatSynthesizer>> models;
  std::vector<TenantProfile> profiles;
};

Result<Tenants> FitTenants(const std::vector<std::string>& paths,
                           const Config& config) {
  Tenants tenants;
  CsvReadOptions csv;
  csv.infer_types = false;  // categorical strings, conditionable by value
  for (size_t i = 0; i < paths.size(); ++i) {
    GREATER_ASSIGN_OR_RETURN(Table table, ReadCsvFile(paths[i], csv));
    auto model = std::make_shared<GreatSynthesizer>();
    Rng fit_rng(DeriveSeed(config, kFitSeed, i));
    GREATER_RETURN_NOT_OK(model->Fit(table, &fit_rng));
    TenantProfile profile;
    profile.name = "tenant" + std::to_string(i);
    profile.cond_column = "age";
    GREATER_ASSIGN_OR_RETURN(std::vector<Value> ages,
                             table.DistinctValues("age"));
    for (const Value& age : ages) profile.cond_values.push_back(age.ToDisplayString());
    tenants.models.push_back(std::move(model));
    tenants.profiles.push_back(std::move(profile));
  }
  return tenants;
}

Result<std::unique_ptr<SynthesisServer>> StartServer(const Tenants& tenants) {
  ServeOptions options;
  options.num_workers = kServeWorkers;
  options.max_lanes_per_batch = 32;
  auto server = std::make_unique<SynthesisServer>(options);
  for (size_t i = 0; i < tenants.models.size(); ++i) {
    GREATER_RETURN_NOT_OK(
        server->AddTenant(tenants.profiles[i].name, tenants.models[i]));
  }
  GREATER_RETURN_NOT_OK(server->Start());
  return server;
}

/// Closed loop: kClosedLoopOutstanding requests in flight, a new one
/// submitted as the oldest completes.
class ClosedLoop {
 public:
  ClosedLoop(SynthesisServer* server, WorkloadGenerator* generator,
             RunResult* result, std::vector<Served>* kept)
      : server_(server), generator_(generator), result_(result), kept_(kept) {}

  /// Runs for `seconds`; returns completed requests per second. Server
  /// latencies (µs) go to `latency_us` when given; a traced loop opens a
  /// request span for every kSampleEvery-th request.
  double Run(double seconds, bool traced, std::vector<double>* latency_us) {
    Fill(traced);
    const Clock::time_point start = Clock::now();
    uint64_t completed = 0;
    while (SecondsSince(start) < seconds) {
      Complete(latency_us);
      ++completed;
      Submit(traced);
    }
    return static_cast<double>(completed) / SecondsSince(start);
  }

  /// Completes `count` requests, keeping the loop full.
  void RunRequests(size_t count) {
    Fill(false);
    for (size_t i = 0; i < count; ++i) {
      Complete(nullptr);
      Submit(false);
    }
  }

  void Drain() {
    while (!inflight_.empty()) Complete(nullptr);
  }

  /// Sampling accounts of every completed request.
  const SampleReport& report() const { return report_; }

 private:
  struct InFlight {
    uint64_t index = 0;
    SampleRequest request;
    std::shared_ptr<RequestTicket> ticket;
    uint64_t span_id = 0;      // request span (traced, sampled) or 0
    uint64_t span_start = 0;   // registry clock
  };

  void Fill(bool traced) {
    while (inflight_.size() < kClosedLoopOutstanding) Submit(traced);
  }

  void Submit(bool traced) {
    InFlight f;
    f.index = next_index_++;
    f.request = generator_->Next();
    MetricsRegistry& registry = MetricsRegistry::Global();
    if (traced && f.index % kSampleEvery == 0) {
      f.span_id = registry.NextSpanId();
      f.span_start = registry.NowNs();
      Span span("serve.Submit", f.span_id);
      f.ticket = server_->Submit(f.request);
    } else {
      f.ticket = server_->Submit(f.request);
    }
    inflight_.push_back(std::move(f));
  }

  void Complete(std::vector<double>* latency_us) {
    InFlight f = std::move(inflight_.front());
    inflight_.pop_front();
    const Result<Table>& served = f.ticket->Wait();
    TallyRequest(served, f.index, result_);
    report_.Merge(f.ticket->report());
    if (latency_us != nullptr) {
      latency_us->push_back(static_cast<double>(f.ticket->latency_us()));
    }
    if (f.span_id != 0) {
      SpanRecord record;
      record.id = f.span_id;
      record.name = "bench.request";
      record.start_ns = f.span_start;
      record.duration_ns = f.ticket->latency_us() * 1000;
      MetricsRegistry::Global().RecordSpan(std::move(record));
    }
    if (served.ok() && f.index % kSampleEvery == 0) {
      kept_->push_back(Served{std::move(f.request), CsvHash(*served)});
    }
  }

  SynthesisServer* server_;
  WorkloadGenerator* generator_;
  RunResult* result_;
  std::vector<Served>* kept_;
  std::deque<InFlight> inflight_;
  uint64_t next_index_ = 0;
  SampleReport report_;
};

/// Open loop: Poisson arrivals at `rate`, each request timed from its due
/// time, so a stall counts against every request it delays. A generator
/// thread submits on schedule; this thread waits for completions.
struct OpenLoopStats {
  std::vector<std::vector<double>> window_latency_ms;  // per window
  std::vector<double> late_us;                         // submit - due
  std::vector<double> submit_us;                       // time inside Submit
};

OpenLoopStats RunOpenLoop(SynthesisServer* server, WorkloadGenerator* generator,
                          double rate, double warmup_s, double window_s,
                          uint64_t arrival_seed, RunResult* result,
                          std::vector<Served>* kept) {
  struct Sent {
    uint64_t index = 0;
    uint64_t due_ns = 0;
    uint64_t submit_ns = 0;
    int window = -1;  // -1: warm-up
    SampleRequest request;
    std::shared_ptr<RequestTicket> ticket;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Sent> queue;
  bool finished = false;
  OpenLoopStats stats;
  stats.window_latency_ms.resize(kWindows);

  std::jthread submitter([&] {
    Rng arrivals(arrival_seed);
    const uint64_t t0 = NowNs() + 1000000;
    const uint64_t warmup_ns = static_cast<uint64_t>(warmup_s * 1e9);
    const uint64_t window_ns = static_cast<uint64_t>(window_s * 1e9);
    const uint64_t end_ns = t0 + warmup_ns + kWindows * window_ns;
    double due = static_cast<double>(t0);
    for (uint64_t index = 0;; ++index) {
      due += -std::log(1.0 - arrivals.Uniform()) / rate * 1e9;
      const uint64_t due_ns = static_cast<uint64_t>(due);
      if (due_ns >= end_ns) break;
      Sent sent;
      sent.index = index;
      sent.due_ns = due_ns;
      sent.request = generator->Next();
      if (due_ns >= t0 + warmup_ns) {
        sent.window = static_cast<int>((due_ns - t0 - warmup_ns) / window_ns);
      }
      // Sleep until shortly before the due time, then spin: sleep alone
      // overshoots by tens of microseconds.
      for (uint64_t now = NowNs(); now < due_ns; now = NowNs()) {
        if (due_ns - now > 200000) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(due_ns - now - 100000));
        }
      }
      sent.submit_ns = NowNs();
      sent.ticket = server->Submit(sent.request);
      const uint64_t submitted_ns = NowNs();
      std::lock_guard<std::mutex> lock(mu);
      if (sent.window >= 0) {
        stats.late_us.push_back(
            static_cast<double>(sent.submit_ns - sent.due_ns) / 1e3);
        stats.submit_us.push_back(
            static_cast<double>(submitted_ns - sent.submit_ns) / 1e3);
      }
      queue.push_back(std::move(sent));
      cv.notify_one();
    }
    std::lock_guard<std::mutex> lock(mu);
    finished = true;
    cv.notify_one();
  });

  for (;;) {
    Sent sent;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return finished || !queue.empty(); });
      if (queue.empty()) break;
      sent = std::move(queue.front());
      queue.pop_front();
    }
    const Result<Table>& served = sent.ticket->Wait();
    TallyRequest(served, sent.index, result);
    if (sent.window >= 0) {
      const double latency_ns =
          static_cast<double>(sent.submit_ns - sent.due_ns) +
          static_cast<double>(sent.ticket->latency_us()) * 1e3;
      stats.window_latency_ms[static_cast<size_t>(sent.window)].push_back(
          latency_ns / 1e6);
    }
    if (served.ok() && sent.index % kSampleEvery == 0) {
      kept->push_back(Served{std::move(sent.request), CsvHash(*served)});
    }
  }
  submitter.join();
  return stats;
}

/// Oracle: every kept request equals the direct call on the same model
/// with a fresh Rng(seed) — SampleRows, or SampleConditional over `rows`
/// copies of the conditioning row.
void CheckServed(const Tenants& tenants, const std::vector<Served>& kept,
                 RunResult* result) {
  for (const Served& served : kept) {
    size_t t = 0;
    while (t < tenants.profiles.size() &&
           tenants.profiles[t].name != served.request.tenant) {
      ++t;
    }
    if (t == tenants.profiles.size()) {
      Tally(false, "served request names an unknown tenant", result);
      continue;
    }
    const GreatSynthesizer& model = *tenants.models[t];
    Rng rng(served.request.seed);
    Result<Table> direct = Status::Internal("unset");
    if (served.request.conditioning.empty()) {
      direct = model.SampleRows(served.request.rows, &rng, nullptr);
    } else {
      const auto& [column, value] = *served.request.conditioning.begin();
      Table conditions{Schema({Field(column, ValueType::kString)})};
      for (size_t r = 0; r < served.request.rows; ++r) {
        (void)conditions.AppendRow({value});
      }
      direct = model.SampleConditional(conditions, &rng);
    }
    Tally(direct.ok() && CsvHash(*direct) == served.csv_hash,
          "served request differs from the direct call", result);
  }
}

RunResult RunServeZipf(const Config& config, TraceLog* log) {
  RunResult result;
  std::vector<std::string> paths;
  {
    DigixOptions data_options;
    data_options.num_users = config.smoke ? 40 : 100;
    data_options.include_identifier_columns = false;
    DigixGenerator generator(data_options);
    Rng rng(DeriveSeed(config, kDataSeed));
    for (size_t i = 0; i < kNumTenants; ++i) {
      paths.push_back(WorkPath(config, "tenant_" + std::to_string(i) + ".csv"));
      Result<DigixDataset> data = generator.Generate(&rng);
      Result<Table> table =
          data.ok() ? data->ads.Select({"gender", "age", "city_rank",
                                        "device_name", "career"})
                    : Result<Table>(data.status());
      Status status = table.status();
      if (status.ok()) status = WriteCsvFile(*table, paths.back());
      TallyStatus(status, "input generation", &result);
    }
  }

  WorkloadOptions mix;
  mix.tenant_skew.kind = SkewKind::kZipfian;
  mix.value_skew.kind = SkewKind::kScrambledZipfian;
  mix.conditioned_fraction = 0.3;
  mix.min_rows = 1;
  mix.max_rows = 8;
  const size_t warmup_requests = config.smoke ? 100 : 2000;

  // Set-up: read and fit every tenant, start the server, warm it up with a
  // closed loop. Repeated; the last server is the one measured.
  Tenants tenants;
  std::unique_ptr<SynthesisServer> server;
  std::vector<Served> kept;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    if (server != nullptr) (void)server->Shutdown();
    server.reset();
    const Clock::time_point start = Clock::now();
    Result<Tenants> fitted = FitTenants(paths, config);
    Status status = fitted.status();
    if (status.ok()) {
      tenants = std::move(fitted).ValueOrDie();
      Result<std::unique_ptr<SynthesisServer>> started = StartServer(tenants);
      status = started.status();
      if (status.ok()) server = std::move(started).ValueOrDie();
    }
    if (status.ok()) {
      WorkloadGenerator warm(mix, tenants.profiles,
                             DeriveSeed(config, kRequestSeed, 100 + i));
      std::vector<Served> unused;
      RunResult warm_result;
      ClosedLoop loop(server.get(), &warm, &warm_result, &unused);
      loop.RunRequests(warmup_requests);
      loop.Drain();
      if (warm_result.failed > 0) status = Status::Internal("warm-up failed");
    }
    setup_s.push_back(SecondsSince(start));
    TallyStatus(status, "set-up " + std::to_string(i), &result);
    if (!status.ok()) return result;
  }

  WorkloadGenerator generator(mix, tenants.profiles,
                              DeriveSeed(config, kRequestSeed));
  const double seconds = config.seconds;
  std::vector<double> capacity;
  OpenLoopStats open;
  std::vector<double> traced_us, untraced_us;
  uint64_t batch_ns = 0;
  uint64_t capacity_ns = 0;
  SampleReport served_report;
  MetricsRegistry& registry = MetricsRegistry::Global();
  {
    ClosedLoop loop(server.get(), &generator, &result, &kept);
    if (config.trace) {
      // Alternate untraced and traced closed-loop windows; the traced ones
      // give the worker-time breakdown. The library records serve.batch
      // and synth.batch spans for every batch, so the store must hold a
      // whole run's worth.
      registry.set_max_spans(size_t{1} << 20);
      const double window_s = seconds / (2 * kWindows);
      for (int w = 0; w < 2 * kWindows; ++w) {
        const bool traced = w % 2 == 1;
        const auto before = CounterMap(registry.Snapshot());
        const uint64_t from_ns = registry.NowNs();
        std::vector<double> latency_us;
        loop.Run(window_s, traced, &latency_us);
        const uint64_t to_ns = registry.NowNs();
        std::vector<double>& into = traced ? traced_us : untraced_us;
        into.insert(into.end(), latency_us.begin(), latency_us.end());
        if (!traced) continue;
        MetricsSnapshot snapshot = registry.Snapshot();
        std::vector<SpanRecord> window;
        for (const SpanRecord& span : snapshot.spans) {
          if (span.start_ns < from_ns || span.start_ns >= to_ns) continue;
          if (span.name == "serve.batch") batch_ns += span.duration_ns;
          window.push_back(span);
        }
        std::vector<double> latency_ms;
        for (double us : latency_us) latency_ms.push_back(us / 1e3);
        capacity_ns += (to_ns - from_ns) * kServeWorkers;
        log->AddWorkerWindow(window, (to_ns - from_ns) * kServeWorkers,
                             latency_ms,
                             CounterDelta(before, CounterMap(snapshot)));
        if (w == 1) log->KeepForExport(window);
      }
      loop.Drain();
      served_report = loop.report();
    } else {
      open = RunOpenLoop(server.get(), &generator, kOpenLoopRate,
                         config.smoke ? 0.05 : seconds / 30,
                         seconds * (config.smoke ? 0.1 : 0.2),
                         DeriveSeed(config, kRequestSeed, 1), &result, &kept);
      for (int w = 0; w < kWindows; ++w) {
        capacity.push_back(
            loop.Run(seconds * (config.smoke ? 0.05 : 0.1), false, nullptr));
      }
      loop.Drain();
    }
  }
  TallyStatus(server->Shutdown(), "server shutdown", &result);
  const double peak_rss_mb = PeakRssMb();

  CheckServed(tenants, kept, &result);

  if (config.trace) {
    LayerExtras extras;
    const double untraced = Median(untraced_us);
    extras.trace_overhead_ratio =
        untraced > 0 ? Median(traced_us) / untraced : 0.0;
    extras.worker_busy_ratio =
        capacity_ns > 0 ? static_cast<double>(batch_ns) /
                              static_cast<double>(capacity_ns)
                        : 0.0;
    SetAcceptExtras(served_report, traced_us.size() + untraced_us.size(),
                    &extras);
    result.metrics = LayerMetrics(*log, extras);
    return result;
  }

  std::vector<double> p50, p90, p99;
  for (const auto& window : open.window_latency_ms) {
    p50.push_back(Percentile(window, 50.0));
    p90.push_back(Percentile(window, 90.0));
    p99.push_back(Percentile(window, 99.0));
  }
  std::printf("# serve_zipf open loop at %.0f req/s, per window: requests",
              kOpenLoopRate);
  for (const auto& window : open.window_latency_ms) {
    std::printf(" %zu", window.size());
  }
  std::printf("; p50 ms");
  for (double v : p50) std::printf(" %.4f", v);
  std::printf("; p90 ms");
  for (double v : p90) std::printf(" %.4f", v);
  std::printf("; p99 ms");
  for (double v : p99) std::printf(" %.4f", v);
  std::printf("\n# serve_zipf closed loop requests/s:");
  for (double v : capacity) std::printf(" %.1f", v);
  std::printf("\n# serve_zipf generator late us p50 %.2f p99 %.2f max %.2f; "
              "time in Submit us p50 %.2f p99 %.2f\n",
              Percentile(open.late_us, 50), Percentile(open.late_us, 99),
              Percentile(open.late_us, 100), Percentile(open.submit_us, 50),
              Percentile(open.submit_us, 99));
  result.metrics = {
      {"op_p50_ms", Median(p50), "ms"},
      {"ops_per_s", Median(capacity), "1/s"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };
  return result;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "oocore_fit", "emit_decode", "serve_zipf", "pipeline_greater"};
  return kNames;
}

RunResult RunWorkload(const Config& config, TraceLog* log) {
  if (config.workload == "oocore_fit") return RunOocoreFit(config, log);
  if (config.workload == "emit_decode") return RunEmitDecode(config, log);
  if (config.workload == "serve_zipf") return RunServeZipf(config, log);
  return RunPipelineGreater(config, log);
}

}  // namespace e2e
}  // namespace greater
