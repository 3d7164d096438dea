// Out-of-core suite (`ctest -L oocore`): shard-parallel streaming fit
// that must land bitwise-identical to the serial Fit at every shard
// count, chunked sample emission that must render the same bytes as a
// direct Sample call at any chunk size and worker count, per-chunk crash
// resume on the emission store, and a fork + SIGKILL sweep over the
// end-to-end RunFromCsvStreaming driver that must produce a
// byte-identical output file after resuming from the same checkpoint
// directory.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/artifact_io.h"
#include "common/checkpoint_store.h"
#include "common/fault.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "stream/sample_emit.h"
#include "synth/great_synthesizer.h"
#include "synth/streaming_synthesis.h"
#include "tabular/csv.h"
#include "tabular/table.h"

namespace greater {
namespace {

namespace fs = std::filesystem;

fs::path ScratchDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("greater_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string Slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void Spit(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// Mixed-type training table with enough rows to span several chunks.
Table TrainTable(size_t rows) {
  Schema schema({Field("name", ValueType::kString),
                 Field("lunch", ValueType::kInt),
                 Field("score", ValueType::kDouble)});
  Table t(schema);
  const char* names[] = {"Grace", "Yin", "Anson", "Mia", "Noor"};
  Rng rng(31);
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(t.AppendRow({Value(names[rng.Index(5)]),
                             Value(rng.UniformInt(1, 4)),
                             Value(static_cast<double>(rng.UniformInt(0, 9)) /
                                   2.0)})
                    .ok());
  }
  return t;
}

// Chunk source over an in-memory table: each opened stream replays the
// table in `chunk_rows` slices. The table must outlive the source.
TableChunkSource ChunkedSource(const Table& table, size_t chunk_rows) {
  return [&table, chunk_rows]() -> Result<TableChunkStream> {
    auto next_row = std::make_shared<size_t>(0);
    return TableChunkStream(
        [&table, chunk_rows, next_row]() -> Result<std::optional<Table>> {
          if (*next_row >= table.num_rows()) return std::optional<Table>();
          size_t end = std::min(table.num_rows(), *next_row + chunk_rows);
          Table slice(table.schema());
          for (size_t r = *next_row; r < end; ++r) {
            GREATER_RETURN_NOT_OK(slice.AppendRow(table.GetRow(r)));
          }
          *next_row = end;
          return std::optional<Table>(std::move(slice));
        });
  };
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(a.GetRow(r), b.GetRow(r)) << "row " << r;
  }
}

// Numeric CSV for the end-to-end driver sweeps.
std::string NumericCsv(size_t rows) {
  std::string text = "a,b,c\n";
  for (size_t i = 0; i < rows; ++i) {
    text += std::to_string(i % 13) + "," + std::to_string((i * 2) % 9) +
            ",v" + std::to_string(i % 7) + "\n";
  }
  return text;
}

class OocoreTest : public testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().DisarmAll(); }
};

// ---------- streaming fit: bitwise identity vs the serial path ----------

TEST_F(OocoreTest, FitStreamingMatchesSerialFitBitwiseAtEveryShardCount) {
  Table train = TrainTable(90);

  // Without and with a prior corpus. The prior's fractional counts go
  // through the serial rounding path; 0.3 is not dyadic, so its sums round
  // and any change in their order would show in the bytes.
  GreatSynthesizer::Options with_prior;
  with_prior.prior_corpus = {"Grace had lunch 3 and a score of 4.5",
                             "Noor and Mia had lunch", "the score is 2"};
  with_prior.prior_weight = 0.3;
  std::string no_prior_lm;
  for (const GreatSynthesizer::Options& options :
       {GreatSynthesizer::Options(), with_prior}) {
    const bool prior = !options.prior_corpus.empty();
    GreatSynthesizer serial(options);
    Rng serial_rng(17);
    ASSERT_TRUE(serial.Fit(train, &serial_rng).ok());
    Result<std::string> serial_bytes = serial.SerializeBinary();
    ASSERT_TRUE(serial_bytes.ok());
    // The prior must reach the fitted LM, not just the options codec.
    Result<ArtifactReader> doc = ArtifactReader::Parse(
        *serial_bytes, "greater.great_synthesizer", 2);
    ASSERT_TRUE(doc.ok()) << doc.status();
    std::string lm_bytes(doc->Chunk("lm").ValueOrDie());
    if (prior) {
      EXPECT_NE(lm_bytes, no_prior_lm) << "the prior changed nothing";
    } else {
      no_prior_lm = lm_bytes;
    }

    Rng sample_rng(99);
    Result<Table> serial_sample = serial.SampleRows(25, &sample_rng, nullptr);
    ASSERT_TRUE(serial_sample.ok()) << serial_sample.status();

    // The cross product that must collapse to one artifact: shard counts
    // 1/2/8 against several chunk sizes (including one chunk holding the
    // whole table and a chunk size that leaves a ragged tail).
    for (size_t shards : {1u, 2u, 8u}) {
      for (size_t chunk_rows : {7u, 32u, 200u}) {
        GreatSynthesizer::Options streamed_options = options;
        streamed_options.num_fit_shards = shards;
        GreatSynthesizer streamed(streamed_options);
        Rng streamed_rng(17);
        Status fit =
            streamed.FitStreaming(ChunkedSource(train, chunk_rows),
                                  &streamed_rng);
        ASSERT_TRUE(fit.ok()) << fit << " shards=" << shards
                              << " chunk_rows=" << chunk_rows
                              << " prior=" << prior;
        Result<std::string> streamed_bytes = streamed.SerializeBinary();
        ASSERT_TRUE(streamed_bytes.ok());
        EXPECT_EQ(*streamed_bytes, *serial_bytes)
            << "serialized model differs at shards=" << shards
            << " chunk_rows=" << chunk_rows << " prior=" << prior;

        Rng streamed_sample_rng(99);
        Result<Table> streamed_sample =
            streamed.SampleRows(25, &streamed_sample_rng, nullptr);
        ASSERT_TRUE(streamed_sample.ok()) << streamed_sample.status();
        ExpectTablesEqual(*streamed_sample, *serial_sample);
      }
    }
  }
  EXPECT_EQ(MetricsRegistry::Global().GetGauge("lm.fit.shards").Value(),
            8.0);
  EXPECT_GT(
      MetricsRegistry::Global().GetCounter("lm.fit.shard_merges").Value(),
      0u);
}

// Null cells, multi-word values and non-ASCII text (the word tokenizer
// splits UTF-8 bytes into one-byte tokens), so a row's value tokens vary
// in number from cell to cell.
Table EdgeTable(size_t rows) {
  Schema schema({Field("city", ValueType::kString),
                 Field("visits", ValueType::kInt),
                 Field("note", ValueType::kString)});
  Table t(schema);
  const char* cities[] = {"New York", "S\xC3\xA3o Paulo", "Z\xC3\xBCrich",
                          "Oslo"};
  const char* notes[] = {"very good indeed", "ok", "\xE2\x9C\x93 done"};
  Rng rng(53);
  for (size_t i = 0; i < rows; ++i) {
    Value city =
        rng.Index(6) == 0 ? Value::Null() : Value(cities[rng.Index(4)]);
    Value visits =
        rng.Index(5) == 0 ? Value::Null() : Value(rng.UniformInt(0, 12));
    Value note =
        rng.Index(4) == 0 ? Value::Null() : Value(notes[rng.Index(3)]);
    EXPECT_TRUE(t.AppendRow({city, visits, note}).ok());
  }
  return t;
}

TEST_F(OocoreTest, FitStreamingMatchesFitAtOrderAndPermutationEdges) {
  Table train = EdgeTable(41);
  for (size_t order : {2u, 8u}) {
    for (size_t copies : {1u, 3u}) {
      for (bool permute : {true, false}) {
        const std::string where = "order=" + std::to_string(order) +
                                  " copies=" + std::to_string(copies) +
                                  " permute=" + std::to_string(permute);
        GreatSynthesizer::Options options;
        options.ngram.order = order;
        options.encoder.permutations_per_row = copies;
        options.encoder.permute_features = permute;

        // Encoding each cell once per row gives the sequences of a plain
        // per-copy EncodeRow loop, whole-table and chunk by chunk.
        Result<TextualEncoder> encoder =
            TextualEncoder::Build(train, options.encoder);
        ASSERT_TRUE(encoder.ok()) << encoder.status();
        std::vector<TokenSequence> expected;
        {
          Rng rng(17);
          std::vector<size_t> order_state = {0, 1, 2};
          for (size_t r = 0; r < train.num_rows(); ++r) {
            for (size_t k = 0; k < copies; ++k) {
              if (permute) rng.Shuffle(&order_state);
              expected.push_back(
                  encoder->EncodeRow(train.GetRow(r), order_state));
            }
          }
        }
        Rng whole_rng(17);
        Result<std::vector<TokenSequence>> whole =
            encoder->EncodeTable(train, &whole_rng);
        ASSERT_TRUE(whole.ok()) << whole.status();
        EXPECT_EQ(*whole, expected) << where;
        std::vector<TokenSequence> chunked;
        {
          Rng rng(17);
          std::vector<size_t> order_state;
          std::vector<TokenSequence> buffer;
          Result<TableChunkStream> stream = ChunkedSource(train, 6)();
          ASSERT_TRUE(stream.ok());
          for (;;) {
            Result<std::optional<Table>> chunk = (*stream)();
            ASSERT_TRUE(chunk.ok());
            if (!chunk->has_value()) break;
            TextualEncoder::FeatureOrders orders = encoder->DrawFeatureOrders(
                (*chunk)->num_rows(), &rng, &order_state);
            ASSERT_TRUE(
                encoder->EncodeTableWithOrders(**chunk, orders, &buffer).ok());
            chunked.insert(chunked.end(), buffer.begin(), buffer.end());
          }
        }
        EXPECT_EQ(chunked, expected) << where;

        GreatSynthesizer serial(options);
        Rng serial_rng(17);
        ASSERT_TRUE(serial.Fit(train, &serial_rng).ok()) << where;
        Result<std::string> serial_bytes = serial.SerializeBinary();
        ASSERT_TRUE(serial_bytes.ok());
        for (size_t shards : {1u, 2u, 8u}) {
          GreatSynthesizer::Options streamed_options = options;
          streamed_options.num_fit_shards = shards;
          GreatSynthesizer streamed(streamed_options);
          Rng streamed_rng(17);
          Status fit =
              streamed.FitStreaming(ChunkedSource(train, 5), &streamed_rng);
          ASSERT_TRUE(fit.ok()) << fit << " " << where;
          Result<std::string> streamed_bytes = streamed.SerializeBinary();
          ASSERT_TRUE(streamed_bytes.ok());
          EXPECT_EQ(*streamed_bytes, *serial_bytes)
              << where << " shards=" << shards;
        }
      }
    }
  }
}

TEST_F(OocoreTest, FitStreamingErrorsAreTyped) {
  Table train = TrainTable(20);
  Rng rng(1);

  GreatSynthesizer::Options neural;
  neural.backbone = GreatSynthesizer::Backbone::kNeural;
  GreatSynthesizer neural_model(neural);
  EXPECT_EQ(neural_model.FitStreaming(ChunkedSource(train, 8), &rng).code(),
            StatusCode::kInvalidArgument);

  GreatSynthesizer::Options subsampled;
  subsampled.max_training_sequences = 4;
  GreatSynthesizer subsampled_model(subsampled);
  EXPECT_EQ(
      subsampled_model.FitStreaming(ChunkedSource(train, 8), &rng).code(),
      StatusCode::kInvalidArgument);

  Table empty(train.schema());
  GreatSynthesizer empty_model{GreatSynthesizer::Options()};
  Status empty_fit = empty_model.FitStreaming(ChunkedSource(empty, 8), &rng);
  EXPECT_EQ(empty_fit.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(empty_fit.message().find("empty"), std::string::npos)
      << empty_fit;

  GreatSynthesizer fitted{GreatSynthesizer::Options()};
  ASSERT_TRUE(fitted.Fit(train, &rng).ok());
  EXPECT_EQ(fitted.FitStreaming(ChunkedSource(train, 8), &rng).code(),
            StatusCode::kFailedPrecondition);
}

// ---------- chunked emission: bytes vs the direct sampler ----------

TEST_F(OocoreTest, ChunkedEmissionMatchesDirectSampleBytes) {
  Table train = TrainTable(60);
  GreatSynthesizer model{GreatSynthesizer::Options()};
  Rng fit_rng(17);
  ASSERT_TRUE(model.Fit(train, &fit_rng).ok());

  const size_t n = 41;
  const uint64_t seed = 7;
  Rng direct_rng(seed);
  Result<Table> direct = model.SampleRows(n, &direct_rng, nullptr);
  ASSERT_TRUE(direct.ok()) << direct.status();
  const std::string direct_csv = WriteCsvString(*direct);

  fs::path dir = ScratchDir("oocore_emit");
  // Any chunk size — including one that leaves a ragged tail and one
  // bigger than n — must render the same bytes as the direct call.
  for (size_t chunk_rows : {7u, 16u, 64u}) {
    fs::path out = dir / ("out_" + std::to_string(chunk_rows) + ".csv");
    SampleEmitOptions emit;
    emit.chunk_rows = chunk_rows;
    Result<SampleReport> report =
        SampleRowsToCsvStreaming(model, n, seed, out.string(), emit);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->Reconciles());
    EXPECT_EQ(report->rows_emitted, n);
    EXPECT_EQ(Slurp(out), direct_csv) << "chunk_rows=" << chunk_rows;
  }

  GreatSynthesizer unfitted{GreatSynthesizer::Options()};
  fs::path out = dir / "unfitted.csv";
  EXPECT_EQ(SampleRowsToCsvStreaming(unfitted, 4, seed, out.string(),
                                     SampleEmitOptions())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(OocoreTest, EmissionResumesFromChunkStoreAfterInjectedCrash) {
  Table train = TrainTable(60);
  GreatSynthesizer model{GreatSynthesizer::Options()};
  Rng fit_rng(17);
  ASSERT_TRUE(model.Fit(train, &fit_rng).ok());

  fs::path dir = ScratchDir("oocore_emit_resume");
  fs::path out = dir / "out.csv";
  SampleEmitOptions emit;
  emit.chunk_rows = 8;
  emit.checkpoint_dir = (dir / "ckpt").string();

  // Uninterrupted reference bytes, from a checkpoint-free run.
  fs::path ref = dir / "ref.csv";
  SampleEmitOptions no_ckpt;
  no_ckpt.chunk_rows = 8;
  ASSERT_TRUE(
      SampleRowsToCsvStreaming(model, 30, 7, ref.string(), no_ckpt).ok());

  // First attempt dies after two chunks: the fault point sits on the
  // compute path, so exactly those chunks reach the store.
  {
    FaultSpec spec;
    spec.skip_hits = 2;
    spec.max_fires = 1;
    ScopedFault fault("stream.emit_chunk", spec);
    Result<SampleReport> failed =
        SampleRowsToCsvStreaming(model, 30, 7, out.string(), emit);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  }

  // The rerun replays the stored chunks and recomputes the rest; the
  // file must be byte-identical to the uninterrupted run.
  Counter& hits =
      MetricsRegistry::Global().GetCounter("stream.emit.checkpoint_hits");
  uint64_t hits_before = hits.Value();
  Result<SampleReport> resumed =
      SampleRowsToCsvStreaming(model, 30, 7, out.string(), emit);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->Reconciles());
  EXPECT_EQ(hits.Value() - hits_before, 2u);
  EXPECT_EQ(Slurp(out), Slurp(ref));
}

TEST_F(OocoreTest, EmissionResumesAfterInjectedCrashAtAnyWorkerCount) {
  // The crash-resume contract with chunks decoded ahead on a pool: only
  // chunks the committer reached before the fault are stored, whatever
  // the workers had already decoded past it.
  Table train = TrainTable(60);
  GreatSynthesizer model{GreatSynthesizer::Options()};
  Rng fit_rng(17);
  ASSERT_TRUE(model.Fit(train, &fit_rng).ok());

  for (size_t workers : {2u, 4u}) {
    SCOPED_TRACE("num_workers=" + std::to_string(workers));
    fs::path dir = ScratchDir("oocore_emit_resume_" + std::to_string(workers));
    fs::path out = dir / "out.csv";
    SampleEmitOptions emit;
    emit.chunk_rows = 8;
    emit.num_workers = workers;
    emit.checkpoint_dir = (dir / "ckpt").string();

    fs::path ref = dir / "ref.csv";
    SampleEmitOptions no_ckpt;
    no_ckpt.chunk_rows = 8;
    no_ckpt.num_workers = 1;
    ASSERT_TRUE(
        SampleRowsToCsvStreaming(model, 30, 7, ref.string(), no_ckpt).ok());

    {
      FaultSpec spec;
      spec.skip_hits = 2;
      spec.max_fires = 1;
      ScopedFault fault("stream.emit_chunk", spec);
      Result<SampleReport> failed =
          SampleRowsToCsvStreaming(model, 30, 7, out.string(), emit);
      ASSERT_FALSE(failed.ok());
      EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
    }
    size_t stored = 0;
    for (const auto& entry : fs::directory_iterator(dir / "ckpt")) {
      (void)entry;
      ++stored;
    }
    EXPECT_EQ(stored, 2u);

    Counter& hits =
        MetricsRegistry::Global().GetCounter("stream.emit.checkpoint_hits");
    uint64_t hits_before = hits.Value();
    Result<SampleReport> resumed =
        SampleRowsToCsvStreaming(model, 30, 7, out.string(), emit);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_TRUE(resumed->Reconciles());
    EXPECT_EQ(hits.Value() - hits_before, 2u);
    EXPECT_EQ(Slurp(out), Slurp(ref));
  }
}

// Sorted file names under `dir`.
std::vector<std::string> FileNames(const fs::path& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

// One emission's observable outcome: status, file bytes, report and the
// stream.emit.* counter deltas.
struct EmitOutcome {
  std::string status;
  std::string bytes;
  std::string report;
  uint64_t chunks = 0;
  uint64_t rows = 0;
  uint64_t hits = 0;
  uint64_t units = 0;  ///< decoded units; varies with the worker count
};

EmitOutcome EmitWith(const GreatSynthesizer& model, size_t n,
                     const SampleEmitOptions& emit, const fs::path& out) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  Counter& chunks = metrics.GetCounter("stream.emit.chunks");
  Counter& rows = metrics.GetCounter("stream.emit.rows");
  Counter& hits = metrics.GetCounter("stream.emit.checkpoint_hits");
  Counter& units = metrics.GetCounter("stream.emit.units");
  const uint64_t chunks_before = chunks.Value();
  const uint64_t rows_before = rows.Value();
  const uint64_t hits_before = hits.Value();
  const uint64_t units_before = units.Value();
  Result<SampleReport> report =
      SampleRowsToCsvStreaming(model, n, 23, out.string(), emit);
  EmitOutcome outcome;
  outcome.status = report.status().ToString();
  outcome.bytes = Slurp(out);
  if (report.ok()) {
    EXPECT_TRUE(report->Reconciles());
    EXPECT_EQ(rows.Value() - rows_before, report->rows_emitted);
    outcome.report = report->ToString();
  }
  outcome.chunks = chunks.Value() - chunks_before;
  outcome.rows = rows.Value() - rows_before;
  outcome.hits = hits.Value() - hits_before;
  outcome.units = units.Value() - units_before;
  return outcome;
}

void ExpectSameOutcome(const EmitOutcome& expected, const EmitOutcome& got) {
  EXPECT_EQ(got.status, expected.status);
  EXPECT_EQ(got.bytes, expected.bytes);
  EXPECT_EQ(got.report, expected.report);
  EXPECT_EQ(got.chunks, expected.chunks);
  EXPECT_EQ(got.rows, expected.rows);
  EXPECT_EQ(got.hits, expected.hits);
}

TEST_F(OocoreTest, EmissionIsInvariantToWorkerCount) {
  // Free-value decoding on a bigram model with a tight retry budget and
  // no fallback grammar exhausts some rows: lenient runs drop them, strict
  // runs stop on the first one.
  GreatSynthesizer::Options options;
  options.ngram.order = 2;
  options.constrain_values_to_column = false;
  options.max_attempts_per_row = 3;
  options.fallback_to_constrained = false;
  GreatSynthesizer model(options);
  Rng fit_rng(17);
  ASSERT_TRUE(model.Fit(TrainTable(60), &fit_rng).ok());

  fs::path dir = ScratchDir("oocore_emit_workers");
  uint64_t lenient_exhausted = 0;
  bool strict_failed = false;
  for (SamplePolicy policy : {SamplePolicy::kLenient, SamplePolicy::kStrict}) {
    for (size_t n : {0u, 1u, 41u}) {
      for (size_t chunk_rows : {1u, 7u, 1024u}) {
        SampleEmitOptions emit;
        emit.chunk_rows = chunk_rows;
        emit.policy = policy;
        emit.use_model_policy = false;
        emit.num_workers = 1;
        const std::string tag = std::string(SamplePolicyToString(policy)) +
                                " n=" + std::to_string(n) +
                                " chunk_rows=" + std::to_string(chunk_rows);
        const EmitOutcome serial = EmitWith(model, n, emit, dir / "serial.csv");
        EXPECT_EQ(serial.hits, 0u);
        if (serial.status == "OK") {
          EXPECT_EQ(serial.chunks, (n + chunk_rows - 1) / chunk_rows) << tag;
        } else {
          strict_failed = true;
        }
        if (policy == SamplePolicy::kLenient) {
          ASSERT_EQ(serial.status, "OK") << tag;
          lenient_exhausted += serial.rows < n ? 1 : 0;
        }
        for (size_t workers : {2u, 4u}) {
          SCOPED_TRACE(tag + " num_workers=" + std::to_string(workers));
          emit.num_workers = workers;
          ExpectSameOutcome(serial,
                            EmitWith(model, n, emit, dir / "parallel.csv"));
        }
      }
    }
  }
  // Both failure modes were exercised, not just clean runs.
  EXPECT_GT(lenient_exhausted, 0u);
  EXPECT_TRUE(strict_failed);

  // Checkpoint keys leave the worker count out: a store written by one
  // worker replays every chunk into a four-worker run.
  SampleEmitOptions emit;
  emit.chunk_rows = 7;
  emit.num_workers = 1;
  emit.policy = SamplePolicy::kLenient;
  emit.use_model_policy = false;
  emit.checkpoint_dir = (dir / "ckpt").string();
  const EmitOutcome stored = EmitWith(model, 41, emit, dir / "stored.csv");
  ASSERT_EQ(stored.status, "OK");
  emit.num_workers = 4;
  const EmitOutcome replayed = EmitWith(model, 41, emit, dir / "replayed.csv");
  EXPECT_EQ(replayed.bytes, stored.bytes);
  EXPECT_EQ(replayed.report, stored.report);
  EXPECT_EQ(replayed.hits, 6u);
  EXPECT_EQ(replayed.chunks, 6u);
}

TEST_F(OocoreTest, OneChunkSplitAcrossWorkersMatchesOneWorker) {
  // Fewer chunks than workers: the one chunk splits into near-equal decode
  // units, one per slot (three workers give uneven units), yet it stays
  // one checkpoint chunk with the one-worker status, bytes and report.
  GreatSynthesizer::Options options;
  options.ngram.order = 2;
  options.constrain_values_to_column = false;
  options.max_attempts_per_row = 3;
  options.fallback_to_constrained = false;
  GreatSynthesizer model(options);
  Rng fit_rng(17);
  ASSERT_TRUE(model.Fit(TrainTable(60), &fit_rng).ok());

  fs::path dir = ScratchDir("oocore_emit_units");
  bool lenient_dropped = false;
  bool strict_failed = false;
  for (SamplePolicy policy : {SamplePolicy::kLenient, SamplePolicy::kStrict}) {
    for (size_t n : {1u, 41u, 1000u}) {
      const std::string tag = std::string(SamplePolicyToString(policy)) +
                              " n=" + std::to_string(n);
      SampleEmitOptions emit;
      emit.chunk_rows = 1024;
      emit.policy = policy;
      emit.use_model_policy = false;
      EmitOutcome serial;
      std::vector<std::string> serial_files;
      for (size_t workers : {1u, 2u, 3u, 4u}) {
        SCOPED_TRACE(tag + " num_workers=" + std::to_string(workers));
        const fs::path ckpt = dir / ("ckpt_" + std::to_string(workers));
        fs::remove_all(ckpt);
        emit.num_workers = workers;
        emit.checkpoint_dir = ckpt.string();
        const EmitOutcome got = EmitWith(model, n, emit, dir / "out.csv");
        const std::vector<std::string> files =
            fs::exists(ckpt) ? FileNames(ckpt) : std::vector<std::string>();
        EXPECT_EQ(got.hits, 0u);
        if (got.status == "OK") {
          EXPECT_EQ(got.chunks, 1u);
          EXPECT_EQ(got.units, std::min(workers, n));
          EXPECT_EQ(files.size(), 1u);
        } else {
          EXPECT_EQ(got.units, 0u);
          EXPECT_TRUE(files.empty());
        }
        if (workers == 1) {
          serial = got;
          serial_files = files;
          if (policy == SamplePolicy::kLenient) {
            ASSERT_EQ(serial.status, "OK");
            lenient_dropped |= serial.rows < n;
          } else {
            strict_failed |= serial.status != "OK";
          }
          continue;
        }
        ExpectSameOutcome(serial, got);
        EXPECT_EQ(files, serial_files);
      }
    }
  }
  EXPECT_TRUE(lenient_dropped);
  EXPECT_TRUE(strict_failed);

  // A store written by one worker replays the whole chunk into a
  // four-worker run: one hit, no unit decoded, no lane started.
  SampleEmitOptions emit;
  emit.chunk_rows = 1024;
  emit.num_workers = 1;
  emit.policy = SamplePolicy::kLenient;
  emit.use_model_policy = false;
  emit.checkpoint_dir = (dir / "ckpt_replay").string();
  fs::remove_all(emit.checkpoint_dir);
  const EmitOutcome stored = EmitWith(model, 1000, emit, dir / "stored.csv");
  ASSERT_EQ(stored.status, "OK");
  EXPECT_EQ(stored.units, 1u);
  Counter& lanes = MetricsRegistry::Global().GetCounter("synth.batch.lanes");
  const uint64_t lanes_before = lanes.Value();
  emit.num_workers = 4;
  const EmitOutcome replayed =
      EmitWith(model, 1000, emit, dir / "replayed.csv");
  EXPECT_EQ(replayed.status, "OK");
  EXPECT_EQ(replayed.bytes, stored.bytes);
  EXPECT_EQ(replayed.report, stored.report);
  EXPECT_EQ(replayed.chunks, 1u);
  EXPECT_EQ(replayed.hits, 1u);
  EXPECT_EQ(replayed.units, 0u);
  EXPECT_EQ(lanes.Value(), lanes_before);
}

TEST_F(OocoreTest, UndecodableEmissionChunkIsACorruptMiss) {
  // Emission chunk files that parse as chunk documents but hold no csv or
  // report payload must be recomputed, and counted as corrupt misses,
  // never as hits.
  Table train = TrainTable(60);
  GreatSynthesizer model{GreatSynthesizer::Options()};
  Rng fit_rng(17);
  ASSERT_TRUE(model.Fit(train, &fit_rng).ok());

  fs::path dir = ScratchDir("oocore_emit_undecodable");
  fs::path ref = dir / "ref.csv";
  fs::path out = dir / "out.csv";
  SampleEmitOptions emit;
  emit.chunk_rows = 8;
  ASSERT_TRUE(SampleRowsToCsvStreaming(model, 30, 7, ref.string(), emit).ok());
  emit.checkpoint_dir = (dir / "ckpt").string();
  ASSERT_TRUE(SampleRowsToCsvStreaming(model, 30, 7, out.string(), emit).ok());
  const std::string empty_doc =
      ArtifactWriter("greater.chunk_checkpoint", 1).Finish();
  size_t overwritten = 0;
  for (const auto& entry : fs::directory_iterator(dir / "ckpt")) {
    Spit(entry.path(), empty_doc);
    ++overwritten;
  }
  ASSERT_EQ(overwritten, 4u);

  MetricsRegistry& metrics = MetricsRegistry::Global();
  const uint64_t hits = metrics.GetCounter("stream.chunk_hits").Value();
  const uint64_t misses = metrics.GetCounter("stream.chunk_misses").Value();
  const uint64_t corrupt = metrics.GetCounter("stream.chunk_corrupt").Value();
  const uint64_t replayed =
      metrics.GetCounter("stream.emit.checkpoint_hits").Value();
  const uint64_t chunks = metrics.GetCounter("stream.emit.chunks").Value();
  Result<SampleReport> rerun =
      SampleRowsToCsvStreaming(model, 30, 7, out.string(), emit);
  ASSERT_TRUE(rerun.ok()) << rerun.status();
  EXPECT_TRUE(rerun->Reconciles());
  EXPECT_EQ(Slurp(out), Slurp(ref));
  const uint64_t hit_delta =
      metrics.GetCounter("stream.chunk_hits").Value() - hits;
  const uint64_t miss_delta =
      metrics.GetCounter("stream.chunk_misses").Value() - misses;
  const uint64_t corrupt_delta =
      metrics.GetCounter("stream.chunk_corrupt").Value() - corrupt;
  EXPECT_EQ(hit_delta + miss_delta,
            metrics.GetCounter("stream.emit.chunks").Value() - chunks);
  EXPECT_LE(corrupt_delta, miss_delta);
  EXPECT_EQ(hit_delta,
            metrics.GetCounter("stream.emit.checkpoint_hits").Value() -
                replayed);
  EXPECT_EQ(corrupt_delta, 4u);
}

// ---------- the content-fingerprint memo keys emission ------------------

TEST_F(OocoreTest, FingerprintMemoKeysEmissionLikeAFreshSerialization) {
  // Emission resumes its key chain from the model's memoized fingerprint.
  // Whether the memo was empty, filled by an earlier serialization, or
  // dropped because a load replaced the model it described, the chunk
  // files and the output bytes must be the same.
  Table train = TrainTable(60);
  Counter& serializations =
      MetricsRegistry::Global().GetCounter("synth.serializations");
  fs::path dir = ScratchDir("oocore_fingerprint_memo");
  SampleEmitOptions emit;
  emit.chunk_rows = 8;
  struct Emitted {
    std::vector<std::string> files;
    std::string bytes;
    uint64_t serializations = 0;
  };
  auto emit_from = [&](const GreatSynthesizer& model, const std::string& tag) {
    emit.checkpoint_dir = (dir / ("ckpt_" + tag)).string();
    const fs::path out = dir / (tag + ".csv");
    const uint64_t before = serializations.Value();
    Result<SampleReport> report =
        SampleRowsToCsvStreaming(model, 30, 7, out.string(), emit);
    EXPECT_TRUE(report.ok()) << tag << ": " << report.status();
    Emitted emitted;
    emitted.serializations = serializations.Value() - before;
    emitted.files = FileNames(emit.checkpoint_dir);
    emitted.bytes = Slurp(out);
    return emitted;
  };

  // Never serialized: the emitter serializes once to fill the memo, and a
  // second emission from the same model reads the memo.
  GreatSynthesizer fresh{GreatSynthesizer::Options()};
  Rng fit_rng(17);
  ASSERT_TRUE(fresh.Fit(train, &fit_rng).ok());
  const Emitted reference = emit_from(fresh, "fresh");
  EXPECT_EQ(reference.serializations, 1u);
  EXPECT_EQ(reference.files.size(), 4u);
  EXPECT_EQ(emit_from(fresh, "fresh_again").serializations, 0u);

  // Serialized before emitting: the memo is the chain over those bytes,
  // and emission does not serialize again.
  GreatSynthesizer serialized{GreatSynthesizer::Options()};
  Rng fit_rng2(17);
  ASSERT_TRUE(serialized.Fit(train, &fit_rng2).ok());
  Result<std::string> bytes = serialized.SerializeBinary();
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  CheckpointChain chain;
  chain.Mix(*bytes);
  Result<uint64_t> fingerprint = serialized.ContentFingerprint();
  ASSERT_TRUE(fingerprint.ok()) << fingerprint.status();
  EXPECT_EQ(*fingerprint, chain.value());
  const Emitted memoized = emit_from(serialized, "serialized");
  EXPECT_EQ(memoized.serializations, 0u);
  EXPECT_EQ(memoized.files, reference.files);
  EXPECT_EQ(memoized.bytes, reference.bytes);

  // Loaded over a model whose memo describes other content: the load
  // drops that memo, so the keys are those of the loaded model. Each
  // target fills its memo right before it is overwritten.
  auto other_model = [&] {
    GreatSynthesizer::Options options;
    options.ngram.order = 2;
    GreatSynthesizer other(options);
    Rng other_rng(99);
    EXPECT_TRUE(other.Fit(TrainTable(40), &other_rng).ok());
    return other;
  };
  GreatSynthesizer loaded = other_model();
  ASSERT_NE(*loaded.ContentFingerprint(), *fingerprint);
  ASSERT_TRUE(loaded.DeserializeBinary(*bytes).ok());
  const Emitted reloaded = emit_from(loaded, "loaded");
  EXPECT_EQ(reloaded.serializations, 1u);
  EXPECT_EQ(reloaded.files, reference.files);
  EXPECT_EQ(reloaded.bytes, reference.bytes);

  // The same through Load from a file, and through a plain move-assign of
  // a freshly loaded model over a memoized one.
  const fs::path model_path = dir / "model.bin";
  ASSERT_TRUE(serialized.Save(model_path.string()).ok());
  GreatSynthesizer file_loaded = other_model();
  ASSERT_NE(*file_loaded.ContentFingerprint(), *fingerprint);
  ASSERT_TRUE(file_loaded.Load(model_path.string()).ok());
  EXPECT_EQ(emit_from(file_loaded, "file_loaded").files, reference.files);
  GreatSynthesizer assigned = other_model();
  ASSERT_NE(*assigned.ContentFingerprint(), *fingerprint);
  GreatSynthesizer source;
  ASSERT_TRUE(source.DeserializeBinary(*bytes).ok());
  assigned = std::move(source);
  EXPECT_EQ(emit_from(assigned, "assigned").files, reference.files);
}

TEST_F(OocoreTest, RunFromCsvStreamingSerializesTheModelOnce) {
  // The stage checkpoint's serialization fills the memo that keys
  // emission; a rerun that loads the model serializes it once to key
  // emission, and never to store it again.
  fs::path dir = ScratchDir("oocore_serialize_once");
  fs::path csv = dir / "input.csv";
  Spit(csv, NumericCsv(120));
  StreamingSynthesisOptions options;
  options.stream.chunk_rows = 32;
  options.emit_chunk_rows = 9;
  options.checkpoint_dir = (dir / "ckpt").string();
  Counter& serializations =
      MetricsRegistry::Global().GetCounter("synth.serializations");
  for (int run = 0; run < 2; ++run) {
    const uint64_t before = serializations.Value();
    Result<StreamingSynthesisResult> result = RunFromCsvStreaming(
        csv.string(), (dir / "out.csv").string(), 20, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->model_from_checkpoint, run == 1);
    EXPECT_EQ(serializations.Value() - before, 1u) << "run " << run;
  }
}

TEST_F(OocoreTest, RunFromCsvStreamingLastFitPassCountsEveryRow) {
  // A fresh durable run: the schema pass parses and stores every chunk,
  // and the last fit pass, whose report the result carries, restores them
  // all on the parse workers and still counts every row it delivers.
  fs::path dir = ScratchDir("oocore_pass_accounting");
  fs::path csv = dir / "input.csv";
  Spit(csv, NumericCsv(150));
  StreamingSynthesisOptions options;
  options.stream.chunk_rows = 16;
  options.stream.num_workers = 2;
  options.emit_chunk_rows = 9;
  options.checkpoint_dir = (dir / "ckpt").string();
  Result<StreamingSynthesisResult> result = RunFromCsvStreaming(
      csv.string(), (dir / "out.csv").string(), 20, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->model_from_checkpoint);
  EXPECT_EQ(result->input_rows, 150u);
  EXPECT_EQ(result->ingest.rows_out, 150u);
  EXPECT_EQ(result->ingest.rows_in, 150u);
  EXPECT_TRUE(result->ingest.Reconciles());
  EXPECT_EQ(result->ingest.chunks, 10u);
  EXPECT_EQ(result->ingest.chunk_checkpoint_hits, result->ingest.chunks);
}

// ---------- end-to-end driver: kill -9 anywhere, resume byte-identical --

TEST_F(OocoreTest, RunFromCsvStreamingSigkillAnywhereThenResume) {
  fs::path dir = ScratchDir("oocore_kill9");
  fs::path csv = dir / "input.csv";
  Spit(csv, NumericCsv(200));

  StreamingSynthesisOptions options;
  options.synthesizer.num_fit_shards = 3;
  options.stream.chunk_rows = 16;
  options.stream.queue_capacity = 2;
  options.stream.num_workers = 1;
  options.emit_chunk_rows = 9;

  // Reference run without any durability state.
  fs::path ref_out = dir / "ref.csv";
  Result<StreamingSynthesisResult> reference =
      RunFromCsvStreaming(csv.string(), ref_out.string(), 35, options);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_TRUE(reference->sample.Reconciles());

  // Kill -9 the run at several points; every phase — schema pass, fit
  // passes, emission — sits behind a checkpoint grain, so whatever state
  // survived is reused and the rest is recomputed.
  options.checkpoint_dir = (dir / "ckpt").string();
  fs::path out = dir / "out.csv";
  for (int attempt = 0; attempt < 3; ++attempt) {
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      Result<StreamingSynthesisResult> run =
          RunFromCsvStreaming(csv.string(), out.string(), 35, options);
      _exit(run.ok() ? 0 : 1);
    }
    ::usleep(400 * (attempt + 1) * (attempt + 1));
    ::kill(pid, SIGKILL);
    int wait_status = 0;
    ::waitpid(pid, &wait_status, 0);
  }

  Result<StreamingSynthesisResult> resumed =
      RunFromCsvStreaming(csv.string(), out.string(), 35, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->sample.Reconciles());
  EXPECT_EQ(resumed->input_rows, 200u);
  EXPECT_EQ(Slurp(out), Slurp(ref_out));

  // One more run over the now-complete store: the fit is skipped via the
  // model stage checkpoint and the bytes still match.
  Result<StreamingSynthesisResult> warm =
      RunFromCsvStreaming(csv.string(), out.string(), 35, options);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_TRUE(warm->model_from_checkpoint);
  EXPECT_EQ(Slurp(out), Slurp(ref_out));
}

}  // namespace
}  // namespace greater
