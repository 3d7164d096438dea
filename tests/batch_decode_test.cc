#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/digix.h"
#include "lm/decode_cache.h"
#include "obs/metrics.h"
#include "reference_decoder.h"
#include "stream/sample_emit.h"
#include "synth/batch_decode.h"
#include "synth/great_synthesizer.h"
#include "synth/sample_report.h"
#include "tabular/csv.h"
#include "tabular/table.h"

// Global allocation counter for the steady-state zero-allocation probe.
// The overrides apply binary-wide; only the delta across the measured
// lockstep steps is asserted on.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace greater {
namespace {

Table SmallTable() {
  Schema schema({Field("name", ValueType::kString),
                 Field("lunch", ValueType::kInt),
                 Field("device", ValueType::kInt)});
  Table t(schema);
  const char* names[] = {"Grace", "Yin", "Anson", "Mia"};
  Rng rng(5);
  for (int i = 0; i < 48; ++i) {
    EXPECT_TRUE(t.AppendRow({Value(names[i % 4]),
                             Value(rng.UniformInt(1, 2)),
                             Value(rng.UniformInt(1, 3))})
                    .ok());
  }
  return t;
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(a.GetRow(r), b.GetRow(r)) << "row " << r;
  }
}

GreatSynthesizer FitWith(GreatSynthesizer::Options options,
                         const Table& train, uint64_t fit_seed) {
  GreatSynthesizer synth(options);
  Rng fit(fit_seed);
  EXPECT_TRUE(synth.Fit(train, &fit).ok());
  return synth;
}

GreatSynthesizer::Options TinyNeuralOptions() {
  GreatSynthesizer::Options options;
  options.backbone = GreatSynthesizer::Backbone::kNeural;
  options.neural.context_window = 4;
  options.neural.embed_dim = 4;
  options.neural.hidden_dim = 8;
  options.neural.epochs = 2;
  options.neural.pretrain_epochs = 0;
  // The deliberately under-trained backbone can exhaust retry budgets;
  // lenient policy keeps the run alive, identically on every path.
  options.policy = SamplePolicy::kLenient;
  return options;
}

// ---------- Bitwise equivalence: engine vs reference decoder ----------

// 70 columns: wider than the engine's 64-bit name-memo masks, so every
// name-state draw takes the per-lane remaining-name fallback.
Table WideTable() {
  std::vector<Field> fields;
  for (int c = 0; c < 70; ++c) {
    fields.emplace_back("col_" + std::to_string(c), ValueType::kInt);
  }
  Table t{Schema(fields)};
  Rng rng(9);
  for (int r = 0; r < 24; ++r) {
    Row row;
    for (int c = 0; c < 70; ++c) {
      row.emplace_back(rng.UniformInt(0, c % 3 + 1));
    }
    EXPECT_TRUE(t.AppendRow(std::move(row)).ok());
  }
  return t;
}

Table NameConditions(size_t rows) {
  Table conditions(Schema({Field("name", ValueType::kString)}));
  const char* names[] = {"Grace", "Yin", "Anson", "Mia", "Nobody"};
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(conditions.AppendRow({Value(names[i % 5])}).ok());
  }
  return conditions;
}

Table WideConditions(size_t rows) {
  Table conditions(Schema({Field("col_3", ValueType::kInt),
                           Field("col_66", ValueType::kInt)}));
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(conditions
                    .AppendRow({Value(static_cast<int64_t>(i % 2)),
                                Value(static_cast<int64_t>(i % 3))})
                    .ok());
  }
  return conditions;
}

// Fits `options` on `train` at every chunk size in `chunks`, with the
// decode cache on and off, and checks Sample(n) — or SampleConditional
// when `conditions` is set — against the reference decoder over the same
// fitted model: the same table or the same error, the same caller Rng
// advance, and on success the same report. Successful reports are merged
// into `coverage` (when set) so callers can assert which paths ran.
void ExpectEngineMatchesReference(GreatSynthesizer::Options options,
                                  const Table& train,
                                  const Table* conditions, size_t n,
                                  const std::vector<size_t>& chunks,
                                  const std::string& tag,
                                  SampleReport* coverage = nullptr) {
  if (conditions != nullptr) n = conditions->num_rows();
  for (bool cache : {true, false}) {
    for (size_t chunk : chunks) {
      SCOPED_TRACE(tag + (cache ? " cache=on" : " cache=off") +
                   " batch_rows=" + std::to_string(chunk));
      options.decode_cache.enabled = cache;
      options.batch_rows = chunk;
      GreatSynthesizer synth = FitWith(options, train, 7);

      Rng engine_rng(11), reference_rng(11);
      SampleReport engine_report, reference_report;
      Result<Table> engine =
          conditions != nullptr
              ? synth.SampleConditional(*conditions, &engine_rng,
                                        &engine_report)
              : synth.Sample(n, &engine_rng, &engine_report);
      Result<Table> reference = ReferenceDecoder(synth).Sample(
          n, conditions, &reference_rng, &reference_report);
      EXPECT_EQ(engine_rng.Uniform(), reference_rng.Uniform());
      ASSERT_EQ(engine.ok(), reference.ok())
          << "engine: " << engine.status()
          << " reference: " << reference.status();
      if (!engine.ok()) {
        // Strict failure: the first failing row, with the same context.
        // Reports may differ, since the engine finishes the failing chunk.
        EXPECT_EQ(engine.status().ToString(), reference.status().ToString());
        continue;
      }
      ExpectTablesEqual(*reference, *engine);
      EXPECT_EQ(reference_report.ToString(), engine_report.ToString());
      EXPECT_TRUE(engine_report.Reconciles());
      if (coverage != nullptr) coverage->Merge(engine_report);
    }
  }
}

const std::vector<size_t> kChunkSizes = {1, 2, 3, 8, 64};

TEST(BatchDecodeTest, EngineEqualsReferenceNGram) {
  Table train = SmallTable();
  Table conditions = NameConditions(12);
  GreatSynthesizer::Options options;
  for (SamplePolicy policy : {SamplePolicy::kStrict, SamplePolicy::kLenient}) {
    options.policy = policy;
    std::string tag = std::string("ngram ") + SamplePolicyToString(policy);
    ExpectEngineMatchesReference(options, train, nullptr, 30, kChunkSizes,
                                 tag);
    ExpectEngineMatchesReference(options, train, &conditions, 0, kChunkSizes,
                                 tag + " conditional");
  }
}

TEST(BatchDecodeTest, EngineEqualsReferenceNeural) {
  Table train = SmallTable();
  Table conditions = NameConditions(8);
  GreatSynthesizer::Options options = TinyNeuralOptions();
  for (SamplePolicy policy : {SamplePolicy::kStrict, SamplePolicy::kLenient}) {
    options.policy = policy;
    std::string tag = std::string("neural ") + SamplePolicyToString(policy);
    ExpectEngineMatchesReference(options, train, nullptr, 12, kChunkSizes,
                                 tag);
    ExpectEngineMatchesReference(options, train, &conditions, 0, kChunkSizes,
                                 tag + " conditional");
  }
}

// Multi-word city names: their tokens recombine into unseen values
// ("San York"), which drives the invalid-value rejection and, on the last
// attempt, the snap-to-observed path.
Table CityTable() {
  Schema schema({Field("name", ValueType::kString),
                 Field("city", ValueType::kString),
                 Field("lunch", ValueType::kInt)});
  Table t(schema);
  const char* names[] = {"Grace", "Yin", "Anson", "Mia"};
  const char* cities[] = {"New York", "Los Angeles", "San Jose",
                          "San Diego", "New Haven"};
  Rng rng(5);
  for (int i = 0; i < 48; ++i) {
    Row row;
    row.emplace_back(names[i % 4]);
    row.emplace_back(cities[rng.Index(5)]);
    row.emplace_back(rng.UniformInt(1, 2));
    EXPECT_TRUE(t.AppendRow(std::move(row)).ok());
  }
  return t;
}

TEST(BatchDecodeTest, EngineEqualsReferenceFreeValueMode) {
  // Free-value decoding with a tight retry budget drives the rejection,
  // fallback-grammar and snap paths; every one of those branches must
  // consume the same per-row stream. Without the fallback, strict runs
  // can also fail, which must surface as the same first error.
  Table train = CityTable();
  Table conditions = NameConditions(10);
  SampleReport coverage;
  GreatSynthesizer::Options options;
  // A bigram model conditions value tokens on "is" alone, so free-value
  // draws often borrow another column's tokens.
  options.ngram.order = 2;
  options.constrain_values_to_column = false;
  options.max_attempts_per_row = 3;
  for (SamplePolicy policy : {SamplePolicy::kStrict, SamplePolicy::kLenient}) {
    for (bool fallback : {true, false}) {
      options.policy = policy;
      options.fallback_to_constrained = fallback;
      std::string tag = std::string("free ") + SamplePolicyToString(policy) +
                        (fallback ? " fallback" : " no-fallback");
      ExpectEngineMatchesReference(options, train, nullptr, 20, kChunkSizes,
                                   tag, &coverage);
      ExpectEngineMatchesReference(options, train, &conditions, 0,
                                   kChunkSizes, tag + " conditional",
                                   &coverage);
    }
  }
  EXPECT_GT(coverage.rejected_invalid_value, 0u);
  EXPECT_GT(coverage.fallback_grammar_uses, 0u);
  EXPECT_GT(coverage.snapped_cells, 0u);
  EXPECT_GT(coverage.rows_exhausted, 0u);
}

// Multi-word values: a row runs to several times the arena's starting
// stride (four tokens per column), so every chunk widens it while lanes
// are mid-row, conditioned prefixes included.
TEST(BatchDecodeTest, ArenaWidensMidChunkAndEqualsReference) {
  Schema schema({Field("name", ValueType::kString),
                 Field("motto", ValueType::kString)});
  Table train(schema);
  const char* names[] = {"Grace", "Yin", "Anson", "Mia"};
  const char* mottos[] = {"slow and steady wins the long race today",
                          "measure twice then cut once and measure again",
                          "the early bird gets the worm every single time"};
  Rng rng(3);
  for (int i = 0; i < 36; ++i) {
    ASSERT_TRUE(
        train.AppendRow({Value(names[i % 4]), Value(mottos[rng.Index(3)])})
            .ok());
  }
  Table conditions = NameConditions(12);
  GreatSynthesizer::Options options;
  ExpectEngineMatchesReference(options, train, nullptr, 24, {1, 8, 64},
                               "long values");
  ExpectEngineMatchesReference(options, train, &conditions, 0, {1, 8, 64},
                               "long values conditional");
}

TEST(BatchDecodeTest, EngineEqualsReferenceWideSchema) {
  Table train = WideTable();
  Table conditions = WideConditions(6);
  GreatSynthesizer::Options options;
  options.encoder.permutations_per_row = 1;
  ExpectEngineMatchesReference(options, train, nullptr, 8, {1, 8}, "wide");
  ExpectEngineMatchesReference(options, train, &conditions, 0, {1, 8},
                               "wide conditional");
}

// ---------- Wide decode frontier ----------

// The 14-column DIGIX ads table. Columns are named in random order, so a
// lane may name any column it has not yet emitted: one 1,024-lane chunk
// memoizes thousands of distinct emitted-column masks, and the name memo's
// index grows several times within the chunk.
Table DigixAds() {
  DigixOptions options;
  options.num_users = 100;
  options.include_identifier_columns = false;
  Rng rng(2026);
  Result<DigixDataset> data = DigixGenerator(options).Generate(&rng);
  EXPECT_TRUE(data.ok()) << data.status();
  return std::move(data).ValueOrDie().ads;
}

TEST(BatchDecodeTest, EngineEqualsReferenceWideFrontier) {
  Table train = DigixAds();
  ASSERT_EQ(train.num_columns(), 14u);
  ASSERT_GE(train.num_rows(), 200u);
  ExpectEngineMatchesReference(GreatSynthesizer::Options(), train, nullptr,
                               1024, {1, 1024}, "digix");
}

// Lockstep grouping on the wide frontier, pinned at the values the
// scan-based name memo produced. Equal group_evals means lanes at the same
// frontier still share one remaining-name list and one interned id.
TEST(BatchDecodeTest, WideFrontierGroupingIsPinned) {
  Table train = DigixAds();
  struct Expected {
    bool cache;
    uint64_t steps, lane_steps, group_evals;
  };
  for (const Expected& expected :
       {Expected{true, 87, 44347, 18114},
        Expected{false, 87, 44347, 18114}}) {
    SCOPED_TRACE(expected.cache ? "cache=on" : "cache=off");
    GreatSynthesizer::Options options;
    options.decode_cache.enabled = expected.cache;
    GreatSynthesizer synth = FitWith(options, train, 7);
    BatchDecodeEngine engine(synth);
    DecodeCache cache(options.decode_cache);
    DecodeWorkspace decode;
    SampleReport report;
    std::vector<Result<Row>> out;
    engine.RunChunk(0, 1024, nullptr, 2026,
                    expected.cache ? &cache : nullptr, &decode, &report, 0,
                    &out);
    ASSERT_EQ(out.size(), 1024u);
    EXPECT_TRUE(report.Reconciles());
    const BatchDecodeEngine::LocalStats& stats = engine.stats();
    EXPECT_EQ(stats.steps, expected.steps);
    EXPECT_EQ(stats.lane_steps, expected.lane_steps);
    EXPECT_EQ(stats.group_evals, expected.group_evals);
  }
}

// Checks one RunChunk call on `engine` against the reference decoder row
// by row: lane i decodes from Rng(DeriveStreamSeed(base, begin + i)) with
// conditions row begin + i forced, so each lane equals a reference
// SampleRow on that stream — the same row or the same error, and the same
// accounting.
void ExpectChunkMatchesReference(BatchDecodeEngine* engine,
                                 const GreatSynthesizer& synth, size_t begin,
                                 size_t end, const Table* conditions,
                                 uint64_t base, DecodeCache* cache,
                                 const std::string& tag) {
  SCOPED_TRACE(tag);
  DecodeWorkspace decode;
  SampleReport engine_report;
  std::vector<Result<Row>> out;
  engine->RunChunk(begin, end, conditions, base, cache, &decode,
                   &engine_report, 0, &out);
  ASSERT_EQ(out.size(), end - begin);

  ReferenceDecoder reference(synth);
  SampleReport reference_report;
  std::map<std::string, Value> forced;
  for (size_t row = begin; row < end; ++row) {
    if (conditions != nullptr) {
      forced.clear();
      for (size_t c = 0; c < conditions->num_columns(); ++c) {
        forced[conditions->schema().field(c).name] = conditions->at(row, c);
      }
    }
    Rng rng(Rng::DeriveStreamSeed(base, row));
    Result<Row> expected = reference.SampleRow(
        &rng, conditions != nullptr ? &forced : nullptr, &reference_report);
    const Result<Row>& actual = out[row - begin];
    ASSERT_EQ(expected.ok(), actual.ok()) << "row " << row;
    if (expected.ok()) {
      EXPECT_EQ(*expected, *actual) << "row " << row;
    } else {
      EXPECT_EQ(expected.status().ToString(), actual.status().ToString())
          << "row " << row;
    }
  }
  EXPECT_EQ(reference_report.ToString(), engine_report.ToString());
}

// The name memo's index keeps its capacity across RunLanes calls and
// resets only the slots the previous call used. A slot left over from an
// earlier, larger call must never hand a later call a list or an interned
// id from it — least of all one interned in a different DecodeCache.
TEST(BatchDecodeTest, SmallCallAfterLargeOneEqualsReference) {
  Table train = DigixAds();
  GreatSynthesizer::Options options;
  GreatSynthesizer synth = FitWith(options, train, 7);
  BatchDecodeEngine engine(synth);
  DecodeCache first(options.decode_cache);
  DecodeCache second(options.decode_cache);

  const size_t column = 3;
  Table conditions(Schema({train.schema().field(column)}));
  ASSERT_TRUE(conditions.AppendRow({train.at(0, column)}).ok());

  ExpectChunkMatchesReference(&engine, synth, 0, 1024, nullptr, 77, &first,
                              "1024 lanes, first cache");
  ExpectChunkMatchesReference(&engine, synth, 0, 1, &conditions, 78, &first,
                              "1 conditional lane, first cache");
  ExpectChunkMatchesReference(&engine, synth, 0, 64, nullptr, 79, &second,
                              "64 lanes, second cache");
  ExpectChunkMatchesReference(&engine, synth, 0, 64, nullptr, 80, nullptr,
                              "64 lanes, cache off");
}

// Lockstep DIGIX chunks rarely repeat a draw key, so the cache stops
// admitting in its second window and evicts the entries no lookup hit.
// From then on most draws resolve through the scratch entry, and the rows
// must still equal the reference decoder's, chunk after chunk.
TEST(BatchDecodeTest, RefusingCacheEqualsReference) {
  Table train = DigixAds();
  GreatSynthesizer::Options options;
  GreatSynthesizer synth = FitWith(options, train, 7);
  BatchDecodeEngine engine(synth);
  DecodeCache cache(options.decode_cache);
  ExpectChunkMatchesReference(&engine, synth, 0, 1024, nullptr, 91, &cache,
                              "first chunk");
  ExpectChunkMatchesReference(&engine, synth, 1024, 2048, nullptr, 91,
                              &cache, "second chunk");
  EXPECT_FALSE(cache.admitting());
  EXPECT_GT(cache.stats().refused, cache.stats().hits);
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(BatchDecodeTest, SampleRowIsAChunkOfOne) {
  GreatSynthesizer synth =
      FitWith(GreatSynthesizer::Options(), SmallTable(), 7);
  std::map<std::string, Value> forced = {{"name", Value("Nobody")}};
  Rng r1(3), r2(3);
  Row row = synth.SampleRow(&r1, &forced).ValueOrDie();
  Table conditions(Schema({Field("name", ValueType::kString)}));
  ASSERT_TRUE(conditions.AppendRow({Value("Nobody")}).ok());
  Table table = synth.SampleConditional(conditions, &r2).ValueOrDie();
  EXPECT_EQ(row, table.GetRow(0));
  EXPECT_EQ(row[0].as_string(), "Nobody");

  Rng r3(5), r4(5);
  Row free_row = synth.SampleRow(&r3).ValueOrDie();
  EXPECT_EQ(free_row, synth.Sample(1, &r4).ValueOrDie().GetRow(0));
  EXPECT_EQ(r3.Uniform(), r4.Uniform());
}

TEST(BatchDecodeTest, ParallelChunksEqualReference) {
  // Rows own their derived streams, so output is invariant to the whole
  // scheduling cross-product: 4 workers x lockstep chunks must equal the
  // one-row-at-a-time reference.
  Table train = SmallTable();
  GreatSynthesizer::Options options;
  options.num_threads = 4;
  for (size_t chunk : {1u, 8u}) {
    options.batch_rows = chunk;
    GreatSynthesizer synth = FitWith(options, train, 7);
    Rng r1(31), r2(31);
    Table engine = synth.Sample(40, &r1).ValueOrDie();
    Table reference =
        ReferenceDecoder(synth).Sample(40, nullptr, &r2).ValueOrDie();
    SCOPED_TRACE("batch_rows=" + std::to_string(chunk));
    ExpectTablesEqual(reference, engine);
  }
}

TEST(BatchDecodeTest, SampleRowsPoolEqualsSampleAtAnyBatch) {
  Table train = SmallTable();
  GreatSynthesizer::Options options;
  options.batch_rows = 5;
  GreatSynthesizer synth = FitWith(options, train, 7);

  Rng r1(37), r2(37);
  ThreadPool pool(3);
  Table via_pool = synth.SampleRows(25, &r1, &pool).ValueOrDie();
  Table via_sample = synth.Sample(25, &r2).ValueOrDie();
  ExpectTablesEqual(via_pool, via_sample);
}

// ---------- Options codec ----------

TEST(BatchDecodeTest, BatchRowsSurvivesSerializeRoundTrip) {
  Table train = SmallTable();
  GreatSynthesizer::Options options;
  options.batch_rows = 16;
  GreatSynthesizer synth = FitWith(options, train, 7);
  std::string bytes = synth.SerializeBinary().ValueOrDie();
  GreatSynthesizer loaded;
  ASSERT_TRUE(loaded.DeserializeBinary(bytes).ok());
  EXPECT_EQ(loaded.options().batch_rows, 16u);

  Rng r1(41), r2(41);
  Table t_orig = synth.Sample(15, &r1).ValueOrDie();
  Table t_loaded = loaded.Sample(15, &r2).ValueOrDie();
  ExpectTablesEqual(t_orig, t_loaded);
}

// ---------- synth.batch.* metrics ----------

TEST(BatchDecodeTest, BatchMetricsReconcile) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& lanes = registry.GetCounter("synth.batch.lanes");
  Counter& lane_steps = registry.GetCounter("synth.batch.lane_steps");
  Counter& group_evals = registry.GetCounter("synth.batch.group_evals");
  Counter& saved = registry.GetCounter("synth.batch.model_evals_saved");
  uint64_t lanes_before = lanes.Value();
  uint64_t lane_steps_before = lane_steps.Value();
  uint64_t group_evals_before = group_evals.Value();
  uint64_t saved_before = saved.Value();

  Table train = SmallTable();
  GreatSynthesizer::Options options;
  options.batch_rows = 8;
  GreatSynthesizer synth = FitWith(options, train, 7);
  Rng rng(11);
  ASSERT_TRUE(synth.Sample(32, &rng).ok());

  uint64_t lanes_delta = lanes.Value() - lanes_before;
  uint64_t lane_steps_delta = lane_steps.Value() - lane_steps_before;
  uint64_t group_evals_delta = group_evals.Value() - group_evals_before;
  uint64_t saved_delta = saved.Value() - saved_before;
  EXPECT_EQ(lanes_delta, 32u);
  // Every lane-step was served by exactly one group evaluation, shared or
  // private: evals + saved == lane-steps.
  EXPECT_EQ(group_evals_delta + saved_delta, lane_steps_delta);
  // Lanes start in lockstep from the same empty context, so grouping must
  // actually share evaluations.
  EXPECT_GT(saved_delta, 0u);
}

// ---------- Steady-state allocation discipline ----------

struct AllocProbe {
  uint64_t at_step1 = 0;
  uint64_t at_step4 = 0;
};

TEST(BatchDecodeTest, SteadyStateLockstepStepsDoNotAllocate) {
  Table train = SmallTable();
  // Cache off keeps the measured window free of cache insertions (misses
  // on fresh contexts allocate by design); the grouped CDF-replay path is
  // the pure hot loop.
  GreatSynthesizer::Options options;
  options.decode_cache.enabled = false;
  options.batch_rows = 8;
  GreatSynthesizer synth = FitWith(options, train, 7);

  BatchDecodeEngine engine(synth);
  SampleReport report;
  DecodeWorkspace decode;
  std::vector<Result<Row>> out;
  // Warm chunk: sizes the arena, lane vectors, and draw scratch.
  engine.RunChunk(0, 8, nullptr, 99, nullptr, &decode, &report, 0, &out);

  // Measured chunk: early lockstep steps (1 through 4) run entirely in
  // pre-sized state — no lane can finalize a row that early, so the only
  // work is grouped evaluation, CDF draws, and plain token stores.
  AllocProbe probe;
  engine.on_step_user = &probe;
  engine.on_step_for_testing = [](size_t step, size_t /*groups*/,
                                  void* user) {
    auto* p = static_cast<AllocProbe*>(user);
    if (step == 1) p->at_step1 = g_allocations.load();
    if (step == 4) p->at_step4 = g_allocations.load();
  };
  out.clear();
  engine.RunChunk(8, 16, nullptr, 99, nullptr, &decode, &report, 0, &out);
  engine.on_step_for_testing = nullptr;

  ASSERT_GT(probe.at_step1, 0u);
  EXPECT_EQ(probe.at_step4 - probe.at_step1, 0u)
      << "lockstep steps 2-4 allocated";
  EXPECT_EQ(out.size(), 8u);
  EXPECT_TRUE(report.Reconciles());
}

// ---------- Direct engine use: report parity ----------

TEST(BatchDecodeTest, RunChunkReportMatchesSampleReportContract) {
  Table train = SmallTable();
  GreatSynthesizer::Options options;
  options.batch_rows = 4;
  GreatSynthesizer synth = FitWith(options, train, 7);

  BatchDecodeEngine engine(synth);
  SampleReport report;
  DecodeWorkspace decode;
  DecodeCache cache(options.decode_cache);
  std::vector<Result<Row>> out;
  engine.RunChunk(0, 12, nullptr, 1234, &cache, &decode, &report, 0, &out);
  ASSERT_EQ(out.size(), 12u);
  for (const Result<Row>& row : out) {
    EXPECT_TRUE(row.ok() ||
                row.status().code() == StatusCode::kResourceExhausted);
  }
  EXPECT_TRUE(report.Reconciles());
  EXPECT_EQ(report.rows_requested, 12u);
  const BatchDecodeEngine::LocalStats& stats = engine.stats();
  EXPECT_EQ(stats.lanes, 12u);
  EXPECT_EQ(stats.group_evals + stats.model_evals_saved, stats.lane_steps);
}

// ---------- Golden bytes ----------

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x00000100000001b3ull;
  }
  return h;
}

std::string Hex(uint64_t h) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

struct GoldenHashes {
  uint64_t sample;       ///< WriteCsvString(Sample(200))
  uint64_t conditional;  ///< WriteCsvString(SampleConditional(50 rows))
  uint64_t emitted;      ///< file bytes of SampleRowsToCsvStreaming(200)
};

// The hashes were recorded from the per-row decoder that preceded the
// single engine path (Sample and SampleConditional at the default
// batch_rows = 1). Any change to decode, draw, grammar or rendering order
// moves them.
void ExpectGoldenBytes(const GreatSynthesizer::Options& options,
                       const std::string& tag, const GoldenHashes& expected) {
  GreatSynthesizer synth = FitWith(options, SmallTable(), 7);

  Rng sample_rng(2026);
  Result<Table> sample = synth.Sample(200, &sample_rng);
  ASSERT_TRUE(sample.ok()) << sample.status();
  EXPECT_EQ(Hex(Fnv1a(WriteCsvString(*sample))), Hex(expected.sample))
      << tag << " Sample(200)";

  Table conditions(Schema({Field("name", ValueType::kString)}));
  const char* names[] = {"Grace", "Yin", "Anson", "Mia", "Nobody"};
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(conditions.AppendRow({Value(names[i % 5])}).ok());
  }
  Rng cond_rng(2027);
  Result<Table> conditional = synth.SampleConditional(conditions, &cond_rng);
  ASSERT_TRUE(conditional.ok()) << conditional.status();
  EXPECT_EQ(Hex(Fnv1a(WriteCsvString(*conditional))),
            Hex(expected.conditional))
      << tag << " SampleConditional(50)";

  std::string path = testing::TempDir() + "greater_golden_" + tag + ".csv";
  SampleEmitOptions emit;
  emit.chunk_rows = 64;
  Result<SampleReport> emitted =
      SampleRowsToCsvStreaming(synth, 200, 2028, path, emit);
  ASSERT_TRUE(emitted.ok()) << emitted.status();
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  EXPECT_EQ(Hex(Fnv1a(bytes)), Hex(expected.emitted))
      << tag << " SampleRowsToCsvStreaming(200)";
  std::remove(path.c_str());
}

TEST(GoldenBytesTest, NGramBackbone) {
  ExpectGoldenBytes(GreatSynthesizer::Options(), "ngram",
                    {0x339e896b4e28dadcull, 0x72a8758c74304d67ull,
                     0x3d0b0ad0144ef873ull});
}

TEST(GoldenBytesTest, NeuralBackbone) {
  ExpectGoldenBytes(TinyNeuralOptions(), "neural",
                    {0xa703fc60c08f3b2dull, 0xf83f8fce56fd4221ull,
                     0xffe729b9504f979full});
}

}  // namespace
}  // namespace greater
