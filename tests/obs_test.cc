// Observability-layer suite: metric semantics (counters, gauges,
// histograms), span nesting and parenting, concurrency from ThreadPool
// workers, JSON golden output, and the deterministic-replay contract —
// two seeded pipeline runs at num_threads=1 export byte-identical
// deterministic snapshots.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "crosstable/pipeline.h"
#include "datagen/digix.h"
#include "lm/ngram_lm.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace greater {
namespace {

// ---------- Counter / Gauge / Histogram semantics ----------

TEST(CounterTest, IncrementsSumAndReset) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment();
  EXPECT_EQ(counter.Value(), 1u);
}

TEST(GaugeTest, SetAddAndReset) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0.0);
  gauge.Set(2.5);
  EXPECT_EQ(gauge.Value(), 2.5);
  gauge.Add(-1.0);
  EXPECT_EQ(gauge.Value(), 1.5);
  gauge.Set(7.0);  // last writer wins over accumulated value
  EXPECT_EQ(gauge.Value(), 7.0);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0.0);
}

TEST(HistogramTest, BucketsAreInclusiveUpperBounds) {
  Histogram histogram({1.0, 10.0});
  histogram.Observe(0.5);   // <= 1   -> bucket 0
  histogram.Observe(1.0);   // == 1   -> bucket 0 (inclusive)
  histogram.Observe(5.0);   // <= 10  -> bucket 1
  histogram.Observe(100.0); // beyond -> overflow bucket
  std::vector<uint64_t> counts = histogram.BucketCounts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(histogram.TotalCount(), 4u);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 106.5);
  histogram.Reset();
  EXPECT_EQ(histogram.TotalCount(), 0u);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 0.0);
}

TEST(HistogramTest, BoundsAreSortedAndDeduplicated) {
  Histogram histogram({10.0, 1.0, 10.0, 5.0});
  std::vector<double> expected = {1.0, 5.0, 10.0};
  EXPECT_EQ(histogram.bounds(), expected);
}

TEST(HistogramTest, DefaultLatencyLadderSpansMicrosecondsToSeconds) {
  std::vector<double> bounds = Histogram::DefaultLatencyBucketsUs();
  ASSERT_FALSE(bounds.empty());
  EXPECT_EQ(bounds.front(), 1.0);      // 1 us
  EXPECT_EQ(bounds.back(), 5.0e6);     // 5 s
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
}

// ---------- Registry object identity ----------

TEST(MetricsRegistryTest, MetricsKeepIdentityAcrossReset) {
  MetricsRegistry registry;
  Counter* counter = &registry.GetCounter("events");
  Gauge* gauge = &registry.GetGauge("level");
  counter->Increment(5);
  gauge->Set(3.0);
  registry.Reset();
  // Reset zeroes in place: cached pointers stay valid and re-resolve to
  // the same objects, so hot paths may cache them in static locals.
  EXPECT_EQ(&registry.GetCounter("events"), counter);
  EXPECT_EQ(&registry.GetGauge("level"), gauge);
  EXPECT_EQ(counter->Value(), 0u);
  EXPECT_EQ(gauge->Value(), 0.0);
  counter->Increment();
  EXPECT_EQ(registry.GetCounter("events").Value(), 1u);
}

// ---------- Concurrency ----------

TEST(MetricsConcurrencyTest, ParallelForIncrementsAreLossless) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("hits");
  Histogram& histogram = registry.GetHistogram("values", {10.0, 100.0});
  ThreadPool pool(4);
  constexpr size_t kItems = 20000;
  pool.ParallelFor(kItems, 4, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      counter.Increment();
      histogram.Observe(static_cast<double>(i % 200));
    }
  });
  EXPECT_EQ(counter.Value(), kItems);
  EXPECT_EQ(histogram.TotalCount(), kItems);
}

// ---------- n-gram model gauges ----------

TEST(NGramGaugeTest, GaugesMatchFrozenAndLoadedModel) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.Reset();
  // [bos 3 4 eos] and [bos 3 5 eos] at order 3. Contexts: the empty one;
  // (1) (3) (4) (5); (1 3) (3 4) (3 5) -> 8. Successor cells: empty ->
  // {2 3 4 5}, (1) -> {3}, (3) -> {4 5}, (4) -> {2}, (5) -> {2},
  // (1 3) -> {4 5}, (3 4) -> {2}, (3 5) -> {2} -> 13.
  NGramLm::Options options;
  options.order = 3;
  NGramLm lm(6, options);
  ASSERT_TRUE(lm.Fit({{3, 4}, {3, 5}}).ok());
  EXPECT_EQ(lm.num_contexts(), 8u);
  EXPECT_EQ(lm.num_successors(), 13u);
  EXPECT_EQ(metrics.GetGauge("lm.ngram.contexts").Value(), 8.0);
  EXPECT_EQ(metrics.GetGauge("lm.ngram.successors").Value(), 13.0);
  // At least the flat arrays: per context a suffix id, token, total and
  // CSR offset; per cell a token and a count.
  EXPECT_GE(lm.model_bytes(), 8u * (4 + 4 + 8 + 8) + 13u * (4 + 8));
  EXPECT_EQ(metrics.GetGauge("lm.ngram.model_bytes").Value(),
            static_cast<double>(lm.model_bytes()));

  metrics.Reset();
  NGramLm loaded(1);
  ASSERT_TRUE(loaded.DeserializeBinary(lm.SerializeBinary()).ok());
  EXPECT_EQ(metrics.GetGauge("lm.ngram.contexts").Value(), 8.0);
  EXPECT_EQ(metrics.GetGauge("lm.ngram.successors").Value(), 13.0);
  EXPECT_EQ(metrics.GetGauge("lm.ngram.model_bytes").Value(),
            static_cast<double>(loaded.model_bytes()));
}

// ---------- Spans ----------

TEST(SpanTest, NestingUsesThreadLocalParent) {
  MetricsRegistry registry;
  uint64_t outer_id = 0, inner_id = 0;
  EXPECT_EQ(Span::CurrentId(), Span::kNoParent);
  {
    Span outer("outer", &registry);
    outer_id = outer.id();
    EXPECT_EQ(Span::CurrentId(), outer_id);
    {
      Span inner("inner", &registry);
      inner_id = inner.id();
      EXPECT_EQ(Span::CurrentId(), inner_id);
    }
    EXPECT_EQ(Span::CurrentId(), outer_id);
  }
  EXPECT_EQ(Span::CurrentId(), Span::kNoParent);

  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.spans.size(), 2u);
  // Snapshot sorts by id: outer opened first.
  EXPECT_EQ(snapshot.spans[0].name, "outer");
  EXPECT_EQ(snapshot.spans[0].parent_id, Span::kNoParent);
  EXPECT_EQ(snapshot.spans[1].name, "inner");
  EXPECT_EQ(snapshot.spans[1].parent_id, outer_id);
  EXPECT_EQ(snapshot.spans[1].id, inner_id);
}

TEST(SpanTest, ExplicitParentLinksWorkerSpansAcrossThreads) {
  MetricsRegistry registry;
  ThreadPool pool(2);
  uint64_t parent_id = 0;
  {
    Span parent("dispatch", &registry);
    parent_id = parent.id();
    // Pool workers cannot see this thread's span stack: capture the
    // current id and pass it explicitly (the SampleMany pattern).
    uint64_t captured = Span::CurrentId();
    pool.ParallelFor(4, 2, [&](size_t, size_t, size_t) {
      Span worker("worker", captured, &registry);
    });
  }
  MetricsSnapshot snapshot = registry.Snapshot();
  size_t workers = 0;
  for (const SpanRecord& span : snapshot.spans) {
    if (span.name != "worker") continue;
    ++workers;
    EXPECT_EQ(span.parent_id, parent_id);
  }
  EXPECT_EQ(workers, 2u);  // one span per shard
}

TEST(SpanTest, RecordsBeyondCapAreDroppedAndCounted) {
  MetricsRegistry registry;
  registry.set_max_spans(2);
  for (int i = 0; i < 5; ++i) {
    Span span("s", &registry);
  }
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.spans.size(), 2u);
  EXPECT_EQ(registry.GetCounter("obs.spans_dropped").Value(), 3u);
}

TEST(SpanTest, AggregateSpansFiltersByParent) {
  MetricsRegistry registry;
  uint64_t root_id = 0;
  {
    Span root("root", &registry);
    root_id = root.id();
    { Span a("stage", &registry); }
    {
      Span b("stage", &registry);
      { Span grandchild("stage", &registry); }  // child of b, not of root
    }
  }
  MetricsSnapshot snapshot = registry.Snapshot();
  auto all = AggregateSpans(snapshot.spans);
  EXPECT_EQ(all["stage"].count, 3u);
  auto direct = AggregateSpans(snapshot.spans, root_id);
  EXPECT_EQ(direct["stage"].count, 2u);
  auto roots = AggregateSpans(snapshot.spans, Span::kNoParent);
  EXPECT_EQ(roots["root"].count, 1u);
  EXPECT_EQ(roots.count("stage"), 0u);
}

// ---------- JSON export ----------

TEST(MetricsJsonTest, GoldenOutput) {
  MetricsRegistry registry;
  registry.GetCounter("events").Increment(3);
  registry.GetGauge("ratio").Set(0.5);
  Histogram& histogram = registry.GetHistogram("lat", {1.0, 10.0});
  histogram.Observe(0.5);
  histogram.Observe(5.0);
  histogram.Observe(100.0);

  EXPECT_EQ(registry.ToJson(MetricsRegistry::JsonMode::kDeterministic),
            "{\n"
            "  \"counters\": {\n"
            "    \"events\": 3\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"ratio\": 0.5\n"
            "  }\n"
            "}\n");
  EXPECT_EQ(registry.ToJson(MetricsRegistry::JsonMode::kFull),
            "{\n"
            "  \"counters\": {\n"
            "    \"events\": 3\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"ratio\": 0.5\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"lat\": {\"bounds\": [1, 10], \"counts\": [1, 1, 1], "
            "\"count\": 3, \"sum\": 105.5}\n"
            "  },\n"
            "  \"spans\": []\n"
            "}\n");
}

TEST(MetricsJsonTest, EmptyRegistryIsValidJson) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.ToJson(MetricsRegistry::JsonMode::kFull),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n"
            "  \"histograms\": {},\n  \"spans\": []\n}\n");
}

// ---------- Pipeline integration: span tree + deterministic replay ----------

class ObsPipelineTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(42);
    DigixOptions options;
    options.num_users = 60;
    DigixGenerator gen(options);
    data_ = new DigixDataset(gen.Generate(&rng).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  static PipelineOptions FastOptions() {
    PipelineOptions options;
    options.fusion = FusionMethod::kGreaterMedianThreshold;
    options.semantic = SemanticMode::kNone;
    options.synth.encoder.permutations_per_row = 1;
    return options;
  }

  static DigixDataset* data_;
};

DigixDataset* ObsPipelineTest::data_ = nullptr;

TEST_F(ObsPipelineTest, RunEmitsSpanTreeCoveringEveryStage) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  MultiTablePipeline pipeline(FastOptions());
  Rng rng(7);
  ASSERT_TRUE(pipeline.Run(data_->ads, data_->feeds, "user_id", &rng).ok());

  MetricsSnapshot snapshot = registry.Snapshot();
  const SpanRecord* run = nullptr;
  for (const SpanRecord& span : snapshot.spans) {
    if (span.name == "pipeline.run") run = &span;
  }
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->parent_id, Span::kNoParent);

  // Every stage of this configuration appears as a direct child of the
  // run span...
  auto stages = AggregateSpans(snapshot.spans, run->id);
  for (const char* name :
       {"stage.validate-input", "stage.enhancement", "stage.parent-extract",
        "stage.semantic-enhance", "stage.flatten", "stage.independence",
        "stage.reduce", "stage.fit", "stage.sample", "stage.inverse-map"}) {
    EXPECT_EQ(stages.count(name), 1u) << "missing stage span " << name;
  }
  // ...and the stages tile the run: their wall times sum to within 10% of
  // the run span's total.
  uint64_t stage_ns = 0;
  for (const auto& [name, agg] : stages) stage_ns += agg.total_ns;
  EXPECT_GE(static_cast<double>(stage_ns),
            0.9 * static_cast<double>(run->duration_ns));
  EXPECT_LE(stage_ns, run->duration_ns);

  // Sampler work nests under the owning stage: decode-engine chunk spans
  // sit below stage.sample, and every requested row was one engine lane.
  std::map<uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& span : snapshot.spans) by_id[span.id] = &span;
  auto under_stage_sample = [&](const SpanRecord& span) {
    for (auto it = by_id.find(span.parent_id); it != by_id.end();
         it = by_id.find(it->second->parent_id)) {
      if (it->second->name == "stage.sample") return true;
    }
    return false;
  };
  size_t batch_spans_under_sample = 0;
  for (const SpanRecord& span : snapshot.spans) {
    if (span.name == "synth.batch" && under_stage_sample(span)) {
      ++batch_spans_under_sample;
    }
  }
  EXPECT_GT(batch_spans_under_sample, 0u);
  EXPECT_EQ(registry.GetCounter("pipeline.runs").Value(), 1u);
  EXPECT_GT(registry.GetCounter("synth.rows_requested").Value(), 0u);
  EXPECT_EQ(registry.GetCounter("synth.batch.lanes").Value(),
            registry.GetCounter("synth.rows_requested").Value());
}

TEST_F(ObsPipelineTest, DeterministicJsonIsByteIdenticalAcrossSeededRuns) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  MultiTablePipeline pipeline(FastOptions());

  registry.Reset();
  Rng r1(7);
  ASSERT_TRUE(pipeline.Run(data_->ads, data_->feeds, "user_id", &r1).ok());
  std::string first =
      registry.ToJson(MetricsRegistry::JsonMode::kDeterministic);

  registry.Reset();
  Rng r2(7);
  ASSERT_TRUE(pipeline.Run(data_->ads, data_->feeds, "user_id", &r2).ok());
  std::string second =
      registry.ToJson(MetricsRegistry::JsonMode::kDeterministic);

  EXPECT_EQ(first, second);
  // The deterministic view carries data (not just empty maps).
  EXPECT_NE(first.find("\"pipeline.runs\": 1"), std::string::npos) << first;
  EXPECT_NE(first.find("synth.rows_requested"), std::string::npos);
  // Wall-clock sections are excluded from the contract.
  EXPECT_EQ(first.find("histograms"), std::string::npos);
  EXPECT_EQ(first.find("spans"), std::string::npos);
}

}  // namespace
}  // namespace greater
