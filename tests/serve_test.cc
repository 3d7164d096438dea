#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "serve/synthesis_server.h"
#include "serve/workload.h"
#include "synth/great_synthesizer.h"
#include "tabular/table.h"

namespace greater {
namespace {

// Per-tenant training tables differ by seed so the four models are
// genuinely distinct — a lane packed against the wrong model would show.
Table TrainTable(uint64_t seed) {
  Schema schema({Field("name", ValueType::kString),
                 Field("lunch", ValueType::kInt),
                 Field("device", ValueType::kInt)});
  Table t(schema);
  const char* names[] = {"Grace", "Yin", "Anson", "Mia"};
  Rng rng(seed);
  for (int i = 0; i < 48; ++i) {
    EXPECT_TRUE(t.AppendRow({Value(names[rng.Index(4)]),
                             Value(rng.UniformInt(1, 2)),
                             Value(rng.UniformInt(1, 3))})
                    .ok());
  }
  return t;
}

std::shared_ptr<const GreatSynthesizer> FitTenant(uint64_t seed) {
  GreatSynthesizer::Options options;
  auto model = std::make_shared<GreatSynthesizer>(options);
  Rng fit(seed);
  EXPECT_TRUE(model->Fit(TrainTable(seed), &fit).ok());
  return model;
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(a.GetRow(r), b.GetRow(r)) << "row " << r;
  }
}

struct TenantSet {
  std::vector<std::string> names;
  std::vector<std::shared_ptr<const GreatSynthesizer>> models;
};

TenantSet MakeTenants(size_t n) {
  TenantSet set;
  for (size_t i = 0; i < n; ++i) {
    set.names.push_back("tenant" + std::to_string(i));
    set.models.push_back(FitTenant(100 + i * 13));
  }
  return set;
}

void AddAll(SynthesisServer* server, const TenantSet& set) {
  for (size_t i = 0; i < set.names.size(); ++i) {
    ASSERT_TRUE(server->AddTenant(set.names[i], set.models[i]).ok());
  }
}

// ---------- Registration / submission edge cases ----------

TEST(SynthesisServerTest, RegistrationAndSubmitErrorsAreTyped) {
  ServeOptions options;
  SynthesisServer empty(options);
  EXPECT_EQ(empty.Start().code(), StatusCode::kFailedPrecondition);

  TenantSet set = MakeTenants(1);
  SynthesisServer server(options);
  AddAll(&server, set);
  EXPECT_EQ(server.AddTenant(set.names[0], set.models[0]).code(),
            StatusCode::kAlreadyExists);

  // Submit before Start: terminal immediately, typed.
  auto early = server.Submit({set.names[0], 3, 1});
  ASSERT_TRUE(early->done());
  EXPECT_EQ(early->Wait().status().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.AddTenant("late", set.models[0]).code(),
            StatusCode::kFailedPrecondition);

  auto unknown = server.Submit({"nobody", 3, 1});
  ASSERT_TRUE(unknown->done());
  EXPECT_EQ(unknown->Wait().status().code(), StatusCode::kNotFound);

  auto bad_column = server.Submit(
      {set.names[0], 2, 1, {{"no_such_column", Value("x")}}});
  ASSERT_TRUE(bad_column->done());
  EXPECT_EQ(bad_column->Wait().status().code(), StatusCode::kNotFound);

  auto empty_req = server.Submit({set.names[0], 0, 1});
  ASSERT_TRUE(empty_req->done());
  ASSERT_TRUE(empty_req->Wait().ok());
  EXPECT_EQ(empty_req->Wait().ValueOrDie().num_rows(), 0u);

  EXPECT_TRUE(server.Shutdown().ok());
  auto late = server.Submit({set.names[0], 3, 1});
  ASSERT_TRUE(late->done());
  EXPECT_EQ(late->Wait().status().code(), StatusCode::kFailedPrecondition);
}

// ---------- Determinism: served vs direct ----------

TEST(SynthesisServerTest, ServedMatchesDirectSampleBitwise) {
  TenantSet set = MakeTenants(2);
  ServeOptions options;
  options.num_workers = 2;
  SynthesisServer server(options);
  AddAll(&server, set);
  ASSERT_TRUE(server.Start().ok());

  auto ticket = server.Submit({set.names[1], 17, 42});
  const Result<Table>& served = ticket->Wait();
  ASSERT_TRUE(served.ok()) << served.status();

  Rng direct_rng(42);
  Table direct = set.models[1]->Sample(17, &direct_rng).ValueOrDie();
  ExpectTablesEqual(direct, served.ValueOrDie());
  EXPECT_TRUE(ticket->report().Reconciles());
  EXPECT_EQ(ticket->report().rows_emitted, 17u);
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(SynthesisServerTest, ServedConditionalMatchesDirectBitwise) {
  TenantSet set = MakeTenants(1);
  ServeOptions options;
  SynthesisServer server(options);
  AddAll(&server, set);
  ASSERT_TRUE(server.Start().ok());

  const size_t rows = 9;
  auto ticket =
      server.Submit({set.names[0], rows, 7, {{"name", Value("Grace")}}});
  const Result<Table>& served = ticket->Wait();
  ASSERT_TRUE(served.ok()) << served.status();

  // Direct reference: SampleConditional over `rows` copies of the same
  // condition row, from the same fresh seed.
  Schema cond_schema({Field("name", ValueType::kString)});
  Table conditions(cond_schema);
  for (size_t i = 0; i < rows; ++i) {
    ASSERT_TRUE(conditions.AppendRow({Value("Grace")}).ok());
  }
  Rng direct_rng(7);
  Table direct =
      set.models[0]->SampleConditional(conditions, &direct_rng).ValueOrDie();
  ExpectTablesEqual(direct, served.ValueOrDie());

  const Table& out = served.ValueOrDie();
  size_t name_col = out.schema().FieldIndex("name").ValueOrDie();
  for (size_t r = 0; r < out.num_rows(); ++r) {
    EXPECT_EQ(out.at(r, name_col), Value("Grace")) << "row " << r;
  }
  EXPECT_TRUE(server.Shutdown().ok());
}

// The tentpole property: a request's output is bitwise-identical served
// alone, served under a skewed concurrent mix (where its lanes share
// batches with other tenants' requests), and computed directly against the
// model — for every probe, at different worker counts.
TEST(SynthesisServerTest, ZipfianMixPreservesPerRequestDeterminism) {
  TenantSet set = MakeTenants(4);
  std::vector<SampleRequest> probes;
  for (size_t i = 0; i < set.names.size(); ++i) {
    SampleRequest probe;
    probe.tenant = set.names[i];
    probe.rows = 5 + i;
    probe.seed = 900 + i * 7;
    if (i % 2 == 1) probe.conditioning["name"] = Value("Yin");
    probes.push_back(probe);
  }

  // Pass 1: each probe served alone on a single-worker server.
  std::vector<Table> alone;
  {
    ServeOptions options;
    options.num_workers = 1;
    SynthesisServer server(options);
    AddAll(&server, set);
    ASSERT_TRUE(server.Start().ok());
    for (const SampleRequest& probe : probes) {
      auto ticket = server.Submit(probe);
      const Result<Table>& r = ticket->Wait();
      ASSERT_TRUE(r.ok()) << r.status();
      alone.push_back(r.ValueOrDie());
    }
    ASSERT_TRUE(server.Shutdown().ok());
  }

  // Pass 2: the same probes interleaved into a Zipfian multi-tenant mix on
  // a multi-worker server with a tight packing budget, so probe lanes get
  // packed into shared batches mid-mix.
  std::vector<Table> mixed;
  std::vector<std::shared_ptr<RequestTicket>> background;
  {
    ServeOptions options;
    options.num_workers = 3;
    options.max_lanes_per_batch = 8;
    options.max_open_requests = 6;
    SynthesisServer server(options);
    AddAll(&server, set);
    ASSERT_TRUE(server.Start().ok());

    std::vector<TenantProfile> profiles;
    for (const std::string& name : set.names) {
      profiles.push_back(
          TenantProfile{name, "name", {"Grace", "Yin", "Anson", "Mia"}});
    }
    WorkloadOptions wl;
    wl.tenant_skew.kind = SkewKind::kZipfian;
    wl.value_skew.kind = SkewKind::kScrambledZipfian;
    wl.conditioned_fraction = 0.4;
    wl.max_rows = 6;
    WorkloadGenerator gen(wl, profiles, /*seed=*/2026);

    std::vector<std::shared_ptr<RequestTicket>> probe_tickets;
    for (size_t i = 0; i < probes.size(); ++i) {
      for (int k = 0; k < 8; ++k) background.push_back(server.Submit(gen.Next()));
      probe_tickets.push_back(server.Submit(probes[i]));
    }
    for (int k = 0; k < 8; ++k) background.push_back(server.Submit(gen.Next()));

    for (auto& ticket : probe_tickets) {
      const Result<Table>& r = ticket->Wait();
      ASSERT_TRUE(r.ok()) << r.status();
      mixed.push_back(r.ValueOrDie());
      EXPECT_TRUE(ticket->report().Reconciles());
    }
    for (auto& ticket : background) {
      const Result<Table>& r = ticket->Wait();
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_TRUE(ticket->report().Reconciles());
    }
    ASSERT_TRUE(server.Shutdown().ok());
  }

  // Pass 3: direct model calls, no server at all.
  for (size_t i = 0; i < probes.size(); ++i) {
    SCOPED_TRACE("probe " + std::to_string(i));
    Table direct;
    Rng rng(probes[i].seed);
    size_t model_idx = i;
    if (probes[i].conditioning.empty()) {
      direct =
          set.models[model_idx]->Sample(probes[i].rows, &rng).ValueOrDie();
    } else {
      Schema cond_schema({Field("name", ValueType::kString)});
      Table conditions(cond_schema);
      for (size_t r = 0; r < probes[i].rows; ++r) {
        ASSERT_TRUE(conditions.AppendRow({Value("Yin")}).ok());
      }
      direct = set.models[model_idx]
                   ->SampleConditional(conditions, &rng)
                   .ValueOrDie();
    }
    ExpectTablesEqual(direct, alone[i]);
    ExpectTablesEqual(direct, mixed[i]);
  }
}

// ---------- Packing and metrics ----------

TEST(SynthesisServerTest, CrossRequestPackingAndMetrics) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& batches = registry.GetCounter("serve.batches");
  Counter& cross = registry.GetCounter("serve.cross_request_batches");
  Counter& rows = registry.GetCounter("serve.rows");
  Histogram& lanes = registry.GetHistogram(
      "serve.lanes_per_batch",
      {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0});
  Histogram& latency = registry.GetLatencyHistogram("serve.request_latency_us");
  uint64_t batches_before = batches.Value();
  uint64_t cross_before = cross.Value();
  uint64_t rows_before = rows.Value();
  uint64_t lanes_before = lanes.TotalCount();
  uint64_t latency_before = latency.TotalCount();

  TenantSet set = MakeTenants(1);
  ServeOptions options;
  options.num_workers = 1;
  options.max_lanes_per_batch = 16;
  // Background work is held in its queue until Shutdown (weight 0), so
  // every request below is queued before the worker packs its first
  // bundle, however the threads are scheduled.
  options.priority_weights = {1, 1, 0};
  SynthesisServer server(options);
  AddAll(&server, set);
  ASSERT_TRUE(server.Start().ok());

  // One big request keeps the single worker busy across several bundles
  // while the small ones are admitted behind it — the packing sweep then
  // has multiple open requests to fill bundles from: the big request's
  // last 12 lanes share a bundle with the small ones.
  auto background = [](SampleRequest request) {
    request.priority = RequestPriority::kBackground;
    return request;
  };
  std::vector<std::shared_ptr<RequestTicket>> tickets;
  tickets.push_back(server.Submit(background({set.names[0], 60, 5})));
  size_t expected_rows = 60;
  for (uint64_t i = 0; i < 12; ++i) {
    tickets.push_back(server.Submit(background({set.names[0], 3, 100 + i})));
    expected_rows += 3;
  }
  for (auto& ticket : tickets) EXPECT_FALSE(ticket->done());
  ASSERT_TRUE(server.Shutdown().ok());
  for (auto& ticket : tickets) {
    ASSERT_TRUE(ticket->Wait().ok()) << ticket->Wait().status();
    EXPECT_TRUE(ticket->report().Reconciles());
    EXPECT_GT(ticket->latency_us(), 0u);
  }

  EXPECT_GT(batches.Value() - batches_before, 1u);
  EXPECT_GE(cross.Value() - cross_before, 1u);
  EXPECT_EQ(rows.Value() - rows_before, expected_rows);
  EXPECT_EQ(lanes.TotalCount() - lanes_before,
            batches.Value() - batches_before);
  EXPECT_EQ(latency.TotalCount() - latency_before, tickets.size());
}

// ---------- Cancellation ----------

TEST(SynthesisServerTest, CancelMidFlightCompletesTyped) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& cancelled = registry.GetCounter("serve.requests_cancelled");
  uint64_t cancelled_before = cancelled.Value();

  TenantSet set = MakeTenants(1);
  ServeOptions options;
  options.num_workers = 1;
  options.max_lanes_per_batch = 8;
  SynthesisServer server(options);
  AddAll(&server, set);
  ASSERT_TRUE(server.Start().ok());

  // The big request occupies the worker; the victims are cancelled before
  // the packing sweep can reach them.
  auto big = server.Submit({set.names[0], 80, 5});
  std::vector<std::shared_ptr<RequestTicket>> victims;
  for (uint64_t i = 0; i < 10; ++i) {
    victims.push_back(server.Submit({set.names[0], 4, 200 + i}));
  }
  for (auto& victim : victims) victim->Cancel();

  ASSERT_TRUE(big->Wait().ok()) << big->Wait().status();
  size_t cancelled_count = 0;
  for (auto& victim : victims) {
    const Result<Table>& r = victim->Wait();
    if (r.ok()) continue;  // raced past the cancel — must be a clean result
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled) << r.status();
    ++cancelled_count;
  }
  EXPECT_GE(cancelled_count, 1u);
  EXPECT_EQ(cancelled.Value() - cancelled_before, cancelled_count);
  ASSERT_TRUE(server.Shutdown().ok());

  // Cancelling a terminal ticket is a no-op.
  big->Cancel();
  EXPECT_TRUE(big->Wait().ok());
}

// ---------- Deadlines ----------

TEST(SynthesisServerTest, OverdueRequestConvictedTyped) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& overdue = registry.GetCounter("serve.deadline_exceeded");
  uint64_t overdue_before = overdue.Value();

  TenantSet set = MakeTenants(1);
  ServeOptions options;
  options.num_workers = 1;
  options.max_lanes_per_batch = 8;
  SynthesisServer server(options);
  AddAll(&server, set);
  ASSERT_TRUE(server.Start().ok());

  // The big request monopolizes the single worker's bundles (oldest-first
  // packing fills every 8-lane batch from it alone, so the sweep only
  // reaches the victim ~2500 bundles later), and the victim's 1 ms
  // deadline expires long before that.
  auto big = server.Submit({set.names[0], 20000, 5});
  SampleRequest victim_request;
  victim_request.tenant = set.names[0];
  victim_request.rows = 4;
  victim_request.seed = 77;
  victim_request.deadline_ms = 1;
  auto victim = server.Submit(victim_request);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  const Result<Table>& verdict = victim->Wait();
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), StatusCode::kDeadlineExceeded)
      << verdict.status();
  // The conviction message accounts for the rows that were never decoded;
  // the report reconciles because it only ever counts decoded rows.
  EXPECT_NE(verdict.status().message().find("deadline"), std::string::npos)
      << verdict.status();
  EXPECT_TRUE(victim->report().Reconciles());
  EXPECT_EQ(overdue.Value() - overdue_before, 1u);

  // A generous deadline is not a conviction: the request completes clean.
  SampleRequest relaxed_request;
  relaxed_request.tenant = set.names[0];
  relaxed_request.rows = 4;
  relaxed_request.seed = 78;
  relaxed_request.deadline_ms = 60000;
  auto relaxed = server.Submit(relaxed_request);
  ASSERT_TRUE(big->Wait().ok()) << big->Wait().status();
  ASSERT_TRUE(relaxed->Wait().ok()) << relaxed->Wait().status();
  EXPECT_EQ(relaxed->Wait().ValueOrDie().num_rows(), 4u);
  ASSERT_TRUE(server.Shutdown().ok());
}

// ---------- Concurrency stress (the TSan battery) ----------

TEST(SynthesisServerTest, ConcurrentSubmittersUnderTinyQueueAllComplete) {
  TenantSet set = MakeTenants(4);
  ServeOptions options;
  options.num_workers = 2;
  options.admission_capacity = 2;  // constant backpressure churn
  options.max_open_requests = 2;
  options.max_lanes_per_batch = 8;
  SynthesisServer server(options);
  AddAll(&server, set);
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kSubmitters = 4;
  constexpr size_t kPerThread = 12;
  std::vector<std::thread> threads;
  std::vector<Status> failures(kSubmitters, Status::OK());
  for (size_t t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(7000 + t);
      std::vector<std::shared_ptr<RequestTicket>> mine;
      for (size_t i = 0; i < kPerThread; ++i) {
        SampleRequest request;
        request.tenant = set.names[rng.Index(set.names.size())];
        request.rows = 1 + rng.Index(3);
        request.seed = rng.engine()();
        if (rng.Bernoulli(0.3)) request.conditioning["name"] = Value("Mia");
        mine.push_back(server.Submit(request));
        if (i % 3 == 0) mine.back()->Cancel();  // churn mid-flight
      }
      for (auto& ticket : mine) {
        const Result<Table>& r = ticket->Wait();
        if (!r.ok() && r.status().code() != StatusCode::kCancelled) {
          failures[t] = r.status();
        }
        if (r.ok() && !ticket->report().Reconciles()) {
          failures[t] = Status::Internal("report does not reconcile");
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const Status& failure : failures) EXPECT_TRUE(failure.ok()) << failure;
  ASSERT_TRUE(server.Shutdown().ok());

  // Backpressure held: no class queue ever buffered past capacity (the
  // default-priority requests all went through the interactive queue).
  EXPECT_LE(MetricsRegistry::Global()
                .GetGauge("stream.queue_peak.serve.admission.interactive")
                .Value(),
            static_cast<double>(options.admission_capacity));
}

TEST(SynthesisServerTest, WatchdogConvictsSilentlyDeadWorker) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& trips = registry.GetCounter("stream.watchdog_trips");
  uint64_t trips_before = trips.Value();

  TenantSet set = MakeTenants(2);
  ServeOptions options;
  options.num_workers = 2;
  options.watchdog_timeout_ms = 100;
  options.watchdog_poll_ms = 5;
  SynthesisServer server(options);
  AddAll(&server, set);

  FaultSpec death;
  death.code = StatusCode::kInternal;
  death.max_fires = 1;  // exactly one worker dies silently
  ScopedFault fault("stream.worker_death", death);

  ASSERT_TRUE(server.Start().ok());
  std::vector<std::shared_ptr<RequestTicket>> tickets;
  for (uint64_t i = 0; i < 4; ++i) {
    tickets.push_back(
        server.Submit({set.names[i % set.names.size()], 3, 400 + i}));
  }
  // Only the watchdog can detect the silent death: the dead worker's
  // thread exited cleanly, so nothing blocks — wait for the conviction
  // (un-done heartbeat past its deadline) before draining.
  for (int i = 0; i < 400 && server.error().ok(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(server.error().ok());
  Status err = server.Shutdown();
  EXPECT_EQ(err.code(), StatusCode::kDeadlineExceeded) << err;
  EXPECT_GE(trips.Value() - trips_before, 1u);
  for (auto& ticket : tickets) {
    ASSERT_TRUE(ticket->done());
    const Result<Table>& r = ticket->Wait();
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
          << r.status();
    }
  }
}

// ---------- Overload control ----------

// Snapshot of every serve.* counter the terminal-class reconciliation
// invariant touches.
struct ServeSnapshot {
  uint64_t requests, admitted, completed, failed, cancelled, shed,
      quota_rejected, rejected;
  static ServeSnapshot Take() {
    MetricsRegistry& r = MetricsRegistry::Global();
    return ServeSnapshot{r.GetCounter("serve.requests").Value(),
                         r.GetCounter("serve.admitted").Value(),
                         r.GetCounter("serve.requests_completed").Value(),
                         r.GetCounter("serve.requests_failed").Value(),
                         r.GetCounter("serve.requests_cancelled").Value(),
                         r.GetCounter("serve.shed").Value(),
                         r.GetCounter("serve.quota_rejected").Value(),
                         r.GetCounter("serve.rejected").Value()};
  }
};

// Asserts the disjoint terminal-class accounting over a test window:
//   requests == admitted + rejected + quota_rejected
//   admitted == completed + failed + cancelled + shed
void ExpectCountersReconcile(const ServeSnapshot& before) {
  ServeSnapshot now = ServeSnapshot::Take();
  EXPECT_EQ(now.requests - before.requests,
            (now.admitted - before.admitted) +
                (now.rejected - before.rejected) +
                (now.quota_rejected - before.quota_rejected));
  EXPECT_EQ(now.admitted - before.admitted,
            (now.completed - before.completed) +
                (now.failed - before.failed) +
                (now.cancelled - before.cancelled) +
                (now.shed - before.shed));
}

// Burst storm: a low-priority flood against a tiny admission surface plus
// an interactive trickle. Only background work is ever shed (typed, with a
// retry-after hint); every interactive request completes clean, and the
// terminal counters reconcile exactly.
TEST(SynthesisServerTest, BurstStormShedsOnlyBackground) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  ServeSnapshot before = ServeSnapshot::Take();
  Histogram& interactive_latency =
      registry.GetLatencyHistogram("serve.interactive_latency_us");
  uint64_t interactive_before = interactive_latency.TotalCount();

  TenantSet set = MakeTenants(2);
  ServeOptions options;
  options.num_workers = 1;
  options.max_open_requests = 2;
  options.max_lanes_per_batch = 8;
  options.admission_capacity = 4;    // tiny queue per class
  options.admission_wait_ms = 1;     // shed instead of blocking Submit
  options.shed_queue_depth = 3;      // workers shed queued overflow too
  SynthesisServer server(options);
  AddAll(&server, set);
  ASSERT_TRUE(server.Start().ok());

  // One long-running background request pins the worker so the flood
  // genuinely queues.
  SampleRequest pin;
  pin.tenant = set.names[0];
  pin.rows = 120;
  pin.seed = 1;
  pin.priority = RequestPriority::kBackground;
  auto pin_ticket = server.Submit(pin);

  std::vector<std::shared_ptr<RequestTicket>> flood;
  std::vector<std::shared_ptr<RequestTicket>> interactive;
  for (uint64_t i = 0; i < 40; ++i) {
    SampleRequest low;
    low.tenant = set.names[i % 2];
    low.rows = 6;
    low.seed = 1000 + i;
    low.priority = RequestPriority::kBackground;
    flood.push_back(server.Submit(low));
    if (i % 8 == 0) {
      SampleRequest high;
      high.tenant = set.names[0];
      high.rows = 3;
      high.seed = 5000 + i;
      high.priority = RequestPriority::kInteractive;
      auto ticket = server.Submit(high);
      // The trickle is paced: each interactive request finishes before the
      // next arrives, exactly the latency-sensitive client the priority
      // lane protects.
      const Result<Table>& r = ticket->Wait();
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_TRUE(ticket->report().Reconciles());
      interactive.push_back(std::move(ticket));
    }
  }

  size_t shed_count = 0;
  for (auto& ticket : flood) {
    const Result<Table>& r = ticket->Wait();
    if (r.ok()) continue;
    ASSERT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << r.status();
    // Every shed rejection tells the client when to come back.
    ASSERT_TRUE(r.status().retry_after_ms().has_value()) << r.status();
    EXPECT_EQ(*r.status().retry_after_ms(), options.shed_retry_after_ms);
    ++shed_count;
  }
  ASSERT_TRUE(pin_ticket->Wait().ok()) << pin_ticket->Wait().status();
  ASSERT_TRUE(server.Shutdown().ok());

  // The storm actually shed background work, never interactive work.
  EXPECT_GE(shed_count, 1u);
  EXPECT_EQ(registry.GetCounter("serve.shed").Value() - before.shed,
            shed_count);
  EXPECT_EQ(interactive_latency.TotalCount() - interactive_before,
            interactive.size());
  ExpectCountersReconcile(before);
}

// Per-tenant token-bucket quotas under an injected clock: over-rate
// submissions reject typed with the bucket's computed refill hint, lane
// caps reject with the configured hint, and refilled buckets admit again.
TEST(SynthesisServerTest, TenantQuotasRejectTypedWithRetryAfter) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  ServeSnapshot before = ServeSnapshot::Take();
  uint64_t quota_before = registry.GetCounter("serve.quota_rejected").Value();

  std::atomic<uint64_t> now_ns{1};
  TenantSet set = MakeTenants(2);
  ServeOptions options;
  options.num_workers = 1;
  options.clock_ns = [&now_ns] { return now_ns.load(); };
  SynthesisServer server(options);
  AddAll(&server, set);
  TenantQuota quota;
  quota.rows_per_sec = 1000.0;
  quota.burst_rows = 10.0;
  ASSERT_TRUE(server.SetTenantQuota(set.names[0], quota).ok());
  EXPECT_EQ(server.SetTenantQuota("nobody", quota).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(server.Start().ok());

  // Drain the whole burst allowance in one request.
  auto burst = server.Submit({set.names[0], 10, 7});
  ASSERT_TRUE(burst->Wait().ok()) << burst->Wait().status();

  // The bucket is empty: a 5-row request needs 5 tokens = 5 ms of refill.
  auto rejected = server.Submit({set.names[0], 5, 8});
  ASSERT_TRUE(rejected->done());  // quota rejections are terminal at Submit
  const Status& verdict = rejected->Wait().status();
  EXPECT_EQ(verdict.code(), StatusCode::kResourceExhausted) << verdict;
  ASSERT_TRUE(verdict.retry_after_ms().has_value()) << verdict;
  EXPECT_EQ(*verdict.retry_after_ms(), 5u);
  EXPECT_NE(verdict.message().find("rows/sec quota"), std::string::npos);

  // The unlimited tenant is untouched by its neighbor's quota.
  auto neighbor = server.Submit({set.names[1], 5, 9});
  ASSERT_TRUE(neighbor->Wait().ok()) << neighbor->Wait().status();

  // Honoring the hint admits the request: advance the clock 5 ms.
  now_ns.fetch_add(5ull * 1000000ull);
  auto retried = server.Submit({set.names[0], 5, 8});
  ASSERT_TRUE(retried->Wait().ok()) << retried->Wait().status();

  ASSERT_TRUE(server.Shutdown().ok());
  EXPECT_EQ(registry.GetCounter("serve.quota_rejected").Value() - quota_before,
            1u);
  ExpectCountersReconcile(before);
}

TEST(SynthesisServerTest, OpenLaneQuotaCapsInFlightRows) {
  TenantSet set = MakeTenants(1);
  ServeOptions options;
  options.num_workers = 1;
  options.quota_retry_after_ms = 123;
  SynthesisServer server(options);
  AddAll(&server, set);
  TenantQuota quota;
  quota.max_open_lanes = 8;
  ASSERT_TRUE(server.SetTenantQuota(set.names[0], quota).ok());
  ASSERT_TRUE(server.Start().ok());

  // A request bigger than the cap can never be admitted.
  auto too_big = server.Submit({set.names[0], 9, 5});
  ASSERT_TRUE(too_big->done());
  const Status& verdict = too_big->Wait().status();
  EXPECT_EQ(verdict.code(), StatusCode::kResourceExhausted) << verdict;
  ASSERT_TRUE(verdict.retry_after_ms().has_value()) << verdict;
  EXPECT_EQ(*verdict.retry_after_ms(), 123u);
  EXPECT_NE(verdict.message().find("open-lane quota"), std::string::npos);

  // Lanes free as requests go terminal: a within-cap request admits.
  auto fits = server.Submit({set.names[0], 8, 6});
  ASSERT_TRUE(fits->Wait().ok()) << fits->Wait().status();
  auto after = server.Submit({set.names[0], 8, 7});
  ASSERT_TRUE(after->Wait().ok()) << after->Wait().status();
  ASSERT_TRUE(server.Shutdown().ok());
}

// Memory-pressure eviction: with a budget that fits one bundle, serving
// two path-backed tenants ping-pongs their bundles through the artifact
// store — and every served table stays bitwise-identical to a direct
// Sample against a freshly loaded model.
TEST(SynthesisServerTest, EvictionAndReloadPreserveBitwiseOutput) {
  namespace fs = std::filesystem;
  MetricsRegistry& registry = MetricsRegistry::Global();
  uint64_t evictions_before = registry.GetCounter("serve.evictions").Value();
  uint64_t reloads_before = registry.GetCounter("serve.reloads").Value();

  fs::path dir = fs::path(testing::TempDir()) / "greater_serve_evict";
  fs::create_directories(dir);
  std::vector<std::string> paths;
  TenantSet set = MakeTenants(2);
  for (size_t i = 0; i < set.models.size(); ++i) {
    std::string path = (dir / ("tenant" + std::to_string(i) + ".gsb")).string();
    ASSERT_TRUE(set.models[i]->Save(path).ok());
    paths.push_back(std::move(path));
  }
  std::error_code ec;
  const uint64_t bundle_bytes = fs::file_size(paths[0], ec);
  ASSERT_FALSE(ec);
  ASSERT_GT(bundle_bytes, 0u);

  ServeOptions options;
  options.num_workers = 1;
  // Budget fits one bundle, never two: every tenant switch must evict the
  // idle neighbor and reload from the artifact store.
  options.max_resident_bundle_bytes = bundle_bytes + bundle_bytes / 2;
  SynthesisServer server(options);
  ASSERT_TRUE(server.LoadTenant("alpha", paths[0]).ok());
  ASSERT_TRUE(server.LoadTenant("beta", paths[1]).ok());
  ASSERT_TRUE(server.Start().ok());

  const std::string tenants[] = {"alpha", "beta"};
  for (uint64_t round = 0; round < 3; ++round) {
    for (size_t t = 0; t < 2; ++t) {
      const uint64_t seed = 40 + round * 2 + t;
      auto ticket = server.Submit({tenants[t], 7, seed});
      const Result<Table>& served = ticket->Wait();
      ASSERT_TRUE(served.ok()) << served.status();
      // Direct reference against a fresh load of the same artifact.
      GreatSynthesizer direct_model;
      ASSERT_TRUE(direct_model.Load(paths[t]).ok());
      Rng rng(seed);
      Table direct = direct_model.Sample(7, &rng).ValueOrDie();
      ExpectTablesEqual(direct, served.ValueOrDie());
    }
  }
  EXPECT_GE(registry.GetCounter("serve.evictions").Value() - evictions_before,
            2u);
  EXPECT_GE(registry.GetCounter("serve.reloads").Value() - reloads_before, 2u);
  // The resident estimate respects the budget once everything is idle.
  EXPECT_LE(registry.GetGauge("serve.resident_bundle_bytes").Value(),
            static_cast<double>(options.max_resident_bundle_bytes));

  // Reload fault: the submit that needs the evicted bundle fails typed;
  // the server (and the other tenant) keep serving.
  {
    // The last round left beta resident and alpha evicted.
    FaultSpec spec;
    spec.code = StatusCode::kDataLoss;
    spec.max_fires = 1;
    ScopedFault fault("serve.reload", spec);
    auto doomed = server.Submit({"alpha", 4, 99});
    ASSERT_TRUE(doomed->done());
    EXPECT_EQ(doomed->Wait().status().code(), StatusCode::kDataLoss);
    EXPECT_NE(doomed->Wait().status().ToString().find(
                  "reloading evicted tenant"),
              std::string::npos);
    EXPECT_EQ(FaultRegistry::Global().fires("serve.reload"), 1u);
  }
  auto recovered = server.Submit({"alpha", 4, 99});
  ASSERT_TRUE(recovered->Wait().ok()) << recovered->Wait().status();
  {
    GreatSynthesizer direct_model;
    ASSERT_TRUE(direct_model.Load(paths[0]).ok());
    Rng rng(99);
    Table direct = direct_model.Sample(4, &rng).ValueOrDie();
    ExpectTablesEqual(direct, recovered->Wait().ValueOrDie());
  }

  // Evict fault: an armed serve.evict pins the resident set — switching
  // tenants reloads without evicting, and the byte estimate runs over
  // budget instead of dropping a bundle.
  {
    ScopedFault fault("serve.evict", FaultSpec{});
    auto pinned = server.Submit({"beta", 3, 123});
    ASSERT_TRUE(pinned->Wait().ok()) << pinned->Wait().status();
    EXPECT_GE(FaultRegistry::Global().fires("serve.evict"), 0u);
    EXPECT_GT(registry.GetGauge("serve.resident_bundle_bytes").Value(),
              static_cast<double>(options.max_resident_bundle_bytes));
  }
  ASSERT_TRUE(server.Shutdown().ok());
}

// Brownout hysteresis: one overload episode with repeated high-watermark
// crossings enters degraded mode exactly once, holds it for the dwell,
// and exits exactly once after the pressure clears — no flapping.
TEST(SynthesisServerTest, BrownoutEntersOnceAndExitsAfterDwell) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& entered = registry.GetCounter("serve.brownout_entered");
  Counter& exited = registry.GetCounter("serve.brownout_exited");
  Gauge& mode = registry.GetGauge("serve.brownout");
  uint64_t entered_before = entered.Value();
  uint64_t exited_before = exited.Value();

  TenantSet set = MakeTenants(1);
  ServeOptions options;
  options.num_workers = 1;
  options.max_open_requests = 1;  // the flood stays queued
  options.max_lanes_per_batch = 4;
  options.brownout_lanes_divisor = 4;  // browned-out bundles carry 1 lane
  options.brownout_queue_high = 4;
  options.brownout_queue_low = 1;
  // The dwell outlasts the whole storm phase, so an exit (and thus any
  // chance of a second entry) is impossible until the flood has drained.
  options.brownout_min_dwell_ms = 500;
  SynthesisServer server(options);
  AddAll(&server, set);
  ASSERT_TRUE(server.Start().ok());

  auto pin = server.Submit({set.names[0], 150, 3});
  std::vector<std::shared_ptr<RequestTicket>> waves;
  for (int wave = 0; wave < 3; ++wave) {
    // Each wave re-crosses the high watermark; within one episode that
    // must never count as a new entry.
    for (uint64_t i = 0; i < 8; ++i) {
      waves.push_back(
          server.Submit({set.names[0], 2, 700 + wave * 10 + i}));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(entered.Value() - entered_before, 1u);
  }
  EXPECT_EQ(mode.Value(), 1.0);
  EXPECT_EQ(exited.Value() - exited_before, 0u);

  ASSERT_TRUE(pin->Wait().ok()) << pin->Wait().status();
  for (auto& ticket : waves) {
    ASSERT_TRUE(ticket->Wait().ok()) << ticket->Wait().status();
  }
  // Pressure is gone; once the dwell elapses a worker's next pressure
  // sweep exits brownout.
  for (int i = 0; i < 600 && mode.Value() != 0.0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(mode.Value(), 0.0);
  EXPECT_EQ(entered.Value() - entered_before, 1u);
  EXPECT_EQ(exited.Value() - exited_before, 1u);
  ASSERT_TRUE(server.Shutdown().ok());
}

// Priority scheduling inside the packing window: with batch/background
// work already queued, a later interactive request is admitted and packed
// ahead of it (weighted admission + priority-ordered window), so its
// latency does not hide behind the backlog. Completion order is read from
// terminal stamps of a counting clock: polling done() after Wait returns
// would race the test thread's wake-up against the worker.
TEST(SynthesisServerTest, InteractiveOvertakesQueuedBackground) {
  TenantSet set = MakeTenants(1);
  std::atomic<uint64_t> ticks{0};
  ServeOptions options;
  options.num_workers = 1;
  options.max_open_requests = 4;
  options.max_lanes_per_batch = 4;
  options.clock_ns = [&ticks] { return ticks.fetch_add(1) + 1; };
  SynthesisServer server(options);
  AddAll(&server, set);
  ASSERT_TRUE(server.Start().ok());

  // The pin holds the worker while the backlog and the urgent request
  // queue up behind it.
  auto pin = server.Submit({set.names[0], 1000, 3});
  std::vector<std::shared_ptr<RequestTicket>> backlog;
  for (uint64_t i = 0; i < 10; ++i) {
    SampleRequest low;
    low.tenant = set.names[0];
    low.rows = 20;
    low.seed = 300 + i;
    low.priority = RequestPriority::kBackground;
    backlog.push_back(server.Submit(low));
  }
  SampleRequest high;
  high.tenant = set.names[0];
  high.rows = 2;
  high.seed = 901;
  high.priority = RequestPriority::kInteractive;
  auto urgent = server.Submit(high);
  ASSERT_TRUE(urgent->Wait().ok()) << urgent->Wait().status();
  uint64_t last_backlog_ns = 0;
  for (auto& ticket : backlog) {
    ASSERT_TRUE(ticket->Wait().ok()) << ticket->Wait().status();
    last_backlog_ns = std::max(last_backlog_ns, ticket->done_ns());
  }
  ASSERT_TRUE(pin->Wait().ok()) << pin->Wait().status();
  ASSERT_TRUE(server.Shutdown().ok());

  // The interactive request went terminal while background work submitted
  // before it was still in flight — it did not wait for 200 queued
  // background rows.
  EXPECT_LT(urgent->done_ns(), last_backlog_ns);
}

// ---------- Backpressure at a full class queue ----------

// A single worker that dies silently on its first scheduling pass (the
// "stream.worker_death" fault, armed by the caller before Start): nothing
// is ever admitted, so a class queue fills and stays full.
ServeOptions StalledOptions() {
  ServeOptions options;
  options.num_workers = 1;
  options.admission_capacity = 1;
  return options;
}

FaultSpec OneDeath() {
  FaultSpec death;
  death.max_fires = 1;
  return death;
}

// Submits `request` on its own thread and returns once that Submit is
// parked on a full class queue (the wait is counted under the scheduler
// lock right before it parks) or has returned without parking.
struct ParkedSubmit {
  std::shared_ptr<RequestTicket> ticket;
  std::atomic<bool> returned{false};
  bool parked = false;
  std::thread thread;

  ParkedSubmit(SynthesisServer* server, SampleRequest request) {
    Counter& waits =
        MetricsRegistry::Global().GetCounter("stream.queue_full_waits");
    const uint64_t before = waits.Value();
    thread = std::thread([this, server, request] {
      ticket = server->Submit(request);
      returned = true;
    });
    while (waits.Value() == before && !returned) std::this_thread::yield();
    parked = waits.Value() != before;
  }
};

TEST(SynthesisServerTest, BlockedSubmitFailsTypedOnShutdown) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  ServeSnapshot before = ServeSnapshot::Take();
  TenantSet set = MakeTenants(1);
  SynthesisServer server(StalledOptions());
  AddAll(&server, set);
  ScopedFault death("stream.worker_death", OneDeath());
  ASSERT_TRUE(server.Start().ok());

  auto queued = server.Submit({set.names[0], 2, 1});
  EXPECT_FALSE(queued->done());
  EXPECT_EQ(registry
                .GetGauge("stream.queue_depth.serve.admission.interactive")
                .Value(),
            1.0);
  EXPECT_EQ(
      registry.GetGauge("stream.queue_peak.serve.admission.interactive")
          .Value(),
      1.0);

  ParkedSubmit submit(&server, {set.names[0], 2, 2});
  EXPECT_TRUE(submit.parked);
  EXPECT_TRUE(server.Shutdown().ok());
  submit.thread.join();
  const std::shared_ptr<RequestTicket>& blocked = submit.ticket;
  ASSERT_TRUE(blocked->done());
  EXPECT_EQ(blocked->Wait().status().code(), StatusCode::kFailedPrecondition)
      << blocked->Wait().status();
  // The queued request was abandoned by the dead worker; Shutdown's sweep
  // fails it typed instead of leaving its waiter hanging.
  ASSERT_TRUE(queued->done());
  EXPECT_EQ(queued->Wait().status().code(), StatusCode::kFailedPrecondition)
      << queued->Wait().status();
  ExpectCountersReconcile(before);
}

TEST(SynthesisServerTest, BlockedSubmitFailsWithWatchdogError) {
  ServeSnapshot before = ServeSnapshot::Take();
  TenantSet set = MakeTenants(1);
  ServeOptions options = StalledOptions();
  options.watchdog_timeout_ms = 200;
  options.watchdog_poll_ms = 5;
  SynthesisServer server(options);
  AddAll(&server, set);
  ScopedFault death("stream.worker_death", OneDeath());
  ASSERT_TRUE(server.Start().ok());

  auto queued = server.Submit({set.names[0], 2, 1});
  ParkedSubmit submit(&server, {set.names[0], 2, 2});
  // No Shutdown: the watchdog's conviction alone unblocks the submitter.
  submit.thread.join();
  EXPECT_TRUE(submit.parked);
  const std::shared_ptr<RequestTicket>& blocked = submit.ticket;
  ASSERT_TRUE(blocked->done());
  EXPECT_EQ(blocked->Wait().status().code(), StatusCode::kDeadlineExceeded)
      << blocked->Wait().status();

  EXPECT_EQ(server.Shutdown().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(queued->done());
  EXPECT_EQ(queued->Wait().status().code(), StatusCode::kDeadlineExceeded)
      << queued->Wait().status();
  ExpectCountersReconcile(before);
}

TEST(SynthesisServerTest, FullClassQueueShedsOrFailsSubmitTyped) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  ServeSnapshot before = ServeSnapshot::Take();
  TenantSet set = MakeTenants(1);
  ServeOptions options = StalledOptions();
  options.admission_wait_ms = 5;
  options.shed_retry_after_ms = 77;
  SynthesisServer server(options);
  AddAll(&server, set);
  ScopedFault death("stream.worker_death", OneDeath());
  ASSERT_TRUE(server.Start().ok());

  auto queued = server.Submit({set.names[0], 2, 1});
  EXPECT_FALSE(queued->done());

  // Bounded wait: the class queue stays full for admission_wait_ms, so the
  // submit is shed with the configured hint.
  auto shed = server.Submit({set.names[0], 2, 2});
  ASSERT_TRUE(shed->done());
  const Status& verdict = shed->Wait().status();
  EXPECT_EQ(verdict.code(), StatusCode::kResourceExhausted) << verdict;
  ASSERT_TRUE(verdict.retry_after_ms().has_value()) << verdict;
  EXPECT_EQ(*verdict.retry_after_ms(), 77u);

  // A fired stream.queue_full fault at the full queue fails that submit
  // with the injected status.
  {
    FaultSpec spec;
    spec.code = StatusCode::kDataLoss;
    spec.max_fires = 1;
    ScopedFault fault("stream.queue_full", spec);
    auto faulted = server.Submit({set.names[0], 2, 3});
    ASSERT_TRUE(faulted->done());
    EXPECT_EQ(faulted->Wait().status().code(), StatusCode::kDataLoss)
        << faulted->Wait().status();
    EXPECT_EQ(FaultRegistry::Global().fires("stream.queue_full"), 1u);
  }
  // Only that submit failed: the queue still holds its request.
  EXPECT_EQ(registry
                .GetGauge("stream.queue_depth.serve.admission.interactive")
                .Value(),
            1.0);
  EXPECT_FALSE(queued->done());

  EXPECT_TRUE(server.Shutdown().ok());
  EXPECT_EQ(queued->Wait().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.GetCounter("serve.shed").Value() - before.shed, 1u);
  ExpectCountersReconcile(before);
}

// No timer sets a latency floor: with the liveness beat at a minute,
// requests (including ones queued behind a full window) and Shutdown still
// complete at once — progress never waits on idle_poll_ms.
TEST(SynthesisServerTest, IdlePollIsOnlyALivenessBeat) {
  ServeSnapshot before = ServeSnapshot::Take();
  TenantSet set = MakeTenants(2);
  ServeOptions options;
  options.num_workers = 2;
  options.max_open_requests = 1;
  options.max_lanes_per_batch = 4;
  options.idle_poll_ms = 60000;
  SynthesisServer server(options);
  AddAll(&server, set);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(server.Start().ok());

  for (uint64_t round = 0; round < 3; ++round) {
    // Let both workers park before the round starts.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::vector<std::shared_ptr<RequestTicket>> tickets;
    for (uint64_t i = 0; i < 6; ++i) {
      SampleRequest request;
      request.tenant = set.names[i % 2];
      request.rows = 3 + i;
      request.seed = 60 + round * 10 + i;
      request.priority = static_cast<RequestPriority>(i % 3);
      tickets.push_back(server.Submit(request));
    }
    for (auto& ticket : tickets) {
      ASSERT_TRUE(ticket->WaitFor(10000)) << "request waited on the poll";
      EXPECT_TRUE(ticket->Wait().ok()) << ticket->Wait().status();
    }
  }
  ASSERT_TRUE(server.Shutdown().ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  ExpectCountersReconcile(before);
}

// A zero-weight class is starved while the server runs, but Shutdown
// still drains it: queued background work is admitted and served, every
// ticket goes terminal, and Shutdown returns.
TEST(SynthesisServerTest, ZeroWeightClassStarvesUntilShutdownDrains) {
  ServeSnapshot before = ServeSnapshot::Take();
  TenantSet set = MakeTenants(1);
  ServeOptions options;
  options.num_workers = 2;
  options.priority_weights = {1, 1, 0};
  SynthesisServer server(options);
  AddAll(&server, set);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::shared_ptr<RequestTicket>> background;
  for (uint64_t i = 0; i < 4; ++i) {
    SampleRequest low;
    low.tenant = set.names[0];
    low.rows = 5;
    low.seed = 700 + i;
    low.priority = RequestPriority::kBackground;
    background.push_back(server.Submit(low));
  }
  // Weighted classes keep flowing past the starved one.
  auto urgent = server.Submit({set.names[0], 3, 710});
  ASSERT_TRUE(urgent->Wait().ok()) << urgent->Wait().status();
  for (auto& ticket : background) EXPECT_FALSE(ticket->done());

  ASSERT_TRUE(server.Shutdown().ok());
  for (auto& ticket : background) {
    ASSERT_TRUE(ticket->done());
    EXPECT_TRUE(ticket->Wait().ok()) << ticket->Wait().status();
  }
  ExpectCountersReconcile(before);
}

// Per-request phase stamps: every terminal ticket's queue, window and
// decode phases sum to its latency exactly, all stamps come from the
// server clock, and each phase histogram observes every terminal ticket.
TEST(SynthesisServerTest, PhaseStampsSumToLatency) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Histogram& latency = registry.GetLatencyHistogram("serve.request_latency_us");
  Histogram& queue = registry.GetLatencyHistogram("serve.phase.queue_us");
  Histogram& window = registry.GetLatencyHistogram("serve.phase.window_us");
  Histogram& decode = registry.GetLatencyHistogram("serve.phase.decode_us");
  const uint64_t latency_before = latency.TotalCount();
  const uint64_t queue_before = queue.TotalCount();
  const uint64_t window_before = window.TotalCount();
  const uint64_t decode_before = decode.TotalCount();

  // Every read of the server clock advances it by 1 µs, so each stamp is
  // distinct and a stamp taken from any other source would show.
  std::atomic<uint64_t> ticks{0};
  TenantSet set = MakeTenants(2);
  ServeOptions options;
  options.num_workers = 2;
  options.max_open_requests = 2;
  options.max_lanes_per_batch = 8;
  options.clock_ns = [&ticks] { return (ticks.fetch_add(1) + 1) * 1000; };
  SynthesisServer server(options);
  AddAll(&server, set);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::shared_ptr<RequestTicket>> tickets;
  for (uint64_t i = 0; i < 24; ++i) {
    tickets.push_back(server.Submit({set.names[i % 2], 1 + i % 7, 500 + i}));
    if (i % 5 == 0) tickets.back()->Cancel();
  }
  tickets.push_back(server.Submit({"nobody", 3, 1}));  // rejected at submit
  for (auto& ticket : tickets) ticket->Wait();
  ASSERT_TRUE(server.Shutdown().ok());

  size_t completed = 0;
  for (size_t i = 0; i < tickets.size(); ++i) {
    SCOPED_TRACE("ticket " + std::to_string(i));
    RequestTicket& ticket = *tickets[i];
    const RequestTicket::Phases& phases = ticket.phases();
    EXPECT_EQ(phases.queue_us + phases.window_us + phases.decode_us,
              ticket.latency_us());
    if (!ticket.Wait().ok()) continue;
    ++completed;
    EXPECT_GT(phases.queue_us, 0u);
    EXPECT_GT(phases.window_us, 0u);
    EXPECT_GT(phases.decode_us, 0u);
  }
  EXPECT_GE(completed, 1u);
  // The rejected request never reached the queue's end: all queue time.
  EXPECT_EQ(tickets.back()->phases().queue_us, tickets.back()->latency_us());
  EXPECT_EQ(tickets.back()->phases().decode_us, 0u);

  const uint64_t terminal = latency.TotalCount() - latency_before;
  EXPECT_EQ(terminal, tickets.size());
  EXPECT_EQ(queue.TotalCount() - queue_before, terminal);
  EXPECT_EQ(window.TotalCount() - window_before, terminal);
  EXPECT_EQ(decode.TotalCount() - decode_before, terminal);
}

// ---------- Workload generator ----------

TEST(WorkloadGeneratorTest, DeterministicAndSkewed) {
  std::vector<TenantProfile> profiles;
  for (int i = 0; i < 4; ++i) {
    profiles.push_back(TenantProfile{"t" + std::to_string(i),
                                     "name",
                                     {"Grace", "Yin", "Anson", "Mia"}});
  }
  WorkloadOptions wl;
  wl.tenant_skew.kind = SkewKind::kZipfian;
  wl.conditioned_fraction = 0.5;

  WorkloadGenerator a(wl, profiles, 99);
  WorkloadGenerator b(wl, profiles, 99);
  std::map<std::string, int> hits;
  constexpr int kDraws = 2000;
  int conditioned = 0;
  for (int i = 0; i < kDraws; ++i) {
    SampleRequest ra = a.Next();
    SampleRequest rb = b.Next();
    EXPECT_EQ(ra.tenant, rb.tenant);
    EXPECT_EQ(ra.rows, rb.rows);
    EXPECT_EQ(ra.seed, rb.seed);
    EXPECT_EQ(ra.conditioning.size(), rb.conditioning.size());
    EXPECT_GE(ra.rows, wl.min_rows);
    EXPECT_LE(ra.rows, wl.max_rows);
    ++hits[ra.tenant];
    if (!ra.conditioning.empty()) ++conditioned;
  }
  // Zipfian(0.99) over 4 keys gives the hot key a ~1/zeta(4,0.99) ~ 48%
  // share — roughly double its 25% uniform share.
  EXPECT_GT(hits["t0"], 2 * kDraws / 5);
  EXPECT_GT(hits["t3"], 0);
  EXPECT_GT(conditioned, kDraws / 5);
  EXPECT_LT(conditioned, 4 * kDraws / 5);

  // A priority mix tags roughly the configured fractions; the default
  // (all-interactive) replay above consumed no extra draws.
  WorkloadOptions mixed = wl;
  mixed.batch_fraction = 0.2;
  mixed.background_fraction = 0.5;
  WorkloadGenerator c(mixed, profiles, 99);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<int>(c.Next().priority)];
  }
  EXPECT_GT(counts[0], kDraws / 5);  // ~30% interactive
  EXPECT_GT(counts[1], kDraws / 10);
  EXPECT_GT(counts[2], 2 * kDraws / 5);
}

TEST(WorkloadGeneratorTest, SkewKindsCoverTheKeySpace) {
  Rng rng(5);
  for (SkewKind kind :
       {SkewKind::kUniform, SkewKind::kZipfian, SkewKind::kScrambledZipfian,
        SkewKind::kHotSet, SkewKind::kLatest}) {
    SkewedKeys::Options options;
    options.kind = kind;
    SkewedKeys keys(options, 10);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 5000; ++i) {
      size_t key = keys.Next(&rng);
      ASSERT_LT(key, 10u);
      ++counts[key];
    }
    int covered = 0;
    for (int c : counts) covered += c > 0 ? 1 : 0;
    EXPECT_GE(covered, 5) << "kind " << static_cast<int>(kind);
  }
  // HotSet: the hot 20% gets ~80% of draws.
  SkewedKeys::Options hot;
  hot.kind = SkewKind::kHotSet;
  SkewedKeys keys(hot, 10);
  int in_hot = 0;
  for (int i = 0; i < 4000; ++i) in_hot += keys.Next(&rng) < 2 ? 1 : 0;
  EXPECT_GT(in_hot, 2800);
  EXPECT_LT(in_hot, 3800);
}

}  // namespace
}  // namespace greater
