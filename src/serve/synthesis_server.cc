#include "serve/synthesis_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <utility>

#include "common/fault.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "tabular/table_builder.h"

namespace greater {
namespace {

constexpr const char* kClassNames[kNumRequestPriorities] = {
    "interactive", "batch", "background"};

// serve.* instrumentation; pointers cached once per process so request
// hot paths pay one relaxed atomic op per event.
struct ServeCounters {
  Counter* requests;
  Counter* admitted;
  Counter* completed;
  Counter* failed;
  Counter* cancelled;
  Counter* shed;
  Counter* quota_rejected;
  Counter* deadline_exceeded;
  Counter* rejected;
  Counter* rows;
  Counter* batches;
  Counter* cross_request_batches;
  Counter* brownout_entered;
  Counter* brownout_exited;
  Counter* evictions;
  Counter* reloads;
  Counter* queue_full_waits;
  Gauge* queue_depth;
  Gauge* open_requests;
  Gauge* brownout;
  Gauge* resident_bundle_bytes;
  Histogram* latency_us;
  Histogram* interactive_latency_us;
  Histogram* queue_us;
  Histogram* window_us;
  Histogram* decode_us;
  Histogram* lanes_per_batch;
  /// Per-class admission queue gauges, named as the streaming layer names
  /// a queue called "serve.admission.<class>".
  std::array<Gauge*, kNumRequestPriorities> class_depth;
  std::array<Gauge*, kNumRequestPriorities> class_peak;
  ServeCounters() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    requests = &registry.GetCounter("serve.requests");
    admitted = &registry.GetCounter("serve.admitted");
    completed = &registry.GetCounter("serve.requests_completed");
    failed = &registry.GetCounter("serve.requests_failed");
    cancelled = &registry.GetCounter("serve.requests_cancelled");
    shed = &registry.GetCounter("serve.shed");
    quota_rejected = &registry.GetCounter("serve.quota_rejected");
    deadline_exceeded = &registry.GetCounter("serve.deadline_exceeded");
    rejected = &registry.GetCounter("serve.rejected");
    rows = &registry.GetCounter("serve.rows");
    batches = &registry.GetCounter("serve.batches");
    cross_request_batches =
        &registry.GetCounter("serve.cross_request_batches");
    brownout_entered = &registry.GetCounter("serve.brownout_entered");
    brownout_exited = &registry.GetCounter("serve.brownout_exited");
    evictions = &registry.GetCounter("serve.evictions");
    reloads = &registry.GetCounter("serve.reloads");
    queue_full_waits = &registry.GetCounter("stream.queue_full_waits");
    queue_depth = &registry.GetGauge("serve.queue_depth");
    open_requests = &registry.GetGauge("serve.open_requests");
    brownout = &registry.GetGauge("serve.brownout");
    resident_bundle_bytes =
        &registry.GetGauge("serve.resident_bundle_bytes");
    latency_us = &registry.GetLatencyHistogram("serve.request_latency_us");
    interactive_latency_us =
        &registry.GetLatencyHistogram("serve.interactive_latency_us");
    queue_us = &registry.GetLatencyHistogram("serve.phase.queue_us");
    window_us = &registry.GetLatencyHistogram("serve.phase.window_us");
    decode_us = &registry.GetLatencyHistogram("serve.phase.decode_us");
    lanes_per_batch = &registry.GetHistogram(
        "serve.lanes_per_batch",
        {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0});
    for (size_t cls = 0; cls < kNumRequestPriorities; ++cls) {
      const std::string queue =
          std::string("serve.admission.") + kClassNames[cls];
      class_depth[cls] = &registry.GetGauge("stream.queue_depth." + queue);
      class_peak[cls] = &registry.GetGauge("stream.queue_peak." + queue);
    }
  }
};

const ServeCounters& GetServeCounters() {
  static const ServeCounters counters;
  return counters;
}

}  // namespace

// ---------------------------------------------------------------------------
// RequestTicket

const Result<Table>& RequestTicket::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return done_; });
  return result_;
}

bool RequestTicket::WaitFor(uint64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                      [&] { return done_; });
}

bool RequestTicket::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

void RequestTicket::Cancel() {
  cancelled_.store(true, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// SynthesisServer

SynthesisServer::SynthesisServer(const ServeOptions& options)
    : options_(options), rr_budget_(options.priority_weights[0]) {}

SynthesisServer::~SynthesisServer() {
  if (started_ && !finished_) Shutdown();
}

void SynthesisServer::FailureHook::Poison(Status error) {
  {
    std::lock_guard<std::mutex> lock(server_->sched_mu_);
    if (server_->failure_.ok()) server_->failure_ = std::move(error);
  }
  server_->sched_cv_.notify_all();
  server_->space_cv_.notify_all();
}

uint64_t SynthesisServer::NowNs() const {
  return options_.clock_ns ? options_.clock_ns() : Heartbeat::NowNs();
}

Status SynthesisServer::AddTenant(
    const std::string& name, std::shared_ptr<const GreatSynthesizer> model) {
  if (started_) {
    return Status::FailedPrecondition("AddTenant after Start");
  }
  if (model == nullptr || !model->fitted()) {
    return Status::FailedPrecondition("tenant '" + name +
                                      "' needs a fitted model");
  }
  TenantState state;
  state.model = std::move(model);
  state.generation = ++generation_counter_;
  state.quota = options_.default_quota;
  state.last_used = ++lru_clock_;  // registration order seeds the LRU
  if (!tenants_.emplace(name, std::move(state)).second) {
    return Status::AlreadyExists("tenant '" + name + "' already registered");
  }
  return Status::OK();
}

Status SynthesisServer::LoadTenant(const std::string& name,
                                   const std::string& path) {
  if (started_) {
    return Status::FailedPrecondition("LoadTenant after Start");
  }
  auto model = std::make_shared<GreatSynthesizer>();
  GREATER_RETURN_NOT_OK(
      model->Load(path).WithContext("loading tenant '" + name + "'"));
  if (!model->fitted()) {
    return Status::FailedPrecondition("tenant '" + name +
                                      "' needs a fitted model");
  }
  TenantState state;
  state.model = std::move(model);
  state.artifact_path = path;
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  state.bytes = ec ? 0 : static_cast<uint64_t>(size);
  state.generation = ++generation_counter_;
  state.quota = options_.default_quota;
  state.last_used = ++lru_clock_;  // registration order seeds the LRU
  const uint64_t bytes = state.bytes;
  if (!tenants_.emplace(name, std::move(state)).second) {
    return Status::AlreadyExists("tenant '" + name + "' already registered");
  }
  resident_bytes_ += bytes;
  GetServeCounters().resident_bundle_bytes->Set(
      static_cast<double>(resident_bytes_));
  // Registration itself respects the byte budget (single-threaded before
  // Start, so the Locked discipline is trivially satisfied). The tenant
  // just registered is the warmest; earlier registrations are the
  // eviction candidates.
  MaybeEvictLocked(&tenants_.find(name)->second);
  return Status::OK();
}

Status SynthesisServer::SetTenantQuota(const std::string& name,
                                       TenantQuota quota) {
  if (started_) {
    return Status::FailedPrecondition("SetTenantQuota after Start");
  }
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    return Status::NotFound("unknown tenant '" + name + "'");
  }
  it->second.quota = quota;
  return Status::OK();
}

Status SynthesisServer::Start() {
  if (started_) return Status::FailedPrecondition("Start called twice");
  if (tenants_.empty()) {
    return Status::FailedPrecondition("Start with no tenants registered");
  }
  started_ = true;
  StreamOptions stream_options;
  stream_options.watchdog_timeout_ms = options_.watchdog_timeout_ms;
  stream_options.watchdog_poll_ms = options_.watchdog_poll_ms;
  runtime_ = std::make_unique<StreamRuntime>(stream_options);
  runtime_->RegisterQueue(&failure_hook_);
  for (size_t cls = 0; cls < kNumRequestPriorities; ++cls) {
    GetServeCounters().class_depth[cls]->Set(0.0);
    GetServeCounters().class_peak[cls]->Set(0.0);
  }
  for (size_t w = 0; w < std::max<size_t>(1, options_.num_workers); ++w) {
    Heartbeat* hb =
        runtime_->AddHeartbeat("serve.worker." + std::to_string(w));
    runtime_->Spawn("serve.worker." + std::to_string(w), hb,
                    [this, hb] { return WorkerLoop(hb); });
  }
  return Status::OK();
}

Status SynthesisServer::error() const {
  return runtime_ != nullptr ? runtime_->error() : Status::OK();
}

// ---------------------------------------------------------------------------
// Quota, eviction, brownout

Status SynthesisServer::AdmitQuotaLocked(TenantState* tenant,
                                         const std::string& name, size_t rows,
                                         uint64_t now_ns) {
  const TenantQuota& quota = tenant->quota;
  if (quota.max_open_lanes > 0 &&
      tenant->open_lanes + rows > quota.max_open_lanes) {
    return Status::ResourceExhausted(
               "tenant '" + name + "' open-lane quota exceeded: " +
               std::to_string(tenant->open_lanes) + " lanes in flight + " +
               std::to_string(rows) + " requested > cap of " +
               std::to_string(quota.max_open_lanes))
        .WithRetryAfter(options_.quota_retry_after_ms);
  }
  if (quota.rows_per_sec > 0.0) {
    const double burst =
        quota.burst_rows > 0.0 ? quota.burst_rows : quota.rows_per_sec;
    if (!tenant->bucket_primed) {
      tenant->tokens = burst;
      tenant->bucket_primed = true;
    } else if (now_ns > tenant->last_refill_ns) {
      const double elapsed_s =
          static_cast<double>(now_ns - tenant->last_refill_ns) * 1e-9;
      tenant->tokens =
          std::min(burst, tenant->tokens + elapsed_s * quota.rows_per_sec);
    }
    tenant->last_refill_ns = now_ns;
    const double need = static_cast<double>(rows);
    if (tenant->tokens + 1e-9 < need) {
      const double deficit = need - tenant->tokens;
      const uint64_t refill_ms = static_cast<uint64_t>(
          std::ceil(deficit / quota.rows_per_sec * 1000.0));
      return Status::ResourceExhausted(
                 "tenant '" + name + "' rows/sec quota exhausted: " +
                 std::to_string(rows) + " rows requested with " +
                 std::to_string(tenant->tokens) + " tokens in the bucket")
          .WithRetryAfter(std::max<uint64_t>(1, refill_ms));
    }
    tenant->tokens -= need;
  }
  return Status::OK();
}

Status SynthesisServer::ReloadTenantLocked(TenantState* tenant,
                                           const std::string& name) {
  const ServeCounters& counters = GetServeCounters();
  if (FaultRegistry::AnyArmed()) {
    Status fault = FaultRegistry::Global().Check("serve.reload");
    if (!fault.ok()) {
      return fault.WithContext("reloading evicted tenant '" + name +
                               "' from '" + tenant->artifact_path + "'");
    }
  }
  auto model = std::make_shared<GreatSynthesizer>();
  GREATER_RETURN_NOT_OK(model->Load(tenant->artifact_path)
                            .WithContext("reloading evicted tenant '" + name +
                                         "' from '" + tenant->artifact_path +
                                         "'"));
  tenant->model = std::move(model);
  tenant->generation = ++generation_counter_;
  tenant->last_used = ++lru_clock_;
  resident_bytes_ += tenant->bytes;
  counters.reloads->Increment();
  counters.resident_bundle_bytes->Set(static_cast<double>(resident_bytes_));
  // Reloading one bundle can push another cold tenant out — but never the
  // one just reloaded: the triggering request pins it next.
  MaybeEvictLocked(tenant);
  return Status::OK();
}

void SynthesisServer::MaybeEvictLocked(const TenantState* keep) {
  if (options_.max_resident_bundle_bytes == 0) return;
  const ServeCounters& counters = GetServeCounters();
  while (resident_bytes_ > options_.max_resident_bundle_bytes) {
    // Coldest resident path-backed tenant with no open lanes. A bundle
    // with admitted work is NEVER evicted — in-flight rows keep sampling
    // against the exact snapshot they were admitted under.
    TenantState* coldest = nullptr;
    for (auto& [name, tenant] : tenants_) {
      if (&tenant == keep) continue;
      if (tenant.model == nullptr) continue;
      if (tenant.artifact_path.empty()) continue;  // pinned
      if (tenant.inflight > 0) continue;
      if (coldest == nullptr || tenant.last_used < coldest->last_used) {
        coldest = &tenant;
      }
    }
    if (coldest == nullptr) return;  // nothing evictable; stay over budget
    if (FaultRegistry::AnyArmed()) {
      Status fault = FaultRegistry::Global().Check("serve.evict");
      if (!fault.ok()) return;  // injected pin: abort this sweep
    }
    coldest->model.reset();
    resident_bytes_ -= std::min(resident_bytes_, coldest->bytes);
    counters.evictions->Increment();
    counters.resident_bundle_bytes->Set(static_cast<double>(resident_bytes_));
  }
}

void SynthesisServer::PruneWorkerSpaces(
    std::unordered_map<uint64_t, WorkerSpace>* spaces) {
  std::vector<uint64_t> resident;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    for (const auto& [name, tenant] : tenants_) {
      if (tenant.model != nullptr) resident.push_back(tenant.generation);
    }
  }
  for (auto it = spaces->begin(); it != spaces->end();) {
    if (std::find(resident.begin(), resident.end(), it->first) ==
        resident.end()) {
      it = spaces->erase(it);
    } else {
      ++it;
    }
  }
}

size_t SynthesisServer::QueuedDepthLocked() const {
  size_t depth = 0;
  for (const auto& queue : queued_) depth += queue.size();
  return depth;
}

void SynthesisServer::UpdatePressureLocked(uint64_t now_ns) {
  const bool queue_cfg = options_.brownout_queue_high > 0;
  const bool lanes_cfg = options_.brownout_lanes_high > 0;
  if (!queue_cfg && !lanes_cfg) return;
  const ServeCounters& counters = GetServeCounters();
  const size_t queued = QueuedDepthLocked();
  size_t lanes = 0;
  for (const auto& ticket : open_) {
    lanes += ticket->request_.rows - ticket->rows_packed_;
  }
  if (!brownout_) {
    const bool high =
        (queue_cfg && queued >= options_.brownout_queue_high) ||
        (lanes_cfg && lanes >= options_.brownout_lanes_high);
    if (high) {
      brownout_ = true;
      brownout_since_ns_ = now_ns;
      counters.brownout_entered->Increment();
      counters.brownout->Set(1.0);
    }
    return;
  }
  // Hysteresis: exit only when every configured signal is at/below its low
  // watermark AND the mode has been held for the minimum dwell — repeated
  // high crossings inside one episode never re-enter (no flapping).
  const size_t queue_low = options_.brownout_queue_low > 0
                               ? options_.brownout_queue_low
                               : options_.brownout_queue_high / 2;
  const size_t lanes_low = options_.brownout_lanes_low > 0
                               ? options_.brownout_lanes_low
                               : options_.brownout_lanes_high / 2;
  const bool low = (!queue_cfg || queued <= queue_low) &&
                   (!lanes_cfg || lanes <= lanes_low);
  if (low &&
      now_ns >= brownout_since_ns_ + options_.brownout_min_dwell_ms * 1000000ull) {
    brownout_ = false;
    counters.brownout_exited->Increment();
    counters.brownout->Set(0.0);
  }
}

size_t SynthesisServer::EffectiveLaneBudgetLocked() const {
  if (!brownout_) return options_.max_lanes_per_batch;
  const size_t divisor = std::max<size_t>(1, options_.brownout_lanes_divisor);
  return std::max<size_t>(1, options_.max_lanes_per_batch / divisor);
}

// ---------------------------------------------------------------------------
// Submission

std::shared_ptr<RequestTicket> SynthesisServer::Submit(
    SampleRequest request) {
  const ServeCounters& counters = GetServeCounters();
  counters.requests->Increment();
  std::shared_ptr<RequestTicket> ticket(new RequestTicket());
  ticket->submit_ns_ = NowNs();
  ticket->request_ = std::move(request);
  if (ticket->request_.deadline_ms > 0) {
    ticket->deadline_ns_ =
        ticket->submit_ns_ + ticket->request_.deadline_ms * 1000000ull;
  }

  if (!started_ || finished_) {
    return FailTicket(std::move(ticket),
                      Status::FailedPrecondition("server is not running"),
                      TerminalClass::kRejected);
  }
  // Resolve the tenant and (transparently) reload its bundle if a
  // memory-pressure sweep evicted it. The ticket holds the model
  // shared_ptr from here on, so a later eviction cannot free a bundle
  // this request samples against.
  TenantState* tenant = nullptr;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    auto it = tenants_.find(ticket->request_.tenant);
    if (it != tenants_.end()) {
      tenant = &it->second;
      if (tenant->model == nullptr) {
        Status reloaded = ReloadTenantLocked(tenant, it->first);
        if (!reloaded.ok()) {
          return FailTicket(std::move(ticket), std::move(reloaded),
                            TerminalClass::kRejected);
        }
      }
      tenant->last_used = ++lru_clock_;
      ticket->model_ = tenant->model;
      ticket->generation_ = tenant->generation;
    }
  }
  if (tenant == nullptr) {
    return FailTicket(std::move(ticket),
                      Status::NotFound("unknown tenant '" +
                                       ticket->request_.tenant + "'"),
                      TerminalClass::kRejected);
  }

  // Admission fault point: a fired fault rejects the request typed before
  // it ever enters the queue; nothing else in flight is disturbed.
  if (FaultRegistry::AnyArmed()) {
    Status fault = FaultRegistry::Global().Check("serve.admit");
    if (!fault.ok()) {
      return FailTicket(std::move(ticket), std::move(fault),
                        TerminalClass::kRejected);
    }
  }

  // The request's stream base, derived exactly as SampleRows derives it
  // from a fresh Rng(seed) — the root of the served-vs-direct bitwise
  // identity. Row i of this request draws from
  // Rng(Rng::DeriveStreamSeed(base, i)) regardless of packing.
  Rng seed_rng(ticket->request_.seed);
  ticket->base_ = GreatSynthesizer::DeriveSampleBase(&seed_rng);

  // Conditioning prefix: one forced-column row, typed against the tenant
  // schema, that every lane of the request forces (SampleConditional with
  // the row replicated `rows` times).
  if (!ticket->request_.conditioning.empty()) {
    const Schema& schema = ticket->model_->encoder().schema();
    std::vector<Field> fields;
    Row row;
    for (const auto& [column, value] : ticket->request_.conditioning) {
      Result<size_t> idx = schema.FieldIndex(column);
      if (!idx.ok()) {
        return FailTicket(std::move(ticket),
                          idx.status().WithContext(
                              "resolving conditioning column '" + column +
                              "' against tenant '" +
                              ticket->request_.tenant + "'"),
                          TerminalClass::kRejected);
      }
      fields.push_back(schema.field(std::move(idx).ValueOrDie()));
      row.push_back(value);
    }
    Table conditions{Schema(std::move(fields))};
    Status appended = conditions.AppendRow(std::move(row));
    if (!appended.ok()) {
      return FailTicket(std::move(ticket),
                        appended.WithContext("typing conditioning values"),
                        TerminalClass::kRejected);
    }
    ticket->conditions_ = std::move(conditions);
    ticket->has_conditions_ = true;
  }

  if (ticket->request_.rows == 0) {
    counters.admitted->Increment();
    std::lock_guard<std::mutex> lock(ticket->mu_);
    FinalizeTicketLocked(ticket.get());
    return ticket;
  }

  // Quota gate, admission accounting and enqueue, in one scheduler-lock
  // section: charge the token bucket, reserve the open lanes, join the
  // live set, and wait for room in the class queue.
  std::unique_lock<std::mutex> lock(sched_mu_);
  const uint64_t now_ns = NowNs();
  Status quota = AdmitQuotaLocked(tenant, ticket->request_.tenant,
                                  ticket->request_.rows, now_ns);
  if (!quota.ok()) {
    lock.unlock();
    return FailTicket(std::move(ticket), std::move(quota),
                      TerminalClass::kQuotaRejected);
  }
  tenant->inflight += 1;
  tenant->open_lanes += ticket->request_.rows;
  live_.push_back(ticket);
  counters.admitted->Increment();

  // Backpressure: wait for room in the class queue, or refuse typed.
  const size_t cls = std::min<size_t>(
      static_cast<size_t>(ticket->request_.priority),
      kNumRequestPriorities - 1);
  std::deque<std::shared_ptr<RequestTicket>>& queue = queued_[cls];
  const size_t capacity = std::max<size_t>(1, options_.admission_capacity);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.admission_wait_ms);
  Status refused;
  TerminalClass refused_class = TerminalClass::kFailed;
  for (;;) {
    // Stopped while (or before) we waited: fail typed with the runtime
    // error when there is one.
    if (!failure_.ok()) {
      refused = failure_;
    } else if (closed_) {
      refused = Status::FailedPrecondition("server stopped accepting requests");
    } else if (queue.size() < capacity) {
      break;
    } else if (FaultRegistry::AnyArmed()) {
      refused = FaultRegistry::Global().Check("stream.queue_full");
    }
    if (!refused.ok()) break;
    if (options_.admission_wait_ms > 0 &&
        std::chrono::steady_clock::now() >= deadline) {
      // Bounded-wait admission timed out: shed this request typed, with a
      // hint for when to come back.
      refused = Status::ResourceExhausted(
                    std::string("request shed: admission queue "
                                "'serve.admission.") +
                    kClassNames[cls] + "' still full after " +
                    std::to_string(options_.admission_wait_ms) + " ms")
                    .WithRetryAfter(options_.shed_retry_after_ms);
      refused_class = TerminalClass::kShed;
      break;
    }
    counters.queue_full_waits->Increment();
    if (options_.admission_wait_ms == 0) {
      space_cv_.wait(lock);  // blocking backpressure
    } else {
      space_cv_.wait_until(lock, deadline);
    }
  }
  if (!refused.ok()) {
    RemoveLiveLockedHeld(ticket.get());
    lock.unlock();
    return FailTicket(std::move(ticket), std::move(refused), refused_class);
  }
  queue.push_back(ticket);
  if (static_cast<double>(queue.size()) > counters.class_peak[cls]->Value()) {
    counters.class_peak[cls]->Set(static_cast<double>(queue.size()));
  }
  PublishQueueGaugesLocked();
  UpdatePressureLocked(NowNs());
  lock.unlock();
  sched_cv_.notify_one();
  return ticket;
}

// ---------------------------------------------------------------------------
// Admission (worker threads, under sched_mu_)

void SynthesisServer::PublishQueueGaugesLocked() {
  for (size_t cls = 0; cls < kNumRequestPriorities; ++cls) {
    GetServeCounters().class_depth[cls]->Set(
        static_cast<double>(queued_[cls].size()));
  }
  GetServeCounters().queue_depth->Set(
      static_cast<double>(QueuedDepthLocked()));
}

bool SynthesisServer::ShedQueuedOverflowLocked() {
  if (options_.shed_queue_depth == 0) return false;
  bool shed = false;
  while (QueuedDepthLocked() > options_.shed_queue_depth) {
    // Lowest class first: background, then batch. Interactive work is
    // never shed from the queue — if only interactive remains above the
    // watermark, it stays queued (bounded by the class queue capacity).
    size_t cls = kNumRequestPriorities - 1;
    while (cls > 0 && queued_[cls].empty()) --cls;
    if (cls == 0) break;
    std::shared_ptr<RequestTicket> victim = std::move(queued_[cls].front());
    queued_[cls].pop_front();
    shed = true;
    RemoveLiveLockedHeld(victim.get());
    FailTicket(std::move(victim),
               Status::ResourceExhausted(
                   "request shed: admission backlog exceeds shed watermark "
                   "of " +
                   std::to_string(options_.shed_queue_depth))
                   .WithRetryAfter(options_.shed_retry_after_ms),
               TerminalClass::kShed);
  }
  return shed;
}

void SynthesisServer::InsertOpenLocked(std::shared_ptr<RequestTicket> ticket) {
  // Keep the packing window ordered by (priority class, admission order):
  // the pack sweep walks front to back, so interactive lanes always pack
  // before batch/background ones already waiting in the window.
  const auto cls = static_cast<uint8_t>(ticket->request_.priority);
  auto it = open_.begin();
  while (it != open_.end() &&
         static_cast<uint8_t>((*it)->request_.priority) <= cls) {
    ++it;
  }
  open_.insert(it, std::move(ticket));
}

size_t SynthesisServer::NextAdmitClassLocked() {
  // Weighted round-robin over the class queues: class c is offered up to
  // priority_weights[c] admissions per cycle while it has queued work;
  // empty (or zero-weight) classes forfeit their share, so no bandwidth is
  // wasted on idle classes. After Shutdown zero-weight classes get a share
  // so they drain; the scan ends on its start class with a fresh share.
  for (size_t scanned = 0; scanned <= kNumRequestPriorities;) {
    if (rr_budget_ == 0) {
      rr_class_ = (rr_class_ + 1) % kNumRequestPriorities;
      rr_budget_ = std::max<uint32_t>(options_.priority_weights[rr_class_],
                                      closed_ ? 1 : 0);
      ++scanned;
      continue;
    }
    if (!queued_[rr_class_].empty()) {
      --rr_budget_;
      return rr_class_;
    }
    rr_budget_ = 0;  // empty: forfeit the rest of this class's share
  }
  return kNumRequestPriorities;
}

void SynthesisServer::AdmitLocked() {
  bool dequeued = ShedQueuedOverflowLocked();
  const uint64_t now_ns = NowNs();
  UpdatePressureLocked(now_ns);
  // Respect the packing window: while it is full the request stays in its
  // bounded class queue, which is what makes Submit block — admission
  // capacity plus window size bound the buffered requests.
  while (open_.size() < options_.max_open_requests) {
    const size_t cls = NextAdmitClassLocked();
    if (cls == kNumRequestPriorities) break;
    std::shared_ptr<RequestTicket> ticket = std::move(queued_[cls].front());
    queued_[cls].pop_front();
    ticket->admit_ns_ = now_ns;
    InsertOpenLocked(std::move(ticket));
    dequeued = true;
  }
  if (!dequeued) return;
  PublishQueueGaugesLocked();
  GetServeCounters().open_requests->Set(static_cast<double>(open_.size()));
  space_cv_.notify_all();
}

bool SynthesisServer::CanAdmitLocked() const {
  if (open_.size() >= options_.max_open_requests) return false;
  for (size_t cls = 0; cls < kNumRequestPriorities; ++cls) {
    if (!queued_[cls].empty() &&
        (closed_ || options_.priority_weights[cls] > 0)) {
      return true;
    }
  }
  return false;
}

bool SynthesisServer::DrainedLocked() const {
  return closed_ && open_.empty() && QueuedDepthLocked() == 0;
}

// ---------------------------------------------------------------------------
// Packing and decoding (worker threads)

bool SynthesisServer::PackBundleLocked(Bundle* bundle) {
  const ServeCounters& counters = GetServeCounters();
  bundle->model = nullptr;
  bundle->generation = 0;
  bundle->slices.clear();
  bundle->lanes = 0;
  const uint64_t now_ns = NowNs();
  UpdatePressureLocked(now_ns);
  const size_t lane_budget = EffectiveLaneBudgetLocked();
  for (auto it = open_.begin();
       it != open_.end() && bundle->lanes < lane_budget;) {
    RequestTicket& ticket = **it;
    // Cancellation sweep: unpacked rows are never decoded; the ticket
    // goes terminal right here (rows already mid-batch are dropped on
    // delivery against done_).
    if (ticket.cancelled_.load(std::memory_order_relaxed)) {
      {
        std::lock_guard<std::mutex> lock(ticket.mu_);
        CompleteTicketLocked(
            &ticket, Status::Cancelled("request cancelled by the caller"),
            TerminalClass::kCancelled);
      }
      RemoveLiveLockedHeld(&ticket);
      it = open_.erase(it);
      continue;
    }
    // Deadline sweep, the cancellation sweep's timed twin: an overdue
    // request is convicted here, before any more of its rows are packed.
    // Rows already mid-batch are discarded on delivery against done_, so
    // the report still reconciles.
    if (ticket.deadline_ns_ != 0 && now_ns >= ticket.deadline_ns_) {
      counters.deadline_exceeded->Increment();
      {
        std::lock_guard<std::mutex> lock(ticket.mu_);
        CompleteTicketLocked(
            &ticket,
            Status::DeadlineExceeded(
                "request deadline of " +
                std::to_string(ticket.request_.deadline_ms) +
                " ms exceeded with " +
                std::to_string(ticket.request_.rows - ticket.rows_packed_) +
                " of " + std::to_string(ticket.request_.rows) +
                " rows not yet packed"),
            TerminalClass::kFailed);
      }
      RemoveLiveLockedHeld(&ticket);
      it = open_.erase(it);
      continue;
    }
    const size_t unpacked = ticket.request_.rows - ticket.rows_packed_;
    if (bundle->model != nullptr &&
        ticket.model_.get() != bundle->model.get()) {
      ++it;  // different model snapshot: waits for its own batch
      continue;
    }
    // Pack fault point, evaluated once per request as its first lanes
    // are packed: the tripped request fails typed, co-packed requests
    // proceed untouched.
    if (ticket.rows_packed_ == 0 && FaultRegistry::AnyArmed()) {
      Status fault = FaultRegistry::Global().Check("serve.pack");
      if (!fault.ok()) {
        {
          std::lock_guard<std::mutex> lock(ticket.mu_);
          ++ticket.report_.injected_faults;
          CompleteTicketLocked(&ticket, std::move(fault),
                               TerminalClass::kFailed);
        }
        RemoveLiveLockedHeld(&ticket);
        it = open_.erase(it);
        continue;
      }
    }
    if (bundle->model == nullptr) {
      bundle->model = ticket.model_;
      bundle->generation = ticket.generation_;
    }
    size_t take = std::min(unpacked, lane_budget - bundle->lanes);
    if (ticket.rows_packed_ == 0) ticket.first_pack_ns_ = now_ns;
    bundle->slices.push_back(
        Slice{*it, ticket.rows_packed_, ticket.rows_packed_ + take});
    ticket.rows_packed_ += take;
    bundle->lanes += take;
    if (ticket.rows_packed_ == ticket.request_.rows) {
      it = open_.erase(it);
    } else {
      ++it;
    }
  }
  counters.open_requests->Set(static_cast<double>(open_.size()));
  return bundle->lanes > 0;
}

Status SynthesisServer::WorkerLoop(Heartbeat* hb) {
  std::unordered_map<uint64_t, WorkerSpace> spaces;
  for (;;) {
    hb->Beat();
    // Silent-death hook (watchdog conviction test): stop heartbeating and
    // exit without reporting, exactly like the streaming stages.
    if (FaultRegistry::AnyArmed()) {
      Status death = FaultRegistry::Global().Check("stream.worker_death");
      if (!death.ok()) {
        hb->SimulateDeath();
        return Status::OK();
      }
    }
    Bundle bundle;
    Status failure;
    bool wake_peer = false;
    {
      std::unique_lock<std::mutex> lock(sched_mu_);
      for (;;) {
        failure = failure_;
        if (!failure.ok()) break;
        AdmitLocked();
        if (PackBundleLocked(&bundle)) {
          // Refill the window slots this pack freed, and hand whatever is
          // still packable to a parked peer while this worker decodes.
          AdmitLocked();
          wake_peer = !open_.empty();
          break;
        }
        if (DrainedLocked()) {
          lock.unlock();
          sched_cv_.notify_all();  // parked peers are drained too
          return Status::OK();
        }
        // Idle: park until a submit, a pack that left work behind,
        // Shutdown or a runtime failure wakes us. The timeout only
        // re-beats the heartbeat; no work ever waits on it.
        sched_cv_.wait_for(
            lock, std::chrono::milliseconds(options_.idle_poll_ms), [&] {
              return !failure_.ok() || !open_.empty() || DrainedLocked() ||
                     CanAdmitLocked();
            });
        hb->Beat();
      }
    }
    if (!failure.ok()) {
      // First worker to notice the failure sweeps the pending tickets so
      // waiters unblock without needing Shutdown to run first.
      FailAllPending(failure);
      return Status::OK();
    }
    if (wake_peer) sched_cv_.notify_one();
    RunBundle(&bundle, &spaces);
    if (options_.max_resident_bundle_bytes > 0) {
      PruneWorkerSpaces(&spaces);
    }
  }
}

void SynthesisServer::RunBundle(
    Bundle* bundle, std::unordered_map<uint64_t, WorkerSpace>* spaces) {
  const ServeCounters& counters = GetServeCounters();
  const GreatSynthesizer& model = *bundle->model;
  WorkerSpace& ws = (*spaces)[bundle->generation];
  if (ws.engine == nullptr) {
    // The serving twin of GreatSynthesizer::InitWorkspace: a private
    // engine and decode cache per (worker, bundle generation), kept warm
    // across batches exactly like the serial workspace across Sample
    // calls. The space pins the model so an eviction cannot free it under
    // the engine.
    ws.model = bundle->model;
    ws.engine = std::make_unique<BatchDecodeEngine>(model);
    const DecodeCacheOptions& cache_options = model.options().decode_cache;
    if (cache_options.enabled) {
      ws.cache = std::make_unique<DecodeCache>(cache_options);
    }
    ws.decode.hidden_cache.set_capacity(
        cache_options.cache_hidden_states ? cache_options.hidden_capacity
                                          : 0);
  }

  // One LaneRequest per row, each tagged with its slice's report: lanes of
  // different requests advance in lockstep and share grouped model
  // evaluations, but accounting and streams stay per-request.
  std::vector<BatchDecodeEngine::LaneRequest> lanes;
  lanes.reserve(bundle->lanes);
  std::vector<SampleReport> slice_reports(bundle->slices.size());
  for (size_t s = 0; s < bundle->slices.size(); ++s) {
    const Slice& slice = bundle->slices[s];
    const RequestTicket& ticket = *slice.ticket;
    for (size_t row = slice.begin; row < slice.end; ++row) {
      lanes.push_back(BatchDecodeEngine::LaneRequest{
          row, ticket.base_,
          ticket.has_conditions_ ? &ticket.conditions_ : nullptr,
          /*cond_row=*/0, &slice_reports[s]});
    }
  }

  counters.batches->Increment();
  counters.lanes_per_batch->Observe(static_cast<double>(lanes.size()));
  if (bundle->slices.size() > 1) {
    counters.cross_request_batches->Increment();
  }

  std::vector<Result<Row>> rows;
  rows.reserve(lanes.size());
  {
    Span span("serve.batch");
    ws.engine->RunLanes(lanes.data(), lanes.size(), ws.cache.get(),
                        &ws.decode, span.id(), &rows);
  }

  size_t offset = 0;
  for (size_t s = 0; s < bundle->slices.size(); ++s) {
    const Slice& slice = bundle->slices[s];
    DeliverSlice(slice, slice_reports[s], &rows, offset);
    offset += slice.end - slice.begin;
  }
}

void SynthesisServer::DeliverSlice(const Slice& slice,
                                   const SampleReport& slice_report,
                                   std::vector<Result<Row>>* rows,
                                   size_t offset) {
  RequestTicket& ticket = *slice.ticket;
  bool completed = false;
  {
    std::lock_guard<std::mutex> lock(ticket.mu_);
    if (ticket.done_) return;  // cancelled or failed mid-flight: discard
    ticket.report_.Merge(slice_report);
    const size_t count = slice.end - slice.begin;
    for (size_t i = 0; i < count; ++i) {
      ticket.row_results_.emplace_back(slice.begin + i,
                                       std::move((*rows)[offset + i]));
    }
    ticket.rows_done_ += count;
    completed = ticket.rows_done_ == ticket.request_.rows;
  }
  if (!completed) return;
  // Release the tenant's lanes and quota BEFORE the ticket goes terminal:
  // a waiter that saw Wait() return must be able to admit a follow-up
  // request into the freed capacity immediately. (Lock order forbids
  // taking sched_mu_ while holding the ticket's mu_, hence two sections.)
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    RemoveLiveLockedHeld(&ticket);
  }
  {
    std::lock_guard<std::mutex> lock(ticket.mu_);
    // A concurrent failure sweep (FailAllPending) may have gone terminal
    // between the sections; its verdict stands.
    if (ticket.done_) return;
    FinalizeTicketLocked(&ticket);
  }
}

// ---------------------------------------------------------------------------
// Completion

void SynthesisServer::FinalizeTicketLocked(RequestTicket* ticket) {
  // Rows arrive batch by batch, possibly out of order when a request spans
  // bundles; the table is assembled in request-row order, honoring the
  // tenant model's degradation policy exactly as SampleMany does.
  std::sort(ticket->row_results_.begin(), ticket->row_results_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const SamplePolicy policy = ticket->model_->options().policy;
  TableBuilder builder(ticket->model_->encoder().schema());
  builder.Reserve(ticket->row_results_.size());
  Status failure = Status::OK();
  for (auto& [index, row] : ticket->row_results_) {
    if (!row.ok()) {
      if (policy == SamplePolicy::kLenient &&
          row.status().code() == StatusCode::kResourceExhausted) {
        continue;
      }
      failure = row.status().WithContext(
          "sampling row " + std::to_string(index + 1) + " of " +
          std::to_string(ticket->request_.rows));
      break;
    }
    failure = builder.AppendRow(std::move(row).ValueOrDie());
    if (!failure.ok()) break;
  }
  if (failure.ok()) {
    Result<Table> built = builder.Build();
    if (built.ok()) {
      ticket->result_ = std::move(built);
      CompleteTicketLocked(ticket, Status::OK(), TerminalClass::kCompleted);
    } else {
      CompleteTicketLocked(ticket, built.status(), TerminalClass::kFailed);
    }
  } else {
    CompleteTicketLocked(ticket, std::move(failure), TerminalClass::kFailed);
  }
}

void SynthesisServer::CompleteTicketLocked(RequestTicket* ticket,
                                           Status status, TerminalClass cls) {
  const ServeCounters& counters = GetServeCounters();
  const uint64_t now_ns = NowNs();
  // Each stamp becomes whole µs since submit once, so the phases telescope
  // to the latency exactly; a stamp never reached reads as the terminal one.
  const auto at_us = [&](uint64_t stamp_ns) -> uint64_t {
    if (stamp_ns == 0) stamp_ns = now_ns;
    return stamp_ns > ticket->submit_ns_
               ? (stamp_ns - ticket->submit_ns_) / 1000
               : 0;
  };
  const uint64_t latency_us = at_us(now_ns);
  const uint64_t admit_us = std::min(at_us(ticket->admit_ns_), latency_us);
  const uint64_t pack_us =
      std::clamp(at_us(ticket->first_pack_ns_), admit_us, latency_us);
  ticket->done_ns_ = now_ns;
  ticket->latency_us_ = latency_us;
  ticket->phases_ = RequestTicket::Phases{admit_us, pack_us - admit_us,
                                          latency_us - pack_us};
  const double latency = static_cast<double>(latency_us);
  counters.latency_us->Observe(latency);
  counters.queue_us->Observe(static_cast<double>(ticket->phases_.queue_us));
  counters.window_us->Observe(static_cast<double>(ticket->phases_.window_us));
  counters.decode_us->Observe(static_cast<double>(ticket->phases_.decode_us));
  switch (cls) {
    case TerminalClass::kCompleted:
      counters.completed->Increment();
      counters.rows->Increment(ticket->report_.rows_emitted);
      if (ticket->request_.priority == RequestPriority::kInteractive) {
        counters.interactive_latency_us->Observe(latency);
      }
      break;
    case TerminalClass::kFailed:
      counters.failed->Increment();
      break;
    case TerminalClass::kCancelled:
      counters.cancelled->Increment();
      break;
    case TerminalClass::kShed:
      counters.shed->Increment();
      break;
    case TerminalClass::kRejected:
      counters.rejected->Increment();
      break;
    case TerminalClass::kQuotaRejected:
      counters.quota_rejected->Increment();
      break;
  }
  if (!status.ok()) ticket->result_ = std::move(status);
  ticket->report_.ExportToMetrics();
  ticket->done_ = true;
  // Release the bundle reference: terminal tickets never pin an evicted
  // model in memory.
  ticket->model_.reset();
  ticket->cv_.notify_all();
}

std::shared_ptr<RequestTicket> SynthesisServer::FailTicket(
    std::shared_ptr<RequestTicket> ticket, Status status, TerminalClass cls) {
  std::lock_guard<std::mutex> lock(ticket->mu_);
  if (!ticket->done_) {
    CompleteTicketLocked(ticket.get(), std::move(status), cls);
  }
  return ticket;
}

void SynthesisServer::RemoveLiveLockedHeld(const RequestTicket* ticket) {
  for (auto it = live_.begin(); it != live_.end(); ++it) {
    if (it->get() == ticket) {
      live_.erase(it);
      auto tenant = tenants_.find(ticket->request_.tenant);
      if (tenant != tenants_.end()) {
        TenantState& state = tenant->second;
        if (state.inflight > 0) --state.inflight;
        state.open_lanes -=
            std::min(state.open_lanes, ticket->request_.rows);
      }
      // Pressure may have dropped (brownout exit) and a now-idle tenant
      // may be evictable.
      MaybeEvictLocked();
      UpdatePressureLocked(NowNs());
      return;
    }
  }
}

void SynthesisServer::FailAllPending(const Status& error) {
  std::vector<std::shared_ptr<RequestTicket>> pending;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    for (const auto& ticket : live_) {
      auto tenant = tenants_.find(ticket->request_.tenant);
      if (tenant != tenants_.end()) {
        TenantState& state = tenant->second;
        if (state.inflight > 0) --state.inflight;
        state.open_lanes -=
            std::min(state.open_lanes, ticket->request_.rows);
      }
    }
    pending.swap(live_);
    open_.clear();
    for (auto& queue : queued_) queue.clear();
    PublishQueueGaugesLocked();
    GetServeCounters().open_requests->Set(0.0);
  }
  for (const auto& ticket : pending) {
    std::lock_guard<std::mutex> lock(ticket->mu_);
    if (ticket->done_) continue;
    CompleteTicketLocked(
        ticket.get(),
        error.ok() ? Status::FailedPrecondition(
                         "server shut down before the request completed")
                   : error,
        TerminalClass::kFailed);
  }
}

Status SynthesisServer::Shutdown() {
  if (!started_) {
    return Status::FailedPrecondition("Shutdown before Start");
  }
  if (finished_) return final_status_;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    closed_ = true;
  }
  sched_cv_.notify_all();
  space_cv_.notify_all();
  final_status_ = runtime_->Finish();
  // A clean drain leaves nothing behind; a failed one (or a convicted
  // worker holding a bundle) leaves tickets that must not hang their
  // waiters.
  FailAllPending(final_status_);
  finished_ = true;
  return final_status_;
}

}  // namespace greater
