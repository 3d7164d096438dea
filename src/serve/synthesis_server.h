#ifndef GREATER_SERVE_SYNTHESIS_SERVER_H_
#define GREATER_SERVE_SYNTHESIS_SERVER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "lm/decode_cache.h"
#include "stream/bounded_queue.h"
#include "stream/stream_runtime.h"
#include "synth/batch_decode.h"
#include "synth/great_synthesizer.h"
#include "synth/sample_report.h"
#include "tabular/table.h"
#include "tabular/value.h"

namespace greater {

/// Request service classes, in strictly decreasing scheduling preference.
/// Interactive work is never load-shed from the queue; background work is
/// shed first. Admission bandwidth between the classes follows
/// ServeOptions::priority_weights, so lower classes still make progress
/// under sustained interactive load (weighted, not strict, priority).
enum class RequestPriority : uint8_t {
  kInteractive = 0,  ///< latency-sensitive; never queue-shed
  kBatch = 1,        ///< throughput work; shed after background
  kBackground = 2,   ///< best-effort; first to shed under overload
};
inline constexpr size_t kNumRequestPriorities = 3;

/// Per-tenant admission quota. Zero disables each dimension. Over-quota
/// submissions complete typed kResourceExhausted carrying a retry-after
/// hint (Status::retry_after_ms): the rows/sec rejection computes the
/// token-bucket refill time, the open-lane rejection uses
/// ServeOptions::quota_retry_after_ms.
struct TenantQuota {
  /// Sustained admission rate in rows/sec, enforced by a token bucket
  /// refilled from the server clock. 0 = unlimited.
  double rows_per_sec = 0.0;
  /// Bucket capacity in rows (the tolerated burst). <= 0 defaults to one
  /// second of refill (rows_per_sec).
  double burst_rows = 0.0;
  /// Cap on this tenant's admitted-but-not-terminal rows (its open lanes
  /// across the queue, the packing window, and in-flight batches). 0 =
  /// unlimited.
  size_t max_open_lanes = 0;
};

/// One synthesis request against a named tenant model: sample `rows` rows,
/// seeding the request's private stream family from `seed`. `conditioning`
/// (optional) forces the named columns to the given values on every
/// generated row — the serving form of SampleConditional with one
/// condition row replicated `rows` times.
///
/// Determinism contract: for a fixed (tenant model, seed, rows,
/// conditioning), the served table is bitwise-identical to
///   Rng rng(seed);
///   model.SampleRows(rows, &rng, /*pool=*/nullptr);
/// (or SampleConditional over `rows` copies of the conditioning row, with
/// the same fresh Rng) — no matter what else the server is doing, how its
/// lanes were packed, which worker ran them, what the request's priority
/// was, or whether the tenant's bundle was evicted and reloaded in
/// between. The server derives the request's stream base exactly as
/// SampleRows does and every row draws only from its own derived stream.
struct SampleRequest {
  std::string tenant;
  size_t rows = 0;
  uint64_t seed = 0;
  std::map<std::string, Value> conditioning;
  /// Per-request deadline, measured from Submit; 0 disables it. A request
  /// still holding unpacked rows past its deadline is convicted at the
  /// scheduler's next packing sweep: the ticket completes typed with
  /// StatusCode::kDeadlineExceeded and its remaining rows are never
  /// decoded (rows already mid-batch are discarded on delivery). The
  /// report still reconciles — it only ever counts decoded rows.
  uint64_t deadline_ms = 0;
  /// Service class; affects scheduling and shedding only, never output.
  RequestPriority priority = RequestPriority::kInteractive;
};

/// SynthesisServer tuning knobs (see DESIGN.md, "Serving layer" and
/// "Overload control & graceful degradation").
struct ServeOptions {
  /// Sampler worker threads draining the packing window.
  size_t num_workers = 2;
  /// Per-priority-class admission queue capacity — the backpressure
  /// surface: Submit blocks (or sheds, see admission_wait_ms) once this
  /// many requests of one class are queued but not yet admitted.
  size_t admission_capacity = 64;
  /// Cross-request packing window: requests admitted (eligible for lane
  /// packing) at once. Queue capacity + window bounds buffered requests.
  size_t max_open_requests = 8;
  /// Decode lanes one packed batch may carry; a request with more rows is
  /// split across consecutive batches (packing order is deterministic but
  /// irrelevant to output — every row owns its stream). During brownout
  /// the effective budget shrinks to
  /// max(1, max_lanes_per_batch / brownout_lanes_divisor).
  size_t max_lanes_per_batch = 64;
  /// Watchdog conviction deadline for a worker stalled inside one batch.
  uint64_t watchdog_timeout_ms = 30000;
  uint64_t watchdog_poll_ms = 10;
  /// Liveness beat: a parked worker wakes this often only to re-beat its
  /// heartbeat (and to let a brownout exit once its dwell has passed). Work
  /// never waits on it — Submit, packing and Shutdown wake workers directly.
  uint64_t idle_poll_ms = 5;

  // Overload control ---------------------------------------------------------

  /// How long Submit waits for admission-queue space before shedding the
  /// request typed (kResourceExhausted + retry-after). 0 = legacy blocking
  /// backpressure: Submit parks until space frees up.
  uint64_t admission_wait_ms = 0;
  /// Weighted round-robin admission shares for
  /// {interactive, batch, background}. Per cycle, class c is offered up to
  /// priority_weights[c] admissions while its queue has work; empty
  /// classes forfeit their share. Guarantees progress for every class
  /// with a nonzero weight; weight 0 starves a class until Shutdown.
  std::array<uint32_t, kNumRequestPriorities> priority_weights = {8, 2, 1};
  /// Queue-depth shed watermark: while the total queued (not yet admitted)
  /// requests across all classes exceed this, the next worker to admit
  /// sheds queued work lowest-class-first — background, then batch, NEVER
  /// interactive. 0 disables shedding.
  size_t shed_queue_depth = 0;
  /// Retry-after hint attached to shed rejections.
  uint64_t shed_retry_after_ms = 50;
  /// Retry-after hint attached to open-lane quota rejections (the rows/sec
  /// rejection computes its own hint from the bucket deficit).
  uint64_t quota_retry_after_ms = 100;
  /// Quota applied to tenants without an explicit SetTenantQuota. Default
  /// (all zero) = unlimited.
  TenantQuota default_quota;

  // Brownout -----------------------------------------------------------------
  // Degraded mode with hysteresis: entered when total queued requests
  // reach brownout_queue_high OR open unpacked lanes reach
  // brownout_lanes_high; exited only when every configured signal is back
  // at/below its low watermark AND the mode has been held for
  // brownout_min_dwell_ms (no flapping at the boundary). While browned
  // out, packed batches shrink (see max_lanes_per_batch) so admitted
  // interactive work keeps flowing through smaller, lower-latency batches
  // instead of queueing behind giant ones.

  /// High/low queued-request watermarks. high 0 disables the queue signal;
  /// low 0 defaults to high / 2.
  size_t brownout_queue_high = 0;
  size_t brownout_queue_low = 0;
  /// High/low open-unpacked-lane watermarks. Same conventions.
  size_t brownout_lanes_high = 0;
  size_t brownout_lanes_low = 0;
  /// Minimum time in brownout before an exit is considered.
  uint64_t brownout_min_dwell_ms = 100;
  /// Brownout lane-budget divisor (see max_lanes_per_batch).
  size_t brownout_lanes_divisor = 4;

  // Bundle eviction ----------------------------------------------------------

  /// Resident-bundle byte budget across path-backed tenants (artifact file
  /// size as the estimate). While over budget, the coldest idle
  /// path-backed tenant's bundle is dropped and transparently reloaded
  /// from its artifact on the tenant's next request. Pinned tenants
  /// (AddTenant, no artifact path) and tenants with open lanes are never
  /// evicted. 0 = unlimited (no eviction).
  uint64_t max_resident_bundle_bytes = 0;

  /// Injectable monotonic clock (ns) driving quotas, deadlines, brownout
  /// dwell, and latency accounting. Defaults to Heartbeat::NowNs.
  std::function<uint64_t()> clock_ns;
};

class SynthesisServer;

/// Completion handle for one submitted request. Created by
/// SynthesisServer::Submit and shared with the server; safe to Wait/Cancel
/// from any thread, and valid after the server shuts down.
class RequestTicket {
 public:
  /// Blocks until the request is terminal; returns the result (a reference
  /// that stays valid while the ticket lives). On success the table holds
  /// the sampled rows in request-row order.
  const Result<Table>& Wait();

  /// Bounded wait: false if the request is still in flight afterwards.
  bool WaitFor(uint64_t timeout_ms);

  bool done() const;

  /// Abandons the request: rows not yet packed into a batch are never
  /// decoded, and the ticket completes with StatusCode::kCancelled at the
  /// scheduler's next sweep (rows already mid-batch are discarded on
  /// delivery). Cancelling a terminal request is a no-op.
  void Cancel();

  /// Per-request sampling accounting (merged from every batch that carried
  /// this request's lanes). Reconciles for every non-cancelled terminal
  /// request. Read only after done().
  const SampleReport& report() const { return report_; }

  /// Submit-to-terminal latency. Read only after done().
  uint64_t latency_us() const { return latency_us_; }

  /// latency_us() split at the scheduler's stamps, all from the server
  /// clock: queue = submit to admission into the packing window, window =
  /// admission to the first packed lanes, decode = first pack to terminal
  /// (batches, delivery and table assembly). The three sum to latency_us()
  /// exactly; a phase the request never reached reads 0 (a request shed
  /// from its queue spends its whole latency in `queue_us`).
  struct Phases {
    uint64_t queue_us = 0;
    uint64_t window_us = 0;
    uint64_t decode_us = 0;
  };
  /// Read only after done().
  const Phases& phases() const { return phases_; }

  /// Server-clock stamp (ns) at which the request went terminal; orders
  /// completions across tickets. Read only after done().
  uint64_t done_ns() const { return done_ns_; }

  RequestPriority priority() const { return request_.priority; }

 private:
  friend class SynthesisServer;

  RequestTicket() : result_(Status::Internal("request still in flight")) {}

  // Immutable after Submit ---------------------------------------------------
  SampleRequest request_;
  /// The model snapshot this request samples against. Holding the
  /// shared_ptr keeps the bundle alive across an eviction of its tenant
  /// mid-request; released on completion so terminal tickets never pin
  /// memory.
  std::shared_ptr<const GreatSynthesizer> model_;
  uint64_t generation_ = 0;  ///< resident-bundle generation of model_
  uint64_t base_ = 0;        ///< stream base derived from request_.seed
  Table conditions_;         ///< one-row forced-column table
  bool has_conditions_ = false;
  uint64_t submit_ns_ = 0;
  uint64_t deadline_ns_ = 0;  ///< absolute conviction time; 0 = no deadline

  std::atomic<bool> cancelled_{false};

  // Guarded by the server's scheduler mutex, not mu_ ------------------------
  /// Rows handed to packed batches so far.
  size_t rows_packed_ = 0;
  /// Server-clock stamps of window admission and of the first packed
  /// lanes; 0 until reached.
  uint64_t admit_ns_ = 0;
  uint64_t first_pack_ns_ = 0;

  // Guarded by mu_ -----------------------------------------------------------
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  size_t rows_done_ = 0;
  std::vector<std::pair<size_t, Result<Row>>> row_results_;
  SampleReport report_;
  Result<Table> result_;
  uint64_t latency_us_ = 0;
  Phases phases_;
  uint64_t done_ns_ = 0;
};

/// Multi-tenant synthesis service: N named GreatSynthesizer bundles served
/// as immutable shared models, per-priority bounded admission queues in
/// front of a cross-request packing window, and sampler workers that admit
/// from those queues and pack lanes from every same-model open request
/// into shared BatchDecodeEngine batches — one grouped model evaluation
/// per (context, allow-list) key per step across ALL packed requests, not
/// per request.
///
/// Overload control (DESIGN.md, "Overload control & graceful
/// degradation"): admission is priority-aware (weighted round-robin over
/// the class queues, priority-ordered packing window), per-tenant
/// token-bucket quotas reject over-quota work typed with a retry-after
/// hint, a queue-depth watermark sheds queued background/batch work (never
/// interactive), a brownout mode with hysteresis shrinks batch sizes under
/// pressure, and a resident-byte budget evicts cold path-backed tenant
/// bundles, transparently reloading them from the artifact store on the
/// next request. None of this changes served bytes: an admitted request's
/// output stays bitwise-identical to a direct Sample call.
///
/// Threading: Submit is safe from any number of threads (it blocks while
/// its class queue is full — backpressure, never unbounded buffering — or
/// sheds after admission_wait_ms when configured). Tenants register before
/// Start. Sampler workers admit, shed and pack under one scheduler lock,
/// then decode outside it. Worker liveness runs on the streaming watchdog:
/// a worker stalled in a batch past watchdog_timeout_ms fails the server
/// with kDeadlineExceeded, blocked submitters wake, and pending tickets
/// complete with that error.
///
/// Fault points: "serve.admit" fires per Submit (the request is rejected
/// typed before entering the queue); "stream.queue_full" fires each time a
/// Submit finds its class queue full (that submit fails typed);
/// "serve.pack" fires once per request as its first lanes are packed (the
/// request fails typed; co-scheduled requests are untouched); "serve.evict"
/// fires per eviction candidate (a fired fault aborts that eviction sweep —
/// the bundle stays resident); "serve.reload" fires per evicted-bundle
/// reload (the submit needing it fails typed). See common/fault.h.
class SynthesisServer {
 public:
  explicit SynthesisServer(const ServeOptions& options);
  ~SynthesisServer();

  /// Registers a fitted model under `name`, pinned in memory (never
  /// evicted — there is no artifact to reload it from). Models are
  /// immutable while served and may be shared between tenants. Before
  /// Start() only.
  Status AddTenant(const std::string& name,
                   std::shared_ptr<const GreatSynthesizer> model);

  /// Loads a saved synthesizer bundle (GreatSynthesizer::Save format) and
  /// registers it under `name`. Path-backed tenants participate in
  /// memory-pressure eviction: the bundle may be dropped while idle and is
  /// reloaded from `path` on the tenant's next request. Before Start()
  /// only.
  Status LoadTenant(const std::string& name, const std::string& path);

  /// Overrides ServeOptions::default_quota for one registered tenant.
  /// Before Start() only.
  Status SetTenantQuota(const std::string& name, TenantQuota quota);

  /// Spawns the sampler workers and the watchdog. Requires at least one
  /// tenant.
  Status Start();

  /// Submits a request. Never blocks on decoding — only on class-queue
  /// backpressure (bounded by admission_wait_ms when set). The returned
  /// ticket is terminal-typed on every failure path (unknown tenant,
  /// injected admission fault, over-quota, shed, server stopped), so
  /// callers can always Wait on it. Quota and shed rejections carry a
  /// retry-after hint (Status::retry_after_ms).
  std::shared_ptr<RequestTicket> Submit(SampleRequest request);

  /// Drains: closes admission, lets workers finish every admitted request,
  /// joins everything, and fails any ticket the pipeline abandoned (typed
  /// with the runtime error, or kFailedPrecondition on a clean drain that
  /// still left tickets — which a clean drain never does). Idempotent.
  /// Returns the first runtime error (OK on a clean drain).
  Status Shutdown();

  /// First runtime failure so far (OK while healthy). Usable live.
  Status error() const;

  size_t num_tenants() const { return tenants_.size(); }
  const ServeOptions& options() const { return options_; }

 private:
  /// Everything the server tracks about one registered tenant: the
  /// resident bundle (null while evicted), its artifact backing and byte
  /// estimate, LRU/eviction state, and quota accounting. Guarded by
  /// sched_mu_ after Start.
  struct TenantState {
    std::shared_ptr<const GreatSynthesizer> model;
    std::string artifact_path;  ///< empty = pinned (AddTenant)
    uint64_t bytes = 0;         ///< artifact size; 0 for pinned tenants
    uint64_t generation = 0;    ///< bumped on every (re)load
    uint64_t last_used = 0;     ///< LRU clock tick of the last submit
    size_t inflight = 0;        ///< admitted, non-terminal requests
    size_t open_lanes = 0;      ///< admitted, non-terminal rows
    TenantQuota quota;
    // Token bucket (rows/sec quota).
    double tokens = 0.0;
    uint64_t last_refill_ns = 0;
    bool bucket_primed = false;
  };

  /// One slice of a packed batch: rows [begin, end) of one ticket.
  struct Slice {
    std::shared_ptr<RequestTicket> ticket;
    size_t begin = 0;
    size_t end = 0;
  };
  /// A packed batch: same-model lanes from one or more requests. Owns a
  /// reference to the model so an eviction mid-batch cannot free it.
  struct Bundle {
    std::shared_ptr<const GreatSynthesizer> model;
    uint64_t generation = 0;
    std::vector<Slice> slices;
    size_t lanes = 0;
  };
  /// Per-(worker, bundle-generation) decode state — the serving twin of
  /// GreatSynthesizer's SamplerWorkspace: private cache and engine, never
  /// shared across workers, so the parallel determinism contract holds.
  /// Keyed by generation (not model address) so a reload after eviction
  /// can never alias a stale space through address reuse; holds the model
  /// alive for the engine's lifetime.
  struct WorkerSpace {
    std::shared_ptr<const GreatSynthesizer> model;
    std::unique_ptr<DecodeCache> cache;
    DecodeWorkspace decode;
    std::unique_ptr<BatchDecodeEngine> engine;
  };

  /// How a ticket went terminal. Classes are disjoint, so the serve.*
  /// terminal counters reconcile:
  ///   requests == admitted + rejected + quota_rejected
  ///   admitted == completed + failed + cancelled + shed
  enum class TerminalClass {
    kCompleted,      ///< served OK (serve.requests_completed)
    kFailed,         ///< admitted, then failed typed (serve.requests_failed)
    kCancelled,      ///< caller cancelled (serve.requests_cancelled)
    kShed,           ///< load-shed under overload (serve.shed)
    kRejected,       ///< never admitted: validation/fault (serve.rejected)
    kQuotaRejected,  ///< never admitted: over quota (serve.quota_rejected)
  };

  /// Registered with the stream runtime in place of a queue: the
  /// runtime's first failure (watchdog conviction, a failed worker) is
  /// recorded under sched_mu_ and wakes every parked worker and submitter.
  class FailureHook final : public QueueControl {
   public:
    explicit FailureHook(SynthesisServer* server) : server_(server) {}
    void Poison(Status error) override;

   private:
    SynthesisServer* const server_;
  };

  uint64_t NowNs() const;

  Status WorkerLoop(Heartbeat* hb);

  /// Sheds queue overflow, then fills the packing window from the class
  /// queues by weighted round-robin.
  void AdmitLocked();
  /// Next class the weighted round-robin admits from, advancing the
  /// rotation; kNumRequestPriorities when no class can admit.
  size_t NextAdmitClassLocked();
  /// Total requests queued (not yet admitted) across the class queues.
  size_t QueuedDepthLocked() const;
  /// Sheds queued work lowest-class-first while QueuedDepthLocked()
  /// exceeds the shed watermark; true if it shed any. Never sheds
  /// interactive requests.
  bool ShedQueuedOverflowLocked();
  /// Refreshes the serve.queue_depth and per-class stream.queue_* gauges.
  void PublishQueueGaugesLocked();
  /// Inserts an admitted ticket into the packing window, keeping the
  /// window ordered by (priority class, admission order).
  void InsertOpenLocked(std::shared_ptr<RequestTicket> ticket);

  /// Re-evaluates the brownout signals against the watermarks (with
  /// hysteresis + minimum dwell) and flips the mode when warranted.
  void UpdatePressureLocked(uint64_t now_ns);
  /// max_lanes_per_batch, shrunk while browned out.
  size_t EffectiveLaneBudgetLocked() const;

  /// Token-bucket + open-lane quota admission check; charges the bucket
  /// and returns OK, or returns the typed rejection with its retry-after
  /// hint.
  Status AdmitQuotaLocked(TenantState* tenant, const std::string& name,
                          size_t rows, uint64_t now_ns);

  /// Reloads an evicted tenant's bundle from its artifact (fault point
  /// "serve.reload"), bumping the generation and the resident-byte
  /// accounting.
  Status ReloadTenantLocked(TenantState* tenant, const std::string& name);
  /// Evicts coldest idle path-backed bundles while over the resident-byte
  /// budget (fault point "serve.evict" aborts the sweep). `keep` exempts
  /// the tenant a caller is actively (re)loading a bundle for: without it
  /// a reload sweep could evict the very bundle the in-hand request is
  /// about to pin, handing that request a null model.
  void MaybeEvictLocked(const TenantState* keep = nullptr);
  /// Drops per-worker decode state whose bundle generation is no longer
  /// resident (evicted or superseded by a reload).
  void PruneWorkerSpaces(std::unordered_map<uint64_t, WorkerSpace>* spaces);

  /// Scheduler-locked packing sweep: finalizes cancellations and
  /// pack-fault trips, picks the highest-priority open request's model,
  /// and fills `bundle` with up to the effective lane budget from every
  /// open request of that model, window order first. True when the bundle
  /// has lanes.
  bool PackBundleLocked(Bundle* bundle);
  /// True when AdmitLocked would move a queued request into the window.
  bool CanAdmitLocked() const;
  /// Shutdown began and every queued and admitted request has been packed.
  bool DrainedLocked() const;

  void RunBundle(Bundle* bundle,
                 std::unordered_map<uint64_t, WorkerSpace>* spaces);
  void DeliverSlice(const Slice& slice, const SampleReport& slice_report,
                    std::vector<Result<Row>>* rows, size_t offset);

  /// Builds the final table (honoring the model's SamplePolicy) and marks
  /// the ticket terminal. Caller holds ticket->mu_.
  void FinalizeTicketLocked(RequestTicket* ticket);
  /// Marks a ticket terminal with `status`, counted under `cls`. Caller
  /// holds ticket->mu_.
  void CompleteTicketLocked(RequestTicket* ticket, Status status,
                            TerminalClass cls);
  /// Completes a never-admitted or swept ticket with `status` (takes the
  /// ticket lock itself; must not hold it).
  std::shared_ptr<RequestTicket> FailTicket(
      std::shared_ptr<RequestTicket> ticket, Status status,
      TerminalClass cls);
  /// Fails every in-flight ticket with `error` — the runtime-failure and
  /// shutdown sweep. Idempotent; skips terminal tickets.
  void FailAllPending(const Status& error);
  /// Erases the ticket from the live set and releases its tenant admission
  /// accounting (inflight, open lanes), then re-checks eviction pressure.
  void RemoveLiveLockedHeld(const RequestTicket* ticket);

  const ServeOptions options_;
  /// Tenant registry. Insert-only before Start; after Start the map shape
  /// is frozen but TenantState contents are guarded by sched_mu_
  /// (std::map nodes are address-stable, so TenantState* stay valid).
  std::map<std::string, TenantState> tenants_;
  bool started_ = false;
  bool finished_ = false;
  Status final_status_;
  uint64_t generation_counter_ = 0;

  FailureHook failure_hook_{this};
  std::unique_ptr<StreamRuntime> runtime_;

  /// Scheduler state: the per-class admission queues, the weighted
  /// round-robin cursor, the packing window (priority-then-admission
  /// ordered), the set of every non-terminal admitted ticket (for the
  /// failure sweep and quota accounting), the shutdown and failure flags,
  /// and the overload-control state (brownout, LRU clock, resident bytes).
  /// This is the server's only scheduler lock. It may be taken before a
  /// ticket's mu_, never after it.
  mutable std::mutex sched_mu_;
  /// Workers park here; Submit, a pack that leaves work behind, Shutdown
  /// and a runtime failure wake them.
  std::condition_variable sched_cv_;
  /// Submitters blocked on a full class queue park here; admission,
  /// shedding, Shutdown and a runtime failure wake them.
  std::condition_variable space_cv_;
  std::array<std::deque<std::shared_ptr<RequestTicket>>, kNumRequestPriorities>
      queued_;
  size_t rr_class_ = 0;
  uint32_t rr_budget_ = 0;
  /// Every request in the window still has unpacked rows (the pack sweep
  /// erases one as its last rows are packed): non-empty means work.
  std::deque<std::shared_ptr<RequestTicket>> open_;
  std::vector<std::shared_ptr<RequestTicket>> live_;
  bool closed_ = false;  ///< Shutdown began: Submit enqueues nothing more
  Status failure_;       ///< first runtime failure (via failure_hook_)
  bool brownout_ = false;
  uint64_t brownout_since_ns_ = 0;
  uint64_t lru_clock_ = 0;
  uint64_t resident_bytes_ = 0;
};

}  // namespace greater

#endif  // GREATER_SERVE_SYNTHESIS_SERVER_H_
