#ifndef GREATER_STREAM_STREAM_RUNTIME_H_
#define GREATER_STREAM_STREAM_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "stream/bounded_queue.h"
#include "stream/stream_options.h"

namespace greater {

/// Liveness signal for one streaming stage worker. The worker calls Beat()
/// at least once per unit of work (per chunk); the watchdog compares the
/// last beat against the deadline.
class Heartbeat {
 public:
  explicit Heartbeat(std::string name)
      : name_(std::move(name)), last_beat_ns_(NowNs()) {}

  void Beat() { last_beat_ns_.store(NowNs(), std::memory_order_relaxed); }

  /// Marks the worker cleanly finished: the watchdog stops checking it.
  void MarkDone() { done_.store(true, std::memory_order_relaxed); }
  bool done() const { return done_.load(std::memory_order_relaxed); }

  uint64_t last_beat_ns() const {
    return last_beat_ns_.load(std::memory_order_relaxed);
  }
  const std::string& name() const { return name_; }

  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Test hook (armed by the "stream.worker_death" fault path): the worker
  /// exits WITHOUT MarkDone, simulating a thread that died silently — only
  /// the watchdog can notice it.
  void SimulateDeath() { simulate_death_.store(true, std::memory_order_relaxed); }
  bool death_simulated() const {
    return simulate_death_.load(std::memory_order_relaxed);
  }

 private:
  const std::string name_;
  std::atomic<uint64_t> last_beat_ns_;
  std::atomic<bool> done_{false};
  std::atomic<bool> simulate_death_{false};
};

/// Owns the worker threads, queues, and watchdog of one streaming
/// pipeline. Error model: the first failure (worker Status, worker
/// exception, or watchdog deadline) is recorded, every registered queue is
/// poisoned so all blocked threads unblock and drain, and Finish returns
/// that first error after joining everything — a failing pipeline shuts
/// down cleanly instead of deadlocking.
class StreamRuntime {
 public:
  explicit StreamRuntime(const StreamOptions& options);
  ~StreamRuntime();

  StreamRuntime(const StreamRuntime&) = delete;
  StreamRuntime& operator=(const StreamRuntime&) = delete;

  /// Registers a queue for poison-on-failure. The queue must outlive the
  /// runtime's Finish().
  void RegisterQueue(QueueControl* queue);

  /// Creates a heartbeat the watchdog monitors. Stable address for the
  /// runtime's lifetime.
  Heartbeat* AddHeartbeat(std::string name);

  /// Spawns a worker thread. `body` returns its terminal Status; a non-OK
  /// return or a thrown exception fails the whole pipeline. The heartbeat
  /// (optional) is marked done when the body returns — unless the body
  /// simulated death, in which case the watchdog must catch it.
  void Spawn(std::string name, Heartbeat* heartbeat,
             std::function<Status()> body);

  /// Records `error` as the pipeline failure (first error wins) and
  /// poisons every registered queue.
  void Fail(Status error);

  /// Joins all workers, then stops the watchdog, and returns the first
  /// error (OK on clean completion). Idempotent.
  Status Finish();

  /// First recorded error so far (OK if none). Usable while running.
  Status error() const;

 private:
  void WatchdogLoop();

  const uint64_t watchdog_timeout_ms_;
  const uint64_t watchdog_poll_ms_;

  mutable std::mutex mu_;
  Status error_;                       // first failure, OK if none
  bool failed_ = false;
  std::vector<QueueControl*> queues_;  // poisoned on failure
  std::vector<std::unique_ptr<Heartbeat>> heartbeats_;
  std::vector<std::thread> workers_;
  bool finished_ = false;

  bool watchdog_stop_ = false;  // set by Finish under mu_
  std::condition_variable watchdog_cv_;
  std::thread watchdog_;
};

}  // namespace greater

#endif  // GREATER_STREAM_STREAM_RUNTIME_H_
