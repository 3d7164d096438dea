#include "stream/stream_runtime.h"

#include <exception>
#include <utility>

#include "obs/metrics.h"

namespace greater {

StreamRuntime::StreamRuntime(const StreamOptions& options)
    : watchdog_timeout_ms_(options.watchdog_timeout_ms == 0
                               ? 1
                               : options.watchdog_timeout_ms),
      watchdog_poll_ms_(options.watchdog_poll_ms == 0
                            ? 1
                            : options.watchdog_poll_ms) {
  watchdog_ = std::thread([this] { WatchdogLoop(); });
}

StreamRuntime::~StreamRuntime() { Finish(); }

void StreamRuntime::RegisterQueue(QueueControl* queue) {
  std::lock_guard<std::mutex> lock(mu_);
  queues_.push_back(queue);
  // A queue registered after a failure must not be waited on.
  if (failed_) queue->Poison(error_);
}

Heartbeat* StreamRuntime::AddHeartbeat(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  heartbeats_.push_back(std::make_unique<Heartbeat>(std::move(name)));
  return heartbeats_.back().get();
}

void StreamRuntime::Spawn(std::string name, Heartbeat* heartbeat,
                          std::function<Status()> body) {
  std::lock_guard<std::mutex> lock(mu_);
  workers_.emplace_back([this, name = std::move(name), heartbeat,
                         body = std::move(body)] {
    Status status;
    try {
      status = body();
    } catch (const std::exception& e) {
      status = Status::Internal(std::string("uncaught exception: ") + e.what());
    } catch (...) {
      status = Status::Internal("uncaught non-standard exception");
    }
    if (heartbeat != nullptr && heartbeat->death_simulated()) {
      // Fault-injected silent death: leave the heartbeat un-done so only
      // the watchdog's deadline can surface the failure.
      MetricsRegistry::Global()
          .GetCounter("stream.simulated_worker_deaths")
          .Increment();
      return;
    }
    if (heartbeat != nullptr) heartbeat->MarkDone();
    if (!status.ok()) {
      Fail(status.WithContext("streaming stage '" + name + "'"));
    }
  });
}

void StreamRuntime::Fail(Status error) {
  std::vector<QueueControl*> to_poison;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!failed_) {
      failed_ = true;
      error_ = error;
    }
    to_poison = queues_;
  }
  // Poison outside the lock: Poison wakes blocked threads, and a woken
  // worker may call back into the runtime (error(), Fail()).
  for (QueueControl* q : to_poison) q->Poison(error);
}

Status StreamRuntime::error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

Status StreamRuntime::Finish() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (finished_) return error_;
    finished_ = true;
    workers.swap(workers_);
  }
  // Join workers while the watchdog still runs: if a worker hangs here,
  // the watchdog poisons the queues and unwedges it.
  for (std::thread& t : workers) {
    if (t.joinable()) t.join();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

void StreamRuntime::WatchdogLoop() {
  const uint64_t timeout_ns = watchdog_timeout_ms_ * 1000000ull;
  const auto poll = std::chrono::milliseconds(watchdog_poll_ms_);
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    // Finish wakes the wait at once, so the poll interval never delays
    // shutdown.
    if (watchdog_cv_.wait_for(lock, poll, [this] { return watchdog_stop_; })) {
      return;
    }
    if (failed_) return;  // first error already decided; nothing to add
    uint64_t now = Heartbeat::NowNs();
    std::string stalled;
    for (const auto& hb : heartbeats_) {
      if (hb->done()) continue;
      uint64_t last = hb->last_beat_ns();
      if (now > last && now - last > timeout_ns) {
        stalled = hb->name();
        break;
      }
    }
    if (!stalled.empty()) {
      lock.unlock();  // Fail takes mu_
      MetricsRegistry::Global()
          .GetCounter("stream.watchdog_trips")
          .Increment();
      Fail(Status::DeadlineExceeded(
          "streaming stage '" + stalled + "' missed its heartbeat deadline (" +
          std::to_string(watchdog_timeout_ms_) +
          " ms): worker hung or died"));
      return;
    }
  }
}

}  // namespace greater
