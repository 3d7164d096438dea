#ifndef GREATER_STREAM_BOUNDED_QUEUE_H_
#define GREATER_STREAM_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "common/fault.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace greater {

/// Type-erased control surface of a BoundedQueue, so the stream runtime
/// can poison every queue in a pipeline without knowing element types.
class QueueControl {
 public:
  virtual ~QueueControl() = default;

  /// Marks the queue finished-with-error: buffered items are dropped and
  /// every blocked producer/consumer wakes immediately. Push becomes a
  /// no-op and Pop returns nullopt, so workers upstream and downstream of
  /// a failure drain and exit instead of deadlocking against a full (or
  /// empty) queue. Idempotent; the first error wins.
  virtual void Poison(Status error) = 0;
};

/// Fixed-capacity MPMC queue with blocking push — the backpressure
/// primitive of the streaming runtime. A producer ahead of a slow consumer
/// blocks once `capacity` items are buffered, so memory stays bounded by
/// construction; it never buffers without limit.
///
/// Observability: per-queue `stream.queue_depth.<name>` and
/// `stream.queue_peak.<name>` gauges, plus a global
/// `stream.queue_full_waits` counter (times a producer had to block).
///
/// Fault point `stream.queue_full` is evaluated each time a producer finds
/// the queue full; a fired fault poisons the queue with the injected
/// status, modelling a consumer that died while the producer was blocked.
template <typename T>
class BoundedQueue final : public QueueControl {
 public:
  BoundedQueue(const std::string& name, size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity),
        depth_gauge_(
            MetricsRegistry::Global().GetGauge("stream.queue_depth." + name)),
        peak_gauge_(
            MetricsRegistry::Global().GetGauge("stream.queue_peak." + name)),
        full_waits_(
            MetricsRegistry::Global().GetCounter("stream.queue_full_waits")) {
    depth_gauge_.Set(0);
    peak_gauge_.Set(0);
  }

  /// Blocks while the queue is full. Returns false when the item was NOT
  /// accepted (queue closed or poisoned) — the producer should stop.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      if (poisoned_ || closed_) return false;
      if (items_.size() < capacity_) break;
      if (FaultRegistry::AnyArmed()) {
        Status injected = FaultRegistry::Global().Check("stream.queue_full");
        if (!injected.ok()) {
          PoisonLocked(std::move(injected), lock);
          return false;
        }
      }
      full_waits_.Increment();
      not_full_.wait(lock);
    }
    items_.push_back(std::move(item));
    const auto depth = static_cast<int64_t>(items_.size());
    depth_gauge_.Set(depth);
    if (depth > peak_) {
      peak_ = depth;
      peak_gauge_.Set(peak_);
    }
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item, end-of-stream, or poison. nullopt means "no
  /// more items will ever arrive" (closed-and-drained, or poisoned).
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] {
      return poisoned_ || closed_ || !items_.empty();
    });
    if (poisoned_ || items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    depth_gauge_.Set(static_cast<int64_t>(items_.size()));
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Marks normal end-of-stream: no more pushes. Consumers drain the
  /// remaining items, then Pop returns nullopt (the poison pill).
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  void Poison(Status error) override {
    std::unique_lock<std::mutex> lock(mu_);
    PoisonLocked(std::move(error), lock);
  }

  /// First poison status (OK when never poisoned).
  Status error() const {
    std::lock_guard<std::mutex> lock(mu_);
    return error_;
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

 private:
  void PoisonLocked(Status error, std::unique_lock<std::mutex>& lock) {
    if (!poisoned_) {
      poisoned_ = true;
      error_ = std::move(error);
      items_.clear();  // drop buffered work; nobody will consume it
      depth_gauge_.Set(0);
    }
    lock.unlock();
    not_empty_.notify_all();
    not_full_.notify_all();
    lock.lock();
  }

  const size_t capacity_;
  Gauge& depth_gauge_;
  Gauge& peak_gauge_;
  Counter& full_waits_;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
  bool poisoned_ = false;
  int64_t peak_ = 0;
  Status error_;
};

}  // namespace greater

#endif  // GREATER_STREAM_BOUNDED_QUEUE_H_
