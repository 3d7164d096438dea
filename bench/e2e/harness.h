#ifndef GREATER_BENCH_E2E_HARNESS_H_
#define GREATER_BENCH_E2E_HARNESS_H_

// Shared plumbing of the end-to-end benchmark program: run configuration,
// the result a workload reports, timing and order statistics, and the
// per-layer trace accounting (harness.cc).

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace greater {
namespace e2e {

using Clock = std::chrono::steady_clock;

/// One invocation of greater_e2e.
struct Config {
  std::string workload;
  uint64_t seed = 2026;
  /// Length of the measured phase; set-up, warm-up and oracles come on top.
  double seconds = 15.0;
  /// false: untraced run reporting the end-to-end metrics. true: traced run
  /// reporting the per-layer metrics.
  bool trace = false;
  /// Tiny inputs and a few operations, for the smoke test.
  bool smoke = false;
  /// Working directory for inputs and outputs (created, emptied at exit).
  std::string work_dir;
  /// When set (trace runs), one Chrome trace-event JSON per workload.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports. `attempted` counts timed operations plus
/// oracle checks; `failed` counts operations that returned an error and
/// checks that found a mismatch.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

double SecondsSince(Clock::time_point start);

/// Linear-interpolation percentile (p in [0, 100]) of `values`; 0 when
/// empty.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Counts one attempted operation or oracle check; a false `ok` counts it
/// failed and prints `what` to stderr.
void Tally(bool ok, const std::string& what, RunResult* result);
/// Tally for a call that returned a Status.
void TallyStatus(const Status& status, const std::string& what,
                 RunResult* result);

/// Whole-file read and write; errors are typed.
Result<std::string> ReadWholeFile(const std::string& path);
Status WriteWholeFile(const std::string& path, const std::string& bytes);

/// Module a span belongs to, by name: "<layer>.<what>" for the library
/// layers, with the pipeline's "stage.<name>" spans mapped onto the layer
/// that does the stage's work. Spans the harness opens around itself
/// ("bench.*") map to "bench" — time no layer owns.
std::string LayerOf(const std::string& span_name);

/// The layers, in report order.
const std::vector<std::string>& Layers();

/// Per-layer accounting over the traced operations of one run. A traced
/// operation is one root span with every span recorded below it; a span's
/// self time is its duration minus the durations of its children, so the
/// self times of one operation sum to its root's duration.
class TraceLog {
 public:
  /// Adds one traced operation: `spans` holds (at least) the root with id
  /// `root_id` and its descendants; `counters` is the operation's counter
  /// delta.
  void AddOperation(const std::vector<SpanRecord>& spans, uint64_t root_id,
                    const std::map<std::string, uint64_t>& counters);

  /// Adds one traced server window: `capacity_ns` of worker time (window
  /// length × workers), attributed by the serve.batch and synth.batch spans
  /// recorded in it; the rest of the capacity is the serve layer's
  /// scheduling, packing, delivery and waiting. Each request completed in
  /// the window counts as one operation with latency `request_ms`.
  void AddWorkerWindow(const std::vector<SpanRecord>& spans,
                       uint64_t capacity_ns,
                       const std::vector<double>& request_ms,
                       const std::map<std::string, uint64_t>& counters);

  /// Keeps spans for the Chrome trace export (bounded).
  void KeepForExport(const std::vector<SpanRecord>& spans);

  uint64_t operations() const { return operations_; }
  /// Sum of the traced operations' wall times (or worker capacity).
  uint64_t wall_ns() const { return wall_ns_; }
  uint64_t layer_self_ns(const std::string& layer) const;
  uint64_t counter(const std::string& name) const;
  const std::vector<double>& op_ms() const { return op_ms_; }

  /// Prints the self-time tables (per layer and per span name) to stdout:
  /// the layer rows plus bench.unattributed sum to the traced wall time.
  void PrintTables(const std::string& workload) const;

  /// Writes the kept spans as Chrome trace-event JSON.
  Status WriteChromeTrace(const std::string& path) const;

 private:
  struct NameStat {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };

  void Accumulate(const std::vector<SpanRecord>& spans,
                  const std::map<std::string, uint64_t>& counters);

  uint64_t operations_ = 0;
  uint64_t wall_ns_ = 0;
  std::vector<double> op_ms_;
  std::map<std::string, uint64_t> layer_self_ns_;
  std::map<std::string, NameStat> by_name_;
  std::map<std::string, uint64_t> counters_;
  std::vector<SpanRecord> export_;
};

/// Counter values from a registry snapshot, by name.
std::map<std::string, uint64_t> CounterMap(const MetricsSnapshot& snapshot);
/// `after - before`, counter by counter.
std::map<std::string, uint64_t> CounterDelta(
    const std::map<std::string, uint64_t>& before,
    const std::map<std::string, uint64_t>& after);

/// The per-layer metrics every traced run reports, computed from `log`
/// plus the measurements only some workloads make (zero elsewhere).
struct LayerExtras {
  double trace_overhead_ratio = 0.0;  ///< traced ÷ untraced, median op
  double accept_ratio = 0.0;          ///< rows emitted ÷ attempts
  double attempts_per_op = 0.0;
  double flattened_rows = 0.0;
  double fused_training_rows = 0.0;
  double worker_busy_ratio = 0.0;
};
std::vector<Metric> LayerMetrics(const TraceLog& log,
                                 const LayerExtras& extras);

}  // namespace e2e
}  // namespace greater

#endif  // GREATER_BENCH_E2E_HARNESS_H_
