#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "harness.h"

namespace greater {
namespace e2e {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Tally(bool ok, const std::string& what, RunResult* result) {
  ++result->attempted;
  if (!ok) {
    ++result->failed;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

void TallyStatus(const Status& status, const std::string& what,
                 RunResult* result) {
  Tally(status.ok(), what + (status.ok() ? "" : ": " + status.ToString()),
        result);
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteWholeFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out.good()) return Status::Internal("cannot write '" + path + "'");
  return Status::OK();
}

const std::vector<std::string>& Layers() {
  // lm has no span boundary of its own on the n-gram paths (its counting
  // and restricted draws run inside synth calls), so its time shows in
  // synth; its counters are reported separately.
  static const std::vector<std::string> kLayers = {
      "tabular", "stream", "synth", "lm", "crosstable", "semantic", "serve",
      "common"};
  return kLayers;
}

std::string LayerOf(const std::string& span_name) {
  const std::string prefix = span_name.substr(0, span_name.find('.'));
  if (prefix == "stage") {
    // MultiTablePipeline::Run tiles its run span with stage spans.
    static const std::map<std::string, std::string> kStages = {
        {"stage.validate-input", "crosstable"},
        {"stage.enhancement", "semantic"},
        {"stage.parent-extract", "crosstable"},
        {"stage.semantic-enhance", "semantic"},
        {"stage.flatten", "crosstable"},
        {"stage.independence", "crosstable"},
        {"stage.reduce", "crosstable"},
        {"stage.fit", "synth"},
        {"stage.sample", "synth"},
        {"stage.inverse-map", "semantic"},
        {"stage.resume", "common"}};
    auto it = kStages.find(span_name);
    return it == kStages.end() ? "bench" : it->second;
  }
  if (prefix == "pipeline") return "crosstable";
  if (prefix == "neural_lm") return "lm";
  for (const std::string& layer : Layers()) {
    if (prefix == layer) return layer;
  }
  return "bench";
}

std::map<std::string, uint64_t> CounterMap(const MetricsSnapshot& snapshot) {
  return std::map<std::string, uint64_t>(snapshot.counters.begin(),
                                         snapshot.counters.end());
}

std::map<std::string, uint64_t> CounterDelta(
    const std::map<std::string, uint64_t>& before,
    const std::map<std::string, uint64_t>& after) {
  std::map<std::string, uint64_t> delta;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    const uint64_t base = it == before.end() ? 0 : it->second;
    delta[name] = value >= base ? value - base : 0;
  }
  return delta;
}

void TraceLog::Accumulate(const std::vector<SpanRecord>& spans,
                          const std::map<std::string, uint64_t>& counters) {
  std::unordered_map<uint64_t, uint64_t> child_ns;
  for (const SpanRecord& span : spans) {
    if (span.parent_id != 0) child_ns[span.parent_id] += span.duration_ns;
  }
  for (const SpanRecord& span : spans) {
    auto it = child_ns.find(span.id);
    const uint64_t children = it == child_ns.end() ? 0 : it->second;
    const uint64_t self =
        span.duration_ns > children ? span.duration_ns - children : 0;
    layer_self_ns_[LayerOf(span.name)] += self;
    NameStat& stat = by_name_[span.name];
    ++stat.count;
    stat.total_ns += span.duration_ns;
    stat.self_ns += self;
  }
  for (const auto& [name, value] : counters) counters_[name] += value;
}

void TraceLog::AddOperation(const std::vector<SpanRecord>& spans,
                            uint64_t root_id,
                            const std::map<std::string, uint64_t>& counters) {
  // Keep the root and its descendants only.
  std::unordered_map<uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& span : spans) by_id[span.id] = &span;
  std::vector<SpanRecord> tree;
  for (const SpanRecord& span : spans) {
    const SpanRecord* cursor = &span;
    while (cursor->id != root_id && cursor->parent_id != 0) {
      auto it = by_id.find(cursor->parent_id);
      if (it == by_id.end()) break;
      cursor = it->second;
    }
    if (cursor->id == root_id) tree.push_back(span);
  }
  auto root = by_id.find(root_id);
  if (root == by_id.end()) return;
  ++operations_;
  wall_ns_ += root->second->duration_ns;
  op_ms_.push_back(static_cast<double>(root->second->duration_ns) / 1e6);
  Accumulate(tree, counters);
}

void TraceLog::AddWorkerWindow(
    const std::vector<SpanRecord>& spans, uint64_t capacity_ns,
    const std::vector<double>& request_ms,
    const std::map<std::string, uint64_t>& counters) {
  std::vector<SpanRecord> worker;
  uint64_t spanned_ns = 0;
  for (const SpanRecord& span : spans) {
    if (span.name == "serve.batch") spanned_ns += span.duration_ns;
    if (span.name == "serve.batch" || span.name == "synth.batch") {
      worker.push_back(span);
    }
  }
  operations_ += request_ms.size();
  op_ms_.insert(op_ms_.end(), request_ms.begin(), request_ms.end());
  wall_ns_ += capacity_ns;
  Accumulate(worker, counters);
  // Worker time outside serve.batch: the admission/packing/delivery loop
  // and its waits, all inside the serve layer.
  layer_self_ns_["serve"] += capacity_ns > spanned_ns ? capacity_ns - spanned_ns
                                                      : 0;
}

void TraceLog::KeepForExport(const std::vector<SpanRecord>& spans) {
  constexpr size_t kMaxExported = 200000;
  for (const SpanRecord& span : spans) {
    if (export_.size() >= kMaxExported) return;
    export_.push_back(span);
  }
}

uint64_t TraceLog::layer_self_ns(const std::string& layer) const {
  auto it = layer_self_ns_.find(layer);
  return it == layer_self_ns_.end() ? 0 : it->second;
}

uint64_t TraceLog::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void TraceLog::PrintTables(const std::string& workload) const {
  if (operations_ == 0) return;
  const double ops = static_cast<double>(operations_);
  const double wall_ms = static_cast<double>(wall_ns_) / 1e6 / ops;
  std::printf("# %s self time per operation over %llu traced operations\n",
              workload.c_str(), static_cast<unsigned long long>(operations_));
  std::printf("# %-24s %12s %8s\n", "layer", "ms/op", "share");
  double sum_ms = 0.0;
  for (const std::string& layer : Layers()) {
    const double ms = static_cast<double>(layer_self_ns(layer)) / 1e6 / ops;
    sum_ms += ms;
    std::printf("# %-24s %12.4f %7.2f%%\n", layer.c_str(), ms,
                wall_ms > 0 ? 100.0 * ms / wall_ms : 0.0);
  }
  const double unattributed =
      static_cast<double>(layer_self_ns("bench")) / 1e6 / ops;
  sum_ms += unattributed;
  std::printf("# %-24s %12.4f %7.2f%%\n", "bench.unattributed", unattributed,
              wall_ms > 0 ? 100.0 * unattributed / wall_ms : 0.0);
  std::printf("# %-24s %12.4f   (traced wall %.4f)\n", "sum", sum_ms,
              wall_ms);
  std::printf("# %-28s %10s %12s %12s\n", "span", "calls/op", "total ms/op",
              "self ms/op");
  for (const auto& [name, stat] : by_name_) {
    std::printf("# %-28s %10.2f %12.4f %12.4f\n", name.c_str(),
                static_cast<double>(stat.count) / ops,
                static_cast<double>(stat.total_ns) / 1e6 / ops,
                static_cast<double>(stat.self_ns) / 1e6 / ops);
  }
}

Status TraceLog::WriteChromeTrace(const std::string& path) const {
  // Chrome "X" events must nest within one tid. Spans keep their parent's
  // tid; a root takes the first lane free at its start, so spans recorded
  // concurrently on different threads land on different rows.
  std::vector<const SpanRecord*> order;
  for (const SpanRecord& span : export_) order.push_back(&span);
  std::sort(order.begin(), order.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                                : a->id < b->id;
            });
  std::unordered_map<uint64_t, size_t> tid_of;
  std::vector<uint64_t> lane_end;
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord* span : order) {
    size_t tid = 0;
    auto parent = tid_of.find(span->parent_id);
    if (span->parent_id != 0 && parent != tid_of.end()) {
      tid = parent->second;
    } else {
      while (tid < lane_end.size() && lane_end[tid] > span->start_ns) ++tid;
      if (tid == lane_end.size()) lane_end.push_back(0);
    }
    lane_end[tid] = std::max(lane_end[tid], span->start_ns + span->duration_ns);
    tid_of[span->id] = tid;
    char event[512];
    std::snprintf(event, sizeof(event),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                  first ? "" : ",", span->name.c_str(),
                  LayerOf(span->name).c_str(), tid + 1,
                  static_cast<double>(span->start_ns) / 1e3,
                  static_cast<double>(span->duration_ns) / 1e3,
                  static_cast<unsigned long long>(span->id),
                  static_cast<unsigned long long>(span->parent_id));
    out << event;
    first = false;
  }
  out << "]}\n";
  return WriteWholeFile(path, out.str());
}

std::vector<Metric> LayerMetrics(const TraceLog& log,
                                 const LayerExtras& extras) {
  const double ops = static_cast<double>(std::max<uint64_t>(1, log.operations()));
  const double wall = static_cast<double>(std::max<uint64_t>(1, log.wall_ns()));
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto per_op = [&](const char* counter) {
    return static_cast<double>(log.counter(counter)) / ops;
  };
  std::vector<Metric> m;
  for (const std::string& layer : Layers()) {
    if (layer == "lm") continue;
    m.push_back({layer + ".self_pct",
                 100.0 * static_cast<double>(log.layer_self_ns(layer)) / wall,
                 "%"});
  }
  m.push_back({"bench.unattributed_pct",
               100.0 * static_cast<double>(log.layer_self_ns("bench")) / wall,
               "%"});
  m.push_back({"trace.op_ms", Median(log.op_ms()), "ms"});
  m.push_back({"synth.self_ms",
               static_cast<double>(log.layer_self_ns("synth")) / 1e6 / ops,
               "ms"});
  const double hits = static_cast<double>(log.counter("lm.cache.hits"));
  const double lookups =
      hits + static_cast<double>(log.counter("lm.cache.misses"));
  m.push_back({"lm.cache_lookups", lookups / ops, "count"});
  m.push_back({"lm.cache_hit_ratio", ratio(hits, lookups), "ratio"});
  m.push_back({"lm.cache_evictions", per_op("lm.cache.evictions"), "count"});
  m.push_back({"synth.batch_lane_steps", per_op("synth.batch.lane_steps"),
               "count"});
  m.push_back({"synth.batch_evals_saved_ratio",
               ratio(static_cast<double>(
                         log.counter("synth.batch.model_evals_saved")),
                     static_cast<double>(log.counter("synth.batch.lane_steps"))),
               "ratio"});
  m.push_back({"synth.attempts", extras.attempts_per_op, "count"});
  m.push_back({"synth.accept_ratio", extras.accept_ratio, "ratio"});
  m.push_back({"stream.queue_full_waits", per_op("stream.queue_full_waits"),
               "count"});
  m.push_back({"lm.fit_shard_merges", per_op("lm.fit.shard_merges"), "count"});
  m.push_back({"common.ckpt_writes", per_op("ckpt.writes"), "count"});
  m.push_back({"common.ckpt_bytes", per_op("ckpt.bytes_written"), "bytes"});
  m.push_back({"crosstable.flattened_rows", extras.flattened_rows, "rows"});
  m.push_back({"crosstable.fused_training_rows", extras.fused_training_rows,
               "rows"});
  m.push_back({"serve.lanes_per_batch",
               ratio(static_cast<double>(log.counter("serve.rows")),
                     static_cast<double>(log.counter("serve.batches"))),
               "lanes"});
  m.push_back({"serve.cross_request_ratio",
               ratio(static_cast<double>(log.counter("serve.cross_request_batches")),
                     static_cast<double>(log.counter("serve.batches"))),
               "ratio"});
  m.push_back({"serve.worker_busy_ratio", extras.worker_busy_ratio, "ratio"});
  m.push_back({"obs.spans_dropped",
               static_cast<double>(log.counter("obs.spans_dropped")), "count"});
  m.push_back({"bench.trace_overhead_ratio", extras.trace_overhead_ratio,
               "ratio"});
  return m;
}

}  // namespace e2e
}  // namespace greater
