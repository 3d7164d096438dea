#ifndef GREATER_BENCH_E2E_WORKLOADS_H_
#define GREATER_BENCH_E2E_WORKLOADS_H_

#include <string>
#include <vector>

#include "harness.h"

namespace greater {
namespace e2e {

/// oocore_fit, emit_decode, serve_zipf, pipeline_greater.
const std::vector<std::string>& WorkloadNames();

/// Runs `config.workload` (one of WorkloadNames()). An untraced run
/// reports the end-to-end metrics; a traced run fills `log` and reports
/// the per-layer metrics.
RunResult RunWorkload(const Config& config, TraceLog* log);

}  // namespace e2e
}  // namespace greater

#endif  // GREATER_BENCH_E2E_WORKLOADS_H_
