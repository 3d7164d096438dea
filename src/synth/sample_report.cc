#include "synth/sample_report.h"

#include <cstdint>
#include <cstdio>

#include "common/artifact_io.h"
#include "obs/metrics.h"

namespace greater {
namespace {

// Registry counters mirroring the SampleReport fields. Looked up once;
// the objects stay valid across MetricsRegistry::Reset().
struct SynthCounters {
  Counter* rows_requested;
  Counter* rows_emitted;
  Counter* rows_degraded;
  Counter* attempts;
  Counter* rejected_invalid_value;
  Counter* rejected_decode_failure;
  Counter* rejected_mid_row;
  Counter* fault_trips;
  Counter* fallback_grammar_uses;
  Counter* snapped_cells;
  SynthCounters() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    rows_requested = &registry.GetCounter("synth.rows_requested");
    rows_emitted = &registry.GetCounter("synth.rows_emitted");
    rows_degraded = &registry.GetCounter("synth.rows_degraded");
    attempts = &registry.GetCounter("synth.attempts");
    rejected_invalid_value =
        &registry.GetCounter("synth.rejected_invalid_value");
    rejected_decode_failure =
        &registry.GetCounter("synth.rejected_decode_failure");
    rejected_mid_row = &registry.GetCounter("synth.rejected_mid_row");
    fault_trips = &registry.GetCounter("synth.fault_trips");
    fallback_grammar_uses =
        &registry.GetCounter("synth.fallback_grammar_uses");
    snapped_cells = &registry.GetCounter("synth.snapped_cells");
  }
};

const SynthCounters& GetSynthCounters() {
  static const SynthCounters counters;
  return counters;
}

// The checkpoint byte order of the report's counts.
constexpr size_t SampleReport::*kCodecFields[] = {
    &SampleReport::rows_requested,
    &SampleReport::rows_emitted,
    &SampleReport::rows_exhausted,
    &SampleReport::attempts,
    &SampleReport::rejected_invalid_value,
    &SampleReport::rejected_decode_failure,
    &SampleReport::rejected_mid_row,
    &SampleReport::injected_faults,
    &SampleReport::fallback_grammar_uses,
    &SampleReport::snapped_cells,
};

}  // namespace

const char* SamplePolicyToString(SamplePolicy policy) {
  switch (policy) {
    case SamplePolicy::kStrict: return "strict";
    case SamplePolicy::kLenient: return "lenient";
  }
  return "unknown";
}

double SampleReport::RejectionRate() const {
  if (attempts == 0) return 0.0;
  return static_cast<double>(total_rejected() + injected_faults) /
         static_cast<double>(attempts);
}

void SampleReport::Merge(const SampleReport& other) {
  rows_requested += other.rows_requested;
  rows_emitted += other.rows_emitted;
  rows_exhausted += other.rows_exhausted;
  attempts += other.attempts;
  rejected_invalid_value += other.rejected_invalid_value;
  rejected_decode_failure += other.rejected_decode_failure;
  rejected_mid_row += other.rejected_mid_row;
  injected_faults += other.injected_faults;
  fallback_grammar_uses += other.fallback_grammar_uses;
  snapped_cells += other.snapped_cells;
}

SampleReport SampleReport::DeltaSince(const SampleReport& before) const {
  SampleReport delta;
  delta.rows_requested = rows_requested - before.rows_requested;
  delta.rows_emitted = rows_emitted - before.rows_emitted;
  delta.rows_exhausted = rows_exhausted - before.rows_exhausted;
  delta.attempts = attempts - before.attempts;
  delta.rejected_invalid_value =
      rejected_invalid_value - before.rejected_invalid_value;
  delta.rejected_decode_failure =
      rejected_decode_failure - before.rejected_decode_failure;
  delta.rejected_mid_row = rejected_mid_row - before.rejected_mid_row;
  delta.injected_faults = injected_faults - before.injected_faults;
  delta.fallback_grammar_uses =
      fallback_grammar_uses - before.fallback_grammar_uses;
  delta.snapped_cells = snapped_cells - before.snapped_cells;
  return delta;
}

void SampleReport::ExportToMetrics() const {
  const SynthCounters& counters = GetSynthCounters();
  counters.rows_requested->Increment(rows_requested);
  counters.rows_emitted->Increment(rows_emitted);
  counters.rows_degraded->Increment(rows_exhausted);
  counters.attempts->Increment(attempts);
  counters.rejected_invalid_value->Increment(rejected_invalid_value);
  counters.rejected_decode_failure->Increment(rejected_decode_failure);
  counters.rejected_mid_row->Increment(rejected_mid_row);
  counters.fault_trips->Increment(injected_faults);
  counters.fallback_grammar_uses->Increment(fallback_grammar_uses);
  counters.snapped_cells->Increment(snapped_cells);
}

std::string SampleReport::ToString() const {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "rows %zu/%zu emitted (%zu exhausted), attempts %zu, "
                "rejected %zu (invalid %zu, decode %zu, mid-row %zu, "
                "faults %zu), fallback %zu, snapped %zu, rejection-rate "
                "%.3f",
                rows_emitted, rows_requested, rows_exhausted, attempts,
                total_rejected(), rejected_invalid_value,
                rejected_decode_failure, rejected_mid_row, injected_faults,
                fallback_grammar_uses, snapped_cells, RejectionRate());
  return std::string(buffer);
}

void AppendSampleReport(const SampleReport& report, ByteWriter* w) {
  for (size_t SampleReport::*field : kCodecFields) w->PutU64(report.*field);
}

Status ReadSampleReport(ByteReader* r, SampleReport* out) {
  SampleReport report;
  for (size_t SampleReport::*field : kCodecFields) {
    uint64_t v = 0;
    GREATER_RETURN_NOT_OK(r->GetU64(&v));
    report.*field = v;
  }
  *out = report;
  return Status::OK();
}

}  // namespace greater
