#ifndef GREATER_SYNTH_SAMPLE_REPORT_H_
#define GREATER_SYNTH_SAMPLE_REPORT_H_

#include <cstddef>
#include <string>

#include "common/status.h"

namespace greater {

class ByteReader;
class ByteWriter;

/// What a synthesizer does when a row exhausts its retry budget (or an
/// injected fault makes it unrecoverable).
enum class SamplePolicy {
  /// Any exhausted row fails the whole Sample call (historical behaviour).
  kStrict,
  /// Exhausted rows are dropped: the call returns every row that
  /// succeeded, and the SampleReport accounts for the rest. Completed work
  /// is never discarded because one hard row ran out of attempts.
  kLenient,
};

const char* SamplePolicyToString(SamplePolicy policy);

/// Sampling diagnostics. Accumulated per synthesizer across Sample* calls
/// (GreatSynthesizer::stats()) and reported per pipeline run
/// (PipelineResult::sample_report), where the counts aggregate the parent
/// and child models. Row counts reconcile: every requested row is either
/// emitted or exhausted.
struct SampleReport {
  /// Rows asked of SampleRow (directly or via Sample/SampleConditional).
  size_t rows_requested = 0;
  /// Rows that decoded and validated successfully.
  size_t rows_emitted = 0;
  /// Rows abandoned after the per-row attempt budget (or an injected
  /// resource-exhaustion fault). Lenient mode drops these; strict mode
  /// fails the call on the first one.
  size_t rows_exhausted = 0;

  /// Generation attempts, including retries.
  size_t attempts = 0;
  /// Attempts rejected because a generated value fell outside the
  /// observed category set.
  size_t rejected_invalid_value = 0;
  /// Attempts rejected because the token sequence failed to decode.
  size_t rejected_decode_failure = 0;
  /// Attempts that stalled mid-row (no admissible token / runaway value).
  size_t rejected_mid_row = 0;
  /// Failures injected through the fault registry ("synth.sample_row").
  size_t injected_faults = 0;

  /// Free-value-mode attempts that fell back to the tight grammar.
  size_t fallback_grammar_uses = 0;
  /// Cells replaced by the snap-to-observed last resort.
  size_t snapped_cells = 0;

  size_t total_rejected() const {
    return rejected_invalid_value + rejected_decode_failure +
           rejected_mid_row;
  }

  /// Fraction of attempts that were rejected; 0 when nothing was tried.
  double RejectionRate() const;

  /// True when every requested row is accounted for.
  bool Reconciles() const {
    return rows_emitted + rows_exhausted == rows_requested;
  }

  /// Adds `other`'s counts into this report.
  void Merge(const SampleReport& other);

  /// Counts accumulated since `before` (field-wise difference; `before`
  /// must be an earlier snapshot of the same accumulator).
  SampleReport DeltaSince(const SampleReport& before) const;

  /// Adds this report's counts into the global metrics registry under the
  /// `synth.*` names (synth.rows_requested, synth.rows_degraded,
  /// synth.fault_trips, ...). Call with a per-call delta, never with the
  /// lifetime accumulator, or counts double. Keeping the export next to
  /// the report guarantees registry counters reconcile with SampleReport
  /// by construction.
  void ExportToMetrics() const;

  /// One-line human-readable summary.
  std::string ToString() const;
};

/// The report's byte form inside stage and chunk checkpoints: its ten
/// counts as u64s, in declaration order. Checkpoint files written by
/// earlier builds depend on this layout, so it never changes.
void AppendSampleReport(const SampleReport& report, ByteWriter* w);
/// Reads what AppendSampleReport wrote; kDataLoss on truncation, leaving
/// `out` untouched.
Status ReadSampleReport(ByteReader* r, SampleReport* out);

}  // namespace greater

#endif  // GREATER_SYNTH_SAMPLE_REPORT_H_
