#ifndef GREATER_TESTS_REFERENCE_DECODER_H_
#define GREATER_TESTS_REFERENCE_DECODER_H_

#include <cstddef>
#include <map>
#include <string>

#include "common/rng.h"
#include "common/status.h"
#include "synth/great_synthesizer.h"
#include "synth/sample_report.h"
#include "tabular/table.h"

namespace greater {

/// GReaT's constrained row-wise sampler written the plain way: one row at
/// a time, every draw a direct LanguageModel::SampleNext call on the row's
/// own stream, no decode cache, no lane grouping. It is the oracle the
/// production BatchDecodeEngine is checked against — chunking, grouping
/// and caching must all be invisible in the engine's output. Reads the
/// fitted synthesizer's private state (encoder, grammars, observed pools,
/// options) through a friend declaration.
class ReferenceDecoder {
 public:
  explicit ReferenceDecoder(const GreatSynthesizer& synth) : synth_(synth) {}

  /// The Sample / SampleConditional contract under options().policy: one
  /// DeriveSampleBase draw from `rng`, then row i decodes from
  /// Rng(Rng::DeriveStreamSeed(base, i)), forcing conditions row i when
  /// `conditions` is non-null (n must then equal its row count). Strict
  /// policy returns the first failing row's error with the engine's
  /// context; lenient drops exhausted rows. `report` (optional) receives
  /// the per-row accounting.
  Result<Table> Sample(size_t n, const Table* conditions, Rng* rng,
                       SampleReport* report = nullptr) const;

  /// Decodes one row drawing straight from `rng`, forcing `forced` (may
  /// be null). Accounting goes to `stats`.
  Result<Row> SampleRow(Rng* rng, const std::map<std::string, Value>* forced,
                        SampleReport* stats) const;

 private:
  const GreatSynthesizer& synth_;
};

}  // namespace greater

#endif  // GREATER_TESTS_REFERENCE_DECODER_H_
