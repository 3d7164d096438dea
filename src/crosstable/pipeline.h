#ifndef GREATER_CROSSTABLE_PIPELINE_H_
#define GREATER_CROSSTABLE_PIPELINE_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "crosstable/independence.h"
#include "crosstable/reduce.h"
#include "semantic/enhancement.h"
#include "stream/stream_options.h"
#include "synth/relational_synthesizer.h"
#include "tabular/csv.h"
#include "tabular/table.h"

namespace greater {

/// How the two child tables are fused before synthesis.
enum class FusionMethod {
  /// Baseline 1 (Sec. 4.2): cartesian flattening, no reduction.
  kDirectFlatten,
  /// Baseline 2 (DEREC): the children are never fused — each is modelled
  /// in its own parent-child round, conditioned on a shared parent.
  kDerecIndependent,
  /// GReaTER with up-and-stay threshold = mean off-diagonal association.
  kGreaterMeanThreshold,
  /// GReaTER with threshold = median off-diagonal association.
  kGreaterMedianThreshold,
  /// GReaTER with hierarchical-clustering independence determination.
  kGreaterHierarchical,
};

const char* FusionMethodToString(FusionMethod method);

/// Which Data Semantic Enhancement transformation runs before encoding.
enum class SemanticMode {
  kNone,
  kDifferentiability,   ///< unique names (Sec. 3.2.1)
  kUnderstandability,   ///< curated / suggested meaningful labels (3.2.2)
};

const char* SemanticModeToString(SemanticMode mode);

struct PipelineOptions {
  FusionMethod fusion = FusionMethod::kGreaterMedianThreshold;
  SemanticMode semantic = SemanticMode::kNone;
  /// Curated understandability spec; empty -> SuggestMappingSpec runs.
  MappingSpec understandability_spec;
  /// Columns receiving the '^' -> ' and ' transform (Sec. 4.4.2); empty
  /// with apply_caret_transform=true -> auto-detect cells containing '^'.
  bool apply_caret_transform = false;
  std::vector<std::string> caret_columns;
  /// Drop identifier-typed columns before correlation / synthesis, as the
  /// paper does with e_et / i_docid / i_entities (Sec. 4.1.2).
  bool drop_identifier_columns = true;
  /// Contextual-variable consistency tolerance m (Appendix A.2).
  double contextual_min_consistency = 1.0;
  /// Synthesizer configuration shared by parent and child models. Its
  /// `policy` field selects the degradation mode for the whole run:
  /// SamplePolicy::kStrict fails the run on the first exhausted row (with
  /// a stage/table provenance chain on the Status); kLenient keeps every
  /// row that succeeded and accounts for the rest in
  /// PipelineResult::sample_report.
  GreatSynthesizer::Options synth;
  /// Worker-thread override applied to every synthesizer the run builds:
  /// 0 leaves `synth` untouched; >= 1 overrides both the sampling workers
  /// and the neural backbone's training threads. Output stays
  /// deterministic for a fixed (seed, num_threads) pair.
  size_t num_threads = 0;
  /// Lockstep decode-batch override applied to every synthesizer the run
  /// builds: 0 leaves `synth` untouched; >= 1 overrides
  /// GreatSynthesizer::Options::batch_rows. Output is bitwise-identical
  /// at every batch_rows value (see DESIGN.md, "Batched columnar
  /// decode"), so this is purely a throughput knob.
  size_t batch_rows = 0;
  /// Decode-time distribution cache applied to every synthesizer the run
  /// builds (parent and child). Defaults to enabled, which is
  /// bitwise-identical to running without a cache.
  DecodeCacheOptions decode_cache;
  /// Synthetic subject count; 0 -> match the training subject count.
  size_t num_synthetic_parents = 0;
  /// Directory for durable stage checkpoints; empty (default) disables
  /// them. When set, each pipeline stage persists its outputs to
  /// `<dir>/stage.<name>.<hash>.ckpt`, keyed by a content hash chained
  /// over the run configuration, the input tables, the starting RNG
  /// state, and every upstream stage's output. A re-run over identical
  /// inputs loads the completed stages and resumes at the first missing
  /// one, producing byte-identical final tables; any change upstream
  /// flips every downstream key, so stale state is never reused. Corrupt
  /// or torn checkpoint files degrade to recomputation, never failure
  /// (see StageCheckpointer in crosstable/checkpoint.h).
  std::string checkpoint_dir;
  /// Erase the mapping system after synthesis (privacy, Sec. 3.2.3).
  bool erase_mapping_after_run = true;
  /// Streaming runtime knobs (src/stream). RunFromCsv always ingests on
  /// the chunked bounded-queue runtime: memory stays bounded by
  /// queue_capacity × chunk_rows rows per queue, malformed input records
  /// degrade per the run policy instead of aborting, and — with
  /// `checkpoint_dir` set — ingest resumes per chunk after a crash.
  /// `stream.enabled` selects only the flatten path (DirectFlattenStreaming
  /// instead of DirectFlatten). Output is byte-identical either way;
  /// stream knobs are deliberately excluded from the checkpoint
  /// fingerprint so toggling them never invalidates stage checkpoints.
  StreamOptions stream;
};

/// Everything a pipeline run produces, including the intermediates the
/// ablation study reads.
struct PipelineResult {
  /// Synthetic parent (key + contextual features), original value format.
  Table synthetic_parent;
  /// Synthetic combined feature view (parent + child1 + child2 features,
  /// no key), original value format — what fidelity metrics consume.
  Table synthetic_flat;

  // --- diagnostics ---
  std::vector<std::string> contextual_columns;
  std::vector<std::string> identifier_columns_dropped;
  std::vector<std::string> semantically_mapped_columns;
  IndependenceResult independence;  // GReaTER fusions only
  ReductionStats reduction;         // GReaTER fusions only
  size_t flattened_rows = 0;        // rows before reduction
  size_t fused_training_rows = 0;   // child-model training rows
  /// Aggregated sampling outcome across every model the run sampled from
  /// (parent + child, both rounds for DEREC). Row counts reconcile:
  /// rows_emitted + rows_exhausted == rows_requested. Fidelity sweeps read
  /// the rejection rate off this report.
  SampleReport sample_report;
  /// Streaming-ingest accounting, populated by RunFromCsv only: totals
  /// across both input files, reconciling as
  /// rows_in == rows_out + quarantined.
  StreamIngestReport ingest_report;
};

/// End-to-end multi-table synthesis pipeline implementing GReaTER and the
/// paper's two baselines behind one configuration surface (Fig. 1):
///   (1) extract the parent table from contextual variables,
///   (2) semantically enhance categorical labels (and invert afterwards),
///   (3) fuse the child tables (flatten / reduce / bootstrap-append), then
///       run parent-child synthesis over the result.
class MultiTablePipeline {
 public:
  MultiTablePipeline() : MultiTablePipeline(PipelineOptions()) {}
  explicit MultiTablePipeline(PipelineOptions options);

  /// Runs the configured pipeline over two child tables sharing
  /// `key_column`.
  Result<PipelineResult> Run(const Table& child1, const Table& child2,
                             const std::string& key_column, Rng* rng) const;

  /// Out-of-core entry point: streams both child CSVs through the chunked
  /// ingest (src/stream) and then runs the configured pipeline. The run
  /// policy maps through: SamplePolicy::kStrict fails on the first
  /// malformed record with the same typed error the in-memory reader
  /// gives; kLenient diverts malformed records to
  /// `options().stream.quarantine_path` with provenance and continues.
  /// With `checkpoint_dir` set, each file's ingest checkpoints per chunk
  /// (labels ingest.child1 / ingest.child2), so a killed run re-reads but
  /// does not re-parse completed chunks. Ingest accounting lands in
  /// PipelineResult::ingest_report.
  Result<PipelineResult> RunFromCsv(const std::string& csv1_path,
                                    const std::string& csv2_path,
                                    const std::string& key_column, Rng* rng,
                                    const CsvReadOptions& csv_options =
                                        CsvReadOptions()) const;

  /// The real-data combined view the synthetic_flat is evaluated against:
  /// parent features + direct flatten of both residual child tables, with
  /// identifier columns dropped the same way the pipeline drops them.
  /// (Flattening the *real* data for evaluation is fine — the bias problem
  /// is about training a synthesizer on it, not about describing it.)
  Result<Table> BuildRealFlatView(const Table& child1, const Table& child2,
                                  const std::string& key_column) const;

  const PipelineOptions& options() const { return options_; }

 private:
  PipelineOptions options_;
};

}  // namespace greater

#endif  // GREATER_CROSSTABLE_PIPELINE_H_
