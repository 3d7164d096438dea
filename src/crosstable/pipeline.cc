#include "crosstable/pipeline.h"

#include <algorithm>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "crosstable/checkpoint.h"
#include "crosstable/contextual.h"
#include "crosstable/flatten.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "semantic/text_transform.h"
#include "stream/csv_ingest.h"
#include "tabular/table_serde.h"
#include "tabular/validate.h"

namespace greater {

const char* FusionMethodToString(FusionMethod method) {
  switch (method) {
    case FusionMethod::kDirectFlatten: return "direct-flatten";
    case FusionMethod::kDerecIndependent: return "derec-independent";
    case FusionMethod::kGreaterMeanThreshold: return "greater-mean-threshold";
    case FusionMethod::kGreaterMedianThreshold:
      return "greater-median-threshold";
    case FusionMethod::kGreaterHierarchical: return "greater-hierarchical";
  }
  return "unknown";
}

const char* SemanticModeToString(SemanticMode mode) {
  switch (mode) {
    case SemanticMode::kNone: return "none";
    case SemanticMode::kDifferentiability: return "differentiability";
    case SemanticMode::kUnderstandability: return "understandability";
  }
  return "unknown";
}

MultiTablePipeline::MultiTablePipeline(PipelineOptions options)
    : options_(std::move(options)) {}

namespace {

// Provenance frame naming the pipeline stage and the table it was
// processing; failures bubbling out of Run carry a chain of these (see
// Status::WithContext).
std::string StageContext(const char* stage, const char* table) {
  return std::string("stage '") + stage + "' (table '" + table + "')";
}

// Columns declared kIdentifier in a table's schema.
std::vector<std::string> IdentifierColumns(const Table& table,
                                           const std::string& key_column) {
  std::vector<std::string> out;
  for (const auto& field : table.schema().fields()) {
    if (field.name != key_column &&
        field.semantic == SemanticType::kIdentifier) {
      out.push_back(field.name);
    }
  }
  return out;
}

// String columns with at least one '^'-bearing cell.
std::vector<std::string> DetectCaretColumns(const Table& table) {
  std::vector<std::string> out;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (table.schema().field(c).type != ValueType::kString) continue;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      const Value& v = table.at(r, c);
      if (!v.is_null() && v.as_string().find('^') != std::string::npos) {
        out.push_back(table.schema().field(c).name);
        break;
      }
    }
  }
  return out;
}

// Restricts a table to rows whose key value is in `keys`.
Result<Table> FilterToKeys(const Table& table, const std::string& key_column,
                           const std::set<Value>& keys) {
  GREATER_ASSIGN_OR_RETURN(size_t key_idx,
                           table.schema().FieldIndex(key_column));
  return table.FilterRows(
      [&](size_t r) { return keys.count(table.at(r, key_idx)) > 0; });
}

// Categorical columns (across several tables) whose display values collide
// with another selected column — the enhancement candidates.
std::vector<std::pair<const Table*, std::string>> AmbiguousColumnsAcross(
    const std::vector<const Table*>& tables, const std::string& key_column) {
  struct ColumnRef {
    const Table* table;
    size_t index;
  };
  std::vector<ColumnRef> candidates;
  std::unordered_map<std::string, std::set<size_t>> occurrence;
  for (const Table* table : tables) {
    for (size_t c = 0; c < table->num_columns(); ++c) {
      const Field& field = table->schema().field(c);
      if (field.name == key_column) continue;
      if (field.semantic != SemanticType::kCategorical) continue;
      size_t candidate_id = candidates.size();
      candidates.push_back({table, c});
      for (size_t r = 0; r < table->num_rows(); ++r) {
        const Value& v = table->at(r, c);
        if (v.is_null()) continue;
        occurrence[v.ToDisplayString()].insert(candidate_id);
      }
    }
  }
  std::set<size_t> ambiguous;
  for (const auto& [text, cols] : occurrence) {
    if (cols.size() > 1) ambiguous.insert(cols.begin(), cols.end());
  }
  std::vector<std::pair<const Table*, std::string>> out;
  for (size_t id : ambiguous) {
    out.emplace_back(candidates[id].table,
                     candidates[id].table->schema().field(candidates[id].index).name);
  }
  return out;
}

// Flatten dispatch: the streaming implementation produces byte-identical
// output (same rows, same order), so which one runs is purely an
// execution-strategy knob — checkpoint chains are unaffected.
Result<Table> FlattenForOptions(const PipelineOptions& options,
                                const Table& left, const Table& right,
                                const std::string& key_column) {
  if (options.stream.enabled) {
    return DirectFlattenStreaming(left, right, key_column, options.stream);
  }
  return DirectFlatten(left, right, key_column);
}

// Joins parent features onto a flattened child view by key; output drops
// the key column (synthetic keys are surrogates with no real counterpart).
Result<Table> JoinParentFeatures(const Table& parent, const Table& flat,
                                 const std::string& key_column) {
  GREATER_ASSIGN_OR_RETURN(size_t parent_key,
                           parent.schema().FieldIndex(key_column));
  GREATER_ASSIGN_OR_RETURN(size_t flat_key,
                           flat.schema().FieldIndex(key_column));
  std::vector<Field> fields;
  std::vector<size_t> parent_features, flat_features;
  for (size_t c = 0; c < parent.num_columns(); ++c) {
    if (c == parent_key) continue;
    fields.push_back(parent.schema().field(c));
    parent_features.push_back(c);
  }
  for (size_t c = 0; c < flat.num_columns(); ++c) {
    if (c == flat_key) continue;
    fields.push_back(flat.schema().field(c));
    flat_features.push_back(c);
  }
  GREATER_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));
  Table out(std::move(schema));

  std::map<Value, size_t> parent_rows;
  for (size_t r = 0; r < parent.num_rows(); ++r) {
    parent_rows[parent.at(r, parent_key)] = r;
  }
  for (size_t r = 0; r < flat.num_rows(); ++r) {
    auto it = parent_rows.find(flat.at(r, flat_key));
    if (it == parent_rows.end()) {
      return Status::NotFound("flat row key '" +
                              flat.at(r, flat_key).ToDisplayString() +
                              "' missing from parent");
    }
    Row row;
    row.reserve(out.num_columns());
    for (size_t c : parent_features) row.push_back(parent.at(it->second, c));
    for (size_t c : flat_features) row.push_back(flat.at(r, c));
    GREATER_RETURN_NOT_OK(out.AppendRow(std::move(row)));
  }
  return out;
}

// Merges the two contextual halves into one parent table: key + child1's
// contextual columns + child2's, aligned by key (both halves must cover
// the same subjects).
Result<Table> MergeParents(const Table& parent1, const Table& parent2,
                           const std::string& key_column) {
  Table parent = parent1;
  GREATER_ASSIGN_OR_RETURN(size_t key1, parent.schema().FieldIndex(key_column));
  GREATER_ASSIGN_OR_RETURN(size_t key2,
                           parent2.schema().FieldIndex(key_column));
  std::map<Value, size_t> rows2;
  for (size_t r = 0; r < parent2.num_rows(); ++r) {
    rows2[parent2.at(r, key2)] = r;
  }
  for (size_t c = 0; c < parent2.num_columns(); ++c) {
    if (c == key2) continue;
    std::vector<Value> column;
    column.reserve(parent.num_rows());
    for (size_t r = 0; r < parent.num_rows(); ++r) {
      auto it = rows2.find(parent.at(r, key1));
      if (it == rows2.end()) {
        return Status::Internal("subject missing from second parent half");
      }
      column.push_back(parent2.at(it->second, c));
    }
    GREATER_RETURN_NOT_OK(
        parent.AddColumn(parent2.schema().field(c), std::move(column)));
  }
  return parent;
}

// ---- Stage-checkpoint payload codecs (see StageCheckpointer). Every
// codec is deterministic for equal inputs — the chain identity between the
// hit and miss paths depends on it. Every Restore* decodes into locals and
// commits only once the whole document decoded, so a checkpoint that fails
// to restore leaves the run's state untouched for the recompute. ----

void AppendStringList(const std::vector<std::string>& list, ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(list.size()));
  for (const std::string& s : list) w->PutString(s);
}

Status ReadStringList(ByteReader* r, std::vector<std::string>* out) {
  uint32_t count = 0;
  GREATER_RETURN_NOT_OK(r->GetU32(&count));
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string s;
    GREATER_RETURN_NOT_OK(r->GetString(&s));
    out->push_back(std::move(s));
  }
  return Status::OK();
}

Status ReadRngChunk(const ArtifactReader& doc, Rng* rng) {
  GREATER_ASSIGN_OR_RETURN(std::string_view payload, doc.Chunk("rng"));
  if (!rng->LoadState(std::string(payload))) {
    return Status::DataLoss("checkpoint holds an unparsable RNG state");
  }
  return Status::OK();
}

void BuildPrepareStageDoc(const Table& parent, const Table& c1,
                          const Table& c2,
                          const std::vector<std::string>& caret1,
                          const std::vector<std::string>& caret2,
                          const MappingSystem& mapping,
                          const PipelineResult& result, const Rng& rng,
                          ArtifactWriter* doc) {
  ByteWriter tables;
  AppendTable(parent, &tables);
  AppendTable(c1, &tables);
  AppendTable(c2, &tables);
  doc->AddChunk("tables", std::move(tables).Take());
  ByteWriter lists;
  AppendStringList(result.identifier_columns_dropped, &lists);
  AppendStringList(result.contextual_columns, &lists);
  AppendStringList(result.semantically_mapped_columns, &lists);
  AppendStringList(caret1, &lists);
  AppendStringList(caret2, &lists);
  doc->AddChunk("lists", std::move(lists).Take());
  doc->AddChunk("mapping", mapping.Serialize());
  doc->AddChunk("rng", rng.SaveState());
}

Status RestorePrepareStage(const ArtifactReader& doc, Table* parent,
                           Table* c1, Table* c2,
                           std::vector<std::string>* caret1,
                           std::vector<std::string>* caret2,
                           MappingSystem* mapping, PipelineResult* result,
                           Rng* rng) {
  Table p, t1, t2;
  {
    GREATER_ASSIGN_OR_RETURN(std::string_view payload, doc.Chunk("tables"));
    ByteReader r(payload);
    GREATER_RETURN_NOT_OK(ReadTable(&r, &p));
    GREATER_RETURN_NOT_OK(ReadTable(&r, &t1));
    GREATER_RETURN_NOT_OK(ReadTable(&r, &t2));
    GREATER_RETURN_NOT_OK(r.ExpectEnd());
  }
  std::vector<std::string> dropped, contextual, mapped, k1, k2;
  {
    GREATER_ASSIGN_OR_RETURN(std::string_view payload, doc.Chunk("lists"));
    ByteReader r(payload);
    GREATER_RETURN_NOT_OK(ReadStringList(&r, &dropped));
    GREATER_RETURN_NOT_OK(ReadStringList(&r, &contextual));
    GREATER_RETURN_NOT_OK(ReadStringList(&r, &mapped));
    GREATER_RETURN_NOT_OK(ReadStringList(&r, &k1));
    GREATER_RETURN_NOT_OK(ReadStringList(&r, &k2));
    GREATER_RETURN_NOT_OK(r.ExpectEnd());
  }
  GREATER_ASSIGN_OR_RETURN(std::string_view mapping_bytes,
                           doc.Chunk("mapping"));
  GREATER_ASSIGN_OR_RETURN(
      MappingSystem m, MappingSystem::Deserialize(std::string(mapping_bytes)));
  Rng restored_rng;
  GREATER_RETURN_NOT_OK(ReadRngChunk(doc, &restored_rng));
  *parent = std::move(p);
  *c1 = std::move(t1);
  *c2 = std::move(t2);
  result->identifier_columns_dropped = std::move(dropped);
  result->contextual_columns = std::move(contextual);
  result->semantically_mapped_columns = std::move(mapped);
  *caret1 = std::move(k1);
  *caret2 = std::move(k2);
  *mapping = std::move(m);
  *rng = restored_rng;
  return Status::OK();
}

void BuildFuseStageDoc(const Table& fused, const PipelineResult& result,
                       const Rng& rng, ArtifactWriter* doc) {
  ByteWriter fused_bytes;
  AppendTable(fused, &fused_bytes);
  doc->AddChunk("fused", std::move(fused_bytes).Take());
  ByteWriter stats;
  stats.PutU64(result.flattened_rows);
  AppendStringList(result.independence.independent, &stats);
  AppendStringList(result.independence.dependent, &stats);
  stats.PutF64(result.independence.threshold);
  stats.PutU64(result.reduction.rows_before);
  stats.PutU64(result.reduction.rows_after);
  stats.PutU64(result.reduction.columns_removed);
  doc->AddChunk("stats", std::move(stats).Take());
  doc->AddChunk("rng", rng.SaveState());
}

Status RestoreFuseStage(const ArtifactReader& doc, Table* fused,
                        PipelineResult* result, Rng* rng) {
  Table f;
  {
    GREATER_ASSIGN_OR_RETURN(std::string_view payload, doc.Chunk("fused"));
    ByteReader r(payload);
    GREATER_RETURN_NOT_OK(ReadTable(&r, &f));
    GREATER_RETURN_NOT_OK(r.ExpectEnd());
  }
  uint64_t flattened_rows = 0;
  IndependenceResult independence;
  ReductionStats reduction;
  {
    GREATER_ASSIGN_OR_RETURN(std::string_view payload, doc.Chunk("stats"));
    ByteReader r(payload);
    uint64_t v = 0;
    GREATER_RETURN_NOT_OK(r.GetU64(&flattened_rows));
    GREATER_RETURN_NOT_OK(ReadStringList(&r, &independence.independent));
    GREATER_RETURN_NOT_OK(ReadStringList(&r, &independence.dependent));
    GREATER_RETURN_NOT_OK(r.GetF64(&independence.threshold));
    GREATER_RETURN_NOT_OK(r.GetU64(&v));
    reduction.rows_before = v;
    GREATER_RETURN_NOT_OK(r.GetU64(&v));
    reduction.rows_after = v;
    GREATER_RETURN_NOT_OK(r.GetU64(&v));
    reduction.columns_removed = v;
    GREATER_RETURN_NOT_OK(r.ExpectEnd());
  }
  Rng restored_rng;
  GREATER_RETURN_NOT_OK(ReadRngChunk(doc, &restored_rng));
  *fused = std::move(f);
  result->flattened_rows = flattened_rows;
  result->independence = std::move(independence);
  result->reduction = reduction;
  *rng = restored_rng;
  return Status::OK();
}

Status BuildFitStageDoc(
    const std::vector<const RelationalSynthesizer*>& models, const Rng& rng,
    ArtifactWriter* doc) {
  for (size_t i = 0; i < models.size(); ++i) {
    GREATER_ASSIGN_OR_RETURN(std::string bytes, models[i]->SerializeBinary());
    doc->AddChunk("model" + std::to_string(i), std::move(bytes));
  }
  doc->AddChunk("rng", rng.SaveState());
  return Status::OK();
}

Status RestoreFitStage(const ArtifactReader& doc,
                       const std::vector<RelationalSynthesizer*>& models,
                       Rng* rng) {
  std::vector<RelationalSynthesizer> restored(models.size());
  for (size_t i = 0; i < models.size(); ++i) {
    GREATER_ASSIGN_OR_RETURN(std::string_view payload,
                             doc.Chunk("model" + std::to_string(i)));
    GREATER_RETURN_NOT_OK_CTX(restored[i].DeserializeBinary(payload),
                              "checkpointed model " + std::to_string(i));
  }
  Rng restored_rng;
  GREATER_RETURN_NOT_OK(ReadRngChunk(doc, &restored_rng));
  for (size_t i = 0; i < models.size(); ++i) {
    *models[i] = std::move(restored[i]);
  }
  *rng = restored_rng;
  return Status::OK();
}

void BuildSampleStageDoc(const std::vector<const Table*>& tables,
                         const SampleReport& report, const Rng& rng,
                         ArtifactWriter* doc) {
  for (size_t i = 0; i < tables.size(); ++i) {
    ByteWriter w;
    AppendTable(*tables[i], &w);
    doc->AddChunk("table" + std::to_string(i), std::move(w).Take());
  }
  ByteWriter w;
  AppendSampleReport(report, &w);
  doc->AddChunk("report", std::move(w).Take());
  doc->AddChunk("rng", rng.SaveState());
}

Status RestoreSampleStage(const ArtifactReader& doc,
                          const std::vector<Table*>& tables,
                          SampleReport* report, Rng* rng) {
  std::vector<Table> restored(tables.size());
  for (size_t i = 0; i < tables.size(); ++i) {
    GREATER_ASSIGN_OR_RETURN(std::string_view payload,
                             doc.Chunk("table" + std::to_string(i)));
    ByteReader r(payload);
    GREATER_RETURN_NOT_OK(ReadTable(&r, &restored[i]));
    GREATER_RETURN_NOT_OK(r.ExpectEnd());
  }
  SampleReport stored;
  {
    GREATER_ASSIGN_OR_RETURN(std::string_view payload, doc.Chunk("report"));
    ByteReader r(payload);
    GREATER_RETURN_NOT_OK(ReadSampleReport(&r, &stored));
    GREATER_RETURN_NOT_OK(r.ExpectEnd());
  }
  Rng restored_rng;
  GREATER_RETURN_NOT_OK(ReadRngChunk(doc, &restored_rng));
  for (size_t i = 0; i < tables.size(); ++i) {
    *tables[i] = std::move(restored[i]);
  }
  *report = stored;
  *rng = restored_rng;
  return Status::OK();
}

}  // namespace

Result<Table> MultiTablePipeline::BuildRealFlatView(
    const Table& child1_in, const Table& child2_in,
    const std::string& key_column) const {
  Table child1 = child1_in;
  Table child2 = child2_in;
  if (options_.drop_identifier_columns) {
    GREATER_ASSIGN_OR_RETURN(
        child1, child1.DropColumns(IdentifierColumns(child1, key_column)));
    GREATER_ASSIGN_OR_RETURN(
        child2, child2.DropColumns(IdentifierColumns(child2, key_column)));
  }
  // Common subjects only (inner-join semantics throughout).
  GREATER_ASSIGN_OR_RETURN(auto g1, child1.GroupByColumn(key_column));
  GREATER_ASSIGN_OR_RETURN(auto g2, child2.GroupByColumn(key_column));
  std::set<Value> common;
  for (const auto& [key, rows] : g1) {
    if (g2.count(key) > 0) common.insert(key);
  }
  GREATER_ASSIGN_OR_RETURN(child1, FilterToKeys(child1, key_column, common));
  GREATER_ASSIGN_OR_RETURN(child2, FilterToKeys(child2, key_column, common));

  GREATER_ASSIGN_OR_RETURN(
      ParentChildSplit split1,
      SplitByContextualVariables(child1, key_column,
                                 options_.contextual_min_consistency));
  GREATER_ASSIGN_OR_RETURN(
      ParentChildSplit split2,
      SplitByContextualVariables(child2, key_column,
                                 options_.contextual_min_consistency));
  GREATER_ASSIGN_OR_RETURN(
      Table flat,
      FlattenForOptions(options_, split1.child, split2.child, key_column));
  GREATER_ASSIGN_OR_RETURN(
      Table parent, MergeParents(split1.parent, split2.parent, key_column));
  return JoinParentFeatures(parent, flat, key_column);
}

Result<PipelineResult> MultiTablePipeline::Run(
    const Table& child1_in, const Table& child2_in,
    const std::string& key_column, Rng* rng) const {
  // Observability: one root span for the whole run, with consecutive
  // "stage.<name>" child spans tiling it (each emplace closes the previous
  // stage and opens the next, so stage wall-times sum to the run's). Stage
  // names match the StageContext provenance frames.
  Span run_span("pipeline.run");
  MetricsRegistry::Global().GetCounter("pipeline.runs").Increment();
  std::optional<Span> stage;
  stage.emplace("stage.validate-input");

  PipelineResult result;
  Table child1 = child1_in;
  Table child2 = child2_in;

  // ---- Stage guard: input invariants, reported against the table that
  // violates them before any work starts. ----
  GREATER_RETURN_NOT_OK_CTX(ValidateStageInput(child1, key_column, "child1"),
                            StageContext("validate-input", "child1"));
  GREATER_RETURN_NOT_OK_CTX(ValidateStageInput(child2, key_column, "child2"),
                            StageContext("validate-input", "child2"));

  // ---- Durable stage checkpoints (see checkpoint.h). The chain seed
  // fingerprints everything that can influence any stage: the full run
  // configuration, the key column, the starting RNG state, and both input
  // tables. A resumed run either reproduces this one bit for bit or
  // misses every key. Without a checkpoint dir nothing is fingerprinted.
  // ----
  StageCheckpointer ckpt(options_.checkpoint_dir);
  if (ckpt.enabled()) {
    ByteWriter w;
    w.PutU8(static_cast<uint8_t>(options_.fusion));
    w.PutU8(static_cast<uint8_t>(options_.semantic));
    w.PutU32(static_cast<uint32_t>(options_.understandability_spec.size()));
    for (const auto& [column, replacements] :
         options_.understandability_spec) {
      w.PutString(column);
      w.PutU32(static_cast<uint32_t>(replacements.size()));
      for (const auto& [from, to] : replacements) {
        w.PutString(from);
        w.PutString(to);
      }
    }
    w.PutBool(options_.apply_caret_transform);
    AppendStringList(options_.caret_columns, &w);
    w.PutBool(options_.drop_identifier_columns);
    w.PutF64(options_.contextual_min_consistency);
    GreatSynthesizer::AppendOptionsTo(options_.synth, &w);
    w.PutU64(options_.num_threads);
    w.PutU64(options_.batch_rows);
    w.PutBool(options_.decode_cache.enabled);
    w.PutU64(options_.decode_cache.capacity);
    w.PutU8(0);  // retired decode-mode byte; keeps old checkpoints warm
    w.PutBool(options_.decode_cache.cache_hidden_states);
    w.PutU64(options_.decode_cache.hidden_capacity);
    w.PutU64(options_.num_synthetic_parents);
    w.PutString(key_column);
    w.PutString(rng->SaveState());
    ckpt.Mix(w.bytes());
    ckpt.MixTable(child1);
    ckpt.MixTable(child2);
  }

  // Locals produced by the prepare stage (steps 0-2), restored wholesale
  // on a checkpoint hit.
  std::vector<std::string> caret1, caret2;
  Table parent, c1, c2;
  MappingSystem mapping;

  if (ckpt.Restore("prepare", [&](const ArtifactReader& doc) {
        return RestorePrepareStage(doc, &parent, &c1, &c2, &caret1, &caret2,
                                   &mapping, &result, rng);
      })) {
    stage.emplace("stage.resume");
  } else {
  stage.emplace("stage.enhancement");
  // ---- Step 0: identifier-column removal (Sec. 4.1.2). ----
  if (options_.drop_identifier_columns) {
    std::vector<std::string> ids1 = IdentifierColumns(child1, key_column);
    std::vector<std::string> ids2 = IdentifierColumns(child2, key_column);
    GREATER_ASSIGN_OR_RETURN_CTX(child1, child1.DropColumns(ids1),
                                 StageContext("enhancement", "child1"));
    GREATER_ASSIGN_OR_RETURN_CTX(child2, child2.DropColumns(ids2),
                                 StageContext("enhancement", "child2"));
    result.identifier_columns_dropped = std::move(ids1);
    result.identifier_columns_dropped.insert(
        result.identifier_columns_dropped.end(), ids2.begin(), ids2.end());
  }

  // Restrict to subjects present in both tables.
  {
    GREATER_ASSIGN_OR_RETURN_CTX(auto g1, child1.GroupByColumn(key_column),
                                 StageContext("enhancement", "child1"));
    GREATER_ASSIGN_OR_RETURN_CTX(auto g2, child2.GroupByColumn(key_column),
                                 StageContext("enhancement", "child2"));
    std::set<Value> common;
    for (const auto& [key, rows] : g1) {
      if (g2.count(key) > 0) common.insert(key);
    }
    if (common.empty()) {
      return Status::Invalid("the two child tables share no subjects")
          .WithContext(StageContext("enhancement", "child1+child2"));
    }
    GREATER_ASSIGN_OR_RETURN_CTX(child1,
                                 FilterToKeys(child1, key_column, common),
                                 StageContext("enhancement", "child1"));
    GREATER_ASSIGN_OR_RETURN_CTX(child2,
                                 FilterToKeys(child2, key_column, common),
                                 StageContext("enhancement", "child2"));
  }

  // ---- Step 0.5: data-specific '^' transform (Sec. 4.4.2). ----
  if (options_.apply_caret_transform) {
    auto in_selection = [this](const std::string& name) {
      return options_.caret_columns.empty() ||
             std::find(options_.caret_columns.begin(),
                       options_.caret_columns.end(),
                       name) != options_.caret_columns.end();
    };
    for (const auto& name : DetectCaretColumns(child1)) {
      if (in_selection(name)) caret1.push_back(name);
    }
    for (const auto& name : DetectCaretColumns(child2)) {
      if (in_selection(name)) caret2.push_back(name);
    }
    if (!caret1.empty()) {
      GREATER_ASSIGN_OR_RETURN_CTX(
          child1, TextSubstitution::CaretToAnd(caret1).Apply(child1),
          StageContext("enhancement", "child1"));
    }
    if (!caret2.empty()) {
      GREATER_ASSIGN_OR_RETURN_CTX(
          child2, TextSubstitution::CaretToAnd(caret2).Apply(child2),
          StageContext("enhancement", "child2"));
    }
  }

  // ---- Step 1: parent extraction from contextual variables. ----
  stage.emplace("stage.parent-extract");
  GREATER_ASSIGN_OR_RETURN_CTX(
      ParentChildSplit split1,
      SplitByContextualVariables(child1, key_column,
                                 options_.contextual_min_consistency),
      StageContext("parent-extract", "child1"));
  GREATER_ASSIGN_OR_RETURN_CTX(
      ParentChildSplit split2,
      SplitByContextualVariables(child2, key_column,
                                 options_.contextual_min_consistency),
      StageContext("parent-extract", "child2"));
  GREATER_ASSIGN_OR_RETURN_CTX(
      parent, MergeParents(split1.parent, split2.parent, key_column),
      StageContext("parent-extract", "child1+child2"));
  for (const auto& field : parent.schema().fields()) {
    if (field.name != key_column) {
      result.contextual_columns.push_back(field.name);
    }
  }
  c1 = split1.child;
  c2 = split2.child;

  // ---- Step 2: Data Semantic Enhancement. ----
  stage.emplace("stage.semantic-enhance");
  if (options_.semantic != SemanticMode::kNone) {
    auto targets = AmbiguousColumnsAcross({&parent, &c1, &c2}, key_column);
    std::vector<ColumnMapping> mappings;
    NameGenerator names;
    for (const auto& [table, column] : targets) {
      MappingSystem column_system;
      if (options_.semantic == SemanticMode::kDifferentiability) {
        GREATER_ASSIGN_OR_RETURN_CTX(
            column_system,
            BuildDifferentiabilityMapping(*table, {column}, &names),
            StageContext("semantic-enhance", column.c_str()));
      } else {
        MappingSpec spec;
        auto it = options_.understandability_spec.find(column);
        if (it != options_.understandability_spec.end()) {
          spec[column] = it->second;
        } else {
          GREATER_ASSIGN_OR_RETURN_CTX(
              spec, SuggestMappingSpec(*table, {column}),
              StageContext("semantic-enhance", column.c_str()));
        }
        GREATER_ASSIGN_OR_RETURN_CTX(
            column_system, BuildUnderstandabilityMapping(*table, spec),
            StageContext("semantic-enhance", column.c_str()));
      }
      for (const auto& m : column_system.mappings()) mappings.push_back(m);
      result.semantically_mapped_columns.push_back(column);
    }
    // Global replacement dedup: suggestions are generated per column, so
    // two columns hitting the same knowledge-base entry (e.g. 'residence'
    // and 'city_rank' both matching the city keyword) can collide. Suffix
    // later occurrences to preserve global distinctness.
    {
      std::set<std::string> used;
      for (auto& mapping : mappings) {
        for (auto& [original, replacement] : mapping.forward) {
          std::string text = replacement.ToDisplayString();
          if (used.insert(text).second) continue;
          for (int k = 2;; ++k) {
            std::string alt = text + " " + std::to_string(k);
            if (used.insert(alt).second) {
              replacement = Value(alt);
              break;
            }
          }
        }
      }
    }
    if (!mappings.empty()) {
      GREATER_ASSIGN_OR_RETURN_CTX(
          mapping, MappingSystem::Make(std::move(mappings)),
          StageContext("semantic-enhance", "child1+child2"));
      GREATER_ASSIGN_OR_RETURN_CTX(parent, mapping.ApplyPartial(parent),
                                   StageContext("semantic-enhance", "parent"));
      GREATER_ASSIGN_OR_RETURN_CTX(c1, mapping.ApplyPartial(c1),
                                   StageContext("semantic-enhance", "child1"));
      GREATER_ASSIGN_OR_RETURN_CTX(c2, mapping.ApplyPartial(c2),
                                   StageContext("semantic-enhance", "child2"));
    }
  }

  ckpt.Store("prepare", [&](ArtifactWriter* doc) {
    BuildPrepareStageDoc(parent, c1, c2, caret1, caret2, mapping, result,
                         *rng, doc);
    return Status::OK();
  });
  }  // prepare stage (checkpoint miss path)

  // ---- Steps 3+4: fusion and synthesis. ----
  size_t num_parents = options_.num_synthetic_parents > 0
                           ? options_.num_synthetic_parents
                           : parent.num_rows();
  Table synthetic_parent;
  Table synthetic_flat;

  RelationalSynthesizer::Options rs_options;
  rs_options.parent = options_.synth;
  rs_options.child = options_.synth;
  for (GreatSynthesizer::Options* synth :
       {&rs_options.parent, &rs_options.child}) {
    synth->decode_cache = options_.decode_cache;
    if (options_.num_threads > 0) {
      synth->num_threads = options_.num_threads;
      synth->neural.num_threads = options_.num_threads;
    }
    if (options_.batch_rows > 0) {
      synth->batch_rows = options_.batch_rows;
    }
  }

  if (options_.fusion == FusionMethod::kDerecIndependent) {
    RelationalSynthesizer rs1(rs_options);
    RelationalSynthesizer rs2(rs_options);
    if (ckpt.Restore("fit", [&](const ArtifactReader& doc) {
          return RestoreFitStage(doc, {&rs1, &rs2}, rng);
        })) {
      stage.emplace("stage.resume");
    } else {
      stage.emplace("stage.fit");
      GREATER_RETURN_NOT_OK_CTX(rs1.Fit(parent, c1, key_column, rng),
                                StageContext("fit", "child1"));
      GREATER_RETURN_NOT_OK_CTX(rs2.Fit(parent, c2, key_column, rng),
                                StageContext("fit", "child2"));
      ckpt.Store("fit", [&](ArtifactWriter* doc) {
        return BuildFitStageDoc({&rs1, &rs2}, *rng, doc);
      });
    }
    RelationalSample sample1;
    Table child2_rows;
    if (ckpt.Restore("sample", [&](const ArtifactReader& doc) {
          return RestoreSampleStage(
              doc, {&sample1.parent, &sample1.child, &child2_rows},
              &result.sample_report, rng);
        })) {
      stage.emplace("stage.resume");
    } else {
      stage.emplace("stage.sample");
      GREATER_ASSIGN_OR_RETURN_CTX(
          sample1, rs1.Sample(num_parents, rng, &result.sample_report),
          StageContext("sample", "child1"));
      GREATER_ASSIGN_OR_RETURN_CTX(
          child2_rows,
          rs2.SampleChildren(sample1.parent, rng, &result.sample_report),
          StageContext("sample", "child2"));
      ckpt.Store("sample", [&](ArtifactWriter* doc) {
        BuildSampleStageDoc({&sample1.parent, &sample1.child, &child2_rows},
                            result.sample_report, *rng, doc);
        return Status::OK();
      });
    }
    stage.emplace("stage.flatten");
    GREATER_ASSIGN_OR_RETURN_CTX(
        Table flat,
        FlattenForOptions(options_, sample1.child, child2_rows, key_column),
        StageContext("flatten", "child1+child2"));
    GREATER_ASSIGN_OR_RETURN_CTX(
        synthetic_flat, JoinParentFeatures(sample1.parent, flat, key_column),
        StageContext("flatten", "child1+child2"));
    synthetic_parent = std::move(sample1.parent);
    result.fused_training_rows = c1.num_rows() + c2.num_rows();
  } else {
    Table fused;
    if (ckpt.Restore("fuse", [&](const ArtifactReader& doc) {
          return RestoreFuseStage(doc, &fused, &result, rng);
        })) {
      stage.emplace("stage.resume");
      MetricsRegistry::Global()
          .GetGauge("pipeline.flattened_rows")
          .Set(static_cast<double>(result.flattened_rows));
    } else {
    stage.emplace("stage.flatten");
    GREATER_ASSIGN_OR_RETURN_CTX(
        Table flat, FlattenForOptions(options_, c1, c2, key_column),
        StageContext("flatten", "child1+child2"));
    result.flattened_rows = flat.num_rows();
    MetricsRegistry::Global()
        .GetGauge("pipeline.flattened_rows")
        .Set(static_cast<double>(result.flattened_rows));
    fused = flat;
    if (options_.fusion != FusionMethod::kDirectFlatten) {
      stage.emplace("stage.independence");
      GREATER_ASSIGN_OR_RETURN_CTX(Table features,
                                   flat.DropColumns({key_column}),
                                   StageContext("independence", "fused"));
      GREATER_ASSIGN_OR_RETURN_CTX(AssociationMatrix assoc,
                                   ComputeAssociationMatrix(features),
                                   StageContext("independence", "fused"));
      switch (options_.fusion) {
        case FusionMethod::kGreaterMeanThreshold: {
          GREATER_ASSIGN_OR_RETURN_CTX(
              result.independence,
              ThresholdSeparation(assoc, MeanAssociation(assoc)),
              StageContext("independence", "fused"));
          break;
        }
        case FusionMethod::kGreaterMedianThreshold: {
          GREATER_ASSIGN_OR_RETURN_CTX(
              result.independence,
              ThresholdSeparation(assoc, MedianAssociation(assoc)),
              StageContext("independence", "fused"));
          break;
        }
        default: {
          GREATER_ASSIGN_OR_RETURN_CTX(result.independence,
                                       HierarchicalSeparation(assoc),
                                       StageContext("independence", "fused"));
        }
      }
      stage.emplace("stage.reduce");
      if (!result.independence.independent.empty()) {
        GREATER_ASSIGN_OR_RETURN_CTX(
            Table reduced,
            RemoveAndReduce(flat, result.independence.independent,
                            &result.reduction),
            StageContext("reduce", "fused"));
        GREATER_ASSIGN_OR_RETURN_CTX(
            fused, AppendBySampling(reduced, flat, key_column,
                                    result.independence.independent, rng),
            StageContext("reduce", "fused"));
      } else {
        result.reduction.rows_before = flat.num_rows();
        result.reduction.rows_after = flat.num_rows();
      }
    }
    ckpt.Store("fuse", [&](ArtifactWriter* doc) {
      BuildFuseStageDoc(fused, result, *rng, doc);
      return Status::OK();
    });
    }  // fuse stage (checkpoint miss path)
    result.fused_training_rows = fused.num_rows();

    RelationalSynthesizer rs(rs_options);
    if (ckpt.Restore("fit", [&](const ArtifactReader& doc) {
          return RestoreFitStage(doc, {&rs}, rng);
        })) {
      stage.emplace("stage.resume");
    } else {
      stage.emplace("stage.fit");
      GREATER_RETURN_NOT_OK_CTX(rs.Fit(parent, fused, key_column, rng),
                                StageContext("fit", "fused"));
      ckpt.Store("fit", [&](ArtifactWriter* doc) {
        return BuildFitStageDoc({&rs}, *rng, doc);
      });
    }
    RelationalSample sample;
    if (ckpt.Restore("sample", [&](const ArtifactReader& doc) {
          return RestoreSampleStage(doc, {&sample.parent, &sample.child},
                                    &result.sample_report, rng);
        })) {
      stage.emplace("stage.resume");
    } else {
      stage.emplace("stage.sample");
      GREATER_ASSIGN_OR_RETURN_CTX(
          sample, rs.Sample(num_parents, rng, &result.sample_report),
          StageContext("sample", "fused"));
      ckpt.Store("sample", [&](ArtifactWriter* doc) {
        BuildSampleStageDoc({&sample.parent, &sample.child},
                            result.sample_report, *rng, doc);
        return Status::OK();
      });
    }
    stage.emplace("stage.flatten");
    GREATER_ASSIGN_OR_RETURN_CTX(
        synthetic_flat,
        JoinParentFeatures(sample.parent, sample.child, key_column),
        StageContext("flatten", "fused"));
    synthetic_parent = std::move(sample.parent);
  }
  MetricsRegistry::Global()
      .GetGauge("pipeline.fused_training_rows")
      .Set(static_cast<double>(result.fused_training_rows));

  stage.emplace("stage.inverse-map");
  // ---- Step 5: inverse transformations (Sec. 3.2.3). ----
  if (!mapping.empty()) {
    GREATER_ASSIGN_OR_RETURN_CTX(
        synthetic_parent, mapping.InvertPartial(synthetic_parent),
        StageContext("inverse-map", "synthetic_parent"));
    GREATER_ASSIGN_OR_RETURN_CTX(
        synthetic_flat, mapping.InvertPartial(synthetic_flat),
        StageContext("inverse-map", "synthetic_flat"));
  }
  if (options_.apply_caret_transform) {
    for (const auto& columns : {caret1, caret2}) {
      if (columns.empty()) continue;
      // Invert only the columns present in each output table.
      std::vector<std::string> in_flat, in_parent;
      for (const auto& name : columns) {
        if (synthetic_flat.schema().HasField(name)) in_flat.push_back(name);
        if (synthetic_parent.schema().HasField(name)) in_parent.push_back(name);
      }
      if (!in_flat.empty()) {
        GREATER_ASSIGN_OR_RETURN_CTX(
            synthetic_flat,
            TextSubstitution::CaretToAnd(in_flat).Invert(synthetic_flat),
            StageContext("inverse-map", "synthetic_flat"));
      }
      if (!in_parent.empty()) {
        GREATER_ASSIGN_OR_RETURN_CTX(
            synthetic_parent,
            TextSubstitution::CaretToAnd(in_parent).Invert(synthetic_parent),
            StageContext("inverse-map", "synthetic_parent"));
      }
    }
  }
  if (options_.erase_mapping_after_run) mapping.Erase();

  // Canonicalize the flat-view column order (parent features, then child1
  // features, then child2 features) so every fusion method — including
  // bootstrap-append, which re-adds independent columns at the end —
  // produces a view schema-identical to BuildRealFlatView's.
  {
    std::vector<std::string> canonical;
    for (const auto& field : parent.schema().fields()) {
      if (field.name != key_column) canonical.push_back(field.name);
    }
    for (const Table* residual : {&c1, &c2}) {
      for (const auto& field : residual->schema().fields()) {
        if (field.name != key_column) canonical.push_back(field.name);
      }
    }
    GREATER_ASSIGN_OR_RETURN_CTX(synthetic_flat,
                                 synthetic_flat.Select(canonical),
                                 StageContext("inverse-map", "synthetic_flat"));
  }

  result.synthetic_parent = std::move(synthetic_parent);
  result.synthetic_flat = std::move(synthetic_flat);
  return result;
}

Result<PipelineResult> MultiTablePipeline::RunFromCsv(
    const std::string& csv1_path, const std::string& csv2_path,
    const std::string& key_column, Rng* rng,
    const CsvReadOptions& csv_options) const {
  // The run's degradation policy maps onto the ingest: strict runs fail
  // on the first malformed record, lenient runs quarantine it and finish.
  StreamPolicy policy = options_.synth.policy == SamplePolicy::kLenient
                            ? StreamPolicy::kLenient
                            : StreamPolicy::kStrict;
  StreamOptions stream = options_.stream;
  QuarantineWriter quarantine(stream.quarantine_path);
  StreamIngestReport report1, report2;
  Table child1, child2;
  {
    Span span("pipeline.ingest");
    // Per-file chunk chains: a killed ingest re-reads (cheap) but re-parses
    // only the chunk that was in flight.
    GREATER_ASSIGN_OR_RETURN_CTX(
        child1,
        ReadCsvFileStreaming(csv1_path, csv_options, stream, policy,
                             &report1,
                             {options_.checkpoint_dir, "ingest.child1"},
                             &quarantine),
        StageContext("ingest", "child1"));
    GREATER_ASSIGN_OR_RETURN_CTX(
        child2,
        ReadCsvFileStreaming(csv2_path, csv_options, stream, policy,
                             &report2,
                             {options_.checkpoint_dir, "ingest.child2"},
                             &quarantine),
        StageContext("ingest", "child2"));
  }
  GREATER_ASSIGN_OR_RETURN(PipelineResult result,
                           Run(child1, child2, key_column, rng));
  result.ingest_report.rows_in = report1.rows_in + report2.rows_in;
  result.ingest_report.rows_out = report1.rows_out + report2.rows_out;
  result.ingest_report.quarantined =
      report1.quarantined + report2.quarantined;
  result.ingest_report.chunks = report1.chunks + report2.chunks;
  result.ingest_report.chunk_checkpoint_hits =
      report1.chunk_checkpoint_hits + report2.chunk_checkpoint_hits;
  return result;
}

}  // namespace greater
