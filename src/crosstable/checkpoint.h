#ifndef GREATER_CROSSTABLE_CHECKPOINT_H_
#define GREATER_CROSSTABLE_CHECKPOINT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/artifact_io.h"
#include "common/checkpoint_store.h"
#include "tabular/table.h"

namespace greater {

/// Stage-level checkpoints for the multi-table pipeline (see DESIGN.md,
/// "Checkpoint store"): a chain-over-payloads keying policy on top of a
/// CheckpointStore of kind `greater.stage_checkpoint` counted under
/// `ckpt.stage_*`.
///
/// Each checkpointed stage persists its outputs to
/// `<dir>/stage.<name>.<chain>.ckpt`, where `chain` is a running content
/// hash over everything that could influence the stage: the pipeline
/// configuration, the input tables, the RNG state at the start of the run,
/// and the serialized outputs of every earlier stage. A re-run over the
/// same inputs finds the same keys and skips straight to the first stage
/// whose checkpoint is missing; any input or option change flips the chain
/// and every downstream key with it, so stale state can never be reused.
///
/// The chain advances identically on the hit and miss paths — a restored
/// document's bytes on a hit, the stored document's bytes on a miss —
/// because stage payloads serialize deterministically. A document that
/// fails to restore leaves the chain where it was, so the recompute keys
/// every later stage exactly as a clean run does. That identity is what
/// makes resume byte-exact: a run resumed from any prefix of checkpoints
/// produces the same final tables, bit for bit, as the uninterrupted run
/// (each payload carries the RNG state to restore).
///
/// Disabled when `dir` is empty: nothing is hashed, built or written, and
/// the keys are never observed.
class StageCheckpointer {
 public:
  /// Artifact kind written for every stage checkpoint document.
  static constexpr const char* kKind = "greater.stage_checkpoint";
  static constexpr uint32_t kVersion = 1;

  explicit StageCheckpointer(std::string dir);

  bool enabled() const { return store_.enabled(); }

  /// Folds raw bytes into the running fingerprint chain.
  void Mix(std::string_view bytes);
  /// Convenience: mixes the table's binary serialization (schema + cells).
  void MixTable(const Table& table);

  uint64_t chain() const { return chain_.value(); }

  /// Path the checkpoint for `stage` would use under the current chain.
  std::string StagePath(const std::string& stage) const;

  /// Restores `stage`'s checkpoint at the current chain position. On a hit
  /// (the document parsed and `restore` succeeded) its bytes are mixed
  /// into the chain; on any miss the chain is untouched and the caller
  /// recomputes and stores.
  bool Restore(const std::string& stage,
               const CheckpointStore::RestoreFn& restore);

  /// Restore with no decoding: returns the parsed document on a hit.
  std::optional<ArtifactReader> TryLoad(const std::string& stage);

  /// Builds `stage`'s document, mixes its bytes into the chain, and
  /// best-effort persists it under the pre-store key. Failures are
  /// counted (ckpt.stage_store_failures) and swallowed — the run continues
  /// and the next run recomputes the stage.
  void Store(const std::string& stage, const CheckpointStore::BuildFn& build);
  /// Store of an already built document.
  void Store(const std::string& stage, const ArtifactWriter& doc);
  /// Store for a chain's last stage: builds and persists `stage`'s
  /// document under the same name and pre-store key as Store, but leaves
  /// the chain where it was, so a caller that keys nothing after it skips
  /// hashing the whole document.
  void Persist(const std::string& stage, const CheckpointStore::BuildFn& build);

 private:
  CheckpointStore store_;
  CheckpointChain chain_;
};

}  // namespace greater

#endif  // GREATER_CROSSTABLE_CHECKPOINT_H_
