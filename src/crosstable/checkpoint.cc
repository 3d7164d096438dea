#include "crosstable/checkpoint.h"

#include <utility>

#include "tabular/table_serde.h"

namespace greater {

namespace {

std::string StageName(const std::string& stage) { return "stage." + stage; }

}  // namespace

StageCheckpointer::StageCheckpointer(std::string dir)
    : store_(std::move(dir), kKind, kVersion, "ckpt.stage") {}

void StageCheckpointer::Mix(std::string_view bytes) {
  if (enabled()) chain_.Mix(bytes);
}

void StageCheckpointer::MixTable(const Table& table) {
  if (!enabled()) return;
  ByteWriter w;
  AppendTable(table, &w);
  chain_.Mix(w.bytes());
}

std::string StageCheckpointer::StagePath(const std::string& stage) const {
  return store_.Path(StageName(stage), chain_.value());
}

bool StageCheckpointer::Restore(const std::string& stage,
                                const CheckpointStore::RestoreFn& restore) {
  return store_.Restore(StageName(stage), chain_.value(),
                        [&](const ArtifactReader& doc) -> Status {
                          GREATER_RETURN_NOT_OK(restore(doc));
                          chain_.Mix(doc.bytes());
                          return Status::OK();
                        });
}

std::optional<ArtifactReader> StageCheckpointer::TryLoad(
    const std::string& stage) {
  std::optional<ArtifactReader> loaded;
  Restore(stage, [&](const ArtifactReader& doc) {
    loaded = doc;
    return Status::OK();
  });
  return loaded;
}

void StageCheckpointer::Store(const std::string& stage,
                              const CheckpointStore::BuildFn& build) {
  if (!enabled()) return;
  // The file key is the pre-store chain — the position Restore probed at
  // before it missed.
  chain_.Mix(store_.Store(StageName(stage), chain_.value(), build));
}

void StageCheckpointer::Store(const std::string& stage,
                              const ArtifactWriter& doc) {
  Store(stage, [&](ArtifactWriter* out) {
    *out = doc;
    return Status::OK();
  });
}

void StageCheckpointer::Persist(const std::string& stage,
                                const CheckpointStore::BuildFn& build) {
  if (enabled()) store_.Store(StageName(stage), chain_.value(), build);
}

}  // namespace greater
