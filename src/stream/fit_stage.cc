#include "stream/fit_stage.h"

#include <memory>
#include <optional>
#include <utility>

namespace greater {

namespace {

// Chunk-store label shared by the schema pass and every fit pass.
constexpr char kFitLabel[] = "oocore.fit";

}  // namespace

Result<FitStage> FitStage::Open(const std::string& csv_path,
                                const Options& options) {
  Schema schema;
  StreamIngestReport report;
  uint64_t content_chain = 0;
  GREATER_ASSIGN_OR_RETURN(
      schema, InferCsvSchemaStreaming(csv_path, options.csv, options.stream,
                                      options.policy, &report,
                                      {options.checkpoint_dir, kFitLabel},
                                      &content_chain));
  FitStage stage(csv_path, options, std::move(schema));
  stage.report_ = report;
  stage.content_chain_ = content_chain;
  return stage;
}

TableChunkSource FitStage::ChunkSource() {
  return [this]() -> Result<TableChunkStream> {
    // Each pass opens a fresh reader, which restarts the chunk chain over
    // the shared store. Its parse workers type every chunk under the
    // frozen schema, so a pull only moves the table out.
    GREATER_ASSIGN_OR_RETURN(
        std::shared_ptr<CsvChunkReader> reader,
        CsvChunkReader::OpenFile(csv_path_, options_.csv, options_.stream,
                                 options_.policy, &report_,
                                 {options_.checkpoint_dir, kFitLabel},
                                 nullptr, CsvChunkRows::kTyped, schema_));
    return TableChunkStream([reader]() -> Result<std::optional<Table>> {
      GREATER_ASSIGN_OR_RETURN(std::optional<CsvChunk> chunk, reader->Next());
      if (!chunk.has_value()) {
        GREATER_RETURN_NOT_OK(reader->Close());
        return std::optional<Table>();
      }
      return std::optional<Table>(std::move(chunk->table));
    });
  };
}

}  // namespace greater
