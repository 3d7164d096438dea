#include "synth/streaming_synthesis.h"

#include <string>
#include <string_view>
#include <utility>

#include "common/artifact_io.h"
#include "common/rng.h"
#include "crosstable/checkpoint.h"
#include "obs/span.h"

namespace greater {

Result<StreamingSynthesisResult> RunFromCsvStreaming(
    const std::string& input_csv, const std::string& output_csv,
    size_t sample_rows, const StreamingSynthesisOptions& options) {
  Span span("synth.streaming_run");
  StreamingSynthesisResult result;

  // Schema pass (bounded memory). With a checkpoint dir this also fills
  // the shared chunk store, making the fit passes parse-free.
  FitStage::Options stage_options;
  stage_options.csv = options.csv;
  stage_options.stream = options.stream;
  stage_options.policy = options.ingest_policy;
  stage_options.checkpoint_dir = options.checkpoint_dir;
  GREATER_ASSIGN_OR_RETURN(FitStage fit_stage,
                           FitStage::Open(input_csv, stage_options));
  result.schema = fit_stage.schema();

  // The fitted model is a stage-grain checkpoint keyed on everything that
  // determines it: synthesizer options, fit seed, and the input-content
  // chain from the schema pass. A rerun killed after fit loads the model
  // and goes straight to emission.
  StageCheckpointer stage(options.checkpoint_dir);
  if (stage.enabled()) {
    ByteWriter fp;
    GreatSynthesizer::AppendOptionsTo(options.synthesizer, &fp);
    fp.PutU64(options.fit_seed);
    fp.PutU64(fit_stage.content_chain());
    stage.Mix(fp.bytes());
  }

  // DeserializeBinary commits only on success, so a model checkpoint that
  // does not decode leaves `model` untouched for the recompute.
  GreatSynthesizer model(options.synthesizer);
  const bool loaded =
      stage.Restore("oocore.model", [&](const ArtifactReader& doc) -> Status {
        GREATER_ASSIGN_OR_RETURN(std::string_view bytes, doc.Chunk("model"));
        return model.DeserializeBinary(bytes);
      });
  if (!loaded) {
    Rng fit_rng(options.fit_seed);
    GREATER_RETURN_NOT_OK(
        model.FitStreaming(fit_stage.ChunkSource(), &fit_rng));
    // Emission keys on the model's own fingerprint, not on the stage
    // chain, so nothing reads the chain past the model: persist it
    // without mixing the ~6 MB document in.
    stage.Persist("oocore.model", [&](ArtifactWriter* doc) -> Status {
      GREATER_ASSIGN_OR_RETURN(std::string bytes, model.SerializeBinary());
      doc->AddChunk("model", std::move(bytes));
      return Status::OK();
    });
  }
  result.model_from_checkpoint = loaded;
  result.ingest = fit_stage.report();
  result.input_rows = fit_stage.report().rows_out;

  SampleEmitOptions emit;
  emit.chunk_rows = options.emit_chunk_rows;
  emit.delimiter = options.csv.delimiter;
  emit.use_model_policy = true;
  emit.checkpoint_dir = options.checkpoint_dir;
  GREATER_ASSIGN_OR_RETURN(
      result.sample,
      SampleRowsToCsvStreaming(model, sample_rows, options.sample_seed,
                               output_csv, emit));
  return result;
}

}  // namespace greater
