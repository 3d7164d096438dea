// Durability walkthrough: train a synthesizer, persist it as a checksummed
// artifact bundle, reload it in a "fresh process" and show the
// bitwise-identical sample stream; then run the multi-table pipeline twice
// against a checkpoint directory to demonstrate stage-level resume. Exits
// non-zero if either result differs from the original, so the
// `example_durable_synthesis` ctest fails on a mismatch.
// Pass --batch-rows=N to route every sampling call through the lockstep
// batched decode engine — both demonstrations hold unchanged because
// batched output is bitwise-identical to per-row output.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "crosstable/pipeline.h"
#include "datagen/digix.h"
#include "obs/metrics.h"
#include "synth/great_synthesizer.h"
#include "tabular/csv.h"

using namespace greater;

namespace {

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name).Value();
}

void CheckOk(const Status& status) {
  if (!status.ok()) internal::DieOnBadResult(status);
}

}  // namespace

int main(int argc, char** argv) {
  size_t batch_rows = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--batch-rows=", 13) == 0) {
      batch_rows =
          static_cast<size_t>(std::strtoull(argv[i] + 13, nullptr, 10));
    } else if (std::strcmp(argv[i], "--batch-rows") == 0 && i + 1 < argc) {
      batch_rows = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr, "usage: %s [--batch-rows N]\n", argv[0]);
      return 2;
    }
  }

  // Per process, so concurrent runs (e.g. the ctest in two build trees)
  // do not delete each other's files.
  std::filesystem::path work =
      std::filesystem::temp_directory_path() /
      ("greater_durable_example_" + std::to_string(getpid()));
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);

  Rng data_rng(42);
  DigixOptions data_options;
  data_options.num_users = 32;
  DigixDataset data =
      DigixGenerator(data_options).Generate(&data_rng).ValueOrDie();

  // ---- 1. Save -> Load -> identical samples ----------------------------
  std::printf("== durable model bundle ==\n");
  GreatSynthesizer::Options options;
  options.encoder.permutations_per_row = 2;
  options.batch_rows = batch_rows;
  GreatSynthesizer synth(options);
  Rng fit_rng(7);
  CheckOk(synth.Fit(data.ads, &fit_rng));

  std::string bundle = (work / "ads_model.bin").string();
  CheckOk(synth.Save(bundle));
  std::printf("saved %s (%ju bytes)\n", bundle.c_str(),
              static_cast<uintmax_t>(std::filesystem::file_size(bundle)));

  GreatSynthesizer restored;  // stands in for a fresh process
  CheckOk(restored.Load(bundle));
  Rng rng_a(99), rng_b(99);
  Table from_memory = synth.Sample(8, &rng_a).ValueOrDie();
  Table from_disk = restored.Sample(8, &rng_b).ValueOrDie();
  const bool reload_identical = from_memory == from_disk;
  std::printf("same seed, in-memory vs. reloaded: %s\n\n",
              reload_identical ? "bitwise identical" : "MISMATCH (bug!)");

  // ---- 2. Stage-level pipeline resume ----------------------------------
  std::printf("== pipeline checkpointing ==\n");
  PipelineOptions pipeline_options;
  pipeline_options.synth.encoder.permutations_per_row = 2;
  pipeline_options.batch_rows = batch_rows;
  pipeline_options.checkpoint_dir = (work / "ckpt").string();
  MultiTablePipeline pipeline(pipeline_options);

  Rng run1_rng(1);
  PipelineResult cold =
      pipeline.Run(data.ads, data.feeds, "user_id", &run1_rng).ValueOrDie();
  std::printf("cold run: %zu synthetic rows, %ju stage checkpoints stored\n",
              cold.synthetic_flat.num_rows(),
              static_cast<uintmax_t>(CounterValue("ckpt.stage_stores")));

  // Rerunning with the same inputs resumes every stage from disk — a
  // crashed job restarted with the same configuration does exactly this.
  uint64_t hits_before = CounterValue("ckpt.stage_hits");
  Rng run2_rng(1);
  PipelineResult warm =
      pipeline.Run(data.ads, data.feeds, "user_id", &run2_rng).ValueOrDie();
  const bool resume_identical = cold.synthetic_flat == warm.synthetic_flat;
  std::printf("warm run: %ju stage hits, output %s\n",
              static_cast<uintmax_t>(CounterValue("ckpt.stage_hits") -
                                     hits_before),
              resume_identical ? "byte-identical to cold run"
                               : "MISMATCH (bug!)");

  std::filesystem::remove_all(work);
  return reload_identical && resume_identical ? 0 : 1;
}
