#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/artifact_io.h"
#include "common/rng.h"
#include "lm/count_shard.h"
#include "lm/neural_lm.h"
#include "lm/ngram_lm.h"
#include "text/vocabulary.h"

namespace greater {
namespace {

// Builds a vocabulary + deterministic sequences of "a b c a b c ...".
struct TinyCorpus {
  Vocabulary vocab;
  TokenId a, b, c;
  std::vector<TokenSequence> sequences;

  TinyCorpus() {
    a = vocab.AddToken("a");
    b = vocab.AddToken("b");
    c = vocab.AddToken("c");
    for (int i = 0; i < 20; ++i) {
      sequences.push_back({a, b, c, a, b, c});
    }
  }
};

// ---------- NGramLm ----------

TEST(NGramLmTest, FitValidatesInput) {
  NGramLm lm(10);
  EXPECT_FALSE(lm.Fit({}).ok());
  EXPECT_FALSE(lm.Fit({{100}}).ok());  // token id out of range
  EXPECT_TRUE(lm.Fit({{1, 2, 3}}).ok());
  EXPECT_FALSE(lm.Fit({{1}}).ok());  // double fit
}

TEST(NGramLmTest, UnfittedDistributionIsUniform) {
  NGramLm lm(5);
  auto dist = lm.NextTokenDistribution({});
  for (double p : dist) EXPECT_DOUBLE_EQ(p, 0.2);
}

TEST(NGramLmTest, DistributionSumsToOne) {
  TinyCorpus corpus;
  NGramLm lm(corpus.vocab.size());
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  for (const TokenSequence& ctx :
       {TokenSequence{}, TokenSequence{corpus.a},
        TokenSequence{corpus.a, corpus.b}}) {
    auto dist = lm.NextTokenDistribution(ctx);
    double sum = 0.0;
    for (double p : dist) {
      sum += p;
      EXPECT_GE(p, 0.0);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(NGramLmTest, LearnsDeterministicPattern) {
  TinyCorpus corpus;
  NGramLm lm(corpus.vocab.size());
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  auto dist = lm.NextTokenDistribution({corpus.a});
  EXPECT_GT(dist[static_cast<size_t>(corpus.b)], 0.8);
  auto dist2 = lm.NextTokenDistribution({corpus.a, corpus.b});
  EXPECT_GT(dist2[static_cast<size_t>(corpus.c)], 0.8);
}

TEST(NGramLmTest, PredictsEosAtSequenceEnd) {
  TinyCorpus corpus;
  NGramLm lm(corpus.vocab.size());
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  // At the default order the context "c a b c" is only ever followed by
  // eos in the training data, so eos dominates; `a` picks up whatever the
  // shorter-context interpolation leaks in.
  auto dist = lm.NextTokenDistribution(
      {corpus.a, corpus.b, corpus.c, corpus.a, corpus.b, corpus.c});
  EXPECT_GT(dist[Vocabulary::kEosId], 0.5);
  EXPECT_GT(dist[Vocabulary::kEosId] + dist[static_cast<size_t>(corpus.a)],
            0.9);
}

TEST(NGramLmTest, PerplexityLowOnTrainingPattern) {
  TinyCorpus corpus;
  NGramLm lm(corpus.vocab.size());
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  double ppl = lm.Perplexity(corpus.sequences);
  EXPECT_LT(ppl, 2.0);
  EXPECT_GE(ppl, 1.0);
}

TEST(NGramLmTest, SamplingIsDeterministicGivenSeed) {
  TinyCorpus corpus;
  NGramLm lm(corpus.vocab.size());
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  Rng r1(42), r2(42);
  auto s1 = lm.SampleSequence({corpus.a}, 12, &r1);
  auto s2 = lm.SampleSequence({corpus.a}, 12, &r2);
  EXPECT_EQ(s1, s2);
}

TEST(NGramLmTest, SampleSequenceFollowsPattern) {
  TinyCorpus corpus;
  NGramLm lm(corpus.vocab.size());
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  Rng rng(1);
  auto seq = lm.SampleSequence({corpus.a}, 6, &rng);
  ASSERT_GE(seq.size(), 3u);
  EXPECT_EQ(seq[1], corpus.b);
  EXPECT_EQ(seq[2], corpus.c);
}

TEST(NGramLmTest, ConstrainedSamplingRespectsAllowList) {
  TinyCorpus corpus;
  NGramLm lm(corpus.vocab.size());
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  Rng rng(3);
  std::vector<TokenId> allowed = {corpus.c};
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(lm.SampleNext({corpus.a}, &rng, 1.0, &allowed), corpus.c);
  }
}

TEST(NGramLmTest, ConstrainedSamplingZeroMassFallsBackUniform) {
  TinyCorpus corpus;
  NGramLm lm(corpus.vocab.size());
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  Rng rng(3);
  // Empty allow-list -> eos sentinel.
  std::vector<TokenId> empty;
  EXPECT_EQ(lm.SampleNext({corpus.a}, &rng, 1.0, &empty), Vocabulary::kEosId);
}

TEST(NGramLmTest, ArgmaxNext) {
  TinyCorpus corpus;
  NGramLm lm(corpus.vocab.size());
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  EXPECT_EQ(lm.ArgmaxNext({corpus.a}), corpus.b);
}

TEST(NGramLmTest, TemperatureSharpensDistribution) {
  TinyCorpus corpus;
  // Add some noise sequences so the pattern is not fully deterministic.
  corpus.sequences.push_back({corpus.a, corpus.c});
  NGramLm lm(corpus.vocab.size());
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  Rng cold(5);
  int b_count_cold = 0;
  for (int i = 0; i < 200; ++i) {
    if (lm.SampleNext({corpus.a}, &cold, 0.1) == corpus.b) ++b_count_cold;
  }
  // Near-greedy at low temperature.
  EXPECT_GT(b_count_cold, 190);
}

TEST(NGramLmTest, PriorCorpusInfluencesBackoff) {
  TinyCorpus corpus;
  NGramLm::Options options;
  options.prior_weight = 1.0;
  NGramLm with_prior(corpus.vocab.size(), options);
  // Prior teaches a -> c, conflicting with the training a -> b.
  std::vector<TokenSequence> prior(20, TokenSequence{corpus.a, corpus.c});
  ASSERT_TRUE(with_prior.SetPriorCorpus(prior).ok());
  ASSERT_TRUE(with_prior.Fit(corpus.sequences).ok());

  NGramLm without_prior(corpus.vocab.size());
  ASSERT_TRUE(without_prior.Fit(corpus.sequences).ok());

  double pc_with = with_prior.NextTokenDistribution({corpus.a})[
      static_cast<size_t>(corpus.c)];
  double pc_without = without_prior.NextTokenDistribution({corpus.a})[
      static_cast<size_t>(corpus.c)];
  EXPECT_GT(pc_with, pc_without);
}

TEST(NGramLmTest, SetPriorAfterFitFails) {
  TinyCorpus corpus;
  NGramLm lm(corpus.vocab.size());
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  EXPECT_FALSE(lm.SetPriorCorpus({{corpus.a}}).ok());
}

// Order sweep: every order must learn the deterministic pattern.
class NGramOrderTest : public testing::TestWithParam<size_t> {};

TEST_P(NGramOrderTest, LearnsPatternAtEveryOrder) {
  TinyCorpus corpus;
  NGramLm::Options options;
  options.order = GetParam();
  NGramLm lm(corpus.vocab.size(), options);
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  auto dist = lm.NextTokenDistribution({corpus.a});
  EXPECT_GT(dist[static_cast<size_t>(corpus.b)], 0.5)
      << "order=" << GetParam();
  double sum = 0.0;
  for (double p : dist) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Orders, NGramOrderTest,
                         testing::Values(2, 3, 4, 5, 6, 7, 8));

// ---------- NGramLm artifact bytes ----------

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x00000100000001b3ull;
  }
  return h;
}

// Deterministic corpus from a 64-bit LCG (no <random> distribution, whose
// integer mapping is library-defined). Each token depends on the previous
// one plus a little noise, so contexts of every length repeat with varied
// successor sets. Ids stay in [3, vocab).
std::vector<TokenSequence> LcgCorpus(uint64_t seed, size_t count,
                                     TokenId vocab) {
  uint64_t state = seed;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  std::vector<TokenSequence> corpus;
  for (size_t s = 0; s < count; ++s) {
    TokenSequence seq;
    size_t len = 3 + next() % 14;
    TokenId prev = static_cast<TokenId>(3 + next() % (vocab - 3));
    for (size_t i = 0; i < len; ++i) {
      TokenId id = static_cast<TokenId>(
          3 + (prev * 7 + static_cast<TokenId>(next() % 4)) % (vocab - 3));
      seq.push_back(id);
      prev = id;
    }
    corpus.push_back(std::move(seq));
  }
  return corpus;
}

NGramLm FitLcgModel(size_t order, double prior_weight) {
  constexpr TokenId kVocab = 40;
  NGramLm::Options options;
  options.order = order;
  options.prior_weight = prior_weight;
  NGramLm lm(kVocab, options);
  if (prior_weight > 0.0) {
    EXPECT_TRUE(lm.SetPriorCorpus(LcgCorpus(7, 60, kVocab)).ok());
  }
  EXPECT_TRUE(lm.Fit(LcgCorpus(2026, 300, kVocab)).ok());
  return lm;
}

// Artifact bytes pinned before the count/lookup tables were rewritten as
// flat arrays: the storage layout must never leak into the byte stream,
// and the prior-weight path must keep its floating-point rounding history.
TEST(NGramLmTest, SerializedBytesArePinned) {
  struct Pin {
    size_t order;
    double prior_weight;
    uint64_t fnv;
  };
  const Pin pins[] = {
      {2, 0.0, 0x5ae462444c474d03ull},
      {2, 0.5, 0x3fc41f7bda540040ull},
      {5, 0.0, 0xc7a3f0b90c5e64a1ull},
      {5, 0.5, 0xa9fd55be5635a18eull},
      {8, 0.0, 0x9007e1979d94a9b8ull},
      {8, 0.5, 0xe0479884d1b419b8ull},
      // 0.3 is not dyadic: n * 0.3 rounds, so these two pins also fix the
      // order of the prior and unit-count additions on each slot.
      {5, 0.3, 0xf40bee527949a31dull},
      {8, 0.3, 0xd62a8d47115e7665ull},
  };
  for (const Pin& pin : pins) {
    NGramLm lm = FitLcgModel(pin.order, pin.prior_weight);
    std::string bytes = lm.SerializeBinary();
    EXPECT_EQ(Fnv1a(bytes), pin.fnv)
        << "order=" << pin.order << " prior_weight=" << pin.prior_weight
        << " bytes=" << bytes.size() << " fnv=0x" << std::hex
        << Fnv1a(bytes);
  }
}

// A model written by the hash-map implementation this layout replaced:
// order 3, vocab 6, prior_weight 0.3 over prior {{3, 5}, {4}}, fitted on
// {{3, 4, 5}, {3, 4, 4, 5}, {5}}. It must load, re-serialize to the same
// bytes, and answer exactly as a model fitted today.
TEST(NGramLmTest, LoadsArtifactWrittenByHashMapLayout) {
  const std::string hex =
      "47525452415254310100000010000000677265617465722e6e6772616d5f6c6d"
      "0100000001000000050000006d6f64656c450200000000000006000000000000"
      "000300000000000000333333333333d33f010300000001000000000000000000"
      "000000000000000029400400000002000000cdcccccccccc0c40030000006666"
      "666666660240040000006666666666660a40050000006666666666660a400400"
      "0000000000000100000001000000cdcccccccccc0c4003000000030000006666"
      "66666666024004000000333333333333d33f05000000000000000000f03f0100"
      "0000030000006666666666660240020000000400000000000000000000400500"
      "0000333333333333d33f01000000040000006666666666660a40030000000200"
      "0000333333333333d33f04000000000000000000f03f05000000000000000000"
      "004001000000050000006666666666660a400100000002000000666666666666"
      "0a40070000000000000002000000010000000300000066666666666602400200"
      "000004000000000000000000004005000000333333333333d33f020000000100"
      "000004000000333333333333d33f0100000002000000333333333333d33f0200"
      "00000100000005000000000000000000f03f0100000002000000000000000000"
      "f03f020000000300000004000000000000000000004002000000040000000000"
      "00000000f03f05000000000000000000f03f0200000003000000050000003333"
      "33333333d33f0100000002000000333333333333d33f02000000040000000400"
      "0000000000000000f03f0100000005000000000000000000f03f020000000400"
      "00000500000000000000000000400100000002000000000000000000004028b9"
      "56fe";
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  NGramLm loaded(1);
  ASSERT_TRUE(loaded.DeserializeBinary(bytes).ok());
  EXPECT_EQ(loaded.SerializeBinary(), bytes);

  NGramLm::Options options;
  options.order = 3;
  options.prior_weight = 0.3;
  NGramLm fitted(6, options);
  ASSERT_TRUE(fitted.SetPriorCorpus({{3, 5}, {4}}).ok());
  ASSERT_TRUE(fitted.Fit({{3, 4, 5}, {3, 4, 4, 5}, {5}}).ok());
  EXPECT_EQ(fitted.SerializeBinary(), bytes);
  for (const TokenSequence& ctx :
       {TokenSequence{}, TokenSequence{3}, TokenSequence{3, 4},
        TokenSequence{4, 4}, TokenSequence{5, 5, 5}}) {
    EXPECT_EQ(loaded.NextTokenDistribution(ctx),
              fitted.NextTokenDistribution(ctx));
  }
}

TEST(NGramLmTest, SaveLoadRoundTripKeepsBytesAndDistributions) {
  for (double prior_weight : {0.0, 0.3}) {
    NGramLm lm = FitLcgModel(8, prior_weight);
    std::string path = testing::TempDir() + "ngram_round_trip.bin";
    ASSERT_TRUE(lm.Save(path).ok());
    NGramLm loaded(1);
    ASSERT_TRUE(loaded.Load(path).ok());
    EXPECT_EQ(loaded.SerializeBinary(), lm.SerializeBinary());
    EXPECT_EQ(loaded.num_contexts(), lm.num_contexts());
    EXPECT_EQ(loaded.num_successors(), lm.num_successors());
    for (const TokenSequence& ctx :
         LcgCorpus(99, 8, static_cast<TokenId>(lm.vocab_size()))) {
      EXPECT_EQ(loaded.NextTokenDistribution(ctx),
                lm.NextTokenDistribution(ctx));
    }
  }
}

// The restricted and single-token paths probe sorted successor spans;
// they must match a gather of the full distribution bit for bit whatever
// the candidate order: ascending, descending, shuffled, with repeats and
// with ids outside the vocabulary.
TEST(NGramLmTest, RestrictedWeightsMatchGatherForAnyCandidateOrder) {
  NGramLm lm = FitLcgModel(5, 0.3);
  const auto vocab = static_cast<TokenId>(lm.vocab_size());
  std::vector<TokenId> ascending;
  for (TokenId id = 0; id < vocab; ++id) ascending.push_back(id);
  std::vector<TokenId> descending(ascending.rbegin(), ascending.rend());
  std::vector<TokenId> mixed = {17, 3, 39, 2, 17, -1, 25, vocab, 4, 4, 38, 0};
  std::vector<double> weights;
  for (const TokenSequence& ctx : LcgCorpus(5, 12, vocab)) {
    for (size_t len = 0; len <= ctx.size(); len += 3) {
      TokenSequence prefix(ctx.begin(), ctx.begin() + len);
      std::vector<double> dist = lm.NextTokenDistribution(prefix);
      for (const std::vector<TokenId>* candidates :
           {&ascending, &descending, &mixed}) {
        lm.NextTokenWeightsRestricted(prefix, *candidates, nullptr, &weights);
        ASSERT_EQ(weights.size(), candidates->size());
        for (size_t i = 0; i < candidates->size(); ++i) {
          TokenId id = (*candidates)[i];
          bool valid = id >= 0 && id < vocab;
          EXPECT_EQ(weights[i], valid ? dist[static_cast<size_t>(id)] : 0.0)
              << "candidate " << id;
          if (valid) {
            EXPECT_EQ(lm.TokenLogProb(prefix, id, nullptr),
                      std::log(std::max(dist[static_cast<size_t>(id)],
                                        1e-300)));
          }
        }
      }
    }
  }
}

// ---------- NGramLm: crafted artifacts ----------

// Hand-built "greater.ngram_lm" artifacts: the payload layout written
// field by field (vocab, order, prior weight, fitted, levels; per context
// its length, ids oldest first, total, and (token, count) successors), so
// one test can plant exactly one defect in an otherwise valid model.
struct CraftedContext {
  std::vector<uint32_t> ids;
  double total;
  std::vector<std::pair<uint32_t, double>> successors;
};
using CraftedLevels = std::vector<std::vector<CraftedContext>>;

std::string CraftNGramArtifact(uint64_t vocab, const CraftedLevels& levels) {
  ByteWriter w;
  w.PutU64(vocab);
  w.PutU64(levels.size());
  w.PutF64(0.0);
  w.PutBool(true);
  w.PutU32(static_cast<uint32_t>(levels.size()));
  for (const std::vector<CraftedContext>& level : levels) {
    w.PutU64(level.size());
    for (const CraftedContext& ctx : level) {
      w.PutU32(static_cast<uint32_t>(ctx.ids.size()));
      for (uint32_t id : ctx.ids) w.PutU32(id);
      w.PutF64(ctx.total);
      w.PutU32(static_cast<uint32_t>(ctx.successors.size()));
      for (const auto& [token, count] : ctx.successors) {
        w.PutU32(token);
        w.PutF64(count);
      }
    }
  }
  ArtifactWriter doc("greater.ngram_lm", 1);
  doc.AddChunk("model", std::move(w).Take());
  return doc.Finish();
}

// Valid order-2 model over vocab 4 (bos 1, eos 2, one real token 3).
CraftedLevels ValidCraftedLevels() {
  return {
      {{{}, 3.0, {{2, 1.0}, {3, 2.0}}}},
      {{{1}, 1.0, {{3, 1.0}}}, {{3}, 2.0, {{2, 1.0}, {3, 1.0}}}},
  };
}

TEST(NGramLmTest, CraftedValidArtifactLoads) {
  NGramLm lm(1);
  ASSERT_TRUE(
      lm.DeserializeBinary(CraftNGramArtifact(4, ValidCraftedLevels())).ok());
  EXPECT_EQ(lm.num_contexts(), 3u);
  EXPECT_EQ(lm.num_successors(), 5u);
  std::vector<double> dist = lm.NextTokenDistribution({3});
  double sum = 0.0;
  for (double p : dist) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(NGramLmTest, CorruptArtifactsFailWithDataLoss) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* name;
    std::function<void(CraftedLevels*)> plant;
  };
  const Case cases[] = {
      // The heap overflow this guards: successor 1000 in a vocab of 4.
      {"successor id out of range",
       [](CraftedLevels* l) { (*l)[1][1].successors[1].first = 1000; }},
      {"context id out of range",
       [](CraftedLevels* l) { (*l)[1][1].ids = {4}; }},
      {"context length differs from level",
       [](CraftedLevels* l) { (*l)[1][1].ids = {1, 3}; }},
      {"unsorted contexts",
       [](CraftedLevels* l) { std::swap((*l)[1][0], (*l)[1][1]); }},
      {"duplicate contexts", [](CraftedLevels* l) { (*l)[1][1].ids = {1}; }},
      {"duplicate empty context",
       [](CraftedLevels* l) { (*l)[0].push_back((*l)[0][0]); }},
      {"unsorted successors",
       [](CraftedLevels* l) {
         std::swap((*l)[1][1].successors[0], (*l)[1][1].successors[1]);
       }},
      {"duplicate successors",
       [](CraftedLevels* l) { (*l)[1][1].successors[1].first = 2; }},
      {"no successors", [](CraftedLevels* l) { (*l)[1][0].successors = {}; }},
      {"missing empty-context suffix", [](CraftedLevels* l) { (*l)[0] = {}; }},
      {"missing one-shorter suffix",
       [](CraftedLevels* l) {
         // Order 3: context (3, 1) needs suffix (1); drop it.
         l->push_back({{{3, 3}, 1.0, {{2, 1.0}}}});
         (*l)[1].erase((*l)[1].begin());
         (*l)[2][0].ids = {3, 1};
       }},
      {"NaN total", [kNaN](CraftedLevels* l) { (*l)[1][0].total = kNaN; }},
      {"infinite total", [kInf](CraftedLevels* l) { (*l)[0][0].total = kInf; }},
      {"zero total", [](CraftedLevels* l) { (*l)[1][0].total = 0.0; }},
      {"negative total", [](CraftedLevels* l) { (*l)[1][0].total = -2.0; }},
      {"NaN count",
       [kNaN](CraftedLevels* l) { (*l)[0][0].successors[0].second = kNaN; }},
      {"zero count",
       [](CraftedLevels* l) { (*l)[1][1].successors[0].second = 0.0; }},
      {"negative count",
       [](CraftedLevels* l) { (*l)[1][1].successors[0].second = -1.0; }},
  };
  for (const Case& c : cases) {
    CraftedLevels levels = ValidCraftedLevels();
    c.plant(&levels);
    NGramLm lm(7);
    Status status = lm.DeserializeBinary(CraftNGramArtifact(4, levels));
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << c.name << ": " << status;
    // A rejected artifact leaves the model untouched.
    EXPECT_FALSE(lm.fitted()) << c.name;
    EXPECT_EQ(lm.vocab_size(), 7u) << c.name;
  }
}

TEST(NGramLmTest, HugeVocabArtifactFailsWithDataLoss) {
  NGramLm lm(1);
  Status status =
      lm.DeserializeBinary(CraftNGramArtifact(uint64_t{1} << 40, {{}, {}}));
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
}

// ---------- CountShard ----------

// Brute-force n-gram counts of [bos, ...seq, eos]: every (context,
// target) pair at every context length 0 .. order-1 (contexts oldest
// token first), and every context's total.
struct BruteCounts {
  std::map<std::pair<TokenSequence, TokenId>, uint64_t> cells;
  std::map<TokenSequence, uint64_t> totals;

  BruteCounts(const std::vector<TokenSequence>& sequences, size_t order) {
    for (const TokenSequence& seq : sequences) {
      TokenSequence padded = {Vocabulary::kBosId};
      padded.insert(padded.end(), seq.begin(), seq.end());
      padded.push_back(Vocabulary::kEosId);
      for (size_t pos = 1; pos < padded.size(); ++pos) {
        for (size_t k = 0; k <= std::min(pos, order - 1); ++k) {
          TokenSequence context(padded.begin() + (pos - k),
                                padded.begin() + pos);
          ++cells[{context, padded[pos]}];
          ++totals[context];
        }
      }
    }
  }
};

// Checks a finished shard against the brute force: the same contexts, the
// same counted cells, equal counts and totals, and no cell with count 0
// but the <bos> edge.
void ExpectShardMatches(const CountShard& shard, const BruteCounts& brute,
                        const std::string& where) {
  EXPECT_EQ(shard.num_nodes(), brute.totals.size()) << where;
  auto node_of = [&shard](const TokenSequence& context) -> int64_t {
    int64_t node = 0;
    for (TokenId token : context) {
      node = shard.FindChild(static_cast<uint32_t>(node), token);
      if (node < 0) return -1;
    }
    return node;
  };
  for (const auto& [context, total] : brute.totals) {
    const int64_t node = node_of(context);
    ASSERT_GE(node, 0) << where << ": a context of length "
                       << context.size() << " is missing";
    EXPECT_EQ(shard.totals()[static_cast<size_t>(node)], total) << where;
  }
  for (const auto& [cell, count] : brute.cells) {
    const int64_t node = node_of(cell.first);
    ASSERT_GE(node, 0) << where;
    EXPECT_EQ(shard.SuccessorCount(static_cast<uint32_t>(node), cell.second),
              count)
        << where << ": context length " << cell.first.size() << " target "
        << cell.second;
  }
  size_t counted = 0;
  for (const auto& slot : shard.cells().slots()) {
    if (slot.key == CountShard::CellTable::kEmpty) continue;
    if (slot.value.count > 0) {
      ++counted;
    } else {
      EXPECT_EQ(slot.key, CountShard::CellTable::Pack(0, Vocabulary::kBosId))
          << where << ": a zero-count cell besides the <bos> edge";
    }
  }
  EXPECT_EQ(counted, brute.cells.size()) << where;
}

TEST(CountShardTest, CountsMatchBruteForceAndMergeInAnySplit) {
  constexpr TokenId kVocab = 9;
  Rng rng(4077);
  std::vector<TokenSequence> corpus = {{}, {kVocab - 1}, {4}, {}};
  for (size_t i = 0; i < 60; ++i) {
    // Lengths 0 .. 13: empty, one token, and longer than order 8. Ids span
    // the whole vocabulary, specials included, so a mid-sequence <bos> or
    // <eos> is an ordinary token.
    TokenSequence seq(static_cast<size_t>(rng.UniformInt(0, 13)));
    for (TokenId& id : seq) {
      id = static_cast<TokenId>(rng.UniformInt(0, kVocab - 1));
    }
    corpus.push_back(std::move(seq));
  }
  corpus.push_back(TokenSequence(20, kVocab - 1));  // one repeated token

  for (size_t order = 2; order <= kNGramMaxOrder; ++order) {
    const BruteCounts brute(corpus, order);
    CountShard one(order);
    ASSERT_TRUE(one.AccumulateChunk(corpus, kVocab).ok());
    EXPECT_EQ(one.sequences(), corpus.size());
    one.FinishCounts();
    ExpectShardMatches(one, brute, "order " + std::to_string(order));

    // Any split into k shards, folded in index order, counts the same.
    for (size_t k : {2u, 3u, 5u}) {
      std::vector<std::vector<TokenSequence>> parts(k);
      for (const TokenSequence& seq : corpus) {
        parts[rng.Index(k)].push_back(seq);
      }
      std::vector<CountShard> shards;
      for (size_t s = 0; s < k; ++s) {
        shards.emplace_back(order);
        ASSERT_TRUE(shards[s].AccumulateChunk(parts[s], kVocab).ok());
      }
      for (size_t s = 1; s < k; ++s) shards[0].Merge(std::move(shards[s]));
      EXPECT_EQ(shards[0].sequences(), corpus.size());
      shards[0].FinishCounts();
      ExpectShardMatches(shards[0], brute,
                         "order " + std::to_string(order) + " split " +
                             std::to_string(k));
    }
  }

  // Validation runs before counting: a bad id leaves the shard untouched.
  CountShard shard(5);
  EXPECT_EQ(shard.AccumulateChunk({{4, 5}, {kVocab}}, kVocab).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(shard.sequences(), 0u);
  EXPECT_EQ(shard.num_nodes(), 1u);
}

// ---------- NeuralLm ----------

TEST(NeuralLmTest, FitValidatesInput) {
  NeuralLm lm(10);
  EXPECT_FALSE(lm.Fit({}).ok());
  EXPECT_FALSE(lm.Fit({{42}}).ok());
}

TEST(NeuralLmTest, DistributionSumsToOne) {
  TinyCorpus corpus;
  NeuralLm::Options options;
  options.epochs = 2;
  NeuralLm lm(corpus.vocab.size(), options);
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  auto dist = lm.NextTokenDistribution({corpus.a});
  double sum = 0.0;
  for (double p : dist) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(NeuralLmTest, LearnsDeterministicPattern) {
  TinyCorpus corpus;
  NeuralLm::Options options;
  options.epochs = 30;
  options.context_window = 4;
  options.embed_dim = 8;
  options.hidden_dim = 16;
  NeuralLm lm(corpus.vocab.size(), options);
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  auto dist = lm.NextTokenDistribution({corpus.a});
  EXPECT_GT(dist[static_cast<size_t>(corpus.b)], 0.6);
  EXPECT_LT(lm.last_epoch_loss(), 1.0);
}

TEST(NeuralLmTest, TrainingReducesLoss) {
  TinyCorpus corpus;
  NeuralLm::Options short_run;
  short_run.epochs = 1;
  NeuralLm lm1(corpus.vocab.size(), short_run);
  ASSERT_TRUE(lm1.Fit(corpus.sequences).ok());

  NeuralLm::Options long_run;
  long_run.epochs = 20;
  NeuralLm lm2(corpus.vocab.size(), long_run);
  ASSERT_TRUE(lm2.Fit(corpus.sequences).ok());
  EXPECT_LT(lm2.last_epoch_loss(), lm1.last_epoch_loss());
}

TEST(NeuralLmTest, IdenticalTokensShareOneEmbedding) {
  // The GPT-2-analogue property the Data Semantic Enhancement System
  // exploits: statistics for a token live in ONE embedding row, shared by
  // every occurrence regardless of column of origin.
  NeuralLm lm(10);
  auto e5a = lm.EmbeddingOf(5);
  auto e5b = lm.EmbeddingOf(5);
  EXPECT_EQ(e5a, e5b);
  EXPECT_NE(lm.EmbeddingOf(5), lm.EmbeddingOf(6));
}

TEST(NeuralLmTest, DeterministicGivenSeed) {
  TinyCorpus corpus;
  NeuralLm::Options options;
  options.epochs = 3;
  options.seed = 99;
  NeuralLm lm1(corpus.vocab.size(), options);
  NeuralLm lm2(corpus.vocab.size(), options);
  ASSERT_TRUE(lm1.Fit(corpus.sequences).ok());
  ASSERT_TRUE(lm2.Fit(corpus.sequences).ok());
  EXPECT_EQ(lm1.NextTokenDistribution({corpus.a}),
            lm2.NextTokenDistribution({corpus.a}));
}

TEST(NeuralLmTest, PretrainingWarmStartsFromPrior) {
  TinyCorpus corpus;
  // Prior teaches the pattern; fine-tune with very few epochs.
  NeuralLm::Options options;
  options.epochs = 1;
  options.pretrain_epochs = 25;
  NeuralLm with_prior(corpus.vocab.size(), options);
  ASSERT_TRUE(with_prior.SetPriorCorpus(corpus.sequences).ok());
  ASSERT_TRUE(with_prior.Fit(corpus.sequences).ok());

  NeuralLm::Options no_prior = options;
  no_prior.pretrain_epochs = 0;
  NeuralLm without(corpus.vocab.size(), no_prior);
  ASSERT_TRUE(without.Fit(corpus.sequences).ok());

  EXPECT_LT(with_prior.last_epoch_loss(), without.last_epoch_loss());
}

TEST(NeuralLmTest, DoubleFitFails) {
  TinyCorpus corpus;
  NeuralLm::Options options;
  options.epochs = 1;
  NeuralLm lm(corpus.vocab.size(), options);
  ASSERT_TRUE(lm.Fit(corpus.sequences).ok());
  EXPECT_FALSE(lm.Fit(corpus.sequences).ok());
}

}  // namespace
}  // namespace greater
