#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "crosstable/contextual.h"
#include "crosstable/flatten.h"
#include "crosstable/independence.h"
#include "datagen/digix.h"
#include "tabular/csv.h"

namespace greater {
namespace {

DigixDataset Generate(uint64_t seed = 1234) {
  Rng rng(seed);
  DigixGenerator gen;
  return gen.Generate(&rng).ValueOrDie();
}

TEST(DigixTest, SchemasMatchThePaperShape) {
  DigixDataset data = Generate();
  EXPECT_TRUE(data.ads.schema().HasField("user_id"));
  EXPECT_TRUE(data.ads.schema().HasField("gender"));
  EXPECT_TRUE(data.ads.schema().HasField("label"));
  EXPECT_TRUE(data.ads.schema().HasField("e_et"));
  EXPECT_TRUE(data.feeds.schema().HasField("i_docid"));
  EXPECT_TRUE(data.feeds.schema().HasField("i_entities"));
  EXPECT_TRUE(data.feeds.schema().HasField("his_cat_seq"));
  // Identifier columns carry the identifier semantic (Sec. 4.1.2).
  size_t e_et = data.ads.schema().FieldIndex("e_et").ValueOrDie();
  EXPECT_EQ(data.ads.schema().field(e_et).semantic,
            SemanticType::kIdentifier);
}

TEST(DigixTest, TrialSizeInPaperRegime) {
  DigixDataset data = Generate();
  // "each with over 750 observations" (Sec. 4.1.1) across the two tables.
  EXPECT_GT(data.ads.num_rows() + data.feeds.num_rows(), 500u);
  EXPECT_LT(data.ads.num_rows() + data.feeds.num_rows(), 3000u);
}

TEST(DigixTest, ClickthroughRateNearTarget) {
  // Aggregate over several trials for a stable estimate.
  Rng rng(7);
  DigixGenerator gen;
  size_t clicks = 0, rows = 0;
  for (int t = 0; t < 10; ++t) {
    Rng trial = rng.Fork();
    auto data = gen.Generate(&trial).ValueOrDie();
    size_t label = data.ads.schema().FieldIndex("label").ValueOrDie();
    for (size_t r = 0; r < data.ads.num_rows(); ++r) {
      rows += 1;
      clicks += static_cast<size_t>(data.ads.at(r, label).as_int());
    }
  }
  double ctr = static_cast<double>(clicks) / static_cast<double>(rows);
  EXPECT_GT(ctr, 0.005);
  EXPECT_LT(ctr, 0.08);  // boosted above base 1.55% by the planted signal
}

TEST(DigixTest, GenderAgeResidenceDomains) {
  DigixDataset data = Generate();
  size_t gender = data.ads.schema().FieldIndex("gender").ValueOrDie();
  size_t age = data.ads.schema().FieldIndex("age").ValueOrDie();
  size_t residence = data.ads.schema().FieldIndex("residence").ValueOrDie();
  for (size_t r = 0; r < data.ads.num_rows(); ++r) {
    int64_t g = data.ads.at(r, gender).as_int();
    EXPECT_TRUE(g == 2 || g == 3 || g == 4);
    int64_t a = data.ads.at(r, age).as_int();
    EXPECT_GE(a, 2);
    EXPECT_LE(a, 8);
    int64_t res = data.ads.at(r, residence).as_int();
    EXPECT_GE(res, 1);
    EXPECT_LE(res, 71);
  }
}

TEST(DigixTest, EtIsTwelveDigitTimestamp) {
  DigixDataset data = Generate();
  size_t e_et = data.ads.schema().FieldIndex("e_et").ValueOrDie();
  for (size_t r = 0; r < std::min<size_t>(20, data.ads.num_rows()); ++r) {
    const std::string& et = data.ads.at(r, e_et).as_string();
    ASSERT_EQ(et.size(), 12u);
    EXPECT_EQ(et.substr(0, 4), "2022");
  }
}

TEST(DigixTest, HistorySequencesAreCaretJoined) {
  DigixDataset data = Generate();
  size_t seq = data.feeds.schema().FieldIndex("his_cat_seq").ValueOrDie();
  bool any_caret = false;
  for (size_t r = 0; r < data.feeds.num_rows(); ++r) {
    any_caret = any_caret ||
                data.feeds.at(r, seq).as_string().find('^') !=
                    std::string::npos;
  }
  EXPECT_TRUE(any_caret);
}

TEST(DigixTest, DemographicsAreContextual) {
  DigixDataset data = Generate();
  auto ctx = FindContextualColumns(data.ads, "user_id").ValueOrDie();
  std::set<std::string> ctx_set(ctx.begin(), ctx.end());
  for (const char* expected :
       {"gender", "age", "residence", "city_rank", "device_name", "career"}) {
    EXPECT_TRUE(ctx_set.count(expected) > 0) << expected;
  }
  // Per-impression columns are not contextual.
  EXPECT_EQ(ctx_set.count("adv_prim_id"), 0u);
  EXPECT_EQ(ctx_set.count("label"), 0u);
}

TEST(DigixTest, SharedSubjectsAcrossTables) {
  DigixDataset data = Generate();
  auto ads_users = data.ads.DistinctValues("user_id").ValueOrDie();
  auto feeds_users = data.feeds.DistinctValues("user_id").ValueOrDie();
  EXPECT_EQ(ads_users.size(), feeds_users.size());
  std::set<Value> a(ads_users.begin(), ads_users.end());
  for (const Value& u : feeds_users) EXPECT_TRUE(a.count(u) > 0);
}

TEST(DigixTest, PlantedIndependenceIsDetectable) {
  // The ground-truth independent columns must be discoverable by the
  // median-threshold up-and-stay rule on the flattened child features.
  DigixDataset data = Generate(42);
  auto c1 = data.ads.DropColumns({"e_et"}).ValueOrDie();
  auto c2 = data.feeds.DropColumns({"i_docid", "i_entities"}).ValueOrDie();
  auto s1 = SplitByContextualVariables(c1, "user_id").ValueOrDie();
  auto s2 = SplitByContextualVariables(c2, "user_id").ValueOrDie();
  Table flat = DirectFlatten(s1.child, s2.child, "user_id").ValueOrDie();
  Table features = flat.DropColumns({"user_id"}).ValueOrDie();
  auto assoc = ComputeAssociationMatrix(features).ValueOrDie();
  auto result =
      ThresholdSeparation(assoc, MedianAssociation(assoc)).ValueOrDie();
  std::set<std::string> independent(result.independent.begin(),
                                    result.independent.end());
  for (const auto& expected :
       DigixGenerator::GroundTruthIndependentColumns()) {
    EXPECT_TRUE(independent.count(expected) > 0) << expected;
  }
  // The strongly dependent block must never be declared independent.
  for (const char* dependent :
       {"adv_prim_id", "creat_type_cd", "i_cat", "his_cat_seq"}) {
    EXPECT_EQ(independent.count(dependent), 0u) << dependent;
  }
}

TEST(DigixTest, CrossTableDependencePlanted) {
  DigixDataset data = Generate(42);
  auto c1 = data.ads.DropColumns({"e_et"}).ValueOrDie();
  auto c2 = data.feeds.DropColumns({"i_docid", "i_entities"}).ValueOrDie();
  auto s1 = SplitByContextualVariables(c1, "user_id").ValueOrDie();
  auto s2 = SplitByContextualVariables(c2, "user_id").ValueOrDie();
  Table flat = DirectFlatten(s1.child, s2.child, "user_id").ValueOrDie();
  Table features = flat.DropColumns({"user_id"}).ValueOrDie();
  auto assoc = ComputeAssociationMatrix(features).ValueOrDie();
  size_t adv = 0, icat = 0;
  for (size_t i = 0; i < assoc.names.size(); ++i) {
    if (assoc.names[i] == "adv_prim_id") adv = i;
    if (assoc.names[i] == "i_cat") icat = i;
  }
  // adv_prim_id (ads table) and i_cat (feeds table) share the interest
  // latent: the cross-table signal GReaTER exists to preserve.
  EXPECT_GT(assoc.values(adv, icat), 0.25);
}

TEST(DigixTest, CrossTableStrengthZeroDecouplesChildren) {
  DigixOptions options;
  options.cross_table_strength = 0.0;
  DigixGenerator gen(options);
  Rng rng(42);
  auto data = gen.Generate(&rng).ValueOrDie();
  auto c1 = data.ads.DropColumns({"e_et"}).ValueOrDie();
  auto c2 = data.feeds.DropColumns({"i_docid", "i_entities"}).ValueOrDie();
  auto s1 = SplitByContextualVariables(c1, "user_id").ValueOrDie();
  auto s2 = SplitByContextualVariables(c2, "user_id").ValueOrDie();
  Table flat = DirectFlatten(s1.child, s2.child, "user_id").ValueOrDie();
  Table features = flat.DropColumns({"user_id"}).ValueOrDie();
  auto assoc = ComputeAssociationMatrix(features).ValueOrDie();
  size_t adv = 0, icat = 0;
  for (size_t i = 0; i < assoc.names.size(); ++i) {
    if (assoc.names[i] == "adv_prim_id") adv = i;
    if (assoc.names[i] == "i_cat") icat = i;
  }
  EXPECT_LT(assoc.values(adv, icat), 0.25);
}

TEST(DigixTest, TrialsAreIndependentStreams) {
  Rng rng(5);
  DigixGenerator gen;
  auto trials = gen.GenerateTrials(3, &rng).ValueOrDie();
  ASSERT_EQ(trials.size(), 3u);
  EXPECT_FALSE(trials[0].ads == trials[1].ads);
  EXPECT_FALSE(trials[1].ads == trials[2].ads);
}

TEST(DigixTest, DeterministicGivenSeed) {
  auto a = Generate(99);
  auto b = Generate(99);
  EXPECT_TRUE(a.ads == b.ads);
  EXPECT_TRUE(a.feeds == b.feeds);
}

TEST(DigixTest, GenerateBytesPinnedAtSeed2026) {
  // FNV-1a (64-bit) of both rendered tables. The hash predates clamping
  // the history-pool Bernoulli probability to 1: libstdc++'s
  // bernoulli_distribution makes one canonical draw and returns true for
  // any p >= 1, so the clamp must not move a byte.
  Rng rng(2026);
  DigixDataset data = DigixGenerator().Generate(&rng).ValueOrDie();
  std::string bytes = WriteCsvString(data.ads) + WriteCsvString(data.feeds);
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x00000100000001b3ull;
  }
  EXPECT_EQ(h, 0x607c6a02a51fa705ull);
}

TEST(DigixTest, OptionsValidated) {
  DigixOptions bad;
  bad.num_users = 0;
  Rng rng(1);
  EXPECT_FALSE(DigixGenerator(bad).Generate(&rng).ok());
  DigixOptions bad_ctr;
  bad_ctr.ctr = 0.0;
  EXPECT_FALSE(DigixGenerator(bad_ctr).Generate(&rng).ok());
}

TEST(DigixTest, IdentifierColumnsOptional) {
  DigixOptions options;
  options.include_identifier_columns = false;
  Rng rng(1);
  auto data = DigixGenerator(options).Generate(&rng).ValueOrDie();
  EXPECT_FALSE(data.ads.schema().HasField("e_et"));
  EXPECT_FALSE(data.feeds.schema().HasField("i_docid"));
}

}  // namespace
}  // namespace greater
