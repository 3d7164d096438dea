#include "datagen/digix.h"

#include <algorithm>
#include <cmath>

namespace greater {
namespace {

constexpr size_t kNumInterests = 10;   // latent interest categories
constexpr size_t kNumActivity = 5;     // latent engagement levels
constexpr size_t kNumAdCategories = 10;
constexpr size_t kNumFeedCategories = 10;

struct UserProfile {
  int64_t user_id;
  size_t interest;   // latent, never emitted
  size_t activity;   // latent, never emitted
  int64_t gender;    // 2 / 3 / 4
  int64_t age;       // 2 .. 8
  int64_t residence; // 1 .. num_residences
  int64_t city_rank; // 1 .. 5
  int64_t device;    // 1 .. 6
  int64_t career;    // 1 .. 9
  int64_t refresh;   // 1 .. 6 (feeds contextual)
  int64_t life_cycle;// 1 .. 4 (feeds contextual)
};

// Draws from a small categorical with one favored outcome: with
// probability `strength` returns `favored`, otherwise uniform over
// [1, cardinality].
int64_t Mixed(Rng* rng, double strength, int64_t favored,
              int64_t cardinality) {
  if (rng->Bernoulli(strength)) return favored;
  return rng->UniformInt(1, cardinality);
}

std::string MakeEt(Rng* rng) {
  // 12-digit yyyymmddHHMM within 2022, like the paper's e_et field.
  int64_t month = rng->UniformInt(1, 12);
  int64_t day = rng->UniformInt(1, 28);
  int64_t hour = rng->UniformInt(0, 23);
  int64_t minute = rng->UniformInt(0, 59);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "2022%02lld%02lld%02lld%02lld",
                static_cast<long long>(month), static_cast<long long>(day),
                static_cast<long long>(hour), static_cast<long long>(minute));
  return buf;
}

std::string MakeHexId(Rng* rng, size_t length) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) out += kHex[rng->Index(16)];
  return out;
}

}  // namespace

DigixGenerator::DigixGenerator(const DigixOptions& options)
    : options_(options) {}

const char* DigixGenerator::KeyColumn() { return "user_id"; }

std::vector<std::string> DigixGenerator::GroundTruthIndependentColumns() {
  return {"slot_id", "e_ch"};
}

Result<DigixDataset> DigixGenerator::Generate(Rng* rng) const {
  if (options_.num_users == 0) {
    return Status::Invalid("num_users must be positive");
  }
  if (options_.ctr <= 0.0 || options_.ctr >= 1.0) {
    return Status::Invalid("ctr must be in (0, 1)");
  }

  // ---- Schemas ----
  std::vector<Field> ads_fields = {
      {"user_id", ValueType::kInt, SemanticType::kCategorical},
      {"gender", ValueType::kInt, SemanticType::kCategorical},
      {"age", ValueType::kInt, SemanticType::kCategorical},
      {"residence", ValueType::kInt, SemanticType::kCategorical},
      {"city_rank", ValueType::kInt, SemanticType::kCategorical},
      {"device_name", ValueType::kInt, SemanticType::kCategorical},
      {"career", ValueType::kInt, SemanticType::kCategorical},
      {"adv_prim_id", ValueType::kInt, SemanticType::kCategorical},
      {"creat_type_cd", ValueType::kInt, SemanticType::kCategorical},
      {"slot_id", ValueType::kInt, SemanticType::kCategorical},
      {"net_type", ValueType::kInt, SemanticType::kCategorical},
      {"spread_app_id", ValueType::kInt, SemanticType::kCategorical},
      {"app_score", ValueType::kInt, SemanticType::kCategorical},
      {"label", ValueType::kInt, SemanticType::kCategorical},
  };
  std::vector<Field> feeds_fields = {
      {"user_id", ValueType::kInt, SemanticType::kCategorical},
      {"u_refresh_times", ValueType::kInt, SemanticType::kCategorical},
      {"u_feed_life_cycle", ValueType::kInt, SemanticType::kCategorical},
      {"i_cat", ValueType::kInt, SemanticType::kCategorical},
      {"i_dislike", ValueType::kInt, SemanticType::kCategorical},
      {"i_up_times", ValueType::kInt, SemanticType::kCategorical},
      {"i_refresh", ValueType::kInt, SemanticType::kCategorical},
      {"e_ch", ValueType::kInt, SemanticType::kCategorical},
      {"his_cat_seq", ValueType::kString, SemanticType::kCategorical},
  };
  if (options_.include_identifier_columns) {
    ads_fields.push_back({"e_et", ValueType::kString,
                          SemanticType::kIdentifier});
    feeds_fields.push_back({"i_docid", ValueType::kString,
                            SemanticType::kIdentifier});
    feeds_fields.push_back({"i_entities", ValueType::kString,
                            SemanticType::kIdentifier});
  }
  GREATER_ASSIGN_OR_RETURN(Schema ads_schema,
                           Schema::Make(std::move(ads_fields)));
  GREATER_ASSIGN_OR_RETURN(Schema feeds_schema,
                           Schema::Make(std::move(feeds_fields)));
  Table ads(std::move(ads_schema));
  Table feeds(std::move(feeds_schema));

  double s = options_.cross_table_strength;
  // Engaged subjects are more interest-focused: the strength of every
  // interest-driven feature scales with the activity latent. Because row
  // counts also scale with activity, cartesian flattening overweights the
  // strongly-correlated engaged rows quadratically, skewing what a
  // budget-limited model learns away from the subject-balanced truth —
  // the engaged-subject bias the cross-table connecting method removes.
  auto focus = [&](const UserProfile& user) {
    return std::min(0.95, s * (0.55 + 0.18 * static_cast<double>(user.activity)));
  };

  // ---- Pool of '^'-joined history sequences, biased per interest. ----
  // Each latent interest owns a handful of sequences whose leading
  // category matches the interest — the "product categories of user
  // interest" cells of Sec. 4.4.2.
  std::vector<std::vector<std::string>> history_pool(kNumInterests);
  {
    size_t per_interest =
        std::max<size_t>(1, options_.num_history_sequences / kNumInterests);
    for (size_t interest = 0; interest < kNumInterests; ++interest) {
      for (size_t k = 0; k < per_interest; ++k) {
        size_t length = 2 + rng->Index(3);
        std::string seq = std::to_string(interest + 1);
        for (size_t j = 1; j < length; ++j) {
          seq += "^" + std::to_string(rng->UniformInt(1, kNumFeedCategories));
        }
        history_pool[interest].push_back(std::move(seq));
      }
    }
  }

  // ---- Users ----
  std::vector<UserProfile> users;
  users.reserve(options_.num_users);
  for (size_t u = 0; u < options_.num_users; ++u) {
    UserProfile profile;
    profile.user_id = static_cast<int64_t>(100000 + u);
    profile.interest = rng->Index(kNumInterests);
    profile.activity = rng->Index(kNumActivity);
    double g = rng->Uniform();
    profile.gender = g < 0.48 ? 2 : (g < 0.96 ? 3 : 4);
    profile.age = rng->UniformInt(2, 8);
    profile.residence =
        rng->UniformInt(1, static_cast<int64_t>(options_.num_residences));
    // city_rank correlated with residence band.
    profile.city_rank = Mixed(rng, 0.7, (profile.residence - 1) % 5 + 1, 5);
    // device correlated with age (younger users skew to low device codes).
    profile.device = Mixed(rng, 0.6, std::min<int64_t>(6, (profile.age + 1) / 2 + 1), 6);
    // career correlated with age.
    profile.career = Mixed(rng, 0.6, std::min<int64_t>(9, profile.age + 1), 9);
    // feeds-side contextual features track the activity latent.
    profile.refresh =
        Mixed(rng, 0.7, static_cast<int64_t>(profile.activity) + 1, 6);
    profile.life_cycle = Mixed(
        rng, 0.7, std::min<int64_t>(4, static_cast<int64_t>(profile.activity) / 2 + 1), 4);
    users.push_back(profile);
  }

  // ---- Ads rows ----
  // Row counts scale with the activity latent: engaged subjects produce
  // several times more observations than quiet ones. Cartesian flattening
  // squares this imbalance — the engaged-subject bias of Sec. 3.3.
  auto activity_scale = [](const UserProfile& user) {
    return 0.4 + 0.4 * static_cast<double>(user.activity);
  };
  for (const UserProfile& user : users) {
    size_t rows =
        1 + static_cast<size_t>(rng->Poisson(
                std::max(0.0, options_.ads_rows_per_user * activity_scale(user) -
                                  1.0)));
    for (size_t k = 0; k < rows; ++k) {
      int64_t adv_prim = Mixed(rng, focus(user),
                               static_cast<int64_t>(user.interest) + 1,
                               kNumAdCategories);
      int64_t creat_type = Mixed(rng, 0.9, (adv_prim - 1) % 5 + 1, 5);
      int64_t slot = rng->UniformInt(1, 7);            // independent
      int64_t net_type = Mixed(
          rng, focus(user), static_cast<int64_t>(user.interest) % 4 + 1, 4);
      int64_t spread_app = Mixed(
          rng, focus(user), static_cast<int64_t>(user.interest) % 8 + 1, 8);
      int64_t app_score = Mixed(rng, 0.6, (adv_prim - 1) % 3 + 1, 3);
      // Clickthrough: base rate boosted when the ad matches the user's
      // interest and the user is young/mobile — the planted label signal.
      double p = options_.ctr;
      if (adv_prim == static_cast<int64_t>(user.interest) + 1) p *= 4.0;
      if (user.age <= 3) p *= 1.5;
      if (user.device <= 2) p *= 1.3;
      int64_t label = rng->Bernoulli(std::min(0.5, p)) ? 1 : 0;

      Row row = {Value(user.user_id), Value(user.gender), Value(user.age),
                 Value(user.residence), Value(user.city_rank),
                 Value(user.device), Value(user.career), Value(adv_prim),
                 Value(creat_type), Value(slot), Value(net_type),
                 Value(spread_app), Value(app_score), Value(label)};
      if (options_.include_identifier_columns) {
        row.push_back(Value(MakeEt(rng)));
      }
      GREATER_RETURN_NOT_OK(ads.AppendRow(std::move(row)));
    }
  }

  // ---- Feeds rows ----
  for (const UserProfile& user : users) {
    size_t rows =
        1 + static_cast<size_t>(rng->Poisson(
                std::max(0.0, options_.feeds_rows_per_user * activity_scale(user) -
                                  1.0)));
    for (size_t k = 0; k < rows; ++k) {
      int64_t i_cat = Mixed(rng, focus(user),
                            static_cast<int64_t>(user.interest) + 1,
                            kNumFeedCategories);
      int64_t i_dislike = rng->Bernoulli(i_cat % 2 == 1 ? 0.5 : 0.05) ? 1 : 0;
      int64_t i_up_times = Mixed(rng, 0.6, (i_cat - 1) % 5 + 1, 5);
      int64_t i_refresh = Mixed(
          rng, focus(user), static_cast<int64_t>(user.interest) % 6 + 1, 6);
      int64_t e_ch = rng->UniformInt(1, 4);        // independent
      // focus(user) + 0.2 can exceed 1; Bernoulli requires p <= 1.
      const auto& pool =
          history_pool[rng->Bernoulli(std::min(1.0, focus(user) + 0.2))
                           ? user.interest
                           : rng->Index(kNumInterests)];
      std::string his_cat_seq = pool[rng->Index(pool.size())];

      Row row = {Value(user.user_id), Value(user.refresh),
                 Value(user.life_cycle), Value(i_cat), Value(i_dislike),
                 Value(i_up_times), Value(i_refresh), Value(e_ch),
                 Value(his_cat_seq)};
      if (options_.include_identifier_columns) {
        row.push_back(Value(MakeHexId(rng, 12)));
        // i_entities: '^'-joined entity ids, essentially unique per row.
        std::string entities = MakeHexId(rng, 6);
        entities += "^" + MakeHexId(rng, 6);
        row.push_back(Value(entities));
      }
      GREATER_RETURN_NOT_OK(feeds.AppendRow(std::move(row)));
    }
  }
  return DigixDataset{std::move(ads), std::move(feeds)};
}

Result<std::vector<DigixDataset>> DigixGenerator::GenerateTrials(
    size_t n, Rng* rng) const {
  std::vector<DigixDataset> trials;
  trials.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    Rng trial_rng = rng->Fork();
    GREATER_ASSIGN_OR_RETURN(DigixDataset dataset, Generate(&trial_rng));
    trials.push_back(std::move(dataset));
  }
  return trials;
}

}  // namespace greater
