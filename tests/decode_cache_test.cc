#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "lm/decode_cache.h"
#include "lm/neural_lm.h"
#include "lm/ngram_lm.h"
#include "obs/metrics.h"
#include "reference_decoder.h"
#include "synth/great_synthesizer.h"
#include "tabular/table.h"
#include "text/vocabulary.h"

// Global allocation counter for the zero-allocation hit-path test. The
// overrides apply binary-wide; only the delta across the measured loop is
// asserted on.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace greater {
namespace {

// ---------- AllowListInterner ----------

TEST(AllowListInternerTest, CanonicalizesAndAssignsStableIds) {
  AllowListInterner interner;
  AllowListId a = interner.Intern({9, 3, 3, 7});
  AllowListId b = interner.Intern({3, 7, 9});  // same set, already sorted
  AllowListId c = interner.Intern({1, 2});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(interner.size(), 2u);
  EXPECT_EQ(interner.list(a), (std::vector<TokenId>{3, 7, 9}));
  EXPECT_EQ(interner.Find({3, 7, 9}), a);
  EXPECT_EQ(interner.Find({3, 7}), kNoAllowList);
  // Re-interning never reassigns.
  EXPECT_EQ(interner.Intern({9, 7, 3}), a);
}

TEST(DecodeCacheTest, TransientIdsAreContentStable) {
  DecodeCache cache{DecodeCacheOptions{}};
  std::vector<TokenId> names1 = {4, 8, 12};
  std::vector<TokenId> names2 = {8, 12};
  AllowListId id1 = cache.InternTransient(names1);
  AllowListId id2 = cache.InternTransient(names2);
  EXPECT_NE(id1, kNoAllowList);
  EXPECT_NE(id1, id2);
  EXPECT_EQ(cache.InternTransient(names1), id1);
  EXPECT_EQ(cache.InternTransient(names2), id2);
}

// ---------- Exact-replay bitwise equality ----------

std::vector<TokenSequence> SmallCorpus() {
  return {
      {5, 6, 7, 8, 9}, {5, 6, 7, 9, 8}, {10, 11, 5, 6}, {7, 8, 10, 11, 5},
      {9, 9, 5, 7},    {6, 10, 8, 5},   {11, 7, 6, 9},  {5, 8, 9, 10, 11},
  };
}

std::vector<TokenSequence> TestContexts() {
  std::vector<TokenSequence> contexts = {
      {},        {5},           {5, 6},          {5, 6, 7},
      {9, 9, 5}, {10, 11, 5, 6}, {7, 8, 10, 11}, {5, 6, 7, 8, 9, 10, 11, 5},
  };
  // Repeat the pool several times so later rounds hit the cache.
  std::vector<TokenSequence> out;
  for (int round = 0; round < 6; ++round) {
    out.insert(out.end(), contexts.begin(), contexts.end());
  }
  return out;
}

void ExpectExactReplayMatchesUncached(const LanguageModel& lm,
                                      double temperature) {
  std::vector<TokenId> candidates = {5, 6, 7, 8, 9, 10, 11};
  DecodeCacheOptions options;  // defaults: enabled
  DecodeCache cache(options);
  AllowListId allow_id = cache.InternTransient(candidates);
  DecodeWorkspace cached_ws, plain_ws;

  Rng cached_rng(77), plain_rng(77);
  for (const TokenSequence& context : TestContexts()) {
    TokenId cached = cache.SampleRestricted(lm, context, candidates, allow_id,
                                            temperature, &cached_rng,
                                            &cached_ws);
    TokenId plain = lm.SampleNext(context, &plain_rng, temperature,
                                  &candidates, &plain_ws);
    EXPECT_EQ(cached, plain);
  }
  // Both generators consumed the identical number of draws, so their
  // streams are still in lockstep — the strongest replay guarantee.
  EXPECT_EQ(cached_rng.Uniform(), plain_rng.Uniform());
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_GT(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().uncacheable, 0u);
}

TEST(DecodeCacheTest, ExactReplayMatchesUncachedNGram) {
  NGramLm lm(32);
  ASSERT_TRUE(lm.Fit(SmallCorpus()).ok());
  ExpectExactReplayMatchesUncached(lm, 1.0);
  ExpectExactReplayMatchesUncached(lm, 0.7);
}

TEST(DecodeCacheTest, ExactReplayMatchesUncachedNeural) {
  NeuralLm::Options options;
  options.context_window = 4;
  options.embed_dim = 4;
  options.hidden_dim = 8;
  options.epochs = 2;
  options.pretrain_epochs = 0;
  NeuralLm lm(32, options);
  ASSERT_TRUE(lm.Fit(SmallCorpus()).ok());
  ExpectExactReplayMatchesUncached(lm, 1.0);
  ExpectExactReplayMatchesUncached(lm, 0.7);
}

// ---------- Eviction ----------

TEST(DecodeCacheTest, SecondChanceEvictionBoundsTheCache) {
  NGramLm lm(256);  // unfitted: uniform weights, still cacheable
  std::vector<TokenId> candidates = {100, 101, 102};
  DecodeCacheOptions options;
  options.capacity = 8;
  DecodeCache cache(options);
  AllowListId allow_id = cache.InternTransient(candidates);
  DecodeWorkspace ws;
  Rng rng(9);
  for (TokenId t = 0; t < 100; ++t) {
    TokenSequence context = {t};  // 100 distinct keys
    cache.SampleRestricted(lm, context, candidates, allow_id, 1.0, &rng, &ws);
  }
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.stats().misses, 100u);
  EXPECT_EQ(cache.stats().evictions, 92u);
  EXPECT_GT(cache.bytes(), 0u);
}

TEST(DecodeCacheTest, ReusedSlotHoldsOnlyItsLiveCdf) {
  // A one-slot cache: the narrow entry evicts the wide one into the same
  // slot, which must then hold two doubles, not the wide list's capacity.
  NGramLm lm(2048);  // unfitted: uniform weights, still cacheable
  std::vector<TokenId> wide;
  for (TokenId t = 10; t < 1210; ++t) wide.push_back(t);
  const std::vector<TokenId> narrow = {100, 101};
  DecodeCacheOptions options;
  options.capacity = 1;
  DecodeCache cache(options);
  const AllowListId wide_id = cache.InternTransient(wide);
  const AllowListId narrow_id = cache.InternTransient(narrow);
  DecodeWorkspace cached_ws, plain_ws;
  Rng cached_rng(3), plain_rng(3);
  auto draw = [&](const TokenSequence& context,
                  const std::vector<TokenId>& candidates, AllowListId id) {
    TokenId cached = cache.SampleRestricted(lm, context, candidates, id, 1.0,
                                            &cached_rng, &cached_ws);
    EXPECT_EQ(cached, lm.SampleNext(context, &plain_rng, 1.0, &candidates,
                                    &plain_ws));
  };

  draw({5}, wide, wide_id);
  const size_t wide_bytes = cache.bytes();
  draw({6}, narrow, narrow_id);
  draw({6}, narrow, narrow_id);  // hit on the reused slot
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(wide_bytes - cache.bytes(),
            (wide.size() - narrow.size()) * sizeof(double));

  // The live size is what a fresh cache holding only that entry reports.
  DecodeCache fresh(options);
  DecodeWorkspace fresh_ws;
  Rng fresh_rng(3);
  fresh.SampleRestricted(lm, {6}, narrow, fresh.InternTransient(narrow), 1.0,
                         &fresh_rng, &fresh_ws);
  EXPECT_EQ(cache.bytes(), fresh.bytes());

  draw({5}, wide, wide_id);  // and back: the slot regrows exactly
  EXPECT_EQ(cache.bytes(), wide_bytes);
  EXPECT_EQ(cached_rng.Uniform(), plain_rng.Uniform());
}

// ---------- Admission ----------

TEST(DecodeCacheTest, AdmissionStopsOnMissesKeepsHitEntriesAndResumes) {
  // Context t is followed by 100 + t % 3, so neighbouring contexts have
  // different distributions: a lookup that reached the wrong entry after
  // the eviction compacts the table would draw differently.
  std::vector<TokenSequence> corpus;
  for (TokenId t = 10; t < 1000; ++t) corpus.push_back({t, 100 + t % 3});
  NGramLm lm(4096);
  ASSERT_TRUE(lm.Fit(corpus).ok());
  const std::vector<TokenId> candidates = {100, 101, 102};
  DecodeCache cache{DecodeCacheOptions{}};
  const AllowListId allow_id = cache.InternTransient(candidates);
  DecodeWorkspace cached_ws, plain_ws;
  Rng cached_rng(9), plain_rng(9);
  auto draw = [&](TokenId last) {
    TokenSequence context = {last};
    TokenId cached = cache.SampleRestricted(lm, context, candidates, allow_id,
                                            1.0, &cached_rng, &cached_ws);
    EXPECT_EQ(cached, lm.SampleNext(context, &plain_rng, 1.0, &candidates,
                                    &plain_ws));
  };
  const uint32_t window = DecodeCache::kAdmitWindow;
  auto once = [](uint32_t j) { return static_cast<TokenId>(10 + 6 * j); };
  auto twice = [](uint32_t j) { return static_cast<TokenId>(11 + 6 * j); };

  // The first window fills the cold cache unjudged. Entries drawn once and
  // entries drawn twice (so hit) alternate in the table.
  const uint32_t pairs = window / 3;  // 85 triples, then one more hit
  for (uint32_t j = 0; j < pairs; ++j) {
    draw(once(j));
    draw(twice(j));
    draw(twice(j));
  }
  draw(twice(0));
  EXPECT_TRUE(cache.admitting());
  EXPECT_EQ(cache.size(), 2 * pairs);

  // Then distinct contexts only: insertion stops at the miss that leaves
  // the window unable to reach half hits, and every entry no lookup hit
  // is evicted. The hit ones stay, compacted to the front.
  for (uint32_t i = 0; i < window; ++i) {
    draw(static_cast<TokenId>(600 + i));
  }
  EXPECT_FALSE(cache.admitting());
  EXPECT_EQ(cache.size(), pairs);
  EXPECT_EQ(cache.stats().refused, window / 2);
  EXPECT_EQ(cache.stats().evictions, pairs + window / 2);

  // The kept entries are still probed, each to its own distribution; a
  // window that hits them at least half the time turns insertion back on.
  const uint64_t hits = cache.stats().hits;
  for (uint32_t i = 0; i < window; ++i) draw(twice(i % pairs));
  EXPECT_EQ(cache.stats().hits - hits, window);
  EXPECT_TRUE(cache.admitting());
  draw(static_cast<TokenId>(900));  // a new key is admitted
  EXPECT_EQ(cache.size(), pairs + 1);

  // A stream that mostly repeats never trips, however long it runs.
  DecodeCache hot{DecodeCacheOptions{}};
  const AllowListId hot_id = hot.InternTransient(candidates);
  Rng hot_rng(5);
  for (uint32_t i = 0; i < 8 * window; ++i) {
    hot.SampleRestricted(lm, {static_cast<TokenId>(10 + i % 16)}, candidates,
                         hot_id, 1.0, &hot_rng, &cached_ws);
  }
  EXPECT_TRUE(hot.admitting());
  EXPECT_EQ(hot.stats().refused, 0u);
  EXPECT_EQ(hot.size(), 16u);
  EXPECT_EQ(cached_rng.Uniform(), plain_rng.Uniform());
}

// ---------- Zero allocations on the hit path ----------

TEST(DecodeCacheTest, HitPathDoesNotAllocate) {
  NGramLm lm(32);
  ASSERT_TRUE(lm.Fit(SmallCorpus()).ok());
  std::vector<TokenId> candidates = {5, 6, 7, 8, 9, 10, 11};
  DecodeCache cache{DecodeCacheOptions{}};
  AllowListId allow_id = cache.InternTransient(candidates);
  DecodeWorkspace ws;
  Rng rng(31);
  TokenSequence context = {5, 6, 7};
  // Warm: first draw misses and builds the entry.
  cache.SampleRestricted(lm, context, candidates, allow_id, 1.0, &rng, &ws);

  uint64_t sink = 0;
  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 512; ++i) {
    sink ^= static_cast<uint64_t>(cache.SampleRestricted(
        lm, context, candidates, allow_id, 1.0, &rng, &ws));
  }
  uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "cache-hit draws must not touch the heap";
  EXPECT_EQ(cache.stats().hits, 512u + 1u - 1u);  // all post-warm draws hit
  (void)sink;
}

// ---------- TokenLogProb fast paths ----------

void ExpectTokenLogProbMatchesGather(const LanguageModel& lm) {
  DecodeWorkspace ws;
  for (const TokenSequence& context : TestContexts()) {
    std::vector<double> dist = lm.NextTokenDistribution(context);
    for (TokenId token : {TokenId(5), TokenId(9), TokenId(11),
                          Vocabulary::kEosId}) {
      double expected =
          std::log(std::max(dist[static_cast<size_t>(token)], 1e-300));
      EXPECT_EQ(lm.TokenLogProb(context, token, &ws), expected)
          << "token " << token;
    }
  }
}

TEST(DecodeCacheTest, NGramTokenLogProbMatchesFullDistribution) {
  NGramLm lm(32);
  ASSERT_TRUE(lm.Fit(SmallCorpus()).ok());
  ExpectTokenLogProbMatchesGather(lm);
}

TEST(DecodeCacheTest, NeuralTokenLogProbMatchesFullDistribution) {
  NeuralLm::Options options;
  options.context_window = 4;
  options.embed_dim = 4;
  options.hidden_dim = 8;
  options.epochs = 2;
  options.pretrain_epochs = 0;
  NeuralLm lm(32, options);
  ASSERT_TRUE(lm.Fit(SmallCorpus()).ok());
  ExpectTokenLogProbMatchesGather(lm);
}

TEST(DecodeCacheTest, NeuralHiddenStateCacheIsBitwiseTransparent) {
  NeuralLm::Options options;
  options.context_window = 4;
  options.embed_dim = 4;
  options.hidden_dim = 8;
  options.epochs = 2;
  options.pretrain_epochs = 0;
  NeuralLm lm(32, options);
  ASSERT_TRUE(lm.Fit(SmallCorpus()).ok());

  std::vector<TokenId> candidates = {5, 6, 7, 8, 9, 10, 11};
  DecodeWorkspace cached_ws;
  cached_ws.hidden_cache.set_capacity(64);
  std::vector<double> with_cache, without_cache;
  for (const TokenSequence& context : TestContexts()) {
    lm.NextTokenWeightsRestricted(context, candidates, &cached_ws,
                                  &with_cache);
    lm.NextTokenWeightsRestricted(context, candidates, nullptr,
                                  &without_cache);
    EXPECT_EQ(with_cache, without_cache);
  }
  EXPECT_GT(cached_ws.hidden_cache.hits(), 0u);
}

// ---------- End-to-end through the synthesizer ----------

Table SmallTable() {
  Schema schema({Field("name", ValueType::kString),
                 Field("lunch", ValueType::kInt),
                 Field("device", ValueType::kInt)});
  Table t(schema);
  const char* names[] = {"Grace", "Yin", "Anson", "Mia"};
  Rng rng(5);
  for (int i = 0; i < 48; ++i) {
    EXPECT_TRUE(t.AppendRow({Value(names[i % 4]),
                             Value(rng.UniformInt(1, 2)),
                             Value(rng.UniformInt(1, 3))})
                    .ok());
  }
  return t;
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(a.GetRow(r), b.GetRow(r)) << "row " << r;
  }
}

// Cached engine output against the uncached reference decoder: the cache
// (and each worker's private copy of it) must be invisible in the bytes
// and in the caller's Rng advance.
void ExpectCachedSynthesizerMatchesReference(
    const GreatSynthesizer::Options& options, size_t n, uint64_t seed) {
  ASSERT_TRUE(options.decode_cache.enabled);
  GreatSynthesizer synth(options);
  Rng fit(7);
  ASSERT_TRUE(synth.Fit(SmallTable(), &fit).ok());
  Rng r1(seed), r2(seed);
  Table cached = synth.Sample(n, &r1).ValueOrDie();
  Table reference =
      ReferenceDecoder(synth).Sample(n, nullptr, &r2).ValueOrDie();
  ExpectTablesEqual(cached, reference);
  EXPECT_EQ(r1.Uniform(), r2.Uniform());
}

TEST(DecodeCacheTest, SynthesizerCacheEqualsReferenceDecoder) {
  ExpectCachedSynthesizerMatchesReference(GreatSynthesizer::Options(), 30,
                                          11);
}

TEST(DecodeCacheTest, SynthesizerCacheEqualsReferenceDecoderNeural) {
  GreatSynthesizer::Options options;
  options.backbone = GreatSynthesizer::Backbone::kNeural;
  options.neural.context_window = 4;
  options.neural.embed_dim = 4;
  options.neural.hidden_dim = 8;
  options.neural.epochs = 2;
  options.neural.pretrain_epochs = 0;
  // The deliberately under-trained backbone can exhaust a row's retry
  // budget; lenient policy keeps the run alive, and both decoders degrade
  // identically because every row draws from its own stream.
  options.policy = SamplePolicy::kLenient;
  ExpectCachedSynthesizerMatchesReference(options, 10, 13);
}

TEST(DecodeCacheTest, ParallelWorkersKeepPrivateCachesDeterministic) {
  // Per-worker caches never share state, so the parallel determinism
  // contract reduces to the serial one per row stream.
  GreatSynthesizer::Options options;
  options.num_threads = 4;
  ExpectCachedSynthesizerMatchesReference(options, 40, 19);
}

TEST(DecodeCacheTest, CachedCountersReconcile) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& hits = registry.GetCounter("lm.cache.hits");
  Counter& misses = registry.GetCounter("lm.cache.misses");
  Counter& fast = registry.GetCounter("lm.restricted_fast_path");
  Counter& restricted = registry.GetCounter("lm.sample_next_restricted");
  uint64_t hits_before = hits.Value();
  uint64_t misses_before = misses.Value();
  uint64_t fast_before = fast.Value();
  uint64_t restricted_before = restricted.Value();

  GreatSynthesizer synth;
  Table train = SmallTable();
  Rng fit(7);
  ASSERT_TRUE(synth.Fit(train, &fit).ok());
  Rng rng(11);
  ASSERT_TRUE(synth.Sample(200, &rng).ok());

  uint64_t hits_delta = hits.Value() - hits_before;
  uint64_t misses_delta = misses.Value() - misses_before;
  EXPECT_GT(hits_delta, 0u);
  // The draws are seeded, so the hit ratio is exact: 1726 / 1800 = 0.959.
  // A key scheme or admission rule that stops reusing entries falls below.
  EXPECT_GE(static_cast<double>(hits_delta) /
                static_cast<double>(hits_delta + misses_delta),
            0.95);
  // Every restricted draw was either a cache hit or a miss...
  EXPECT_EQ(hits_delta + misses_delta,
            restricted.Value() - restricted_before);
  // ...and the model was only evaluated on misses.
  EXPECT_EQ(fast.Value() - fast_before, misses_delta);
}

// ---------- Vectorized group draws (DrawResolvedMany) ----------

TEST(DecodeCacheTest, DrawResolvedManyMatchesPerLane) {
  NGramLm lm(32);
  ASSERT_TRUE(lm.Fit(SmallCorpus()).ok());
  std::vector<TokenId> candidates = {5, 6, 7, 8, 9, 10, 11};

  DecodeCache cache{DecodeCacheOptions{}};
  AllowListId allow_id = cache.InternTransient(candidates);
  DecodeWorkspace ws;

  constexpr size_t kLanes = 7;
  std::vector<Rng> serial_rngs, many_rngs;
  std::vector<Rng*> many_ptrs;
  for (size_t lane = 0; lane < kLanes; ++lane) {
    serial_rngs.emplace_back(500 + lane * 31);
    many_rngs.emplace_back(500 + lane * 31);
  }
  for (size_t lane = 0; lane < kLanes; ++lane) {
    many_ptrs.push_back(&many_rngs[lane]);
  }

  std::vector<TokenId> many(kLanes);
  std::vector<size_t> scratch;
  for (const TokenSequence& context : TestContexts()) {
    DecodeCache::ResolvedDist dist = cache.ResolveRestricted(
        lm, context, candidates, allow_id, 1.0, &ws);
    ASSERT_TRUE(dist.cacheable);
    cache.DrawResolvedMany(dist, candidates, many_ptrs.data(), kLanes,
                           many.data(), &scratch);
    for (size_t lane = 0; lane < kLanes; ++lane) {
      EXPECT_EQ(cache.DrawResolved(dist, candidates, &serial_rngs[lane]),
                many[lane])
          << "lane " << lane;
    }
  }
  for (size_t lane = 0; lane < kLanes; ++lane) {
    EXPECT_EQ(serial_rngs[lane].Uniform(), many_rngs[lane].Uniform())
        << "lane " << lane << " stream diverged";
  }
}

TEST(DecodeCacheTest, DrawResolvedManyZeroTotalDegradesLikePerLane) {
  // An unfitted LM over candidates it has never seen yields a zero-mass
  // restricted distribution; the vectorized path must degrade to the same
  // uniform-over-candidates draw per lane.
  NGramLm lm(256);
  std::vector<TokenId> candidates = {40, 41, 42};
  DecodeCacheOptions options;
  DecodeCache cache(options);
  AllowListId allow_id = cache.InternTransient(candidates);
  DecodeWorkspace ws;
  DecodeCache::ResolvedDist dist = cache.ResolveRestricted(
      lm, {40, 41}, candidates, allow_id, 1.0, &ws);
  ASSERT_TRUE(dist.cacheable);

  constexpr size_t kLanes = 5;
  std::vector<Rng> serial_rngs, many_rngs;
  std::vector<Rng*> many_ptrs;
  for (size_t lane = 0; lane < kLanes; ++lane) {
    serial_rngs.emplace_back(90 + lane);
    many_rngs.emplace_back(90 + lane);
  }
  for (size_t lane = 0; lane < kLanes; ++lane) {
    many_ptrs.push_back(&many_rngs[lane]);
  }
  std::vector<TokenId> many(kLanes);
  std::vector<size_t> scratch;
  for (int round = 0; round < 20; ++round) {
    cache.DrawResolvedMany(dist, candidates, many_ptrs.data(), kLanes,
                           many.data(), &scratch);
    for (size_t lane = 0; lane < kLanes; ++lane) {
      EXPECT_EQ(cache.DrawResolved(dist, candidates, &serial_rngs[lane]),
                many[lane]);
    }
  }
}

}  // namespace
}  // namespace greater
