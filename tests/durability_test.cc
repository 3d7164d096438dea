// Durability suite: the artifact container's typed failure taxonomy
// (truncation sweeps, CRC flips, version skew), atomic-write crash
// semantics under injected ckpt.* faults, bitwise Save -> Load -> Sample
// identity for the trained stack, and stage-level pipeline resume.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/artifact_io.h"
#include "common/fault.h"
#include "common/rng.h"
#include "crosstable/checkpoint.h"
#include "crosstable/pipeline.h"
#include "datagen/digix.h"
#include "lm/ngram_lm.h"
#include "obs/metrics.h"
#include "semantic/mapping.h"
#include "synth/great_synthesizer.h"
#include "synth/relational_synthesizer.h"
#include "synth/streaming_synthesis.h"
#include "tabular/csv.h"
#include "text/vocabulary.h"

namespace greater {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per test name; wiped up front so reruns start
// clean.
fs::path ScratchDir(const std::string& name) {
  fs::path dir = fs::path(testing::TempDir()) / ("greater_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string Slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void Spit(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Table SmallTable() {
  Schema schema({Field("name", ValueType::kString),
                 Field("lunch", ValueType::kInt),
                 Field("dinner", ValueType::kInt)});
  Table t(schema);
  const char* names[] = {"Grace", "Yin", "Anson"};
  Rng rng(5);
  for (int i = 0; i < 45; ++i) {
    int64_t lunch = rng.UniformInt(1, 2);
    int64_t dinner = rng.Bernoulli(0.8) ? lunch : rng.UniformInt(1, 2);
    EXPECT_TRUE(
        t.AppendRow({Value(names[i % 3]), Value(lunch), Value(dinner)}).ok());
  }
  return t;
}

class DurabilityTest : public testing::Test {
 protected:
  void TearDown() override { FaultRegistry::Global().DisarmAll(); }
};

// ---------- byte codec ----------

TEST(ByteCodecTest, RoundTripsEveryPrimitive) {
  ByteWriter w;
  w.PutU8(0xab);
  w.PutBool(true);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutI64(-42);
  w.PutF64(-0.0);  // signed zero must survive bitwise
  w.PutString(std::string_view("with,comma\nand newline\0byte", 27));
  std::string payload = std::move(w).Take();

  ByteReader r(payload);
  uint8_t u8;
  bool b;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  double f64;
  std::string s;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetBool(&b).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetI64(&i64).ok());
  ASSERT_TRUE(r.GetF64(&f64).ok());
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_TRUE(b);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(i64, -42);
  EXPECT_TRUE(std::signbit(f64));
  EXPECT_EQ(s, std::string("with,comma\nand newline\0byte", 27u));
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(ByteCodecTest, EveryTruncationFailsTyped) {
  ByteWriter w;
  w.PutU64(7);
  w.PutString("abc");
  w.PutF64(1.5);
  std::string payload = std::move(w).Take();
  for (size_t len = 0; len < payload.size(); ++len) {
    ByteReader r(std::string_view(payload).substr(0, len));
    uint64_t u64;
    std::string s;
    double f64;
    Status status = r.GetU64(&u64);
    if (status.ok()) status = r.GetString(&s);
    if (status.ok()) status = r.GetF64(&f64);
    ASSERT_FALSE(status.ok()) << "length " << len;
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << "length " << len;
  }
}

// ---------- artifact container ----------

std::string SampleDoc() {
  ArtifactWriter doc("greater.test_artifact", 3);
  doc.AddChunk("alpha", "payload one");
  doc.AddChunk("beta", std::string("\x00\x01\x02", 3));
  return doc.Finish();
}

TEST(ArtifactTest, RoundTripsChunksAndMetadata) {
  ArtifactReader doc =
      ArtifactReader::Parse(SampleDoc(), "greater.test_artifact", 3)
          .ValueOrDie();
  EXPECT_EQ(doc.kind(), "greater.test_artifact");
  EXPECT_EQ(doc.version(), 3u);
  EXPECT_TRUE(doc.HasChunk("alpha"));
  EXPECT_FALSE(doc.HasChunk("gamma"));
  EXPECT_EQ(doc.Chunk("alpha").ValueOrDie(), "payload one");
  EXPECT_EQ(doc.Chunk("beta").ValueOrDie(), std::string("\x00\x01\x02", 3));
  EXPECT_EQ(doc.Chunk("gamma").status().code(), StatusCode::kNotFound);
}

TEST(ArtifactTest, KindAndVersionMismatchesFailPrecondition) {
  std::string bytes = SampleDoc();
  auto wrong_kind = ArtifactReader::Parse(bytes, "greater.other", 3);
  ASSERT_FALSE(wrong_kind.ok());
  EXPECT_EQ(wrong_kind.status().code(), StatusCode::kFailedPrecondition);
  auto too_new = ArtifactReader::Parse(bytes, "greater.test_artifact", 2);
  ASSERT_FALSE(too_new.ok());
  EXPECT_EQ(too_new.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ArtifactTest, EveryTruncationFailsTypedNeverCrashes) {
  // The crash-mid-write model: a torn write can persist any prefix.
  // Whatever the cut point — mid-magic, mid-header, mid-chunk, mid-CRC —
  // parsing must fail with kDataLoss, never crash or half-succeed.
  std::string bytes = SampleDoc();
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto result =
        ArtifactReader::Parse(bytes.substr(0, len), "greater.test_artifact",
                              3);
    ASSERT_FALSE(result.ok()) << "prefix length " << len;
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
        << "prefix length " << len << ": " << result.status().ToString();
  }
}

TEST(ArtifactTest, EverySingleBitFlipIsDetected) {
  std::string bytes = SampleDoc();
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    auto result =
        ArtifactReader::Parse(corrupt, "greater.test_artifact", 3);
    EXPECT_FALSE(result.ok()) << "flipped byte " << i;
  }
}

TEST(ArtifactTest, TrailingGarbageIsDataLoss) {
  auto result = ArtifactReader::Parse(SampleDoc() + "x",
                                      "greater.test_artifact", 3);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

// Bitwise reference CRC-32 (reflected IEEE polynomial, no tables).
uint32_t BitwiseCrc32(std::string_view data, uint32_t seed) {
  uint32_t c = seed ^ 0xffffffffu;
  for (unsigned char byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

TEST(ArtifactTest, Crc32MatchesKnownVector) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  // Chaining property used by incremental writers.
  EXPECT_EQ(Crc32("6789", Crc32("12345")), Crc32("123456789"));

  // A seeded 1 KiB buffer.
  Rng rng(4242);
  std::string buffer(1024, '\0');
  for (char& byte : buffer) byte = static_cast<char>(rng.UniformInt(0, 255));
  const std::string_view view(buffer);

  // Every length 0..64 at every start offset 0..7 (so the eight-byte
  // steps start misaligned and the tail loop sees every remainder), with
  // a zero and a nonzero seed.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 64; ++length) {
      const std::string_view data = view.substr(offset, length);
      for (uint32_t seed : {0u, 0x9e3779b9u}) {
        EXPECT_EQ(Crc32(data, seed), BitwiseCrc32(data, seed))
            << "offset " << offset << " length " << length << " seed "
            << seed;
      }
    }
  }

  // Crc32(b, Crc32(a)) == Crc32(a + b) at every split of the buffer.
  const uint32_t whole = Crc32(view);
  EXPECT_EQ(whole, BitwiseCrc32(view, 0));
  for (size_t split = 0; split <= view.size(); ++split) {
    EXPECT_EQ(Crc32(view.substr(split), Crc32(view.substr(0, split))), whole)
        << "split " << split;
  }
}

// ---------- atomic writes under injected faults ----------

TEST_F(DurabilityTest, AtomicWriteReplacesOrPreservesNeverTears) {
  fs::path dir = ScratchDir("atomic");
  fs::path target = dir / "data.bin";
  ASSERT_TRUE(AtomicWriteFile(target.string(), "generation one").ok());
  EXPECT_EQ(Slurp(target), "generation one");

  // A fired ckpt.write fault models a crash before any filesystem
  // mutation: the previous generation must survive untouched.
  {
    FaultSpec spec;
    spec.code = StatusCode::kResourceExhausted;
    spec.message = "disk full";
    ScopedFault fault("ckpt.write", spec);
    Status status = AtomicWriteFile(target.string(), "generation two");
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(Slurp(target), "generation one");

  ASSERT_TRUE(AtomicWriteFile(target.string(), "generation two").ok());
  EXPECT_EQ(Slurp(target), "generation two");
}

TEST_F(DurabilityTest, CsvWriteGoesThroughAtomicWriterRegression) {
  // Satellite regression: WriteCsvFile routes through AtomicWriteFile, so
  // an injected write fault leaves the previous CSV intact instead of a
  // truncated half-file.
  fs::path dir = ScratchDir("csv_atomic");
  fs::path target = dir / "out.csv";
  Table t = SmallTable();
  ASSERT_TRUE(WriteCsvFile(t, target.string()).ok());
  std::string before = Slurp(target);
  ASSERT_FALSE(before.empty());

  FaultSpec spec;
  spec.code = StatusCode::kDataLoss;
  spec.message = "torn write";
  ScopedFault fault("ckpt.write", spec);
  Status status = WriteCsvFile(t, target.string());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(Slurp(target), before);
}

TEST_F(DurabilityTest, ReadFaultSurfacesThroughLoad) {
  fs::path dir = ScratchDir("read_fault");
  fs::path target = dir / "model.bin";
  GreatSynthesizer synth;
  Rng rng(3);
  ASSERT_TRUE(synth.Fit(SmallTable(), &rng).ok());
  ASSERT_TRUE(synth.Save(target.string()).ok());

  FaultSpec spec;
  spec.code = StatusCode::kDataLoss;
  spec.message = "bit rot";
  ScopedFault fault("ckpt.read", spec);
  GreatSynthesizer loaded;
  Status status = loaded.Load(target.string());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_FALSE(loaded.fitted());
}

// ---------- mapping system: adversarial round-trips ----------

TEST(MappingSerdeTest, AdversarialValuesRoundTripExactly) {
  // Property-style sweep over the strings the legacy CSV format mangled:
  // separators, quotes, newlines, empties, NUL bytes, and doubles whose
  // decimal rendering is lossy.
  std::vector<std::string> nasty = {
      "",        ",",          "\n",           "\r\n",     "\"quoted\"",
      "a,b,c",   "line\nfeed", "tab\tstop",    " leading", "trailing ",
      "=escape", "\\back",     std::string("nul\0byte", 8)};
  std::vector<ColumnMapping> mappings;
  ColumnMapping strings;
  strings.column = "labels";
  strings.original_type = ValueType::kString;
  for (size_t i = 0; i < nasty.size(); ++i) {
    strings.forward[Value(nasty[i])] =
        Value("replacement " + std::to_string(i) + " " + nasty[i]);
  }
  mappings.push_back(strings);
  ColumnMapping numbers;
  numbers.column = "codes";
  numbers.original_type = ValueType::kDouble;
  numbers.forward[Value(0.1)] = Value("point one");
  numbers.forward[Value(1.0 / 3.0)] = Value("a third");
  numbers.forward[Value(-0.0)] = Value("negative zero");
  mappings.push_back(numbers);
  ColumnMapping ints;
  ints.column = "ids";
  ints.original_type = ValueType::kInt;
  ints.forward[Value(static_cast<int64_t>(-7))] = Value("minus seven");
  mappings.push_back(ints);

  MappingSystem original = MappingSystem::Make(std::move(mappings)).ValueOrDie();
  MappingSystem decoded =
      MappingSystem::Deserialize(original.Serialize()).ValueOrDie();

  ASSERT_EQ(decoded.mappings().size(), original.mappings().size());
  for (size_t m = 0; m < original.mappings().size(); ++m) {
    const ColumnMapping& a = original.mappings()[m];
    const ColumnMapping& b = decoded.mappings()[m];
    EXPECT_EQ(a.column, b.column);
    EXPECT_EQ(a.original_type, b.original_type);
    ASSERT_EQ(a.forward.size(), b.forward.size());
    auto ita = a.forward.begin();
    auto itb = b.forward.begin();
    for (; ita != a.forward.end(); ++ita, ++itb) {
      EXPECT_TRUE(ita->first == itb->first);
      EXPECT_TRUE(ita->second == itb->second);
    }
  }
  // Serialization is deterministic: equal systems, equal bytes.
  EXPECT_EQ(original.Serialize(), decoded.Serialize());
}

TEST(MappingSerdeTest, LegacyTextFormatStillParses) {
  // Pre-binary releases stored a CSV-ish text table; Deserialize sniffs
  // the magic and must keep accepting the old form.
  std::string legacy =
      "column,original_type,original,replacement\n"
      "genre,string,RPG,Coffee\n"
      "genre,string,MOBA,Tea\n";
  MappingSystem decoded = MappingSystem::Deserialize(legacy).ValueOrDie();
  ASSERT_EQ(decoded.mappings().size(), 1u);
  EXPECT_EQ(decoded.mappings()[0].column, "genre");
  EXPECT_EQ(decoded.mappings()[0].forward.size(), 2u);
}

TEST_F(DurabilityTest, MappingSaveLoadFileRoundTrip) {
  fs::path dir = ScratchDir("mapping");
  ColumnMapping m;
  m.column = "genre";
  m.original_type = ValueType::kString;
  m.forward[Value("RPG")] = Value("Coffee, black\nno sugar");
  MappingSystem original = MappingSystem::Make({m}).ValueOrDie();
  fs::path target = dir / "mapping.bin";
  ASSERT_TRUE(original.Save(target.string()).ok());
  MappingSystem loaded;
  ASSERT_TRUE(loaded.Load(target.string()).ok());
  EXPECT_EQ(loaded.Serialize(), original.Serialize());
}

// ---------- trained-stack round trips ----------

TEST(VocabularySerdeTest, RoundTripPreservesIdsExactly) {
  Vocabulary vocab;
  TokenId a = vocab.AddToken("alpha");
  TokenId b = vocab.AddToken("beta, with comma");
  Vocabulary loaded;
  ASSERT_TRUE(loaded.DeserializeBinary(vocab.SerializeBinary()).ok());
  EXPECT_EQ(loaded.size(), vocab.size());
  EXPECT_EQ(loaded.IdOf("alpha"), a);
  EXPECT_EQ(loaded.IdOf("beta, with comma"), b);
  EXPECT_EQ(loaded.SerializeBinary(), vocab.SerializeBinary());
}

template <typename MakeOptions>
void ExpectBitwiseSaveLoadSample(MakeOptions make_options,
                                 const std::string& tag) {
  fs::path dir = ScratchDir("bundle_" + tag);
  GreatSynthesizer::Options options = make_options();
  GreatSynthesizer original(options);
  Rng fit_rng(11);
  ASSERT_TRUE(original.Fit(SmallTable(), &fit_rng).ok());

  fs::path target = dir / "model.bin";
  ASSERT_TRUE(original.Save(target.string()).ok());
  GreatSynthesizer loaded;
  ASSERT_TRUE(loaded.Load(target.string()).ok());
  ASSERT_TRUE(loaded.fitted());

  // The acceptance bar: the loaded synthesizer draws the exact seeded
  // sample stream of the in-memory one.
  Rng rng_a(99), rng_b(99);
  Table sample_a = original.Sample(25, &rng_a).ValueOrDie();
  Table sample_b = loaded.Sample(25, &rng_b).ValueOrDie();
  EXPECT_TRUE(sample_a == sample_b) << tag;
  EXPECT_EQ(WriteCsvString(sample_a), WriteCsvString(sample_b)) << tag;
  // And re-serialization is stable: Save(Load(x)) == x.
  EXPECT_EQ(loaded.SerializeBinary().ValueOrDie(),
            original.SerializeBinary().ValueOrDie())
      << tag;
}

TEST_F(DurabilityTest, NGramSynthesizerSaveLoadSampleBitwise) {
  ExpectBitwiseSaveLoadSample(
      [] {
        GreatSynthesizer::Options options;
        options.backbone = GreatSynthesizer::Backbone::kNGram;
        options.prior_corpus = {"the lunch was type one",
                                "dinner follows lunch"};
        return options;
      },
      "ngram");
}

TEST_F(DurabilityTest, NeuralSynthesizerSaveLoadSampleBitwise) {
  ExpectBitwiseSaveLoadSample(
      [] {
        GreatSynthesizer::Options options;
        options.backbone = GreatSynthesizer::Backbone::kNeural;
        options.neural.epochs = 2;
        options.neural.embed_dim = 8;
        options.neural.hidden_dim = 12;
        return options;
      },
      "neural");
}

TEST_F(DurabilityTest, UnfittedSynthesizerRefusesToSerialize) {
  GreatSynthesizer synth;
  auto result = synth.SerializeBinary();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(DurabilityTest, SynthesizerBundleTruncationSweepFailsTyped) {
  // Crash-mid-write against the real bundle: every prefix of the saved
  // file must load as a typed corruption error, and the target object
  // must stay unfitted (no partial state).
  GreatSynthesizer synth;
  Rng rng(3);
  ASSERT_TRUE(synth.Fit(SmallTable(), &rng).ok());
  std::string bytes = synth.SerializeBinary().ValueOrDie();
  fs::path dir = ScratchDir("truncation");
  fs::path target = dir / "torn.bin";
  // A full byte-by-byte sweep is slow on a multi-KB bundle; cut at every
  // boundary in the header region and then at a stride, plus the tail.
  std::vector<size_t> cuts;
  for (size_t i = 0; i < std::min<size_t>(bytes.size(), 64); ++i) {
    cuts.push_back(i);
  }
  for (size_t i = 64; i < bytes.size(); i += 41) cuts.push_back(i);
  cuts.push_back(bytes.size() - 1);
  for (size_t len : cuts) {
    Spit(target, bytes.substr(0, len));
    GreatSynthesizer loaded;
    Status status = loaded.Load(target.string());
    ASSERT_FALSE(status.ok()) << "prefix length " << len;
    EXPECT_EQ(status.code(), StatusCode::kDataLoss)
        << "prefix length " << len << ": " << status.ToString();
    EXPECT_FALSE(loaded.fitted()) << "prefix length " << len;
  }
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x00000100000001b3ull;
  }
  return h;
}

constexpr char kSynthesizerKind[] = "greater.great_synthesizer";

TEST_F(DurabilityTest, DefaultOptionsArtifactBytesArePinned) {
  // Artifacts written before the decode-mode option was removed must keep
  // loading, so a default-options bundle keeps its kind, its version and
  // every byte (the options codec still writes the mode byte as 0).
  GreatSynthesizer synth;
  Rng rng(3);
  ASSERT_TRUE(synth.Fit(SmallTable(), &rng).ok());
  std::string bytes = synth.SerializeBinary().ValueOrDie();
  Result<ArtifactReader> doc =
      ArtifactReader::Parse(bytes, kSynthesizerKind, 2);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->kind(), kSynthesizerKind);
  EXPECT_EQ(doc->version(), 2u);
  EXPECT_EQ(Fnv1a(bytes), 0xda31413d7b2b177bull) << bytes.size() << " bytes";
}

TEST_F(DurabilityTest, LegacyAliasDecodeModeFailsPrecondition) {
  // A bundle saved with the removed alias draw mode (mode byte 1) must
  // fail Load with a typed precondition error, not a crash and not a
  // silent switch to exact replay.
  GreatSynthesizer synth;
  Rng rng(3);
  ASSERT_TRUE(synth.Fit(SmallTable(), &rng).ok());
  Result<ArtifactReader> doc = ArtifactReader::Parse(
      synth.SerializeBinary().ValueOrDie(), kSynthesizerKind, 2);
  ASSERT_TRUE(doc.ok()) << doc.status();

  // The options codec ends with: mode u8, cache_hidden_states bool,
  // hidden_capacity u64, batch_rows u64.
  ByteWriter tail;
  GreatSynthesizer::AppendOptionsTo(synth.options(), &tail);
  const size_t mode_offset = tail.bytes().size() - (1 + 1 + 8 + 8);
  ASSERT_EQ(tail.bytes()[mode_offset], '\0');

  // Rebuilding the document through ArtifactWriter recomputes every CRC,
  // so only the patched byte differs from a valid bundle.
  ArtifactWriter patched(kSynthesizerKind, doc->version());
  for (const std::string& name : doc->chunk_names()) {
    std::string payload(doc->Chunk(name).ValueOrDie());
    if (name == "options") {
      ASSERT_EQ(payload, tail.bytes());
      payload[mode_offset] = 1;
    }
    patched.AddChunk(name, std::move(payload));
  }
  fs::path target = ScratchDir("legacy_mode") / "alias.bin";
  Spit(target, patched.Finish());

  GreatSynthesizer loaded;
  Status status = loaded.Load(target.string());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
  EXPECT_FALSE(loaded.fitted());
}

TEST_F(DurabilityTest, LmVocabMismatchFailsWithDataLoss) {
  // A CRC-valid bundle whose n-gram LM covers a different vocabulary than
  // its encoder must fail Load: decode indexes LM distributions by
  // encoder token id.
  GreatSynthesizer synth;
  Rng rng(3);
  ASSERT_TRUE(synth.Fit(SmallTable(), &rng).ok());
  Result<ArtifactReader> doc = ArtifactReader::Parse(
      synth.SerializeBinary().ValueOrDie(), kSynthesizerKind, 2);
  ASSERT_TRUE(doc.ok()) << doc.status();

  NGramLm original(1);
  ASSERT_TRUE(original.DeserializeBinary(doc->Chunk("lm").ValueOrDie()).ok());
  NGramLm wider(original.vocab_size() + 5);
  ASSERT_TRUE(wider.Fit({{3, 4}}).ok());

  ArtifactWriter patched(kSynthesizerKind, doc->version());
  for (const std::string& name : doc->chunk_names()) {
    std::string payload(doc->Chunk(name).ValueOrDie());
    if (name == "lm") payload = wider.SerializeBinary();
    patched.AddChunk(name, std::move(payload));
  }
  fs::path target = ScratchDir("lm_vocab") / "mismatch.bin";
  Spit(target, patched.Finish());

  GreatSynthesizer loaded;
  Status status = loaded.Load(target.string());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
  EXPECT_FALSE(loaded.fitted());

  // The untouched bundle still loads.
  fs::path intact = ScratchDir("lm_vocab_intact") / "bundle.bin";
  ASSERT_TRUE(synth.Save(intact.string()).ok());
  GreatSynthesizer reloaded;
  EXPECT_TRUE(reloaded.Load(intact.string()).ok());
}

TEST_F(DurabilityTest, RelationalSynthesizerSaveLoadSampleBitwise) {
  // One-row-per-key parent with a multi-visit child, as Fit requires.
  Table parent(Schema({Field("id", ValueType::kInt),
                       Field("gender", ValueType::kInt),
                       Field("age", ValueType::kInt)}));
  Table child(Schema({Field("id", ValueType::kInt),
                      Field("item", ValueType::kInt)}));
  Rng data_rng(53);
  for (int64_t id = 0; id < 30; ++id) {
    int64_t gender = data_rng.UniformInt(2, 3);
    int64_t age = data_rng.UniformInt(2, 5);
    ASSERT_TRUE(
        parent.AppendRow({Value(id), Value(gender), Value(age)}).ok());
    int64_t visits = data_rng.UniformInt(1, 4);
    for (int64_t v = 0; v < visits; ++v) {
      int64_t item = data_rng.Bernoulli(0.7) ? age : data_rng.UniformInt(2, 5);
      ASSERT_TRUE(child.AppendRow({Value(id), Value(item)}).ok());
    }
  }

  RelationalSynthesizer::Options options;
  options.parent.encoder.permutations_per_row = 1;
  options.child.encoder.permutations_per_row = 1;
  RelationalSynthesizer original(options);
  Rng fit_rng(7);
  ASSERT_TRUE(original.Fit(parent, child, "id", &fit_rng).ok());

  fs::path dir = ScratchDir("relational");
  fs::path target = dir / "pair.bin";
  ASSERT_TRUE(original.Save(target.string()).ok());
  RelationalSynthesizer loaded;
  ASSERT_TRUE(loaded.Load(target.string()).ok());
  ASSERT_TRUE(loaded.fitted());
  EXPECT_EQ(loaded.child_counts(), original.child_counts());

  Rng rng_a(123), rng_b(123);
  RelationalSample sample_a = original.Sample(10, &rng_a).ValueOrDie();
  RelationalSample sample_b = loaded.Sample(10, &rng_b).ValueOrDie();
  EXPECT_TRUE(sample_a.parent == sample_b.parent);
  EXPECT_TRUE(sample_a.child == sample_b.child);
}

// ---------- pipeline stage resume ----------

class PipelineResumeTest : public DurabilityTest {
 protected:
  static void SetUpTestSuite() {
    Rng rng(42);
    DigixOptions options;
    options.num_users = 40;
    DigixGenerator gen(options);
    data_ = new DigixDataset(gen.Generate(&rng).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  static PipelineOptions FastOptions(const fs::path& ckpt_dir) {
    PipelineOptions options;
    options.fusion = FusionMethod::kGreaterMedianThreshold;
    options.semantic = SemanticMode::kDifferentiability;
    options.synth.encoder.permutations_per_row = 1;
    options.checkpoint_dir = ckpt_dir.string();
    return options;
  }

  static PipelineResult RunOnce(const PipelineOptions& options,
                                uint64_t seed) {
    MultiTablePipeline pipeline(options);
    Rng rng(seed);
    return pipeline.Run(data_->ads, data_->feeds, "user_id", &rng)
        .ValueOrDie();
  }

  static DigixDataset* data_;
};

DigixDataset* PipelineResumeTest::data_ = nullptr;

TEST_F(PipelineResumeTest, WarmResumeIsByteIdenticalAndHitsEveryStage) {
  fs::path dir = ScratchDir("resume_warm");
  PipelineOptions options = FastOptions(dir);
  Counter& hits = MetricsRegistry::Global().GetCounter("ckpt.stage_hits");
  Counter& stores =
      MetricsRegistry::Global().GetCounter("ckpt.stage_stores");

  uint64_t stores_before = stores.Value();
  PipelineResult cold = RunOnce(options, 7);
  EXPECT_EQ(stores.Value() - stores_before, 4u)
      << "prepare/fuse/fit/sample should each persist";

  uint64_t hits_before = hits.Value();
  PipelineResult warm = RunOnce(options, 7);
  EXPECT_EQ(hits.Value() - hits_before, 4u);

  EXPECT_TRUE(cold.synthetic_flat == warm.synthetic_flat);
  EXPECT_TRUE(cold.synthetic_parent == warm.synthetic_parent);
  EXPECT_EQ(WriteCsvString(cold.synthetic_flat),
            WriteCsvString(warm.synthetic_flat));
  EXPECT_EQ(cold.sample_report.rows_requested,
            warm.sample_report.rows_requested);
  EXPECT_EQ(cold.flattened_rows, warm.flattened_rows);
  EXPECT_EQ(cold.independence.independent, warm.independence.independent);
}

TEST_F(PipelineResumeTest, CheckpointedRunMatchesUncheckpointedRun) {
  // Enabling checkpointing must not perturb the output stream at all.
  fs::path dir = ScratchDir("resume_vs_plain");
  PipelineOptions with = FastOptions(dir);
  PipelineOptions without = FastOptions(dir);
  without.checkpoint_dir.clear();
  PipelineResult a = RunOnce(without, 7);
  PipelineResult b = RunOnce(with, 7);
  EXPECT_TRUE(a.synthetic_flat == b.synthetic_flat);
  EXPECT_TRUE(a.synthetic_parent == b.synthetic_parent);
}

TEST_F(PipelineResumeTest, PartialResumeAfterLostSampleStage) {
  // Simulates a crash after fit but before the sample checkpoint landed:
  // the re-run loads prepare/fuse/fit and recomputes sampling only,
  // producing the identical output.
  fs::path dir = ScratchDir("resume_partial");
  PipelineOptions options = FastOptions(dir);
  PipelineResult cold = RunOnce(options, 7);

  bool removed = false;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("stage.sample.", 0) == 0) {
      fs::remove(entry.path());
      removed = true;
    }
  }
  ASSERT_TRUE(removed) << "expected a stage.sample.* checkpoint in " << dir;

  Counter& hits = MetricsRegistry::Global().GetCounter("ckpt.stage_hits");
  Counter& misses =
      MetricsRegistry::Global().GetCounter("ckpt.stage_misses");
  uint64_t hits_before = hits.Value();
  uint64_t misses_before = misses.Value();
  PipelineResult resumed = RunOnce(options, 7);
  EXPECT_EQ(hits.Value() - hits_before, 3u);
  EXPECT_EQ(misses.Value() - misses_before, 1u);
  EXPECT_TRUE(cold.synthetic_flat == resumed.synthetic_flat);
}

TEST_F(PipelineResumeTest, CorruptCheckpointDegradesToRecompute) {
  fs::path dir = ScratchDir("resume_corrupt");
  PipelineOptions options = FastOptions(dir);
  PipelineResult cold = RunOnce(options, 7);

  // Flip a byte in the middle of every checkpoint file.
  size_t corrupted = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string bytes = Slurp(entry.path());
    ASSERT_GT(bytes.size(), 32u);
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
    Spit(entry.path(), bytes);
    ++corrupted;
  }
  ASSERT_EQ(corrupted, 4u);

  Counter& corrupt =
      MetricsRegistry::Global().GetCounter("ckpt.stage_corrupt");
  uint64_t corrupt_before = corrupt.Value();
  PipelineResult resumed = RunOnce(options, 7);
  EXPECT_EQ(corrupt.Value() - corrupt_before, 4u);
  EXPECT_TRUE(cold.synthetic_flat == resumed.synthetic_flat);
}

TEST_F(PipelineResumeTest, WriteFaultDuringRunIsNonFatal) {
  // A crash while persisting a checkpoint must neither fail the run nor
  // poison the next one: the armed ckpt.write fault kills the first two
  // stage stores, the run completes, and the re-run recomputes the lost
  // stages to the identical result.
  fs::path dir = ScratchDir("resume_write_fault");
  PipelineOptions options = FastOptions(dir);
  Counter& store_failures =
      MetricsRegistry::Global().GetCounter("ckpt.stage_store_failures");
  uint64_t failures_before = store_failures.Value();
  PipelineResult cold;
  {
    FaultSpec spec;
    spec.code = StatusCode::kResourceExhausted;
    spec.message = "simulated crash during checkpoint write";
    spec.max_fires = 2;
    ScopedFault fault("ckpt.write", spec);
    cold = RunOnce(options, 7);
  }
  EXPECT_EQ(store_failures.Value() - failures_before, 2u);

  PipelineResult resumed = RunOnce(options, 7);
  EXPECT_TRUE(cold.synthetic_flat == resumed.synthetic_flat);
}

TEST_F(PipelineResumeTest, ChangedConfigurationMissesEveryKey) {
  fs::path dir = ScratchDir("resume_config");
  PipelineOptions options = FastOptions(dir);
  RunOnce(options, 7);

  Counter& hits = MetricsRegistry::Global().GetCounter("ckpt.stage_hits");
  uint64_t hits_before = hits.Value();
  // A different seed changes the starting RNG state: nothing may be
  // reused, by construction of the fingerprint chain.
  RunOnce(options, 8);
  EXPECT_EQ(hits.Value() - hits_before, 0u);

  hits_before = hits.Value();
  PipelineOptions hotter = options;
  hotter.synth.temperature = 1.25;
  RunOnce(hotter, 7);
  EXPECT_EQ(hits.Value() - hits_before, 0u);
}

TEST_F(PipelineResumeTest, DerecPathResumesTooAndStaysIdentical) {
  fs::path dir = ScratchDir("resume_derec");
  PipelineOptions options = FastOptions(dir);
  options.fusion = FusionMethod::kDerecIndependent;
  Counter& stores =
      MetricsRegistry::Global().GetCounter("ckpt.stage_stores");
  uint64_t stores_before = stores.Value();
  PipelineResult cold = RunOnce(options, 7);
  EXPECT_EQ(stores.Value() - stores_before, 3u)
      << "DEREC checkpoints prepare/fit/sample (no fuse stage)";
  PipelineResult warm = RunOnce(options, 7);
  EXPECT_TRUE(cold.synthetic_flat == warm.synthetic_flat);
  EXPECT_TRUE(cold.synthetic_parent == warm.synthetic_parent);
}


TEST_F(PipelineResumeTest, UndecodableStageCheckpointRecomputes) {
  // Stage files that parse as stage documents but do not decode must be
  // recomputed, never fail the run: first with no chunks at all, then
  // with only the stage's real RNG chunk (a restore that committed RNG
  // state before failing would shift every later draw).
  fs::path dir = ScratchDir("resume_undecodable");
  PipelineOptions options = FastOptions(dir);
  PipelineResult clean = RunOnce(options, 7);
  std::vector<std::pair<fs::path, std::string>> originals;
  for (const auto& entry : fs::directory_iterator(dir)) {
    originals.emplace_back(entry.path(), Slurp(entry.path()));
  }
  ASSERT_EQ(originals.size(), 4u);

  MetricsRegistry& metrics = MetricsRegistry::Global();
  for (bool keep_rng : {false, true}) {
    SCOPED_TRACE(keep_rng ? "rng-only documents" : "empty documents");
    for (const auto& [path, bytes] : originals) {
      ArtifactWriter doc("greater.stage_checkpoint", 1);
      if (keep_rng) {
        Result<ArtifactReader> real =
            ArtifactReader::Parse(bytes, "greater.stage_checkpoint", 1);
        ASSERT_TRUE(real.ok()) << real.status();
        doc.AddChunk("rng", std::string(real->Chunk("rng").ValueOrDie()));
      }
      Spit(path, doc.Finish());
    }
    const uint64_t hits = metrics.GetCounter("ckpt.stage_hits").Value();
    const uint64_t misses = metrics.GetCounter("ckpt.stage_misses").Value();
    const uint64_t corrupt = metrics.GetCounter("ckpt.stage_corrupt").Value();
    MultiTablePipeline pipeline(options);
    Rng rng(7);
    Result<PipelineResult> rerun =
        pipeline.Run(data_->ads, data_->feeds, "user_id", &rng);
    ASSERT_TRUE(rerun.ok()) << rerun.status();
    EXPECT_EQ(WriteCsvString(rerun->synthetic_flat),
              WriteCsvString(clean.synthetic_flat));
    EXPECT_EQ(WriteCsvString(rerun->synthetic_parent),
              WriteCsvString(clean.synthetic_parent));
    EXPECT_EQ(metrics.GetCounter("ckpt.stage_hits").Value() - hits, 0u);
    EXPECT_EQ(metrics.GetCounter("ckpt.stage_misses").Value() - misses, 4u);
    EXPECT_EQ(metrics.GetCounter("ckpt.stage_corrupt").Value() - corrupt,
              4u);
    // The recompute keyed every stage as the clean run did, so it
    // rewrote the very same files.
    for (const auto& [path, bytes] : originals) {
      EXPECT_EQ(Slurp(path), bytes) << path;
    }
  }
}

// ---------- checkpoint directory compatibility ----------

// The checkpoint files a run leaves behind, as (file name, FNV-1a of the
// bytes) sorted by name. Names carry every key, so equal listings mean a
// directory written by one build is a full hit for the other.
using CheckpointListing = std::vector<std::pair<std::string, uint64_t>>;

CheckpointListing ListCheckpoints(const fs::path& dir) {
  CheckpointListing listing;
  for (const auto& entry : fs::directory_iterator(dir)) {
    listing.emplace_back(entry.path().filename().string(),
                         Fnv1a(Slurp(entry.path())));
  }
  std::sort(listing.begin(), listing.end());
  return listing;
}

void ExpectListing(const CheckpointListing& actual,
                   const CheckpointListing& pinned) {
  if (actual == pinned) return;
  std::ostringstream dump;
  for (const auto& [name, fnv] : actual) {
    dump << "  {\"" << name << "\", 0x" << std::hex << fnv << "ull},\n";
  }
  ADD_FAILURE() << "checkpoint files differ from the pin; found:\n"
                << dump.str();
}

TEST_F(PipelineResumeTest, RunFromCsvCheckpointFilesArePinned) {
  fs::path dir = ScratchDir("compat_run_from_csv");
  fs::path ads = dir / "ads.csv";
  fs::path feeds = dir / "feeds.csv";
  ASSERT_TRUE(WriteCsvFile(data_->ads, ads.string()).ok());
  ASSERT_TRUE(WriteCsvFile(data_->feeds, feeds.string()).ok());
  PipelineOptions options = FastOptions(dir / "ckpt");
  options.stream.chunk_rows = 128;
  MultiTablePipeline pipeline(options);
  Rng rng(7);
  Result<PipelineResult> result =
      pipeline.RunFromCsv(ads.string(), feeds.string(), "user_id", &rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(Fnv1a(WriteCsvString(result->synthetic_flat)),
            0x39a774fc3ffef6f1ull);
  ExpectListing(
      ListCheckpoints(dir / "ckpt"),
      {
          {"chunk.ingest.child1.0.7c0958eb934a50d7.ckpt", 0xa46ad62397cb83dull},
          {"chunk.ingest.child1.1.48dccefb12e9d590.ckpt", 0xa8a103bd03aec90cull},
          {"chunk.ingest.child2.0.6de4010c269875e5.ckpt", 0x1c6ba537ab539c05ull},
          {"chunk.ingest.child2.1.f5f5d0cb918e7318.ckpt", 0xbfe7f8cfb9952feeull},
          {"stage.fit.58739e813c37bc3d.ckpt", 0xb1370ca461154f54ull},
          {"stage.fuse.5a6f8e0bf6863c4f.ckpt", 0xcc3ab5699132ea40ull},
          {"stage.prepare.6c3190f63f3cf57f.ckpt", 0xc8452da9d828da85ull},
          {"stage.sample.92e60cf33c289131.ckpt", 0x63e0ab65b0f976b0ull},
      });
}

TEST_F(DurabilityTest, RunFromCsvStreamingCheckpointFilesArePinned) {
  fs::path dir = ScratchDir("compat_streaming");
  fs::path csv = dir / "input.csv";
  std::string text = "a,b,c\n";
  for (size_t i = 0; i < 60; ++i) {
    text += std::to_string(i % 13) + "," + std::to_string((i * 2) % 9) +
            ",v" + std::to_string(i % 7) + "\n";
  }
  Spit(csv, text);
  StreamingSynthesisOptions options;
  options.stream.chunk_rows = 16;
  options.emit_chunk_rows = 9;
  options.checkpoint_dir = (dir / "ckpt").string();
  fs::path out = dir / "out.csv";
  Result<StreamingSynthesisResult> run =
      RunFromCsvStreaming(csv.string(), out.string(), 30, options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(Fnv1a(Slurp(out)), 0xf216a204ffe75450ull);
  ExpectListing(
      ListCheckpoints(dir / "ckpt"),
      {
          {"chunk.oocore.emit.0.7199f8643d65eca8.ckpt", 0xd4987ade2550085full},
          {"chunk.oocore.emit.1.4e651eeae68fcb0a.ckpt", 0x4e2e8314222106d7ull},
          {"chunk.oocore.emit.2.96362f441e0a54b9.ckpt", 0x6188545623d84e02ull},
          {"chunk.oocore.emit.3.3de7da899c8ec707.ckpt", 0x3bab20a4d727630bull},
          {"chunk.oocore.fit.0.db7b67dcfff06b72.ckpt", 0x9d082a04610ee496ull},
          {"chunk.oocore.fit.1.decaacb6afc79737.ckpt", 0x24df464885f8b19full},
          {"chunk.oocore.fit.2.1091206e63af6423.ckpt", 0x12143616a336fb73ull},
          {"chunk.oocore.fit.3.bc0c5e4e4ec9e6e5.ckpt", 0xb5a29f98be94606cull},
          {"stage.oocore.model.24e90cd3645cdeaf.ckpt", 0x70e5df14de96c3f8ull},
      });
}

TEST_F(DurabilityTest, StagePersistWritesStoresFileWithoutAdvancingChain) {
  // Persist is Store for a chain's last stage: the same file name and
  // bytes, counted the same, but the chain stays at the pre-store key.
  fs::path dir = ScratchDir("stage_persist");
  auto build = [](ArtifactWriter* doc) {
    doc->AddChunk("model", "payload bytes");
    return Status::OK();
  };
  Counter& stores = MetricsRegistry::Global().GetCounter("ckpt.stage_stores");
  StageCheckpointer stored((dir / "store").string());
  StageCheckpointer persisted((dir / "persist").string());
  stored.Mix("options");
  persisted.Mix("options");
  const uint64_t key = persisted.chain();
  const uint64_t stores_before = stores.Value();
  stored.Store("model", build);
  persisted.Persist("model", build);
  EXPECT_EQ(stores.Value() - stores_before, 2u);
  EXPECT_NE(stored.chain(), key);
  EXPECT_EQ(persisted.chain(), key);
  const fs::path file = fs::path(persisted.StagePath("model")).filename();
  ASSERT_TRUE(fs::exists(dir / "store" / file));
  EXPECT_EQ(Slurp(dir / "persist" / file), Slurp(dir / "store" / file));
}

}  // namespace
}  // namespace greater
