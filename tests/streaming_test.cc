// Streaming runtime suite (`ctest -L streaming`): bounded-queue
// backpressure, incremental CSV record splitting across arbitrary block
// boundaries (checked against a byte-at-a-time reference splitter on
// generated inputs), quarantine accounting under the lenient policy, watchdog
// detection of hung/dead workers, and per-chunk crash resume — including
// a fork + SIGKILL sweep that must land byte-identical after resuming
// from the same checkpoint directory. This is also the suite to run
// under GREATER_SANITIZE=thread.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/artifact_io.h"
#include "common/checkpoint_store.h"
#include "common/fault.h"
#include "common/rng.h"
#include "crosstable/flatten.h"
#include "crosstable/pipeline.h"
#include "datagen/digix.h"
#include "obs/metrics.h"
#include "reference_csv_splitter.h"
#include "stream/bounded_queue.h"
#include "stream/csv_ingest.h"
#include "stream/quarantine.h"
#include "stream/stream_runtime.h"
#include "tabular/csv.h"

namespace greater {
namespace {

namespace fs = std::filesystem;

fs::path ScratchDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("greater_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string Slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void Spit(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// CSV that exercises every splitter edge at once: quoted newline, escaped
// quote, quoted delimiter, CRLF/LF mix, blank line, ragged-final-record
// (no trailing newline), and a null-able empty field.
std::string GnarlyCsv() {
  return std::string("id,name,notes\r\n") +
         "1,\"Smith, Jane\",\"line one\nline two\"\n" +
         "2,\"say \"\"hi\"\"\",plain\r\n" +
         "\n" +
         "3,trailing,\n" +
         "4,last,\"no newline after\"";
}

// Wide numeric CSV with `rows` data records, for chunk/checkpoint sweeps.
std::string NumericCsv(size_t rows) {
  std::string text = "a,b,c\n";
  for (size_t i = 0; i < rows; ++i) {
    text += std::to_string(i) + "," + std::to_string(i * 2) + ",v" +
            std::to_string(i % 7) + "\n";
  }
  return text;
}

StreamOptions SmallStream() {
  StreamOptions opt;
  opt.enabled = true;
  opt.chunk_rows = 3;
  opt.queue_capacity = 2;
  opt.num_workers = 1;
  opt.io_block_bytes = 16;
  return opt;
}

class StreamingTest : public testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().DisarmAll(); }
};

// ---------- BoundedQueue primitives ----------

TEST_F(StreamingTest, QueuePreservesFifoAndDrainsAfterClose) {
  BoundedQueue<int> q("t.fifo", 8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.Push(i));
  q.Close();
  for (int i = 0; i < 5; ++i) {
    auto item = q.Pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
  EXPECT_FALSE(q.Pop().has_value());  // closed and drained
  EXPECT_FALSE(q.Push(99));           // closed: rejected
  EXPECT_TRUE(q.error().ok());
}

TEST_F(StreamingTest, QueueBackpressureBoundsDepthAndCountsWaits) {
  BoundedQueue<int> q("t.bp", 2);
  Counter& waits = MetricsRegistry::Global().GetCounter(
      "stream.queue_full_waits");
  std::thread producer([&] {
    for (int i = 0; i < 10; ++i) q.Push(i);
    q.Close();
  });
  // The producer has 10 items and capacity 2, so it must block at least
  // once; wait for that wait to be observable before draining.
  while (waits.Value() == 0) std::this_thread::yield();
  int expected = 0;
  while (auto item = q.Pop()) EXPECT_EQ(*item, expected++);
  producer.join();
  EXPECT_EQ(expected, 10);
  EXPECT_GE(waits.Value(), 1u);
  Gauge& peak = MetricsRegistry::Global().GetGauge("stream.queue_peak.t.bp");
  EXPECT_LE(peak.Value(), 2.0);
  EXPECT_GE(peak.Value(), 1.0);
}

TEST_F(StreamingTest, PoisonUnblocksBlockedProducerAndConsumer) {
  BoundedQueue<int> q("t.poison", 1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> producer_rejected{false};
  std::thread producer([&] {
    // Queue is full and nobody pops: this blocks until the poison wakes
    // it, and the wakened push must report rejection.
    producer_rejected.store(!q.Push(2));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Poison(Status::Internal("downstream died"));
  producer.join();
  EXPECT_TRUE(producer_rejected.load());
  EXPECT_EQ(q.error().code(), StatusCode::kInternal);
  EXPECT_FALSE(q.Pop().has_value());  // poison dropped the buffered item
  EXPECT_FALSE(q.Push(3));            // and rejects every later push

  // The stream.queue_full fault point fires when a producer finds the
  // queue full: the queue poisons with the injected status and the push
  // reports rejection instead of blocking.
  BoundedQueue<int> hot("t.push_fault", 1);
  EXPECT_TRUE(hot.Push(0));
  FaultSpec spec;
  spec.code = StatusCode::kDataLoss;
  spec.message = "injected consumer death";
  ScopedFault fault("stream.queue_full", spec);
  EXPECT_FALSE(hot.Push(6));
  EXPECT_EQ(hot.error().code(), StatusCode::kDataLoss);
  EXPECT_FALSE(hot.Pop().has_value());
}

// ---------- incremental CSV record splitter ----------

std::vector<CsvRecordCopy> SplitAll(const std::string& text,
                                    size_t block_bytes) {
  CsvRecordSplitter splitter;
  CsvRecordBatch batch;
  for (size_t off = 0; off < text.size(); off += block_bytes) {
    splitter.Feed(std::string_view(text).substr(off, block_bytes));
    while (true) {
      auto next = splitter.NextRecord(&batch);
      if (!next.ok() || *next != CsvRecordSplitter::Next::kRecord) break;
    }
  }
  splitter.FinishInput();
  while (true) {
    auto next = splitter.NextRecord(&batch);
    if (!next.ok() || *next != CsvRecordSplitter::Next::kRecord) break;
  }
  return CopyRecords(batch);
}

TEST_F(StreamingTest, SplitterIsIndependentOfBlockBoundaries) {
  const std::string text = "\xEF\xBB\xBF" + GnarlyCsv();
  auto whole = SplitAll(text, text.size());
  ASSERT_EQ(whole.size(), 5u);  // header + 4 data records (blank skipped)
  EXPECT_EQ(whole[1].fields[1], "Smith, Jane");
  EXPECT_EQ(whole[1].fields[2], "line one\nline two");
  EXPECT_EQ(whole[2].fields[1], "say \"hi\"");
  EXPECT_EQ(whole[4].fields[2], "no newline after");
  // Blank lines do not consume record numbers.
  EXPECT_EQ(whole[3].number, 4u);
  EXPECT_EQ(whole[4].number, 5u);
  // Every block size — including 1 byte, which splits the BOM, quoted
  // newlines, escaped quotes, and CRLF pairs across feeds — must yield
  // byte-identical records.
  for (size_t block = 1; block <= 9; ++block) {
    auto split = SplitAll(text, block);
    ASSERT_EQ(split.size(), whole.size()) << "block=" << block;
    for (size_t i = 0; i < whole.size(); ++i) {
      EXPECT_EQ(split[i].number, whole[i].number) << "block=" << block;
      EXPECT_EQ(split[i].fields, whole[i].fields) << "block=" << block;
      EXPECT_EQ(split[i].raw, whole[i].raw) << "block=" << block;
    }
  }
}

TEST_F(StreamingTest, SplitterFailsTypedOnEofInsideQuotes) {
  CsvRecordSplitter splitter;
  splitter.Feed("a,b\n1,\"unterminated");
  splitter.FinishInput();
  CsvRecordSplitter::Record record;
  ASSERT_TRUE(splitter.NextRecord(&record).ok());  // header
  auto next = splitter.NextRecord(&record);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kDataLoss);
}

TEST_F(StreamingTest, SplitterEnforcesRecordByteBudget) {
  CsvRecordSplitter splitter;
  splitter.set_max_record_bytes(16);
  splitter.Feed("a,b\n1," + std::string(64, 'x') + "\n");
  CsvRecordSplitter::Record record;
  ASSERT_TRUE(splitter.NextRecord(&record).ok());  // header fits
  auto next = splitter.NextRecord(&record);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(next.status().message().find("record budget"),
            std::string::npos);
}

// ---------- splitter vs the byte-at-a-time reference ----------

// A random CSV byte stream over every splitter edge: quoted fields with
// delimiters, escaped quotes, quoted newlines and quoted CRs; quotes and
// text after a closing quote; CRLF, LF and lone CR; a BOM; blank and `""`
// lines; ragged rows and empty cells; non-ASCII text; sometimes an
// unterminated quote or no trailing newline at the end.
std::string GenerateCsv(Rng* rng) {
  static const char* const kPlain[] = {
      "a", "42", "-7", "3.5", "x y", "é", "日本", "na\xC3\xAFve", "0",
      "1e3", " ", "q\"mid", "lone\rcr"};
  static const char* const kQuoted[] = {
      "\"a,b\"",        "\"say \"\"hi\"\"\"", "\"line\nbreak\"",
      "\"cr\rinside\"", "\"\"",              "\"tail\"after",
      "\"x\"\"",        "\"trail\r\"",       "\"\"\"\"",
      "\"ü,\n\"\"\""};
  std::string text;
  if (rng->Bernoulli(0.2)) text += "\xEF\xBB\xBF";
  const size_t records = rng->Index(12);
  for (size_t r = 0; r < records; ++r) {
    const double kind = rng->Uniform();
    if (kind < 0.08) {
      text += rng->Bernoulli(0.5) ? "" : "\"\"";
    } else if (kind < 0.12) {
      text += std::string(rng->Index(40) + 20, 'w');  // maybe oversized
    } else {
      const size_t fields = rng->Index(5) + 1;
      for (size_t f = 0; f < fields; ++f) {
        if (f > 0) text += ',';
        const double cell = rng->Uniform();
        if (cell < 0.2) continue;  // empty cell
        text += cell < 0.6 ? kPlain[rng->Index(std::size(kPlain))]
                           : kQuoted[rng->Index(std::size(kQuoted))];
      }
    }
    if (r + 1 == records && rng->Bernoulli(0.3)) break;  // no final newline
    const double sep = rng->Uniform();
    text += sep < 0.6 ? "\n" : sep < 0.9 ? "\r\n" : "\r\r\n";
  }
  if (rng->Bernoulli(0.05)) text += "1,\"unterminated";
  return text;
}

struct SplitOutcome {
  std::vector<CsvRecordCopy> records;
  std::string chain_bytes;  // every record's raw text plus '\n'
  Status status;
};

// Drives a splitter the way the ingest reader does, feeding `text` in
// blocks that end at `cuts`.
template <typename Splitter, typename Pull>
SplitOutcome DriveSplitter(Splitter* splitter, const std::string& text,
                           const std::vector<size_t>& cuts, Pull pull) {
  SplitOutcome outcome;
  size_t block = 0;
  size_t offset = 0;
  for (;;) {
    Result<CsvRecordSplitter::Next> next = pull(&outcome);
    if (!next.ok()) {
      outcome.status = next.status();
      return outcome;
    }
    if (*next == CsvRecordSplitter::Next::kEndOfInput) return outcome;
    if (*next != CsvRecordSplitter::Next::kNeedMoreInput) continue;
    if (block == cuts.size()) {
      splitter->FinishInput();
      continue;
    }
    splitter->Feed(std::string_view(text).substr(offset, cuts[block] - offset));
    offset = cuts[block++];
  }
}

TEST_F(StreamingTest, SplitterMatchesByteAtATimeReference) {
  Counter& boms = MetricsRegistry::Global().GetCounter("csv.bom_stripped");
  Counter& blanks =
      MetricsRegistry::Global().GetCounter("csv.blank_lines_skipped");
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const std::string text = GenerateCsv(&rng);
    const size_t max_record_bytes = rng.Bernoulli(0.5) ? 0 : 24 + rng.Index(40);
    std::vector<size_t> cuts;
    for (size_t at = 0; at < text.size();) {
      at = std::min(text.size(), at + 1 + rng.Index(rng.Bernoulli(0.5) ? 4 : 64));
      cuts.push_back(at);
    }
    // The production side starts a fresh batch every few records, as the
    // reader does at each chunk boundary.
    const size_t batch_records = 1 + rng.Index(4);

    ReferenceCsvSplitter reference;
    reference.set_max_record_bytes(max_record_bytes);
    SplitOutcome expected =
        DriveSplitter(&reference, text, cuts, [&](SplitOutcome* out) {
          CsvRecordCopy record;
          Result<CsvRecordSplitter::Next> next = reference.NextRecord(&record);
          if (next.ok() && *next == CsvRecordSplitter::Next::kRecord) {
            out->chain_bytes += record.raw + '\n';
            out->records.push_back(std::move(record));
          }
          return next;
        });

    const uint64_t boms_before = boms.Value();
    const uint64_t blanks_before = blanks.Value();
    CsvRecordSplitter splitter;
    splitter.set_max_record_bytes(max_record_bytes);
    CsvRecordBatch batch;
    auto flush = [&](SplitOutcome* out) {
      for (CsvRecordCopy& record : CopyRecords(batch)) {
        out->records.push_back(std::move(record));
      }
      out->chain_bytes += batch.raw;
      batch = CsvRecordBatch();
    };
    SplitOutcome got =
        DriveSplitter(&splitter, text, cuts, [&](SplitOutcome* out) {
          Result<CsvRecordSplitter::Next> next = splitter.NextRecord(&batch);
          if (!next.ok() || *next == CsvRecordSplitter::Next::kEndOfInput ||
              batch.size() == batch_records) {
            flush(out);
          }
          return next;
        });

    ASSERT_EQ(got.status.code(), expected.status.code());
    ASSERT_EQ(got.status.message(), expected.status.message());
    ASSERT_EQ(got.records.size(), expected.records.size());
    for (size_t r = 0; r < expected.records.size(); ++r) {
      SCOPED_TRACE("record " + std::to_string(r));
      EXPECT_EQ(got.records[r].number, expected.records[r].number);
      EXPECT_EQ(got.records[r].fields, expected.records[r].fields);
      EXPECT_EQ(got.records[r].raw, expected.records[r].raw);
    }
    EXPECT_EQ(got.chain_bytes, expected.chain_bytes);
    EXPECT_EQ(boms.Value() - boms_before, reference.boms_stripped());
    EXPECT_EQ(blanks.Value() - blanks_before, reference.blank_lines_skipped());
    if (HasFailure()) return;
  }
}

// ---------- streaming ingest == in-memory reader ----------

TEST_F(StreamingTest, StreamingIngestMatchesInMemoryReaderExactly) {
  const std::string text = GnarlyCsv();
  auto reference = ReadCsvString(text);
  ASSERT_TRUE(reference.ok());
  for (size_t block : {size_t{1}, size_t{7}, size_t{1} << 16}) {
    for (size_t workers : {size_t{1}, size_t{3}}) {
      StreamOptions opt = SmallStream();
      opt.io_block_bytes = block;
      opt.num_workers = workers;
      StreamIngestReport report;
      auto streamed = ReadCsvStringStreaming(text, CsvReadOptions(), opt,
                                             StreamPolicy::kStrict, &report);
      ASSERT_TRUE(streamed.ok())
          << "block=" << block << " workers=" << workers << ": "
          << streamed.status().ToString();
      EXPECT_TRUE(*streamed == *reference)
          << "block=" << block << " workers=" << workers;
      EXPECT_EQ(WriteCsvString(*streamed), WriteCsvString(*reference));
      EXPECT_TRUE(report.Reconciles());
      EXPECT_EQ(report.quarantined, 0u);
    }
  }
}

TEST_F(StreamingTest, TypeInferenceParityAcrossChunkBoundaries) {
  // Column b is all-int only until record 40 — the violating cell lands in
  // a later chunk, so the per-chunk flag merge must demote the column
  // exactly like the whole-column scan does.
  std::string text = "a,b\n";
  for (int i = 0; i < 40; ++i)
    text += std::to_string(i) + "," + std::to_string(i) + "\n";
  text += "40,3.5\n41,oops\n";
  auto reference = ReadCsvString(text);
  ASSERT_TRUE(reference.ok());
  StreamOptions opt = SmallStream();
  opt.chunk_rows = 8;
  opt.num_workers = 2;
  auto streamed = ReadCsvStringStreaming(text, CsvReadOptions(), opt,
                                         StreamPolicy::kStrict);
  ASSERT_TRUE(streamed.ok());
  EXPECT_TRUE(*streamed == *reference);
}

TEST_F(StreamingTest, StrictPolicyFailsWithInMemoryErrorParity) {
  const std::string text = "a,b\n1,2\n3\n4,5\n";  // record 3 is ragged
  auto reference = ReadCsvString(text);
  ASSERT_FALSE(reference.ok());
  auto streamed = ReadCsvStringStreaming(text, CsvReadOptions(),
                                         SmallStream(),
                                         StreamPolicy::kStrict);
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.status().code(), reference.status().code());
  EXPECT_EQ(streamed.status().message(), reference.status().message());
}

TEST_F(StreamingTest, LenientPolicyQuarantinesAndReconciles) {
  fs::path dir = ScratchDir("stream_quarantine");
  fs::path qpath = dir / "quarantine.csv";
  std::string text = NumericCsv(20);
  text += "ragged-without-enough-fields\n";
  text += "20,40,v6\n";
  text += "also,ragged,too,many,fields\n";

  StreamOptions opt = SmallStream();
  opt.quarantine_path = qpath.string();
  StreamIngestReport report;
  QuarantineWriter quarantine(qpath.string());
  auto streamed =
      ReadCsvStringStreaming(text, CsvReadOptions(), opt,
                             StreamPolicy::kLenient, &report, {},
                             &quarantine, "unit-input");
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(streamed->num_rows(), 21u);
  EXPECT_EQ(report.rows_out, 21u);
  EXPECT_EQ(report.quarantined, 2u);
  EXPECT_EQ(report.rows_in, 23u);
  EXPECT_TRUE(report.Reconciles());
  EXPECT_EQ(quarantine.count(), 2u);
  EXPECT_EQ(MetricsRegistry::Global()
                .GetCounter("stream.quarantined_records")
                .Value(),
            2u);

  // The quarantine file preserves provenance and the raw record text.
  std::string contents = Slurp(qpath);
  EXPECT_NE(contents.find("source,record_number,code,message,raw"),
            std::string::npos);
  EXPECT_NE(contents.find("unit-input"), std::string::npos);
  EXPECT_NE(contents.find("ragged-without-enough-fields"),
            std::string::npos);
  EXPECT_NE(contents.find("too,many,fields"), std::string::npos);
}

TEST_F(StreamingTest, PeakQueueResidencyStaysWithinCapacity) {
  StreamOptions opt;
  opt.enabled = true;
  opt.chunk_rows = 4;
  opt.queue_capacity = 2;
  opt.num_workers = 2;
  opt.io_block_bytes = 32;
  auto streamed = ReadCsvStringStreaming(NumericCsv(200), CsvReadOptions(),
                                         opt, StreamPolicy::kStrict);
  ASSERT_TRUE(streamed.ok());
  // Acceptance bound: peak queue-resident rows <= queue_capacity x
  // chunk_rows per queue, asserted via the depth/peak gauges.
  for (const char* gauge :
       {"stream.queue_peak.ingest.raw", "stream.queue_peak.ingest.parsed"}) {
    double peak = MetricsRegistry::Global().GetGauge(gauge).Value();
    EXPECT_LE(peak, static_cast<double>(opt.queue_capacity)) << gauge;
  }
}

// ---------- per-chunk checkpointing and crash resume ----------

TEST_F(StreamingTest, ChunkResumeAfterMidRunFaultIsByteIdentical) {
  fs::path dir = ScratchDir("stream_resume");
  const std::string text = NumericCsv(30);  // 10 chunks at chunk_rows=3
  StreamOptions opt = SmallStream();

  auto reference = ReadCsvStringStreaming(text, CsvReadOptions(), opt,
                                          StreamPolicy::kStrict);
  ASSERT_TRUE(reference.ok());

  // Kill the run at every chunk boundary in turn; the rerun must load the
  // completed chunks and only recompute from the failure point.
  for (size_t fail_at : {size_t{0}, size_t{3}, size_t{7}}) {
    fs::path ckdir = dir / ("at" + std::to_string(fail_at));
    {
      FaultSpec spec;
      spec.code = StatusCode::kFailedPrecondition;
      spec.message = "injected parse crash";
      spec.skip_hits = fail_at;
      ScopedFault fault("stream.chunk_parse", spec);
      auto crashed = ReadCsvStringStreaming(text, CsvReadOptions(), opt,
                                            StreamPolicy::kStrict, nullptr,
                                            {ckdir.string(), "unit"});
      ASSERT_FALSE(crashed.ok());
      EXPECT_EQ(crashed.status().code(), StatusCode::kFailedPrecondition);
    }
    StreamIngestReport report;
    auto resumed = ReadCsvStringStreaming(text, CsvReadOptions(), opt,
                                          StreamPolicy::kStrict, &report,
                                          {ckdir.string(), "unit"});
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_TRUE(*resumed == *reference) << "fail_at=" << fail_at;
    EXPECT_EQ(WriteCsvString(*resumed), WriteCsvString(*reference));
    EXPECT_EQ(report.chunk_checkpoint_hits, fail_at)
        << "exactly the chunks completed before the crash should hit";
    EXPECT_TRUE(report.Reconciles());
  }
}

TEST_F(StreamingTest, CorruptChunkCheckpointDegradesToRecompute) {
  fs::path dir = ScratchDir("stream_corrupt");
  const std::string text = NumericCsv(12);
  StreamOptions opt = SmallStream();
  auto reference = ReadCsvStringStreaming(text, CsvReadOptions(), opt,
                                          StreamPolicy::kStrict);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(ReadCsvStringStreaming(text, CsvReadOptions(), opt,
                                     StreamPolicy::kStrict, nullptr,
                                     {dir.string(), "unit"})
                  .ok());
  // Corrupt every stored chunk in place.
  size_t corrupted = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    Spit(entry.path(), "garbage that is not an artifact");
    ++corrupted;
  }
  ASSERT_GE(corrupted, 4u);
  StreamIngestReport report;
  auto resumed = ReadCsvStringStreaming(text, CsvReadOptions(), opt,
                                        StreamPolicy::kStrict, &report,
                                        {dir.string(), "unit"});
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(*resumed == *reference);
  EXPECT_EQ(report.chunk_checkpoint_hits, 0u);
  EXPECT_GE(MetricsRegistry::Global()
                .GetCounter("stream.chunk_corrupt")
                .Value(),
            1u);
}

TEST_F(StreamingTest, ChunkStoreFailuresAreSwallowedAndCounted) {
  fs::path dir = ScratchDir("stream_store_fail");
  FaultSpec spec;
  spec.code = StatusCode::kResourceExhausted;
  spec.message = "disk full";
  ScopedFault fault("ckpt.write", spec);
  auto streamed = ReadCsvStringStreaming(NumericCsv(9), CsvReadOptions(),
                                         SmallStream(),
                                         StreamPolicy::kStrict, nullptr,
                                         {dir.string(), "unit"});
  // Best-effort persistence: a failing store never fails the ingest.
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_GE(MetricsRegistry::Global()
                .GetCounter("stream.chunk_store_failures")
                .Value(),
            1u);
}

// A CRC-valid chunk document whose flags fit a 3-column header, declaring
// `rows` rows and `quarantined` quarantined records with no payload.
std::string CraftedChunkDocument(uint32_t rows, uint32_t quarantined) {
  ArtifactWriter doc("greater.chunk_checkpoint", 1);
  ByteWriter flags;
  flags.PutU32(3);
  for (int i = 0; i < 9; ++i) flags.PutBool(true);
  doc.AddChunk("flags", std::move(flags).Take());
  ByteWriter row_bytes;
  row_bytes.PutU32(rows);
  doc.AddChunk("rows", std::move(row_bytes).Take());
  ByteWriter quar_bytes;
  quar_bytes.PutU32(quarantined);
  doc.AddChunk("quarantine", std::move(quar_bytes).Take());
  return doc.Finish();
}

TEST_F(StreamingTest, UndecodableChunkCheckpointIsACorruptMiss) {
  // Chunk files that parse as chunk documents but hold no chunk payload,
  // or declare far more rows or quarantined records than they hold, must
  // be recomputed, and counted as corrupt misses, never as hits — and a
  // crafted count must never become an allocation of that many entries.
  fs::path dir = ScratchDir("stream_undecodable");
  const std::string text = NumericCsv(40);
  StreamOptions opt = SmallStream();
  opt.chunk_rows = 10;
  auto reference = ReadCsvStringStreaming(text, CsvReadOptions(), opt,
                                          StreamPolicy::kStrict);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(ReadCsvStringStreaming(text, CsvReadOptions(), opt,
                                     StreamPolicy::kStrict, nullptr,
                                     {dir.string(), "unit"})
                  .ok());
  const std::string documents[] = {
      ArtifactWriter("greater.chunk_checkpoint", 1).Finish(),
      CraftedChunkDocument(0xFFFFFFFFu, 0),
      CraftedChunkDocument(0, 0xFFFFFFFFu),
  };
  for (size_t d = 0; d < std::size(documents); ++d) {
    SCOPED_TRACE("document " + std::to_string(d));
    // Each rerun stores good chunks again, so every round starts over.
    size_t overwritten = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      Spit(entry.path(), documents[d]);
      ++overwritten;
    }
    ASSERT_EQ(overwritten, 4u);

    MetricsRegistry& metrics = MetricsRegistry::Global();
    const uint64_t hits = metrics.GetCounter("stream.chunk_hits").Value();
    const uint64_t misses =
        metrics.GetCounter("stream.chunk_misses").Value();
    const uint64_t corrupt =
        metrics.GetCounter("stream.chunk_corrupt").Value();
    StreamIngestReport report;
    auto resumed = ReadCsvStringStreaming(text, CsvReadOptions(), opt,
                                          StreamPolicy::kStrict, &report,
                                          {dir.string(), "unit"});
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_TRUE(*resumed == *reference);
    const uint64_t hit_delta =
        metrics.GetCounter("stream.chunk_hits").Value() - hits;
    const uint64_t miss_delta =
        metrics.GetCounter("stream.chunk_misses").Value() - misses;
    const uint64_t corrupt_delta =
        metrics.GetCounter("stream.chunk_corrupt").Value() - corrupt;
    EXPECT_EQ(hit_delta + miss_delta, report.chunks);
    EXPECT_LE(corrupt_delta, miss_delta);
    EXPECT_EQ(hit_delta, report.chunk_checkpoint_hits);
    EXPECT_EQ(corrupt_delta, 4u);
    EXPECT_EQ(corrupt_delta, report.chunks);
  }
}

TEST_F(StreamingTest, CheckpointStoreIsSafeUnderConcurrentStoreAndRestore) {
  // Parse workers store and probe one store concurrently, starting from a
  // directory that does not exist yet: the mkdir and the counters are
  // shared, every document must land whole and restore.
  fs::path dir = ScratchDir("store_concurrent") / "nested";
  CheckpointStore store(dir.string(), "greater.test_checkpoint", 1,
                        "test.store");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 16;
  std::atomic<int> restored{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t key = static_cast<uint64_t>(t * kPerThread + i);
        const std::string name = "chunk.t" + std::to_string(t);
        store.Store(name, key, [&](ArtifactWriter* doc) {
          doc->AddChunk("value", std::to_string(key));
          return Status::OK();
        });
        const bool hit =
            store.Restore(name, key, [&](const ArtifactReader& doc) -> Status {
              GREATER_ASSIGN_OR_RETURN(std::string_view value,
                                       doc.Chunk("value"));
              if (value != std::to_string(key)) {
                return Status::DataLoss("restored the wrong document");
              }
              return Status::OK();
            });
        if (hit) restored.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  MetricsRegistry& metrics = MetricsRegistry::Global();
  EXPECT_EQ(restored.load(), kThreads * kPerThread);
  EXPECT_EQ(metrics.GetCounter("test.store_stores").Value(),
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(metrics.GetCounter("test.store_hits").Value(),
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(metrics.GetCounter("test.store_misses").Value(), 0u);
  EXPECT_EQ(metrics.GetCounter("test.store_store_failures").Value(), 0u);
}

TEST_F(StreamingTest, SigkillAnywhereThenResumeIsByteIdentical) {
  fs::path dir = ScratchDir("stream_kill9");
  fs::path csv = dir / "input.csv";
  const std::string text = NumericCsv(300);
  Spit(csv, text);

  StreamOptions opt;
  opt.enabled = true;
  opt.chunk_rows = 8;
  opt.queue_capacity = 2;
  opt.num_workers = 1;
  opt.io_block_bytes = 64;

  auto reference = ReadCsvFileStreaming(csv.string(), CsvReadOptions(), opt,
                                        StreamPolicy::kStrict);
  ASSERT_TRUE(reference.ok());

  // Kill -9 the ingest at several points mid-run. Whatever chunks made it
  // to disk were written atomically, so the follow-up run may reuse any
  // prefix of them but must land byte-identical either way.
  fs::path ckdir = dir / "ckpt";
  for (int attempt = 0; attempt < 3; ++attempt) {
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      auto result = ReadCsvFileStreaming(csv.string(), CsvReadOptions(), opt,
                                         StreamPolicy::kStrict, nullptr,
                                         {ckdir.string(), "kill"});
      _exit(result.ok() ? 0 : 1);
    }
    ::usleep(500 * (attempt + 1));
    ::kill(pid, SIGKILL);
    int wait_status = 0;
    ::waitpid(pid, &wait_status, 0);
  }

  StreamIngestReport report;
  auto resumed = ReadCsvFileStreaming(csv.string(), CsvReadOptions(), opt,
                                      StreamPolicy::kStrict, &report,
                                      {ckdir.string(), "kill"});
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(*resumed == *reference);
  EXPECT_EQ(WriteCsvString(*resumed), WriteCsvString(*reference));
  EXPECT_TRUE(report.Reconciles());
}

// ---------- watchdog ----------

TEST_F(StreamingTest, WatchdogConvictsSilentlyDeadWorker) {
  FaultSpec spec;
  spec.max_fires = 1;
  ScopedFault fault("stream.worker_death", spec);
  StreamOptions opt = SmallStream();
  opt.num_workers = 1;
  opt.watchdog_timeout_ms = 60;
  opt.watchdog_poll_ms = 5;
  auto streamed = ReadCsvStringStreaming(NumericCsv(30), CsvReadOptions(),
                                         opt, StreamPolicy::kStrict);
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(streamed.status().message().find("heartbeat"),
            std::string::npos);
  EXPECT_GE(
      MetricsRegistry::Global().GetCounter("stream.watchdog_trips").Value(),
      1u);
  EXPECT_GE(MetricsRegistry::Global()
                .GetCounter("stream.simulated_worker_deaths")
                .Value(),
            1u);
}

TEST_F(StreamingTest, HealthyRunPassesTightWatchdog) {
  StreamOptions opt = SmallStream();
  opt.watchdog_timeout_ms = 500;
  opt.watchdog_poll_ms = 5;
  auto streamed = ReadCsvStringStreaming(NumericCsv(40), CsvReadOptions(),
                                         opt, StreamPolicy::kStrict);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(
      MetricsRegistry::Global().GetCounter("stream.watchdog_trips").Value(),
      0u);
}

TEST_F(StreamingTest, FinishDoesNotWaitOutWatchdogPoll) {
  // A minute-long poll interval: Finish must wake the watchdog instead of
  // sleeping out the interval, so the poll sets no latency floor.
  StreamOptions opt = SmallStream();
  opt.watchdog_poll_ms = 60000;
  auto start = std::chrono::steady_clock::now();
  auto streamed = ReadCsvStringStreaming(NumericCsv(40), CsvReadOptions(),
                                         opt, StreamPolicy::kStrict);
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(1));
  EXPECT_EQ(
      MetricsRegistry::Global().GetCounter("stream.watchdog_trips").Value(),
      0u);
}

// ---------- streaming flatten ----------

TEST_F(StreamingTest, StreamingFlattenMatchesDirectFlatten) {
  Rng rng(7);
  DigixOptions doptions;
  doptions.num_users = 25;
  DigixGenerator gen(doptions);
  auto data = gen.Generate(&rng);
  ASSERT_TRUE(data.ok());
  auto reference = DirectFlatten(data->ads, data->feeds, "user_id");
  ASSERT_TRUE(reference.ok());
  for (size_t workers : {size_t{1}, size_t{2}, size_t{3}}) {
    StreamOptions opt;
    opt.enabled = true;
    opt.chunk_rows = 5;
    opt.queue_capacity = 2;
    opt.num_workers = workers;
    auto streamed =
        DirectFlattenStreaming(data->ads, data->feeds, "user_id", opt);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    EXPECT_TRUE(*streamed == *reference) << "workers=" << workers;
  }
}

// ---------- pipeline integration ----------

PipelineOptions FastPipeline(SamplePolicy policy) {
  PipelineOptions options;
  options.fusion = FusionMethod::kGreaterMedianThreshold;
  options.semantic = SemanticMode::kNone;
  options.synth.encoder.permutations_per_row = 1;
  options.synth.policy = policy;
  return options;
}

TEST_F(StreamingTest, PipelineOutputIdenticalWithStreamingEnabled) {
  Rng gen_rng(7);
  DigixOptions doptions;
  doptions.num_users = 20;
  DigixGenerator gen(doptions);
  auto data = gen.Generate(&gen_rng);
  ASSERT_TRUE(data.ok());

  PipelineOptions base = FastPipeline(SamplePolicy::kStrict);
  Rng rng_a(99);
  auto plain = MultiTablePipeline(base).Run(data->ads, data->feeds,
                                            "user_id", &rng_a);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  PipelineOptions streaming = base;
  streaming.stream.enabled = true;
  streaming.stream.chunk_rows = 7;
  streaming.stream.queue_capacity = 2;
  streaming.stream.num_workers = 2;
  Rng rng_b(99);
  auto streamed = MultiTablePipeline(streaming)
                      .Run(data->ads, data->feeds, "user_id", &rng_b);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_TRUE(streamed->synthetic_parent == plain->synthetic_parent);
  EXPECT_TRUE(streamed->synthetic_flat == plain->synthetic_flat);
}

TEST_F(StreamingTest, RunFromCsvLenientQuarantinesAndCompletes) {
  fs::path dir = ScratchDir("stream_runfromcsv");
  Rng gen_rng(11);
  DigixOptions doptions;
  doptions.num_users = 20;
  DigixGenerator gen(doptions);
  auto data = gen.Generate(&gen_rng);
  ASSERT_TRUE(data.ok());
  fs::path ads_csv = dir / "ads.csv";
  fs::path feeds_csv = dir / "feeds.csv";
  ASSERT_TRUE(WriteCsvFile(data->ads, ads_csv.string()).ok());
  ASSERT_TRUE(WriteCsvFile(data->feeds, feeds_csv.string()).ok());
  // Append one malformed record to each file; the lenient run must divert
  // them and keep going.
  {
    std::ofstream out(ads_csv, std::ios::binary | std::ios::app);
    out << "half,a,record\n";
  }
  {
    std::ofstream out(feeds_csv, std::ios::binary | std::ios::app);
    out << "also-broken\n";
  }

  PipelineOptions options = FastPipeline(SamplePolicy::kLenient);
  options.stream.enabled = true;
  options.stream.chunk_rows = 16;
  options.stream.queue_capacity = 2;
  options.stream.quarantine_path = (dir / "quarantine.csv").string();
  Rng rng(5);
  auto result = MultiTablePipeline(options).RunFromCsv(
      ads_csv.string(), feeds_csv.string(), "user_id", &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ingest_report.Reconciles());
  EXPECT_EQ(result->ingest_report.quarantined, 2u);
  EXPECT_GT(result->ingest_report.rows_out, 0u);
  EXPECT_GT(result->synthetic_flat.num_rows(), 0u);
  std::string quarantined = Slurp(dir / "quarantine.csv");
  EXPECT_NE(quarantined.find(ads_csv.string()), std::string::npos);
  EXPECT_NE(quarantined.find(feeds_csv.string()), std::string::npos);

  // Strict mode over the same damaged files fails typed instead.
  PipelineOptions strict = FastPipeline(SamplePolicy::kStrict);
  strict.stream.enabled = true;
  Rng rng2(5);
  auto failed = MultiTablePipeline(strict).RunFromCsv(
      ads_csv.string(), feeds_csv.string(), "user_id", &rng2);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kDataLoss);
}

// The streaming ingest entry point drives the lockstep batched decode
// engine when PipelineOptions::batch_rows is set — and the batched run's
// output is byte-identical to the per-row one (the engine's determinism
// contract, DESIGN.md "Batched columnar decode").
TEST_F(StreamingTest, RunFromCsvBatchedSamplingIdentical) {
  fs::path dir = ScratchDir("stream_batched");
  Rng gen_rng(13);
  DigixOptions doptions;
  doptions.num_users = 20;
  DigixGenerator gen(doptions);
  auto data = gen.Generate(&gen_rng);
  ASSERT_TRUE(data.ok());
  fs::path ads_csv = dir / "ads.csv";
  fs::path feeds_csv = dir / "feeds.csv";
  ASSERT_TRUE(WriteCsvFile(data->ads, ads_csv.string()).ok());
  ASSERT_TRUE(WriteCsvFile(data->feeds, feeds_csv.string()).ok());

  PipelineOptions base = FastPipeline(SamplePolicy::kStrict);
  base.stream.enabled = true;
  base.stream.chunk_rows = 16;
  Rng rng_a(21);
  auto per_row = MultiTablePipeline(base).RunFromCsv(
      ads_csv.string(), feeds_csv.string(), "user_id", &rng_a);
  ASSERT_TRUE(per_row.ok()) << per_row.status().ToString();

  PipelineOptions batched = base;
  batched.batch_rows = 5;
  uint64_t lanes_before =
      MetricsRegistry::Global().GetCounter("synth.batch.lanes").Value();
  Rng rng_b(21);
  auto result = MultiTablePipeline(batched).RunFromCsv(
      ads_csv.string(), feeds_csv.string(), "user_id", &rng_b);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The batched engine really ran (lanes advanced), and nothing changed.
  EXPECT_GT(MetricsRegistry::Global().GetCounter("synth.batch.lanes").Value(),
            lanes_before);
  EXPECT_TRUE(result->synthetic_parent == per_row->synthetic_parent);
  EXPECT_TRUE(result->synthetic_flat == per_row->synthetic_flat);
}

}  // namespace
}  // namespace greater
