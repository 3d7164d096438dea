#include "stream/csv_ingest.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "obs/span.h"
#include "stream/bounded_queue.h"
#include "stream/stream_runtime.h"
#include "tabular/table_builder.h"

namespace greater {
namespace {

// Unit of work flowing reader -> parse workers: one chunk's split
// records. Restoring or parsing it is the workers' job; chunk order stays
// inside the bounded queues, so the sink's reorder buffer can never grow
// past workers + queue capacity.
struct ChunkTask {
  uint64_t seq = 0;
  uint64_t key = 0;
  CsvRecordBatch records;
};

void EncodeChunk(const CsvChunk& chunk, ArtifactWriter* doc) {
  ByteWriter flags;
  flags.PutU32(static_cast<uint32_t>(chunk.flags.size()));
  for (const CsvColumnFlags& f : chunk.flags) {
    flags.PutBool(f.any_value);
    flags.PutBool(f.all_int);
    flags.PutBool(f.all_double);
  }
  doc->AddChunk("flags", std::move(flags).Take());

  // A row count, then every kept cell as a u32 length and its bytes.
  const CsvCells& cells = chunk.cells;
  ByteWriter rows;
  rows.Reserve(4 + 4 * cells.size() + cells.bytes.size());
  rows.PutU32(static_cast<uint32_t>(chunk.num_rows));
  for (size_t i = 0; i < cells.size(); ++i) rows.PutString(cells.cell(i));
  doc->AddChunk("rows", std::move(rows).Take());

  ByteWriter quar;
  quar.PutU32(static_cast<uint32_t>(chunk.quarantined.size()));
  for (const QuarantinedRecord& q : chunk.quarantined) {
    quar.PutU64(q.record_number);
    quar.PutU32(static_cast<uint32_t>(q.why.code()));
    quar.PutString(q.why.message());
    quar.PutString(q.raw);
  }
  doc->AddChunk("quarantine", std::move(quar).Take());
}

// Every count is checked against the bytes left before anything is
// reserved, so a crafted count is a decode error (a corrupt miss), never a
// huge allocation. With `keep_cells` false the cells are checked, not
// copied.
Status DecodeChunk(const ArtifactReader& doc, const std::string& source,
                   size_t num_cols, bool keep_cells, CsvChunk* out) {
  GREATER_ASSIGN_OR_RETURN(std::string_view flag_bytes, doc.Chunk("flags"));
  ByteReader flags(flag_bytes);
  uint32_t ncols = 0;
  GREATER_RETURN_NOT_OK(flags.GetU32(&ncols));
  if (ncols != num_cols) {
    return Status::DataLoss("chunk checkpoint has " + std::to_string(ncols) +
                            " columns, header has " +
                            std::to_string(num_cols));
  }
  out->flags.resize(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    GREATER_RETURN_NOT_OK(flags.GetBool(&out->flags[c].any_value));
    GREATER_RETURN_NOT_OK(flags.GetBool(&out->flags[c].all_int));
    GREATER_RETURN_NOT_OK(flags.GetBool(&out->flags[c].all_double));
  }
  GREATER_RETURN_NOT_OK(flags.ExpectEnd());

  GREATER_ASSIGN_OR_RETURN(std::string_view row_bytes, doc.Chunk("rows"));
  ByteReader rows(row_bytes);
  uint32_t nrows = 0;
  GREATER_RETURN_NOT_OK(rows.GetU32(&nrows));
  // A row takes at least num_cols length prefixes.
  const uint64_t ncells = uint64_t{nrows} * num_cols;
  if (ncells > rows.remaining() / 4) {
    return Status::DataLoss("chunk checkpoint declares " +
                            std::to_string(nrows) + " rows in " +
                            std::to_string(rows.remaining()) + " bytes");
  }
  out->num_rows = nrows;
  if (keep_cells) {
    out->cells.ends.reserve(ncells);
    out->cells.bytes.reserve(rows.remaining() - 4 * ncells);
  }
  for (uint64_t i = 0; i < ncells; ++i) {
    uint32_t size = 0;
    std::string_view cell;
    GREATER_RETURN_NOT_OK(rows.GetU32(&size));
    GREATER_RETURN_NOT_OK(rows.GetBytes(size, &cell));
    if (keep_cells) out->cells.Append(cell);
  }
  GREATER_RETURN_NOT_OK(rows.ExpectEnd());

  GREATER_ASSIGN_OR_RETURN(std::string_view quar_bytes,
                           doc.Chunk("quarantine"));
  ByteReader quar(quar_bytes);
  uint32_t nquar = 0;
  GREATER_RETURN_NOT_OK(quar.GetU32(&nquar));
  // A quarantined record takes at least 20 bytes: its number, its code
  // and two length prefixes.
  if (nquar > quar.remaining() / 20) {
    return Status::DataLoss("chunk checkpoint declares " +
                            std::to_string(nquar) +
                            " quarantined records in " +
                            std::to_string(quar.remaining()) + " bytes");
  }
  out->quarantined.resize(nquar);
  for (uint32_t i = 0; i < nquar; ++i) {
    QuarantinedRecord& q = out->quarantined[i];
    q.source = source;
    GREATER_RETURN_NOT_OK(quar.GetU64(&q.record_number));
    uint32_t code = 0;
    std::string message;
    GREATER_RETURN_NOT_OK(quar.GetU32(&code));
    GREATER_RETURN_NOT_OK(quar.GetString(&message));
    GREATER_RETURN_NOT_OK(quar.GetString(&q.raw));
    if (code > static_cast<uint32_t>(StatusCode::kDeadlineExceeded)) {
      return Status::DataLoss("chunk checkpoint has an unknown status code");
    }
    q.why = Status(static_cast<StatusCode>(code), std::move(message));
  }
  return quar.ExpectEnd();
}

void MergeChunkFlags(const CsvChunk& chunk,
                     std::vector<CsvColumnFlags>* merged) {
  for (size_t c = 0; c < merged->size(); ++c) {
    (*merged)[c].Merge(chunk.flags[c]);
  }
}

// Pulls input blocks; an empty string means end of input.
using BlockSource = std::function<Result<std::string>()>;

}  // namespace

CheckpointStore ChunkCheckpointStore(std::string dir) {
  return CheckpointStore(std::move(dir), "greater.chunk_checkpoint", 1,
                         "stream.chunk");
}

std::string ChunkCheckpointName(std::string_view label, uint64_t index) {
  std::string name = "chunk.";
  name += label;
  name += '.';
  name += std::to_string(index);
  return name;
}

// Owns the running pipeline. Queues are declared before the runtime so
// they outlive it: the runtime's destructor joins every worker, and
// workers touch the queues until they exit.
struct CsvChunkReader::Impl {
  Impl(const CsvReadOptions& csv_in, const StreamOptions& stream_in,
       StreamPolicy policy_in, std::string label,
       const ChunkCheckpointing& checkpoint, CsvChunkRows rows_in,
       Schema schema_in)
      : csv(csv_in),
        stream(stream_in),
        policy(policy_in),
        source_label(std::move(label)),
        ckpt(ChunkCheckpointStore(checkpoint.dir)),
        ckpt_label(checkpoint.label),
        rows(rows_in),
        schema(std::move(schema_in)),
        chunk_rows(std::max<size_t>(1, stream_in.chunk_rows)),
        num_workers(std::max<size_t>(1, stream_in.num_workers)),
        raw_q("ingest.raw", stream_in.queue_capacity),
        parsed_q("ingest.parsed", stream_in.queue_capacity),
        runtime(stream_in),
        live_workers(num_workers) {}

  CsvReadOptions csv;
  StreamOptions stream;
  StreamPolicy policy;
  std::string source_label;
  CheckpointStore ckpt;
  std::string ckpt_label;
  CsvChunkRows rows;
  Schema schema;          // kTyped only
  CheckpointChain chain;  // reader thread only, until the join
  size_t chunk_rows;
  size_t num_workers;
  size_t num_cols = 0;
  std::vector<std::string> header_fields;

  StreamIngestReport local_report;
  StreamIngestReport* report = nullptr;
  QuarantineWriter count_only{""};
  QuarantineWriter* quarantine = nullptr;

  BoundedQueue<std::unique_ptr<ChunkTask>> raw_q;
  BoundedQueue<std::unique_ptr<CsvChunk>> parsed_q;
  StreamRuntime runtime;
  std::atomic<size_t> live_workers;

  // --- sink state (caller thread only) ---
  std::map<uint64_t, std::unique_ptr<CsvChunk>> pending;
  uint64_t next_seq = 0;
  Status sink_error;      // first quarantine-write failure
  bool finished = false;  // pipeline joined
  Status final_status;    // runtime.Finish() outcome

  Status Start(BlockSource next_block);
  Status FinishPipeline();
  // Parse-worker side: restores the task's chunk or, on a miss, parses and
  // stores it, then shapes its rows as `rows` asks.
  Status BuildChunk(ChunkTask* task, CsvChunk* chunk);
  // The miss path: validates field counts, computes the type flags, and
  // moves (or, past a quarantined record, copies) the kept cells.
  Status ParseChunk(CsvRecordBatch* records, CsvChunk* chunk);
};

Status CsvChunkReader::Impl::Start(BlockSource next_block) {
  // The header is consumed up front: workers validate against it and the
  // chain must cover it before any chunk.
  CsvRecordSplitter splitter(csv.delimiter);
  splitter.set_max_record_bytes(stream.max_record_bytes);
  CsvRecordBatch header;
  while (header.size() == 0) {
    GREATER_ASSIGN_OR_RETURN(CsvRecordSplitter::Next next,
                             splitter.NextRecord(&header));
    switch (next) {
      case CsvRecordSplitter::Next::kRecord:
        break;
      case CsvRecordSplitter::Next::kNeedMoreInput: {
        GREATER_ASSIGN_OR_RETURN(std::string block, next_block());
        if (block.empty()) {
          splitter.FinishInput();
        } else {
          splitter.Feed(block);
        }
        break;
      }
      case CsvRecordSplitter::Next::kEndOfInput:
        return Status::DataLoss("CSV has no header record");
    }
  }
  num_cols = header.num_fields(0);
  for (size_t c = 0; c < num_cols; ++c) {
    header_fields.emplace_back(header.field(0, c));
  }
  if (rows == CsvChunkRows::kTyped && schema.num_fields() != num_cols) {
    return Status::Invalid("typed CSV chunks need a schema of " +
                           std::to_string(num_cols) + " fields, got " +
                           std::to_string(schema.num_fields()));
  }

  if (ckpt.enabled()) {
    // Options fingerprint: anything that changes what a chunk computes
    // must flip every chunk key.
    ByteWriter fp;
    fp.PutU8(static_cast<uint8_t>(csv.delimiter));
    fp.PutBool(csv.infer_types);
    fp.PutString(csv.null_token);
    fp.PutU64(chunk_rows);
    fp.PutU64(stream.max_record_bytes);
    fp.PutBool(policy == StreamPolicy::kLenient);
    chain.Mix(fp.bytes());
    chain.Mix(header.raw_record(0));
  }

  runtime.RegisterQueue(&raw_q);
  runtime.RegisterQueue(&parsed_q);

  // --- reader: split records into chunk batches, advance the chain ---
  Heartbeat* reader_hb = runtime.AddHeartbeat("ingest.reader");
  runtime.Spawn(
      "ingest.reader", reader_hb,
      [this, reader_hb, next_block = std::move(next_block),
       spl = std::move(splitter)]() mutable -> Status {
        uint64_t seq = 0;
        auto task = std::make_unique<ChunkTask>();
        auto flush_chunk = [&]() {
          task->seq = seq++;
          if (ckpt.enabled()) {
            chain.Mix(task->records.raw);
            task->key = chain.value();
          }
          bool accepted = raw_q.Push(std::move(task));
          task = std::make_unique<ChunkTask>();
          return accepted;
        };
        for (;;) {
          reader_hb->Beat();
          Result<CsvRecordSplitter::Next> next =
              spl.NextRecord(&task->records);
          if (!next.ok()) {
            return next.status().WithContext("splitting records from '" +
                                             source_label + "'");
          }
          switch (*next) {
            case CsvRecordSplitter::Next::kRecord:
              if (task->records.size() >= chunk_rows && !flush_chunk()) {
                return Status::OK();  // pipeline is shutting down
              }
              break;
            case CsvRecordSplitter::Next::kNeedMoreInput: {
              GREATER_ASSIGN_OR_RETURN(std::string block, next_block());
              if (block.empty()) {
                spl.FinishInput();
              } else {
                spl.Feed(block);
              }
              break;
            }
            case CsvRecordSplitter::Next::kEndOfInput:
              if (task->records.size() > 0 && !flush_chunk()) {
                return Status::OK();
              }
              raw_q.Close();
              return Status::OK();
          }
        }
      });

  // --- parse workers: restore or parse, checkpoint, type ---
  for (size_t w = 0; w < num_workers; ++w) {
    std::string name = "ingest.parse." + std::to_string(w);
    Heartbeat* hb = runtime.AddHeartbeat(name);
    runtime.Spawn(name, hb, [this, hb]() -> Status {
      for (;;) {
        hb->Beat();
        std::optional<std::unique_ptr<ChunkTask>> item = raw_q.Pop();
        if (!item.has_value()) break;  // closed and drained, or poisoned
        std::unique_ptr<ChunkTask> task = std::move(*item);
        if (FaultRegistry::AnyArmed()) {
          Status death = FaultRegistry::Global().Check("stream.worker_death");
          if (!death.ok()) {
            // Silent death: exit without reporting, without marking the
            // heartbeat done, and without closing the downstream queue.
            // Only the watchdog can notice.
            hb->SimulateDeath();
            return Status::OK();
          }
        }
        auto chunk = std::make_unique<CsvChunk>();
        GREATER_RETURN_NOT_OK(BuildChunk(task.get(), chunk.get()));
        if (!parsed_q.Push(std::move(chunk))) break;
      }
      if (live_workers.fetch_sub(1) == 1) parsed_q.Close();
      return Status::OK();
    });
  }
  return Status::OK();
}

Status CsvChunkReader::Impl::BuildChunk(ChunkTask* task, CsvChunk* chunk) {
  const std::string name = ChunkCheckpointName(ckpt_label, task->seq);
  const bool keep_cells = rows != CsvChunkRows::kNone;
  // A chunk that does not restore is parsed from the records the task
  // still holds.
  const bool hit =
      ckpt.Restore(name, task->key, [&](const ArtifactReader& doc) {
        CsvChunk restored;
        GREATER_RETURN_NOT_OK(DecodeChunk(doc, source_label, num_cols,
                                          keep_cells, &restored));
        *chunk = std::move(restored);
        return Status::OK();
      });
  chunk->seq = task->seq;
  chunk->from_checkpoint = hit;
  if (!hit) {
    GREATER_FAULT_POINT("stream.chunk_parse");
    GREATER_RETURN_NOT_OK(ParseChunk(&task->records, chunk));
    ckpt.Store(name, task->key, [&](ArtifactWriter* doc) {
      EncodeChunk(*chunk, doc);
      return Status::OK();
    });
  }
  if (rows == CsvChunkRows::kTyped) {
    GREATER_ASSIGN_OR_RETURN(
        chunk->table, CsvRowsToTable(schema, chunk->cells, csv.null_token));
  }
  if (rows != CsvChunkRows::kCells) chunk->cells = CsvCells();
  return Status::OK();
}

Status CsvChunkReader::Impl::ParseChunk(CsvRecordBatch* records,
                                        CsvChunk* chunk) {
  chunk->flags.assign(num_cols, CsvColumnFlags());
  for (size_t r = 0; r < records->size(); ++r) {
    if (records->num_fields(r) != num_cols) {
      Status why = Status::DataLoss(
          "CSV record " + std::to_string(records->numbers[r]) + " has " +
          std::to_string(records->num_fields(r)) + " fields, header has " +
          std::to_string(num_cols));
      if (policy == StreamPolicy::kStrict) return why;
      QuarantinedRecord q;
      q.source = source_label;
      q.record_number = records->numbers[r];
      q.why = std::move(why);
      q.raw = std::string(records->raw_record(r));
      chunk->quarantined.push_back(std::move(q));
      continue;
    }
    const size_t first = records->first_field(r);
    for (size_t c = 0; c < num_cols; ++c) {
      const std::string_view cell = records->cells.cell(first + c);
      if (cell != csv.null_token) chunk->flags[c].Observe(cell);
    }
  }
  chunk->num_rows = records->size() - chunk->quarantined.size();
  if (chunk->quarantined.empty()) {
    chunk->cells = std::move(records->cells);
    return Status::OK();
  }
  for (size_t r = 0; r < records->size(); ++r) {
    if (records->num_fields(r) != num_cols) continue;
    for (size_t c = 0; c < num_cols; ++c) {
      chunk->cells.Append(records->field(r, c));
    }
  }
  return Status::OK();
}

Status CsvChunkReader::Impl::FinishPipeline() {
  if (finished) return final_status;
  finished = true;
  final_status = runtime.Finish().WithContext("streaming CSV ingest from '" +
                                              source_label + "'");
  return final_status;
}

CsvChunkReader::CsvChunkReader(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

CsvChunkReader::~CsvChunkReader() {
  if (impl_ != nullptr) {
    Status closed = Close();
    (void)closed;
  }
}

const std::vector<std::string>& CsvChunkReader::header() const {
  return impl_->header_fields;
}

uint64_t CsvChunkReader::content_chain() const {
  return impl_->chain.value();
}

Result<std::optional<CsvChunk>> CsvChunkReader::Next() {
  Impl& im = *impl_;
  for (;;) {
    if (im.finished) {
      GREATER_RETURN_NOT_OK(im.final_status);
      GREATER_RETURN_NOT_OK(im.sink_error);
      return std::optional<CsvChunk>();
    }
    auto ready = im.pending.find(im.next_seq);
    if (ready != im.pending.end()) {
      CsvChunk chunk = std::move(*ready->second);
      im.pending.erase(ready);
      ++im.next_seq;
      StreamIngestReport& report = *im.report;
      ++report.chunks;
      if (chunk.from_checkpoint) ++report.chunk_checkpoint_hits;
      report.rows_in += chunk.num_rows + chunk.quarantined.size();
      report.rows_out += chunk.num_rows;
      report.quarantined += chunk.quarantined.size();
      for (const QuarantinedRecord& q : chunk.quarantined) {
        Status wrote = im.quarantine->Write(q);
        if (!wrote.ok() && im.sink_error.ok()) im.sink_error = wrote;
      }
      return std::optional<CsvChunk>(std::move(chunk));
    }
    std::optional<std::unique_ptr<CsvChunk>> item = im.parsed_q.Pop();
    if (!item.has_value()) {
      // End of stream, or a poisoned pipeline: join and report with the
      // same precedence as the materializing reader — pipeline error,
      // then quarantine sink error, then lost-chunk accounting.
      GREATER_RETURN_NOT_OK(im.FinishPipeline());
      GREATER_RETURN_NOT_OK(im.sink_error);
      if (!im.pending.empty()) {
        return Status::Internal("streaming ingest lost chunk " +
                                std::to_string(im.next_seq) + " of '" +
                                im.source_label + "'");
      }
      return std::optional<CsvChunk>();
    }
    im.pending[(*item)->seq] = std::move(*item);
  }
}

Status CsvChunkReader::Close() {
  Impl& im = *impl_;
  if (im.finished) return im.final_status;
  // Early shutdown: closing both queues unblocks every producer (Push
  // returns false) and consumer, so workers drain and exit; the join then
  // proceeds without deadlock.
  im.raw_q.Close();
  im.parsed_q.Close();
  return im.FinishPipeline();
}

Result<std::unique_ptr<CsvChunkReader>> CsvChunkReader::OpenFile(
    const std::string& path, const CsvReadOptions& csv_options,
    const StreamOptions& options, StreamPolicy policy,
    StreamIngestReport* report, const ChunkCheckpointing& checkpoint,
    QuarantineWriter* quarantine, CsvChunkRows rows, Schema schema) {
  auto in = std::make_shared<std::ifstream>(path, std::ios::binary);
  if (!*in) {
    return Status::NotFound("cannot open CSV file '" + path + "'");
  }
  size_t block_bytes = std::max<size_t>(1, options.io_block_bytes);
  BlockSource source = [in, block_bytes, path]() -> Result<std::string> {
    std::string block(block_bytes, '\0');
    in->read(block.data(), static_cast<std::streamsize>(block_bytes));
    std::streamsize got = in->gcount();
    if (got == 0 && in->bad()) {
      return Status::Internal("I/O error reading CSV file '" + path + "'");
    }
    block.resize(static_cast<size_t>(got));
    return block;
  };
  auto impl = std::make_unique<Impl>(csv_options, options, policy, path,
                                     checkpoint, rows, std::move(schema));
  impl->report = report != nullptr ? report : &impl->local_report;
  *impl->report = StreamIngestReport();
  impl->quarantine = quarantine != nullptr ? quarantine : &impl->count_only;
  GREATER_RETURN_NOT_OK(impl->Start(std::move(source)));
  return std::unique_ptr<CsvChunkReader>(new CsvChunkReader(std::move(impl)));
}

Result<std::unique_ptr<CsvChunkReader>> CsvChunkReader::OpenString(
    const std::string& text, const CsvReadOptions& csv_options,
    const StreamOptions& options, StreamPolicy policy,
    StreamIngestReport* report, const ChunkCheckpointing& checkpoint,
    QuarantineWriter* quarantine, const std::string& source_label,
    CsvChunkRows rows, Schema schema) {
  size_t block_bytes = std::max<size_t>(1, options.io_block_bytes);
  auto copy = std::make_shared<std::string>(text);
  auto offset = std::make_shared<size_t>(0);
  BlockSource source = [copy, offset, block_bytes]() -> Result<std::string> {
    if (*offset >= copy->size()) return std::string();
    size_t n = std::min(block_bytes, copy->size() - *offset);
    std::string block = copy->substr(*offset, n);
    *offset += n;
    return block;
  };
  auto impl = std::make_unique<Impl>(csv_options, options, policy,
                                     source_label, checkpoint, rows,
                                     std::move(schema));
  impl->report = report != nullptr ? report : &impl->local_report;
  *impl->report = StreamIngestReport();
  impl->quarantine = quarantine != nullptr ? quarantine : &impl->count_only;
  GREATER_RETURN_NOT_OK(impl->Start(std::move(source)));
  return std::unique_ptr<CsvChunkReader>(new CsvChunkReader(std::move(impl)));
}

namespace {

// Shared drain for the materializing entry points: pull every chunk in
// order, merge flags and keep the cells, then type them all under the
// schema the merged flags infer (ReadCsvString's semantics exactly).
Result<Table> DrainToTable(CsvChunkReader* reader,
                           const CsvReadOptions& csv) {
  const size_t num_cols = reader->header().size();
  std::vector<CsvColumnFlags> merged(num_cols);
  std::vector<CsvCells> chunks;
  size_t num_rows = 0;
  for (;;) {
    GREATER_ASSIGN_OR_RETURN(std::optional<CsvChunk> chunk, reader->Next());
    if (!chunk.has_value()) break;
    MergeChunkFlags(*chunk, &merged);
    num_rows += chunk->num_rows;
    chunks.push_back(std::move(chunk->cells));
  }
  GREATER_RETURN_NOT_OK(reader->Close());
  GREATER_ASSIGN_OR_RETURN(
      Schema schema,
      SchemaFromCsvFlags(reader->header(), merged, csv.infer_types));
  TableBuilder builder(std::move(schema));
  builder.Reserve(num_rows);
  for (CsvCells& cells : chunks) {
    GREATER_RETURN_NOT_OK(AppendCsvRows(cells, csv.null_token, &builder));
    cells = CsvCells();
  }
  return builder.Build();
}

}  // namespace

Result<Table> ReadCsvFileStreaming(const std::string& path,
                                   const CsvReadOptions& csv_options,
                                   const StreamOptions& options,
                                   StreamPolicy policy,
                                   StreamIngestReport* report,
                                   const ChunkCheckpointing& checkpoint,
                                   QuarantineWriter* quarantine) {
  GREATER_FAULT_POINT("csv.read");
  Span span("stream.ingest");
  GREATER_ASSIGN_OR_RETURN(
      std::unique_ptr<CsvChunkReader> reader,
      CsvChunkReader::OpenFile(path, csv_options, options, policy, report,
                               checkpoint, quarantine));
  return DrainToTable(reader.get(), csv_options);
}

Result<Table> ReadCsvStringStreaming(const std::string& text,
                                     const CsvReadOptions& csv_options,
                                     const StreamOptions& options,
                                     StreamPolicy policy,
                                     StreamIngestReport* report,
                                     const ChunkCheckpointing& checkpoint,
                                     QuarantineWriter* quarantine,
                                     const std::string& source_label) {
  GREATER_FAULT_POINT("csv.read");
  Span span("stream.ingest");
  GREATER_ASSIGN_OR_RETURN(
      std::unique_ptr<CsvChunkReader> reader,
      CsvChunkReader::OpenString(text, csv_options, options, policy, report,
                                 checkpoint, quarantine, source_label));
  return DrainToTable(reader.get(), csv_options);
}

Result<Schema> InferCsvSchemaStreaming(const std::string& path,
                                       const CsvReadOptions& csv_options,
                                       const StreamOptions& options,
                                       StreamPolicy policy,
                                       StreamIngestReport* report,
                                       const ChunkCheckpointing& checkpoint,
                                       uint64_t* content_chain) {
  Span span("stream.schema");
  GREATER_ASSIGN_OR_RETURN(
      std::unique_ptr<CsvChunkReader> reader,
      CsvChunkReader::OpenFile(path, csv_options, options, policy, report,
                               checkpoint, nullptr, CsvChunkRows::kNone));
  const size_t num_cols = reader->header().size();
  std::vector<CsvColumnFlags> merged(num_cols);
  for (;;) {
    GREATER_ASSIGN_OR_RETURN(std::optional<CsvChunk> chunk, reader->Next());
    if (!chunk.has_value()) break;
    MergeChunkFlags(*chunk, &merged);
  }
  GREATER_RETURN_NOT_OK(reader->Close());
  if (content_chain != nullptr) *content_chain = reader->content_chain();
  return SchemaFromCsvFlags(reader->header(), merged,
                            csv_options.infer_types);
}

}  // namespace greater
