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
#include "common/strings.h"
#include "obs/span.h"
#include "stream/bounded_queue.h"
#include "stream/stream_runtime.h"

namespace greater {
namespace {

// Unit of work flowing reader -> parse workers. A checkpoint hit rides
// the same path as raw records (preloaded short-circuits the parse), so
// chunk order stays inside the bounded queues and the sink's reorder
// buffer can never grow past workers + queue capacity.
struct ChunkTask {
  uint64_t seq = 0;
  uint64_t key = 0;
  std::vector<CsvRecordSplitter::Record> records;
  std::unique_ptr<CsvChunk> preloaded;
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

  ByteWriter rows;
  rows.PutU32(static_cast<uint32_t>(chunk.rows.size()));
  for (const auto& row : chunk.rows) {
    for (const std::string& cell : row) rows.PutString(cell);
  }
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

Status DecodeChunk(const ArtifactReader& doc, const std::string& source,
                   size_t num_cols, CsvChunk* out) {
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
  out->rows.resize(nrows);
  for (uint32_t r = 0; r < nrows; ++r) {
    out->rows[r].resize(num_cols);
    for (size_t c = 0; c < num_cols; ++c) {
      GREATER_RETURN_NOT_OK(rows.GetString(&out->rows[r][c]));
    }
  }
  GREATER_RETURN_NOT_OK(rows.ExpectEnd());

  GREATER_ASSIGN_OR_RETURN(std::string_view quar_bytes,
                           doc.Chunk("quarantine"));
  ByteReader quar(quar_bytes);
  uint32_t nquar = 0;
  GREATER_RETURN_NOT_OK(quar.GetU32(&nquar));
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
       const ChunkCheckpointing& checkpoint)
      : csv(csv_in),
        stream(stream_in),
        policy(policy_in),
        source_label(std::move(label)),
        ckpt(ChunkCheckpointStore(checkpoint.dir)),
        ckpt_label(checkpoint.label),
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
};

Status CsvChunkReader::Impl::Start(BlockSource next_block) {
  // The header is consumed up front: workers validate against it and the
  // chain must cover it before any chunk.
  CsvRecordSplitter splitter(csv.delimiter);
  splitter.set_max_record_bytes(stream.max_record_bytes);
  CsvRecordSplitter::Record header;
  for (bool have_header = false; !have_header;) {
    GREATER_ASSIGN_OR_RETURN(CsvRecordSplitter::Next next,
                             splitter.NextRecord(&header));
    switch (next) {
      case CsvRecordSplitter::Next::kRecord:
        have_header = true;
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
  num_cols = header.fields.size();
  header_fields = header.fields;

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
    chain.Mix(header.raw);
  }

  runtime.RegisterQueue(&raw_q);
  runtime.RegisterQueue(&parsed_q);

  // --- reader: split records, form chunks, probe the checkpoint store ---
  Heartbeat* reader_hb = runtime.AddHeartbeat("ingest.reader");
  runtime.Spawn(
      "ingest.reader", reader_hb,
      [this, reader_hb, next_block = std::move(next_block),
       spl = std::move(splitter)]() mutable -> Status {
        uint64_t seq = 0;
        auto task = std::make_unique<ChunkTask>();
        std::string chunk_raw;  // raw bytes of this chunk, for the chain
        auto flush_chunk = [&]() {
          task->seq = seq;
          if (ckpt.enabled()) {
            chain.Mix(chunk_raw);
            task->key = chain.value();
            // A chunk that does not restore is recomputed from the raw
            // records still held here.
            auto pre = std::make_unique<CsvChunk>();
            if (ckpt.Restore(ChunkCheckpointName(ckpt_label, seq), task->key,
                             [&](const ArtifactReader& doc) {
                               return DecodeChunk(doc, source_label,
                                                  num_cols, pre.get());
                             })) {
              pre->seq = seq;
              pre->from_checkpoint = true;
              task->preloaded = std::move(pre);
              task->records.clear();
            }
          }
          bool accepted = raw_q.Push(std::move(task));
          ++seq;
          task = std::make_unique<ChunkTask>();
          chunk_raw.clear();
          return accepted;
        };
        for (;;) {
          reader_hb->Beat();
          CsvRecordSplitter::Record record;
          Result<CsvRecordSplitter::Next> next = spl.NextRecord(&record);
          if (!next.ok()) {
            return next.status().WithContext("splitting records from '" +
                                             source_label + "'");
          }
          switch (*next) {
            case CsvRecordSplitter::Next::kRecord:
              if (ckpt.enabled()) {
                chunk_raw += record.raw;
                chunk_raw += '\n';
              }
              task->records.push_back(std::move(record));
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
              if (!task->records.empty() && !flush_chunk()) {
                return Status::OK();
              }
              raw_q.Close();
              return Status::OK();
          }
        }
      });

  // --- parse workers: validate, infer flags, checkpoint ---
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
        std::unique_ptr<CsvChunk> chunk;
        if (task->preloaded != nullptr) {
          chunk = std::move(task->preloaded);
        } else {
          GREATER_FAULT_POINT("stream.chunk_parse");
          chunk = std::make_unique<CsvChunk>();
          chunk->seq = task->seq;
          chunk->flags.assign(num_cols, CsvColumnFlags());
          for (CsvRecordSplitter::Record& record : task->records) {
            if (record.fields.size() != num_cols) {
              Status why = Status::DataLoss(
                  "CSV record " + std::to_string(record.number) + " has " +
                  std::to_string(record.fields.size()) +
                  " fields, header has " + std::to_string(num_cols));
              if (policy == StreamPolicy::kStrict) return why;
              QuarantinedRecord q;
              q.source = source_label;
              q.record_number = record.number;
              q.why = std::move(why);
              q.raw = std::move(record.raw);
              chunk->quarantined.push_back(std::move(q));
              continue;
            }
            for (size_t c = 0; c < num_cols; ++c) {
              const std::string& cell = record.fields[c];
              if (cell == csv.null_token) continue;
              CsvColumnFlags& f = chunk->flags[c];
              f.any_value = true;
              if (f.all_int && !ParseInt(cell).has_value()) f.all_int = false;
              if (f.all_double && !ParseDouble(cell).has_value()) {
                f.all_double = false;
              }
            }
            chunk->rows.push_back(std::move(record.fields));
          }
          ckpt.Store(ChunkCheckpointName(ckpt_label, task->seq), task->key,
                     [&](ArtifactWriter* doc) {
                       EncodeChunk(*chunk, doc);
                       return Status::OK();
                     });
        }
        if (!parsed_q.Push(std::move(chunk))) break;
      }
      if (live_workers.fetch_sub(1) == 1) parsed_q.Close();
      return Status::OK();
    });
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
      report.rows_in += chunk.rows.size() + chunk.quarantined.size();
      report.rows_out += chunk.rows.size();
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
    QuarantineWriter* quarantine) {
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
                                     checkpoint);
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
    QuarantineWriter* quarantine, const std::string& source_label) {
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
                                     source_label, checkpoint);
  impl->report = report != nullptr ? report : &impl->local_report;
  *impl->report = StreamIngestReport();
  impl->quarantine = quarantine != nullptr ? quarantine : &impl->count_only;
  GREATER_RETURN_NOT_OK(impl->Start(std::move(source)));
  return std::unique_ptr<CsvChunkReader>(new CsvChunkReader(std::move(impl)));
}

Result<Schema> SchemaFromCsvFlags(const std::vector<std::string>& header,
                                  const std::vector<CsvColumnFlags>& merged,
                                  bool infer_types) {
  const size_t num_cols = header.size();
  std::vector<ValueType> types(num_cols, ValueType::kInt);
  if (!infer_types) {
    types.assign(num_cols, ValueType::kString);
  } else {
    for (size_t c = 0; c < num_cols; ++c) {
      if (!merged[c].any_value) {
        types[c] = ValueType::kString;
      } else if (merged[c].all_int) {
        types[c] = ValueType::kInt;
      } else if (merged[c].all_double) {
        types[c] = ValueType::kDouble;
      } else {
        types[c] = ValueType::kString;
      }
    }
  }
  std::vector<Field> fields;
  fields.reserve(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    SemanticType semantic = types[c] == ValueType::kDouble
                                ? SemanticType::kContinuous
                                : SemanticType::kCategorical;
    fields.emplace_back(header[c], types[c], semantic);
  }
  return Schema::Make(std::move(fields));
}

Result<Table> CsvRowsToTable(
    const Schema& schema, const std::vector<std::vector<std::string>>& rows,
    const std::string& null_token) {
  const size_t num_cols = schema.num_fields();
  Table table(schema);
  for (const auto& row_cells : rows) {
    Row row;
    row.reserve(num_cols);
    for (size_t c = 0; c < num_cols; ++c) {
      const std::string& cell = row_cells[c];
      if (cell == null_token) {
        row.push_back(Value::Null());
        continue;
      }
      switch (schema.field(c).type) {
        case ValueType::kInt: {
          std::optional<int64_t> parsed = ParseInt(cell);
          if (!parsed.has_value()) {
            return Status::DataLoss("cell '" + cell +
                                    "' does not parse as int in column '" +
                                    schema.field(c).name + "'");
          }
          row.push_back(Value(*parsed));
          break;
        }
        case ValueType::kDouble: {
          std::optional<double> parsed = ParseDouble(cell);
          if (!parsed.has_value()) {
            return Status::DataLoss("cell '" + cell +
                                    "' does not parse as double in column '" +
                                    schema.field(c).name + "'");
          }
          row.push_back(Value(*parsed));
          break;
        }
        default:
          row.push_back(Value(cell));
      }
    }
    GREATER_RETURN_NOT_OK(table.AppendRow(std::move(row)));
  }
  return table;
}

namespace {

void MergeChunkFlags(const CsvChunk& chunk,
                     std::vector<CsvColumnFlags>* merged) {
  for (size_t c = 0; c < merged->size(); ++c) {
    (*merged)[c].any_value |=
        chunk.flags.empty() ? false : chunk.flags[c].any_value;
    (*merged)[c].all_int &= chunk.flags.empty() || chunk.flags[c].all_int;
    (*merged)[c].all_double &=
        chunk.flags.empty() || chunk.flags[c].all_double;
  }
}

// Shared drain for the materializing entry points: pull every chunk in
// order, merge flags, collect rows, then finalize with the exact
// ReadCsvString type-inference semantics.
Result<Table> DrainToTable(CsvChunkReader* reader,
                           const CsvReadOptions& csv) {
  const size_t num_cols = reader->header().size();
  std::vector<CsvColumnFlags> merged(num_cols);
  std::vector<std::vector<std::string>> all_rows;
  for (;;) {
    GREATER_ASSIGN_OR_RETURN(std::optional<CsvChunk> chunk, reader->Next());
    if (!chunk.has_value()) break;
    MergeChunkFlags(*chunk, &merged);
    for (auto& row : chunk->rows) all_rows.push_back(std::move(row));
  }
  GREATER_RETURN_NOT_OK(reader->Close());
  GREATER_ASSIGN_OR_RETURN(
      Schema schema,
      SchemaFromCsvFlags(reader->header(), merged, csv.infer_types));
  return CsvRowsToTable(schema, all_rows, csv.null_token);
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
                               checkpoint));
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
