#ifndef GREATER_SYNTH_BATCH_DECODE_H_
#define GREATER_SYNTH_BATCH_DECODE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "lm/decode_cache.h"
#include "lm/language_model.h"
#include "synth/great_synthesizer.h"
#include "synth/sample_report.h"
#include "synth/textual_encoder.h"
#include "tabular/table.h"

namespace greater {

/// The row decoder: GReaT's constrained row-wise sampling, run in lockstep
/// over a chunk of in-flight rows ("lanes"). Every Sample* call, SampleRow,
/// chunked CSV emission and the serving layer decode through it. Each step
/// advances every lane by one token, grouping lanes whose next draw is
/// governed by the same (context-window, allow-list, temperature) key so
/// each distinct group costs exactly one restricted model evaluation — the
/// decode cache's memoized sharing made explicit within a chunk.
///
/// State is structure-of-arrays: per-lane context windows live as
/// fixed-stride slices of one token arena (sized once per chunk, reused
/// across chunks), and cursors / attempt counters / done flags are
/// parallel vectors indexed by lane. Each lane owns the Rng stream
/// derived for its global row index (Rng::DeriveStreamSeed(base, row)),
/// and every draw consumes only that lane's stream, so output is
/// bitwise-identical at any chunk size — and to an uncached one-row-at-a-
/// time decoder (tests/reference_decoder) — for both LM backbones, cache
/// on or off, conditional or not.
///
/// One engine per sampling worker (it is as thread-compatible as the
/// DecodeCache it borrows): GreatSynthesizer keeps one in each
/// SamplerWorkspace, with Options::batch_rows as the chunk size.
class BatchDecodeEngine {
 public:
  /// Per-run aggregate of the synth.batch.* metrics, kept locally so
  /// tests can reconcile without registry coupling. Invariant:
  /// group_evals + model_evals_saved == lane_steps.
  struct LocalStats {
    uint64_t lanes = 0;        ///< lanes started (== rows attempted)
    uint64_t steps = 0;        ///< lockstep iterations
    uint64_t lane_steps = 0;   ///< per-lane token draws
    uint64_t group_evals = 0;  ///< distribution resolutions (incl. solos)
    uint64_t model_evals_saved = 0;  ///< lane_steps - group_evals
  };

  explicit BatchDecodeEngine(const GreatSynthesizer& synth);

  /// One decode lane donated by an external scheduler — the serving
  /// layer's cross-request packing unit. `row` is the row index within the
  /// owning request, `base` that request's stream base, `conditions` /
  /// `cond_row` the optional forced-column source, and `report` the
  /// request's accounting sink. Lanes from different requests may share
  /// one RunLanes call: every draw a lane makes consumes only the stream
  /// seeded with Rng::DeriveStreamSeed(base, row), so each request's rows
  /// are bitwise-independent of how (or with whom) they were packed.
  struct LaneRequest {
    size_t row = 0;
    uint64_t base = 0;
    const Table* conditions = nullptr;
    size_t cond_row = 0;
    SampleReport* report = nullptr;
  };

  /// Lockstep-decodes an arbitrary lane set, appending one Result<Row> per
  /// lane (in lane order) to `out`. `cache` may be null (uncached grouped
  /// evaluation); `decode` provides the model scratch buffers. Per-lane
  /// accounting lands in each lane's own report, row by row, with the
  /// same counts at any chunk size.
  void RunLanes(const LaneRequest* lanes, size_t count, DecodeCache* cache,
                DecodeWorkspace* decode, uint64_t parent_span,
                std::vector<Result<Row>>* out);

  /// Samples rows [begin, end) of the surrounding Sample/SampleConditional
  /// call in lockstep, appending one Result<Row> per row (in row order) to
  /// `out`. Lane i draws from Rng(Rng::DeriveStreamSeed(base, begin + i)).
  /// `conditions`, when non-null, forces row i's condition columns to
  /// conditions row begin + i. Thin wrapper over RunLanes: one lane per
  /// row, all lanes sharing the call's base, conditions, and report.
  void RunChunk(size_t begin, size_t end, const Table* conditions,
                uint64_t base, DecodeCache* cache, DecodeWorkspace* decode,
                SampleReport* stats, uint64_t parent_span,
                std::vector<Result<Row>>* out);

  const LocalStats& stats() const { return local_stats_; }

  /// Test-only observation hook, invoked after every lockstep step with
  /// (0-based step index within the chunk, groups resolved that step).
  /// batch_decode_test's zero-allocation probe reads the operator-new
  /// counter from inside it.
  void (*on_step_for_testing)(size_t step, size_t groups, void* user) =
      nullptr;
  void* on_step_user = nullptr;

 private:
  enum class LaneState : uint8_t { kName, kValue, kDone };

  /// Widest context window a draw can be grouped on — mirrors the packed
  /// key width of DecodeCache; wider windows fall back to per-lane draws.
  static constexpr size_t kMaxWindow = 16;

  /// Memoized remaining-name allow-list, keyed by the lane's emitted-column
  /// bitmask. Lanes at the same decode frontier share one list object (and
  /// one interned id), which is what lets name-state draws group even with
  /// the cache off. Entries live in a deque so the `allowed_` pointers a
  /// step hands out stay stable while the memo grows; name_index_ finds an
  /// entry by mask in O(1), however many masks the call has memoized, and
  /// `slot` records where, so a call's reset clears only its own slots.
  struct NameMemoEntry {
    uint64_t mask = 0;
    AllowListId id = kNoAllowList;
    uint32_t slot = 0;  ///< this entry's position in name_index_
    std::vector<TokenId> names;
  };

  // Chunk setup -------------------------------------------------------------
  void PrepareLanes();
  /// Per-lane initialization: rows_requested/fault accounting, forced
  /// resolution, prefix encoding, first attempt.
  void StartLane(size_t lane);

  // Lane state machine ------------------------------------------------------
  void BeginAttempt(size_t lane);
  void EnterNameState(size_t lane);
  /// Decode + validation + snap + forced overrides for a completed
  /// attempt; success parks the row in row_scratch_[lane].
  void FinalizeAttempt(size_t lane);
  /// Attempt-level rejection: retries, or exhausts the lane with `error`
  /// named as the last one.
  void FailAttempt(size_t lane, const Status& error);
  void FinishLane(size_t lane, Status status);
  /// Applies a drawn token to the lane: name selection, value append, or
  /// value close.
  void ApplyToken(size_t lane, TokenId token);
  /// Marks the current column's value complete and moves on (next column
  /// or attempt finalization).
  void CompleteValue(size_t lane);

  // Lockstep draw phase -----------------------------------------------------
  /// Builds allowed_/allow_id_/hash_ for one active lane; sets solo_ when
  /// the lane must be drawn per-lane (unpackable window, or an unkeyable
  /// list under an active cache).
  void PrepareDraw(size_t lane);
  /// The memo entry for emitted-column `mask`, created (and interned in
  /// cache_) on the mask's first use within the call.
  const NameMemoEntry& NameEntry(uint64_t mask);
  /// Exact draw-key equality for two prepared lanes: same allow-list
  /// identity and the same context window, read straight from the arena.
  /// Group formation probes gtable_ by hash_ and verifies with this, so a
  /// hash collision can only split a group (costing an extra evaluation),
  /// never merge distinct distributions.
  bool SameKey(size_t a, size_t b) const;
  /// Runs one lockstep step over every active lane; returns the number of
  /// groups resolved.
  size_t Step();
  /// One grouped evaluation + per-lane draws over order_[first, last).
  void DrawGroup(size_t first, size_t last);
  void CopyContext(size_t lane);
  /// Re-lays the arena at a stride of at least `need` tokens (doubling,
  /// capped at arena_cap_), moving every lane's context to its new slice.
  void WidenArena(size_t need);

  /// The lane's accounting sink (per-lane since RunLanes: packed lanes may
  /// belong to different requests, each with its own report).
  SampleReport& rep(size_t lane) { return *lane_specs_[lane].report; }
  /// Whether the lane's condition forces column `c`.
  bool Forced(size_t lane, size_t c) const {
    return has_conditions_ && forced_has_[lane * num_columns_ + c];
  }

  const GreatSynthesizer& synth_;

  // Borrowed for the duration of one RunLanes call.
  DecodeCache* cache_ = nullptr;
  DecodeWorkspace* decode_ = nullptr;

  size_t num_lanes_ = 0;
  size_t active_ = 0;
  size_t num_columns_ = 0;

  /// Lane specifications of the current RunLanes call (copied in; the
  /// spans they point at must outlive the call). chunk_scratch_ is
  /// RunChunk's reusable staging buffer.
  std::vector<LaneRequest> lane_specs_;
  std::vector<LaneRequest> chunk_scratch_;

  // --- structure-of-arrays lane state (index = lane), reused across
  // chunks so the steady state allocates nothing ---
  std::vector<Rng> rng_;
  std::vector<LaneState> state_;
  std::vector<size_t> ctx_len_;     ///< tokens in the lane's arena slice
  std::vector<size_t> prefix_len_;  ///< forced-prefix tokens (attempt reset)
  std::vector<size_t> attempt_;     ///< 0-based current attempt
  std::vector<size_t> col_;         ///< column being decoded (kValue)
  std::vector<size_t> value_len_;
  std::vector<size_t> remaining_;
  std::vector<uint8_t> last_column_;
  std::vector<uint8_t> closed_;
  std::vector<uint8_t> constrain_;
  std::vector<uint8_t> lane_failed_;
  std::vector<Status> final_status_;
  std::vector<uint8_t> emitted_;       ///< lane * num_columns_ + c
  /// Forced cells (lane * num_columns_ + c), sized only when some lane of
  /// the call is conditioned.
  bool has_conditions_ = false;
  std::vector<uint8_t> forced_has_;
  std::vector<Value> forced_value_;
  std::vector<Row> row_scratch_;       ///< decode target / final row
  std::vector<std::vector<TokenId>> prefix_buf_;  ///< forced-prefix tokens

  /// Token arena: lane contexts live at [lane * arena_stride_,
  /// lane * arena_stride_ + ctx_len_[lane]). The stride starts at a short
  /// row and only widens, between a step's draws and its token appends,
  /// when some lane could outgrow it (WidenArena); it never exceeds
  /// arena_cap_, the worst-case attempt length, and later calls start
  /// from the widest stride an earlier one needed. Token appends are plain
  /// stores.
  std::vector<TokenId> arena_;
  size_t arena_stride_ = 0;
  size_t arena_cap_ = 0;

  // --- per-step draw scratch ---
  std::vector<std::vector<TokenId>> lane_names_;  ///< wide-schema fallback
  std::deque<NameMemoEntry> name_memo_;  ///< per-call mask -> name list
  size_t name_memo_used_ = 0;
  /// Open-addressed index over name_memo_[0, name_memo_used_): memo slot
  /// per position, -1 when empty. Power-of-two capacity with 2x slack,
  /// linear probing; it only grows (when a new mask is memoized) and keeps
  /// its capacity across calls, so steady-state steps allocate nothing.
  std::vector<int32_t> name_index_;
  size_t ctx_limit_ = 0;  ///< lm context_dependence, hoisted per chunk
  std::vector<const std::vector<TokenId>*> allowed_;
  std::vector<AllowListId> allow_id_;
  std::vector<uint64_t> list_key_;  ///< tagged allow-list id or pointer
  std::vector<uint32_t> take_;      ///< window width the draw keys on
  std::vector<uint64_t> hash_;      ///< mixed (list_key, window) sort key
  std::vector<uint8_t> solo_;
  std::vector<TokenId> token_;

  /// O(active) group formation: gtable_ is an open-addressed table of
  /// group ids probed by hash_ (exact membership re-checked with SameKey),
  /// group_rep_/group_count_/group_offset_ describe the groups found this
  /// step, and order_ holds the active lanes scattered into contiguous
  /// per-group runs (lane-ascending within each group, which pins the
  /// representative and keeps draw accounting deterministic). All scratch
  /// is reserved to the one-group-per-lane worst case in PrepareChunk so
  /// steady-state steps allocate nothing.
  std::vector<int32_t> gtable_;
  std::vector<uint32_t> group_id_;      ///< lane -> group
  std::vector<uint32_t> group_rep_;     ///< group -> first (lowest) lane
  std::vector<uint32_t> group_count_;   ///< group -> member count
  std::vector<uint32_t> group_offset_;  ///< group -> first slot in order_
  std::vector<uint32_t> order_;         ///< active lanes, grouped runs
  std::vector<uint32_t> scatter_;       ///< scatter scratch for order_
  TokenSequence ctx_scratch_;           ///< representative context copy
  std::vector<double> weights_;  ///< uncached group evaluation
  std::vector<double> cdf_;
  /// Vectorized cached-group draw scratch (DrawResolvedMany): the group's
  /// lane streams gathered contiguously, the tokens drawn for them, and
  /// the drawn-index staging buffer. Reserved to the whole-batch worst
  /// case in PrepareLanes, so steady-state steps allocate nothing.
  std::vector<Rng*> group_rngs_;
  std::vector<TokenId> group_tokens_;
  std::vector<size_t> draw_scratch_;
  TextualEncoder::DecodeScratch decode_scratch_;
  std::string display_scratch_;

  LocalStats local_stats_;
};

}  // namespace greater

#endif  // GREATER_SYNTH_BATCH_DECODE_H_
