// Persistent-database sessions (DESIGN.md §13, ROADMAP item 3).
//
// The all-vs-all workloads (16S phylogeny, identity search, clustering) are
// O(N²) alignments over a fixed set of N sequences. The per-batch dispatch
// path re-sends sequence data with every batch — the CPU–DPU transfer
// bottleneck Diab et al. identify on real UPMEM hardware. A DbSession
// instead uploads the 2-bit-packed database to every DPU's MRAM once
// (broadcast, chunk-sparse at kBroadcastPoolOffset), then runs any number of
// launch rounds in which only 8-byte (i, j) index pairs go out and 16-byte
// score records come back. The one engine lives as long as the session, so
// the modeled timeline amortizes the broadcast across every round.
//
// On top of the raw rounds sit:
//  * triangular work-tiling: the k·(k-1)/2 unordered pairs are carved into
//    block tiles of the upper triangle (each pair in exactly one tile) and
//    LPT-balanced across all DPUs of all ranks by tile workload;
//  * streaming reduction: a SessionSink feeds every decoded plan straight
//    into a bounded top-K / threshold ScoreReducer, so the full N² score
//    matrix is never materialized.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/dpu_cost.hpp"
#include "core/engine.hpp"
#include "core/host.hpp"
#include "core/load_balance.hpp"
#include "core/params.hpp"

namespace pimnw::core {

/// One session comparison: indices into the resident database.
struct IndexPair {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

/// One surviving comparison of a filtered all-vs-all sweep.
struct ScoreHit {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::int32_t score = 0;
};

/// What the streaming reduction keeps. top_k == 0 means unbounded (every
/// pair passing min_score is kept — only then can the result grow to N²).
struct ScoreFilter {
  std::size_t top_k = 0;
  std::optional<std::int32_t> min_score;
};

/// Strict total order on hits: higher score first, ties by (a, b) ascending.
/// Because the order is total, the surviving top-K *set* is independent of
/// arrival order — concurrent rounds cannot change which hits are kept.
bool hit_better(const ScoreHit& x, const ScoreHit& y);

/// Streaming top-K / threshold reduction. Not thread-safe; callers serialise
/// (DbSession's sink locks once per decoded plan).
class ScoreReducer {
 public:
  explicit ScoreReducer(ScoreFilter filter) : filter_(filter) {}

  void offer(std::uint32_t a, std::uint32_t b, std::int32_t score);

  /// Hits seen so far (bounded by top_k when set).
  std::size_t size() const { return heap_.size(); }
  std::uint64_t offered() const { return offered_; }

  /// Drain into a vector sorted best-first (hit_better order).
  std::vector<ScoreHit> take_sorted();

 private:
  ScoreFilter filter_;
  /// Min-heap under hit_better: heap_.front() is the worst kept hit.
  std::vector<ScoreHit> heap_;
  std::uint64_t offered_ = 0;
};

/// One block tile of the upper triangle: pairs (i, j) with i in
/// [row_first, row_last), j in [col_first, col_last) and i < j. Diagonal
/// tiles (row_first == col_first) keep only their i < j half; off-diagonal
/// tiles contain the full cross product. Together the tiles of
/// build_triangular_tiles cover each unordered pair exactly once.
struct TriTile {
  std::uint32_t row_first = 0;
  std::uint32_t row_last = 0;
  std::uint32_t col_first = 0;
  std::uint32_t col_last = 0;
  std::uint64_t pairs = 0;
  std::uint64_t workload = 0;  // Σ pair_workload over the tile's pairs

  /// Invoke fn(i, j) for every pair of the tile, row-major.
  template <typename Fn>
  void for_each_pair(Fn&& fn) const {
    for (std::uint32_t i = row_first; i < row_last; ++i) {
      const std::uint32_t j_begin = std::max(col_first, i + 1);
      for (std::uint32_t j = j_begin; j < col_last; ++j) {
        fn(i, j);
      }
    }
  }
};

/// Tile the k·(k-1)/2 upper triangle of `lengths.size()` sequences into
/// blocks of `tile_span` rows/columns, with per-tile workloads computed from
/// the sequence lengths at `band_width`. Empty tiles are dropped.
std::vector<TriTile> build_triangular_tiles(
    std::span<const std::uint32_t> lengths, std::uint32_t tile_span,
    std::uint64_t band_width);

/// A persistent-database session. Constructing one packs and broadcasts the
/// database (the modeled cost of writing every bank, charged to the engine's
/// timeline); each align_* call then runs launch rounds that move only index
/// pairs and scores. RunReports are cumulative over the session's life, so
/// the broadcast amortizes across rounds in every reported ratio. After each
/// call the per-round scratch chunks are released from every bank, keeping
/// only the resident database materialised.
class DbSession {
 public:
  /// `db` is copied into the session. `config.align.traceback` is forced
  /// off: sessions are score-only by definition.
  DbSession(std::span<const std::string> db, PimAlignerConfig config);
  ~DbSession();

  DbSession(const DbSession&) = delete;
  DbSession& operator=(const DbSession&) = delete;

  std::size_t size() const { return db_.size(); }
  /// The resident database, in index order.
  const std::vector<std::string>& db() const { return db_; }
  const PimAlignerConfig& config() const { return config_; }
  /// Bytes of the resident database image (per bank; the broadcast moves
  /// this times nr_dpus over the wire).
  std::uint64_t db_bytes() const { return db_image_.size(); }

  /// Align arbitrary database index pairs. `out`, when non-null, receives
  /// one PairOutput per input pair (same order). The returned report is
  /// cumulative over the whole session so far.
  RunReport align_pairs(std::span<const IndexPair> pairs,
                        std::vector<PairOutput>* out);

  struct AllVsAllResult {
    RunReport report;             // cumulative, like align_pairs
    std::vector<ScoreHit> hits;   // filtered, sorted best-first
    std::uint64_t pairs_swept = 0;
  };

  /// Sweep all k·(k-1)/2 pairs through triangular tiling + streaming
  /// reduction. The score matrix is never materialized: each decoded plan
  /// flows into a ScoreReducer bounded by `filter`.
  AllVsAllResult align_all_vs_all(const ScoreFilter& filter);

  /// Cumulative session report (same as the last align_* return value).
  RunReport finish();

  const StatsCollector& stats() const;

  /// Largest materialised bank footprint, for the bounded-footprint test.
  std::uint64_t max_bank_footprint() const;
  /// Chunks dropped by the most recent post-round scratch release.
  std::size_t last_scratch_released() const { return last_released_; }

 private:
  struct ReducerSink;

  /// Run `n_batches` session rounds: assign(b) bins work items across the
  /// 64 DPUs, emit expands one item into its pairs inside a plan. Releases
  /// per-round scratch afterwards and returns the cumulative report.
  RunReport run_rounds(
      std::size_t n_batches,
      const std::function<Assignment(std::size_t)>& assign,
      const std::function<void(const WorkItem&, DpuPlan&)>& emit,
      SessionSink* sink, std::vector<PairOutput>* out);

  std::uint64_t workload_of(std::uint32_t i, std::uint32_t j) const;

  PimAlignerConfig config_;  // must outlive engine_ (held by reference)
  HostCost host_cost_ = kDefaultHostCost;
  std::vector<std::string> db_;
  std::vector<std::uint32_t> lengths_;
  std::vector<std::uint8_t> db_image_;
  std::unique_ptr<ExecEngine> engine_;
  std::size_t last_released_ = 0;
  /// Per-pool MRAM scratch stride for any round of this session: the
  /// kernel's pair_scratch_bytes at the two longest database lengths
  /// (valid for every pair by the interface's monotonicity contract).
  /// 0 for score-only NW, so NW session images are byte-identical.
  std::uint64_t scratch_stride_ = 0;
};

}  // namespace pimnw::core
