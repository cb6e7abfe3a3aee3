// Gap-affine wavefront alignment (WFA, Marco-Sola et al. 2020) — the
// "recent WFA algorithm" of the paper's introduction, implemented as an
// independent exact aligner.
//
// Role in this project: a second, algorithmically unrelated way to compute
// the optimal global affine score. Tests cross-check it against nw_full
// (two exact implementations agreeing is strong evidence for both), and it
// is much faster than O(m·n) DP on similar sequences (O(n·s) where s is the
// alignment cost), which matters for validating long-read references.
//
// WFA minimises an edit *cost* with match = 0; the maximising NW score model
// (match bonus a, mismatch -b, gap -(o + e·len)) converts exactly via
//   x = 2(a+b),  gap_open = 2o,  gap_extend = 2e + a,
//   score = (a·(m+n) - cost) / 2           (Eizenga & Paten 2022).
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

#include "align/result.hpp"
#include "align/scoring.hpp"

namespace pimnw::align {

struct WfaOptions {
  /// Abort (return nullopt) once the alignment cost exceeds this bound —
  /// WFA's time and memory grow with the cost, so very dissimilar pairs are
  /// better served by banded DP. 0 = no bound.
  std::uint64_t max_cost = 0;
  /// Hard cap on wavefront cells (memory guard). 0 = default (2^28).
  std::uint64_t max_cells = 0;
};

/// Exact optimal global alignment score of a vs b under `scoring`,
/// or nullopt if the cost bound was exceeded.
std::optional<Score> wfa_score(std::string_view a, std::string_view b,
                               const Scoring& scoring,
                               const WfaOptions& options = {});

/// Exact optimal global alignment *with traceback* (retains all wavefronts:
/// memory grows with the square of the alignment cost, so use the cost
/// bound for dissimilar pairs). Returns nullopt if a bound was exceeded.
std::optional<AlignResult> wfa_align(std::string_view a, std::string_view b,
                                     const Scoring& scoring,
                                     const WfaOptions& options = {});

/// Expected wavefront cells of aligning a (len_a, len_b) pair whose inputs
/// diverge by `divergence` per base — the WFA backends' work model. The
/// cost s ≈ divergence·(m+n)·x/2, clamped to `max_cost` when nonzero (past
/// it the aligner gives up), drives ~s wavefronts of up to min(2s+1, m+n)
/// diagonals, never fewer cells than one pass over the sequences.
double wfa_estimate_cells(std::size_t len_a, std::size_t len_b,
                          const Scoring& scoring, double divergence,
                          std::uint64_t max_cost);

}  // namespace pimnw::align
