// Dense anti-diagonal update kernels — the host analog of the paper's
// hand-written DPU inner loop (§5.5: cmpb4 4-byte SIMD compare + fused
// shift/jump). The simulator's fast path batches one anti-diagonal's
// interior cells into parallel arrays (cells on an anti-diagonal are
// independent by construction) and updates them with one branchless sweep,
// either auto-vectorized (diag_update_dense) or with AVX2 intrinsics
// (diag_update_avx2, runtime-dispatched).
//
// These kernels are pure arithmetic: no cost-model charging happens here.
// Modeled cycles/DMA are charged per pair by the caller, so the execution
// path cannot perturb any Table 2–8 number (DESIGN.md "Simulator fast
// path").
#pragma once

#include <cstdint>

#include "align/scoring.hpp"

namespace pimnw::core::simd {

/// One anti-diagonal's interior cells (i >= 1, j >= 1, inside the band) as
/// dense parallel arrays. Every score pointer is pre-shifted by the caller
/// so lane t of all inputs describes the same DP cell; lanes whose
/// neighbour falls outside the band read align::kNegInf from padding the
/// caller prepared. Input and output arrays must not alias (the AVX2 sweep
// recomputes up to 7 lanes in its last step and relies on that).
struct DiagSpan {
  const align::Score* up_h;    // H_prev[k + shift1 - 1]  (vertical)
  const align::Score* up_i;    // I_prev[k + shift1 - 1]
  const align::Score* left_h;  // H_prev[k + shift1]      (horizontal)
  const align::Score* left_d;  // D_prev[k + shift1]
  const align::Score* diag_h;  // H_prev2[k + shift2 - 1] (diagonal)
  const std::uint8_t* base_a;  // a[i-1] codes, ascending i
  const std::uint8_t* base_b;  // b[j-1] codes, reversed so lane t pairs with base_a[t]
  align::Score* out_h;
  align::Score* out_i;
  align::Score* out_d;
  /// 4-bit BT codes, one byte per lane (caller nibble-packs); nullptr in
  /// score-only mode.
  std::uint8_t* codes;
  std::int64_t len;
  align::Score match;       // added on equal bases
  align::Score mismatch;    // subtracted on unequal bases (magnitude)
  align::Score gap_extend;  // per-base gap charge (magnitude)
  align::Score open_ext;    // Scoring::open_extend()
};

/// True when this build carries the AVX2 kernel and the CPU supports it.
bool avx2_available();

/// Portable branchless update (compiled without ISA-specific flags; the
/// autovectorizer does what it can). Reference for the AVX2 kernel.
void diag_update_dense(const DiagSpan& d);

/// AVX2 update (8 cells per step). Falls back to diag_update_dense when the
/// build has no AVX2 translation unit; must only be called after
/// avx2_available() returned true or on the fallback path knowingly.
void diag_update_avx2(const DiagSpan& d);

/// Nibble-packs 2·`bytes` BT codes (one per byte, each < 16) into `bytes`
/// bytes in align::bt_store's layout: code 2q in the low nibble of row[q],
/// code 2q+1 in the high one. `bytes` must be a multiple of 8.
void pack_codes(const std::uint8_t* codes, std::uint64_t bytes,
                std::uint8_t* row);

/// AVX2 pack_codes, with diag_update_avx2's dispatch and fallback contract.
void pack_codes_avx2(const std::uint8_t* codes, std::uint64_t bytes,
                     std::uint8_t* row);

}  // namespace pimnw::core::simd
