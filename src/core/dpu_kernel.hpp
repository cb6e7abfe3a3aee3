// The DPU alignment kernel (paper §4.2) — the program every DPU runs.
//
// Structure mirrors the paper's kernel:
//  * P pools of T tasklets align P pairs concurrently (§4.2.3). Pairs are
//    pulled from the batch's work list by whichever pool frees up first.
//  * Score state is four anti-diagonal arrays of width w in WRAM (§4.2.1),
//    updated in place with carry registers (ascending-offset sweep).
//  * Sequences are read from MRAM through sliding 2-bit-packed WRAM windows
//    (§4.1.1), refilled by DMA as the band advances.
//  * Traceback state (4-bit BT rows + window origin per anti-diagonal) is
//    streamed to a per-pool MRAM scratch area (§4.2.2), then walked
//    backwards by the pool's master tasklet to emit a run-length CIGAR.
//
// The kernel's arithmetic, tie-breaking and window steering are identical to
// align::banded_adaptive — tests assert bit-identical scores and CIGARs.
// Timing comes from the instruction budgets in dpu_cost.hpp charged to the
// DPU cost model.
#pragma once

#include <cstdint>
#include <vector>

#include "core/dpu_cost.hpp"
#include "core/params.hpp"
#include "core/pim_kernel.hpp"
#include "upmem/dpu.hpp"

namespace pimnw::core {

/// Host-side fast-path scratch (the band rows, the sequence windows decoded
/// one byte per base at each refill, and the BT code bytes of DESIGN.md
/// "Simulator fast path"). It models no DPU state, so one instance can be
/// shared by every pool of a launch (pairs align strictly one at a time) and
/// reused across launches — the execution engine keeps one per worker thread
/// instead of reallocating per DPU launch. Safe to reuse without clearing:
/// a pair reads only band slots it wrote itself, each pair's first window
/// refill re-decodes its bases, and every code lane the sweep does not
/// write is zeroed before packing; only the kNegInf pads persist, and
/// nothing writes them.
struct KernelScratch {
  /// Band rows, each w + 2 scores with slot k at index 1 + k and kNegInf
  /// pads at 0 and w + 1: H on anti-diagonals s, s-1, s-2, I on s, s-1 and
  /// D on s, s-1, in an order the kernel rotates per anti-diagonal.
  static constexpr std::size_t kBandRows = 7;
  std::vector<align::Score> band;
  std::vector<std::uint8_t> base_a;
  std::vector<std::uint8_t> base_b;
  std::vector<std::uint8_t> codes;  // two per BT-row byte

  /// Size for `band_width`; installs the pads when (re)allocating.
  void prepare(std::int64_t band_width);
};

class NwDpuProgram : public upmem::DpuProgram {
 public:
  /// `scratch` may be nullptr (the program then keeps a private arena) or a
  /// caller-owned KernelScratch that must outlive the launch and must not be
  /// shared with a concurrently running program. `bt_stream_passes` models
  /// each BT row crossing the MRAM port that many times (profiling stress
  /// knob, PimAlignerConfig::bt_stream_passes); 1 is the paper's kernel.
  NwDpuProgram(PoolConfig pool_config, KernelVariant variant,
               SimPath sim_path = SimPath::kAuto,
               KernelScratch* scratch = nullptr, int bt_stream_passes = 1)
      : pool_config_(pool_config),
        cost_(kernel_cost(variant)),
        sim_path_(sim_path),
        scratch_(scratch),
        bt_stream_passes_(bt_stream_passes) {}

  void run(upmem::DpuContext& ctx) override;

 private:
  PoolConfig pool_config_;
  KernelCost cost_;
  SimPath sim_path_;  // host execution strategy; never affects modeled cost
  KernelScratch* scratch_;  // optional shared arena (not owned)
  int bt_stream_passes_;    // modeled BT streaming passes (>= 1)
};

/// PimKernel registrant for the banded-NW kernel: the image geometry, flag
/// bits and program construction the engine/layout used to hardcode, now
/// behind the algorithm-agnostic interface (DESIGN.md §16). Every number it
/// reports is byte-identical to the pre-refactor inline arithmetic.
class NwKernel final : public PimKernel {
 public:
  const char* name() const override { return "nw"; }
  const char* description() const override;

  std::uint32_t batch_flags(const AlignConfig& config) const override;
  std::uint32_t pair_cigar_cap(std::uint64_t len_a, std::uint64_t len_b,
                               const AlignConfig& config) const override;
  std::uint64_t pair_scratch_bytes(std::uint64_t len_a, std::uint64_t len_b,
                                   const AlignConfig& config) const override;

  double estimate_cells(std::uint64_t len_a, std::uint64_t len_b,
                        const AlignConfig& config,
                        double expected_divergence) const override;

  std::unique_ptr<KernelWorkspace> make_workspace() const override;
  std::unique_ptr<upmem::DpuProgram> make_program(
      const PimAlignerConfig& config, KernelWorkspace* workspace) const override;

  std::span<const KernelPhase> phase_table() const override;

  align::AlignResult host_reference(std::string_view a, std::string_view b,
                                    const AlignConfig& config) const override;
};

}  // namespace pimnw::core
