// UPMEM-SDK-style host facade over the simulator (paper §2.2).
//
// The real host program is written against UPMEM's SDK; this facade exposes
// the simulator through the same vocabulary so other PiM kernels can be
// built on the substrate without touching the alignment stack:
//
//   SDK                          | here
//   -----------------------------+----------------------------------------
//   dpu_alloc(nr_ranks, ...)     | DpuSet::allocate_ranks(n)
//   dpu_load(set, program, ...)  | implicit: programs are passed to exec()
//   dpu_copy_to(set, sym, ...)   | DpuSet::copy_to(offset, buffers)
//   dpu_broadcast_to(set, ...)   | DpuSet::broadcast(offset, buffer)
//   dpu_launch(set, DPU_SYNC)    | DpuSet::exec(factory, pools, tasklets)
//   dpu_copy_from(set, sym, ...) | DpuSet::copy_from(offset, sizes, out)
//
// Like the hardware, the granularity of every operation is the whole set;
// per-rank slicing is available through rank_subset() (the SDK's
// dpu_set_rank iterators).
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "upmem/system.hpp"

namespace pimnw::upmem {

class DpuSet {
 public:
  /// Allocate a fresh simulated system of `nr_ranks` ranks.
  static DpuSet allocate_ranks(int nr_ranks);

  int nr_ranks() const;
  int nr_dpus() const;

  /// A view over a single rank of this set (shares the underlying system).
  DpuSet rank_subset(int rank);

  /// Write per-DPU buffers at `mram_offset`. Buffers are indexed DPU-major
  /// across the set (rank 0 DPU 0..63, rank 1 DPU 0..63, ...); missing or
  /// empty entries skip their DPU.
  TransferStats copy_to(std::uint64_t mram_offset,
                        const std::vector<std::vector<std::uint8_t>>& buffers);

  /// Write the same buffer to every DPU of the set.
  TransferStats broadcast(std::uint64_t mram_offset,
                          std::span<const std::uint8_t> buffer);

  struct ExecStats {
    /// Modeled wall time: ranks run concurrently, each gated by its barrier.
    double seconds = 0.0;
    std::vector<Rank::LaunchStats> per_rank;
  };

  /// Launch one kernel instance per DPU (factory may return nullptr to idle
  /// a DPU) and synchronise — the SDK's dpu_launch(DPU_SYNCHRONOUS).
  ExecStats exec(
      const std::function<std::unique_ptr<DpuProgram>(int rank, int dpu)>&
          factory,
      int pools, int tasklets_per_pool);

  /// Read `sizes[d]` bytes per DPU at `mram_offset` into `out[d]`
  /// (DPU-major across the set).
  TransferStats copy_from(std::uint64_t mram_offset,
                          const std::vector<std::uint64_t>& sizes,
                          std::vector<std::vector<std::uint8_t>>& out);

  /// Persistent-database session reset (DESIGN.md §13): drop every bank
  /// chunk below `offset` on every DPU of the set, keeping the resident
  /// database written at/above `offset` by broadcast(). Free (no modeled
  /// cost): the host releases its own staging memory, nothing crosses the
  /// bus. Returns the number of chunks released across the set.
  std::uint64_t release_below(std::uint64_t offset);

  /// Escape hatch to the underlying simulator.
  PimSystem& system() { return *system_; }

 private:
  DpuSet(std::shared_ptr<PimSystem> system, int first_rank, int rank_count)
      : system_(std::move(system)),
        first_rank_(first_rank),
        rank_count_(rank_count) {}

  std::shared_ptr<PimSystem> system_;
  int first_rank_;
  int rank_count_;
};

}  // namespace pimnw::upmem
