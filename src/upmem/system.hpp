// The whole PiM server: N ranks of 64 DPUs plus the host<->MRAM transfer
// model. Mirrors the UPMEM SDK host API surface the paper's host program
// uses: allocate ranks, copy per-DPU buffers, broadcast, launch, sync.
//
// Timing: every operation returns its modeled duration; the orchestrator in
// src/core composes those durations on an event timeline (transfers to a
// rank serialise with that rank's execution — §2.1: the host cannot touch
// MRAM while the DPUs run — while different ranks overlap freely).
#pragma once

#include <cstdint>
#include <vector>

#include "upmem/rank.hpp"

namespace pimnw::upmem {

/// Modeled cost of one host<->MRAM transfer.
struct TransferStats {
  std::uint64_t bytes = 0;
  double seconds = 0.0;
};

class PimSystem {
 public:
  /// `nr_ranks` ranks of 64 DPUs (the paper's server: 40; Tables 2–6 sweep
  /// 10/20/40).
  explicit PimSystem(int nr_ranks);

  int nr_ranks() const { return static_cast<int>(ranks_.size()); }
  int nr_dpus() const { return nr_ranks() * kDpusPerRank; }

  Rank& rank(int r);
  const Rank& rank(int r) const;

  /// Modeled duration of moving `bytes` between host RAM and MRAM over the
  /// DDR bus (§4.1.1: ~60 GB/s aggregate).
  static double host_transfer_seconds(std::uint64_t bytes) {
    return static_cast<double>(bytes) / kHostXferBytesPerSec;
  }

  /// Modeled cost of a transfer totalling `bytes`, without moving anything —
  /// the execution engine simulates DPUs on per-worker scratch banks and
  /// charges transfers through this (identical arithmetic to copy_to_rank on
  /// the same byte count).
  static TransferStats transfer_stats(std::uint64_t bytes) {
    return {bytes, host_transfer_seconds(bytes)};
  }

  /// Modeled cost of broadcasting a `buffer_bytes` buffer to `nr_dpus` DPUs
  /// (each bank is written individually on the wire).
  static TransferStats broadcast_stats(std::uint64_t buffer_bytes,
                                       int nr_dpus) {
    return transfer_stats(buffer_bytes * static_cast<std::uint64_t>(nr_dpus));
  }

  /// Write one buffer per DPU of rank `r` at `mram_offset` (buffers may have
  /// different sizes; empty buffers skip their DPU).
  TransferStats copy_to_rank(int r,
                             const std::vector<std::vector<std::uint8_t>>& per_dpu,
                             std::uint64_t mram_offset);

 private:
  std::vector<Rank> ranks_;
};

}  // namespace pimnw::upmem
