#include "upmem/system.hpp"

#include "util/check.hpp"

namespace pimnw::upmem {

PimSystem::PimSystem(int nr_ranks) {
  PIMNW_CHECK_MSG(nr_ranks >= 1, "need at least one rank");
  ranks_.resize(static_cast<std::size_t>(nr_ranks));
}

Rank& PimSystem::rank(int r) {
  PIMNW_CHECK_MSG(r >= 0 && r < nr_ranks(), "rank " << r << " out of range");
  return ranks_[static_cast<std::size_t>(r)];
}

const Rank& PimSystem::rank(int r) const {
  PIMNW_CHECK_MSG(r >= 0 && r < nr_ranks(), "rank " << r << " out of range");
  return ranks_[static_cast<std::size_t>(r)];
}

TransferStats PimSystem::copy_to_rank(
    int r, const std::vector<std::vector<std::uint8_t>>& per_dpu,
    std::uint64_t mram_offset) {
  PIMNW_CHECK_MSG(per_dpu.size() <= static_cast<std::size_t>(kDpusPerRank),
                  "more buffers than DPUs in a rank");
  Rank& target = rank(r);
  TransferStats stats;
  for (std::size_t d = 0; d < per_dpu.size(); ++d) {
    if (per_dpu[d].empty()) continue;
    target.dpu(static_cast<int>(d))
        .mram()
        .write(mram_offset, per_dpu[d]);
    stats.bytes += per_dpu[d].size();
  }
  stats.seconds = host_transfer_seconds(stats.bytes);
  return stats;
}

}  // namespace pimnw::upmem
