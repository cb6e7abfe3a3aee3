#include "upmem/system.hpp"

#include <gtest/gtest.h>

#include "upmem/dpu.hpp"
#include "util/check.hpp"

namespace pimnw::upmem {
namespace {

/// Toy kernel: copies 8 bytes from MRAM offset 0 to offset 64 and charges
/// `instr` instructions.
class CopyProgram : public DpuProgram {
 public:
  explicit CopyProgram(std::uint64_t instr) : instr_(instr) {}
  void run(DpuContext& ctx) override {
    const std::uint64_t buf = ctx.wram.alloc(8);
    ctx.mram_read(0, buf, 8);
    ctx.mram_write(buf, 64, 8);
    ctx.cost.pool(0).dma(16);
    ctx.cost.pool(0).serial(instr_);
  }

 private:
  std::uint64_t instr_;
};

TEST(DpuTest, LaunchRunsProgramAgainstBank) {
  Dpu dpu;
  std::vector<std::uint8_t> payload = {9, 8, 7, 6, 5, 4, 3, 2};
  dpu.mram().write(0, payload);
  CopyProgram program(100);
  const auto summary = dpu.launch(program, 1, 1);
  std::vector<std::uint8_t> back(8);
  dpu.mram().read(64, back);
  EXPECT_EQ(back, payload);
  EXPECT_EQ(summary.instructions, 100u);
  EXPECT_GT(summary.cycles, 0u);
}

TEST(DpuTest, WramIsFreshPerLaunch) {
  Dpu dpu;
  CopyProgram program(1);
  (void)dpu.launch(program, 1, 1);
  // Second launch must be able to allocate again from offset 0.
  EXPECT_NO_THROW(dpu.launch(program, 1, 1));
}

TEST(RankTest, HasSixtyFourDpus) {
  Rank rank;
  EXPECT_EQ(Rank::size(), 64);
  EXPECT_NO_THROW(rank.dpu(0));
  EXPECT_NO_THROW(rank.dpu(63));
  EXPECT_THROW(rank.dpu(64), CheckError);
  EXPECT_THROW(rank.dpu(-1), CheckError);
}

TEST(RankTest, LaunchTimeIsSlowestDpu) {
  Rank rank;
  // DPU 5 gets 10x the work of the others; the rank barrier makes its time
  // the rank's time (the effect the LPT balancer minimises, §4.1.2).
  const auto stats = rank.launch(
      [](int d) -> std::unique_ptr<DpuProgram> {
        return std::make_unique<CopyProgram>(d == 5 ? 100'000 : 10'000);
      },
      1, 1);
  EXPECT_EQ(stats.active_dpus, 64);
  EXPECT_NEAR(stats.seconds, 100'000.0 * 11 / kDpuFrequencyHz, 1e-6);
  EXPECT_LT(stats.fastest_dpu_seconds, stats.seconds / 5);
}

TEST(RankTest, NullProgramsLeaveDpusIdle) {
  Rank rank;
  const auto stats = rank.launch(
      [](int d) -> std::unique_ptr<DpuProgram> {
        if (d >= 8) return nullptr;
        return std::make_unique<CopyProgram>(1000);
      },
      1, 1);
  EXPECT_EQ(stats.active_dpus, 8);
}

TEST(SystemTest, RankCountAndDpuCount) {
  PimSystem system(3);
  EXPECT_EQ(system.nr_ranks(), 3);
  EXPECT_EQ(system.nr_dpus(), 192);
  EXPECT_THROW(system.rank(3), CheckError);
  EXPECT_THROW(PimSystem(0), CheckError);
}

TEST(SystemTest, TransferTimeMatchesBandwidthModel) {
  // 60 GB at 60 GB/s = 1 s.
  EXPECT_NEAR(PimSystem::host_transfer_seconds(60ull * 1000 * 1000 * 1000),
              1.0, 1e-9);
}

TEST(SystemTest, CopyToRankWritesPerDpuBuffers) {
  PimSystem system(1);
  std::vector<std::vector<std::uint8_t>> buffers(64);
  buffers[0] = {1, 2, 3};
  buffers[63] = {4, 5};
  const TransferStats stats = system.copy_to_rank(0, buffers, 128);
  EXPECT_EQ(stats.bytes, 5u);
  std::vector<std::uint8_t> back(3);
  system.rank(0).dpu(0).mram().read(128, back);
  EXPECT_EQ(back, (std::vector<std::uint8_t>{1, 2, 3}));
  std::vector<std::uint8_t> back2(2);
  system.rank(0).dpu(63).mram().read(128, back2);
  EXPECT_EQ(back2, (std::vector<std::uint8_t>{4, 5}));
}

}  // namespace
}  // namespace pimnw::upmem
