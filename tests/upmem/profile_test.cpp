// Emulated hardware counters and phase attribution (ISSUE 5, DESIGN.md §12).
//
// Unit level: dma_cycles at the legal transfer boundaries, the DMA size
// histogram, PoolCost's per-phase / per-tasklet counters, and the
// DpuCostModel::profile() reconciliation invariant — every attributed row
// sums *exactly* to Summary.cycles, for issue-bound, DMA-bound and
// reentry-bound synthetic charge patterns alike.
#include <gtest/gtest.h>

#include <cstdint>

#include "upmem/arch.hpp"
#include "upmem/cost_model.hpp"

namespace pimnw::upmem {
namespace {

// --- dma_cycles boundaries (satellite c) ---

TEST(ProfileTest, DmaCyclesLowerBoundary) {
  // Smallest legal MRAM transfer: 8 bytes -> 32 + 8/2 = 36 cycles.
  EXPECT_EQ(dma_cycles(8), 36u);
}

TEST(ProfileTest, DmaCyclesUpperBoundary) {
  // Largest single transfer: 2048 bytes -> 32 + 1024 = 1056 cycles.
  EXPECT_EQ(dma_cycles(2048), 1056u);
}

TEST(ProfileTest, DmaCyclesMultiChunkAdditivity) {
  // A >2048 B payload goes out as 2048-byte chunks plus a remainder; the
  // chunked cost is the plain sum of the per-chunk costs (each chunk pays
  // the 32-cycle setup again).
  const std::uint64_t bytes = 2048 * 3 + 104;
  const std::uint64_t chunked =
      3 * dma_cycles(2048) + dma_cycles(104);
  EXPECT_EQ(chunked, 3u * 1056u + (32u + 52u));
  // And strictly more than a (hypothetical) single transfer of the total:
  // the extra setups are the price of the 2048 B engine limit.
  EXPECT_GT(chunked, 32 + bytes / 2);
}

// --- DMA size histogram ---

TEST(ProfileTest, DmaHistBucketMapping) {
  EXPECT_EQ(dma_hist_bucket(1), 0);
  EXPECT_EQ(dma_hist_bucket(8), 0);
  EXPECT_EQ(dma_hist_bucket(9), 1);
  EXPECT_EQ(dma_hist_bucket(16), 1);
  EXPECT_EQ(dma_hist_bucket(17), 2);
  EXPECT_EQ(dma_hist_bucket(1024), 7);
  EXPECT_EQ(dma_hist_bucket(1025), 8);
  EXPECT_EQ(dma_hist_bucket(2048), 8);
}

TEST(ProfileTest, DmaHistBucketBytes) {
  EXPECT_EQ(dma_hist_bucket_bytes(0), 8u);
  EXPECT_EQ(dma_hist_bucket_bytes(3), 64u);
  EXPECT_EQ(dma_hist_bucket_bytes(kDmaHistBuckets - 1), 2048u);
}

// --- PoolCost emulated counters ---

TEST(ProfileTest, PoolDmaCountersAtBoundaries) {
  PoolCost pool;
  pool.set_phase(Phase::kBtDma);
  pool.dma(8);
  pool.dma(2048);
  EXPECT_EQ(pool.critical_dma_cycles(), 36u + 1056u);
  EXPECT_EQ(pool.dma_bytes(), 2056u);
  EXPECT_EQ(pool.phase_dma_cycles(Phase::kBtDma), 36u + 1056u);
  EXPECT_EQ(pool.phase_dma_bytes(Phase::kBtDma), 2056u);
  EXPECT_EQ(pool.dma_hist(0), 1u);
  EXPECT_EQ(pool.dma_hist(kDmaHistBuckets - 1), 1u);
  for (int b = 1; b < kDmaHistBuckets - 1; ++b) {
    EXPECT_EQ(pool.dma_hist(b), 0u) << "bucket " << b;
  }
}

TEST(ProfileTest, PoolPhaseInstrFollowsSetPhase) {
  PoolCost pool;
  pool.set_phase(Phase::kSetup);
  pool.serial(10);
  pool.set_phase(Phase::kCompute);
  pool.balanced_step(100, 4);
  pool.set_phase(Phase::kTraceback);
  pool.serial(7);
  EXPECT_EQ(pool.phase_instr(Phase::kSetup), 10u);
  EXPECT_EQ(pool.phase_instr(Phase::kCompute), 100u);
  EXPECT_EQ(pool.phase_instr(Phase::kTraceback), 7u);
  EXPECT_EQ(pool.phase_instr(Phase::kBandShift), 0u);
  EXPECT_EQ(pool.total_instr(), 117u);
}

TEST(ProfileTest, PoolTaskletSplitBalancedStep) {
  // balanced_step(10, 4): ceil = 3 on the first two tasklets, 2 on the rest.
  PoolCost pool;
  pool.balanced_step(10, 4);
  EXPECT_EQ(pool.tasklet_instr(0), 3u);
  EXPECT_EQ(pool.tasklet_instr(1), 3u);
  EXPECT_EQ(pool.tasklet_instr(2), 2u);
  EXPECT_EQ(pool.tasklet_instr(3), 2u);
  EXPECT_EQ(pool.critical_instr(), 3u);
  EXPECT_EQ(pool.total_instr(), 10u);
}

TEST(ProfileTest, PoolSerialChargesMasterTasklet) {
  PoolCost pool;
  pool.serial(42);
  EXPECT_EQ(pool.tasklet_instr(0), 42u);
  EXPECT_EQ(pool.tasklet_instr(1), 0u);
  EXPECT_EQ(pool.critical_instr(), 42u);
}

TEST(ProfileTest, CountersAreObserversOnly) {
  // Two pools with identical charges but different set_phase interleavings
  // must report identical timing.
  PoolCost a;
  a.balanced_step(64, 4);
  a.dma(256);
  a.serial(5);

  PoolCost b;
  b.set_phase(Phase::kCompute);
  b.balanced_step(64, 4);
  b.set_phase(Phase::kBtDma);
  b.dma(256);
  b.set_phase(Phase::kTraceback);
  b.serial(5);

  EXPECT_EQ(a.critical_instr(), b.critical_instr());
  EXPECT_EQ(a.total_instr(), b.total_instr());
  EXPECT_EQ(a.critical_dma_cycles(), b.critical_dma_cycles());
  EXPECT_EQ(a.dma_bytes(), b.dma_bytes());
}

void expect_same_counters(const PoolCost& a, const PoolCost& b) {
  EXPECT_EQ(a.critical_instr(), b.critical_instr());
  EXPECT_EQ(a.total_instr(), b.total_instr());
  EXPECT_EQ(a.critical_dma_cycles(), b.critical_dma_cycles());
  EXPECT_EQ(a.dma_bytes(), b.dma_bytes());
  for (int ph = 0; ph < kPhaseCount; ++ph) {
    const auto phase = static_cast<Phase>(ph);
    EXPECT_EQ(a.phase_instr(phase), b.phase_instr(phase)) << "phase " << ph;
    EXPECT_EQ(a.phase_dma_cycles(phase), b.phase_dma_cycles(phase))
        << "phase " << ph;
    EXPECT_EQ(a.phase_dma_bytes(phase), b.phase_dma_bytes(phase))
        << "phase " << ph;
  }
  for (int t = 0; t < kMaxTasklets; ++t) {
    EXPECT_EQ(a.tasklet_instr(t), b.tasklet_instr(t)) << "tasklet " << t;
  }
  for (int bucket = 0; bucket < kDmaHistBuckets; ++bucket) {
    EXPECT_EQ(a.dma_hist(bucket), b.dma_hist(bucket)) << "bucket " << bucket;
  }
}

TEST(ProfileTest, RepeatedChargesEqualThatManySingleCharges) {
  // The NW kernel charges a pair's identical anti-diagonals with one call
  // per counter; n repeats must add exactly n single calls everywhere. 103
  // over 4 tasklets leaves a remainder (26, 26, 26, 25), and the DMA sizes
  // land in different histogram buckets.
  constexpr std::uint64_t kRepeats = 37;
  PoolCost once;
  PoolCost loop;
  for (PoolCost* pool : {&once, &loop}) pool->set_phase(Phase::kCompute);
  once.balanced_step(103, 4, kRepeats);
  for (std::uint64_t r = 0; r < kRepeats; ++r) loop.balanced_step(103, 4);

  for (PoolCost* pool : {&once, &loop}) pool->set_phase(Phase::kBtDma);
  for (const std::uint64_t bytes : {8u, 24u, 256u, 2048u}) {
    once.dma(bytes, kRepeats);
    for (std::uint64_t r = 0; r < kRepeats; ++r) loop.dma(bytes);
  }

  for (PoolCost* pool : {&once, &loop}) pool->set_phase(Phase::kBandShift);
  once.balanced_step(7, 3, kRepeats);
  for (std::uint64_t r = 0; r < kRepeats; ++r) loop.balanced_step(7, 3);
  once.dma(40, kRepeats);
  for (std::uint64_t r = 0; r < kRepeats; ++r) loop.dma(40);

  expect_same_counters(once, loop);
  EXPECT_GT(once.phase_instr(Phase::kBandShift), 0u);
  EXPECT_GT(once.phase_dma_bytes(Phase::kBtDma), 0u);
}

// --- classify_bottleneck ---

TEST(ProfileTest, ClassifyBottleneckArgmax) {
  EXPECT_EQ(classify_bottleneck(100, 10, 10), Bottleneck::kPipeline);
  EXPECT_EQ(classify_bottleneck(10, 100, 10), Bottleneck::kMram);
  EXPECT_EQ(classify_bottleneck(10, 10, 100), Bottleneck::kReentry);
  // Ties resolve pipeline >= mram >= reentry.
  EXPECT_EQ(classify_bottleneck(50, 50, 50), Bottleneck::kPipeline);
  EXPECT_EQ(classify_bottleneck(10, 50, 50), Bottleneck::kMram);
}

TEST(ProfileTest, BottleneckNames) {
  EXPECT_STREQ(bottleneck_name(Bottleneck::kPipeline), "pipeline-bound");
  EXPECT_STREQ(bottleneck_name(Bottleneck::kMram), "mram-bound");
  EXPECT_STREQ(bottleneck_name(Bottleneck::kReentry), "reentry-bound");
}

TEST(ProfileTest, PhaseNamesStable) {
  EXPECT_STREQ(phase_name(Phase::kSetup), "setup");
  EXPECT_STREQ(phase_name(Phase::kCompute), "compute");
  EXPECT_STREQ(phase_name(Phase::kBandShift), "band_shift");
  EXPECT_STREQ(phase_name(Phase::kBtDma), "bt_dma");
  EXPECT_STREQ(phase_name(Phase::kTraceback), "traceback");
}

// --- DpuCostModel::profile() reconciliation ---

void expect_reconciles(const DpuCostModel& model) {
  const DpuCostModel::Summary sum = model.summarize();
  const DpuPhaseProfile prof = model.profile();
  EXPECT_EQ(prof.cycles, sum.cycles);
  EXPECT_EQ(prof.attributed_cycles(), sum.cycles)
      << "issue=" << prof.total_issue_cycles()
      << " dma_stall=" << prof.total_dma_stall_cycles()
      << " reentry=" << prof.reentry_stall_cycles;
  EXPECT_EQ(prof.total_issue_cycles(), sum.instructions);
}

TEST(ProfileTest, ReconcilesIssueBound) {
  // Dense compute, many tasklets, no DMA: every cycle is an issue cycle
  // once the instruction total exceeds the per-pool critical-path bound.
  DpuCostModel model(6, 4);
  for (int p = 0; p < 6; ++p) {
    model.pool(p).set_phase(Phase::kCompute);
    model.pool(p).balanced_step(10000, 4);
  }
  expect_reconciles(model);
  const DpuPhaseProfile prof = model.profile();
  EXPECT_EQ(prof.bottleneck, Bottleneck::kPipeline);
  EXPECT_EQ(prof.issue_cycles[static_cast<int>(Phase::kCompute)], 60000u);
  EXPECT_EQ(prof.active_tasklets, 24);
}

TEST(ProfileTest, ReconcilesDmaBound) {
  // One pool streaming large transfers: the DMA engine dominates and the
  // un-hidden stall lands on the charging phase.
  DpuCostModel model(2, 2);
  model.pool(0).set_phase(Phase::kBtDma);
  for (int i = 0; i < 50; ++i) model.pool(0).dma(2048);
  model.pool(0).set_phase(Phase::kCompute);
  model.pool(0).balanced_step(100, 2);
  model.pool(1).set_phase(Phase::kCompute);
  model.pool(1).balanced_step(100, 2);
  expect_reconciles(model);
  const DpuPhaseProfile prof = model.profile();
  EXPECT_EQ(prof.bottleneck, Bottleneck::kMram);
  // All the DMA charge came from kBtDma, so the whole stall does too.
  EXPECT_EQ(prof.dma_stall_cycles[static_cast<int>(Phase::kCompute)], 0u);
  EXPECT_GT(prof.dma_stall_cycles[static_cast<int>(Phase::kBtDma)], 0u);
  EXPECT_EQ(prof.dma_bytes[static_cast<int>(Phase::kBtDma)], 50u * 2048u);
}

TEST(ProfileTest, ReconcilesReentryBound) {
  // A single pool of 2 tasklets: the max(11, A) issue interval leaves the
  // pipeline mostly idle and the residual is re-entry slack.
  DpuCostModel model(1, 2);
  model.pool(0).set_phase(Phase::kCompute);
  model.pool(0).balanced_step(1000, 2);
  expect_reconciles(model);
  const DpuPhaseProfile prof = model.profile();
  EXPECT_EQ(prof.bottleneck, Bottleneck::kReentry);
  EXPECT_GT(prof.reentry_stall_cycles, prof.total_issue_cycles());
  EXPECT_EQ(prof.active_tasklets, 2);
}

TEST(ProfileTest, ReconcilesMixedWorkload) {
  // All three components present at once; the sum must still be exact.
  DpuCostModel model(3, 4);
  for (int p = 0; p < 3; ++p) {
    PoolCost& pool = model.pool(p);
    pool.set_phase(Phase::kSetup);
    pool.serial(17 + p);
    pool.dma(24);
    pool.set_phase(Phase::kCompute);
    pool.balanced_step(5000 + 100 * p, 4);
    pool.set_phase(Phase::kBandShift);
    pool.serial(63);
    pool.set_phase(Phase::kBtDma);
    pool.dma(2048);
    pool.dma(512 + 8 * p);
    pool.set_phase(Phase::kTraceback);
    pool.serial(900);
    pool.dma(128);
  }
  expect_reconciles(model);
  const DpuPhaseProfile prof = model.profile();
  // The proportional largest-remainder split can never attribute more DMA
  // stall than the model charged as DMA in total.
  std::uint64_t dma_stall = 0;
  for (int ph = 0; ph < kPhaseCount; ++ph) dma_stall += prof.dma_stall_cycles[ph];
  EXPECT_LE(dma_stall, model.summarize().dma_cycles_total);
}

TEST(ProfileTest, MramContentionAcrossPools) {
  // Two pools each transfer: contention = sum - max of per-pool DMA cycles.
  DpuCostModel model(2, 4);
  model.pool(0).dma(2048);  // 1056 cycles
  model.pool(1).dma(8);     // 36 cycles
  const DpuPhaseProfile prof = model.profile();
  EXPECT_EQ(prof.mram_contention_cycles, 36u);
}

TEST(ProfileTest, ProfileIsIdempotent) {
  DpuCostModel model(2, 3);
  model.pool(0).balanced_step(500, 3);
  model.pool(1).dma(256);
  const DpuPhaseProfile a = model.profile();
  const DpuPhaseProfile b = model.profile();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.attributed_cycles(), b.attributed_cycles());
  for (int ph = 0; ph < kPhaseCount; ++ph) {
    EXPECT_EQ(a.issue_cycles[ph], b.issue_cycles[ph]);
    EXPECT_EQ(a.dma_stall_cycles[ph], b.dma_stall_cycles[ph]);
  }
}

TEST(ProfileTest, MergeAddsCountersAndReclassifies) {
  DpuCostModel issue_heavy(6, 4);
  for (int p = 0; p < 6; ++p) {
    issue_heavy.pool(p).set_phase(Phase::kCompute);
    issue_heavy.pool(p).balanced_step(10000, 4);
  }
  DpuCostModel dma_heavy(1, 2);
  dma_heavy.pool(0).set_phase(Phase::kBtDma);
  for (int i = 0; i < 200; ++i) dma_heavy.pool(0).dma(2048);

  DpuPhaseProfile merged = issue_heavy.profile();
  const DpuPhaseProfile b = dma_heavy.profile();
  const std::uint64_t want_cycles = merged.cycles + b.cycles;
  const std::uint64_t want_attr =
      merged.attributed_cycles() + b.attributed_cycles();
  merged.merge(b);
  EXPECT_EQ(merged.cycles, want_cycles);
  EXPECT_EQ(merged.attributed_cycles(), want_attr);
  EXPECT_EQ(merged.attributed_cycles(), merged.cycles);
  // The merged verdict is recomputed from merged totals, not inherited.
  EXPECT_EQ(merged.bottleneck,
            classify_bottleneck(merged.total_issue_cycles(),
                                merged.total_dma_stall_cycles(),
                                merged.reentry_stall_cycles));
  EXPECT_EQ(merged.active_tasklets, 24);
  EXPECT_EQ(merged.dma_hist[kDmaHistBuckets - 1], 200u);
}

}  // namespace
}  // namespace pimnw::upmem
