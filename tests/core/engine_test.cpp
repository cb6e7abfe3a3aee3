// Determinism of the execution engine: the work-stealing pipelined engine
// must produce bit-identical outputs AND bit-identical modeled statistics
// for any worker count and any steal order. The align_sets and all-vs-all
// legs check the golden digest (tests/testing/golden_digest.hpp) on pools
// of 1, 2 and 8 workers and on the global pool, as does one align_pairs
// leg; the kernel x traceback align_pairs legs live in
// parallel_sweep_test.cpp.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/host.hpp"
#include "core/stats.hpp"
#include "data/pacbio.hpp"
#include "data/phylo16s.hpp"
#include "data/synthetic.hpp"
#include "testing/golden_digest.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace pimnw::core {
namespace {

using testing::Digest;
using testing::expect_golden_at_every_pool;

// The engine has one mode and a fixed batch window now, so the pool size is
// the axis left to sweep: the golden digest at 1, 2 and 8 workers and on the
// global pool, then a second global-pool run to pin run-to-run repeatability.
TEST(EngineDeterminismTest, PairsBitIdenticalAcrossPoolsWindowsAndModes) {
  // Table-3-style workload: long reads, enough pairs for several batches.
  data::SyntheticConfig data_config = data::s10000_config(36);
  data_config.read_length = 3000;  // keep the test fast; shape unchanged
  const data::PairDataset dataset = data::generate_synthetic(data_config);
  std::vector<PairInput> pairs;
  pairs.reserve(dataset.pairs.size());
  for (const auto& [a, b] : dataset.pairs) pairs.push_back({a, b});

  PimAlignerConfig base;
  base.nr_ranks = 2;
  base.batch_pairs = 10;  // 36 pairs -> 4 batches over 2 ranks

  auto run = [&](PimAlignerConfig config) {
    StatsCollector stats;
    config.stats = &stats;
    PimAligner aligner(config);
    std::vector<PairOutput> out;
    const RunReport report = aligner.align_pairs(pairs, &out);
    EXPECT_EQ(report.batches, 4u);
    Digest d;
    d.add(out);
    d.add(report);
    d.add(stats.launches());
    return d;
  };

  constexpr std::uint64_t kGolden = 0x76cb4aea7131fd2eull;
  expect_golden_at_every_pool(base, kGolden, run);
  SCOPED_TRACE("global pool, repeated");
  testing::expect_digest(run(base), kGolden);
}

TEST(EngineDeterminismTest, SetsBitIdenticalAcrossEngines) {
  data::PacbioConfig data_config;
  data_config.set_count = 130;
  data_config.region_min = 300;
  data_config.region_max = 500;
  data_config.reads_min = 3;
  data_config.reads_max = 4;
  const data::SetDataset dataset = data::generate_pacbio(data_config);

  PimAlignerConfig base;
  base.nr_ranks = 2;
  base.batch_pairs = 64;  // sets per batch (at least one per DPU): 3 batches

  constexpr std::uint64_t kGolden = 0xf09a672d7a60aa37ull;
  expect_golden_at_every_pool(base, kGolden, [&](PimAlignerConfig config) {
    StatsCollector stats;
    config.stats = &stats;
    PimAligner aligner(config);
    std::vector<std::vector<PairOutput>> out;
    const RunReport report = aligner.align_sets(dataset.sets, &out);
    EXPECT_EQ(report.batches, 3u);
    Digest d;
    for (const std::vector<PairOutput>& set : out) d.add(set);
    d.add(report);
    d.add(stats.launches());
    return d;
  });
}

TEST(EngineDeterminismTest, AllVsAllBitIdenticalAcrossEngines) {
  data::Phylo16sConfig data_config;
  data_config.species = 20;
  data_config.root_length = 500;
  const std::vector<std::string> seqs = data::generate_16s(data_config);

  PimAlignerConfig base;
  base.nr_ranks = 3;  // 3 batches (one per rank), broadcast pool
  base.align.traceback = false;

  constexpr std::uint64_t kGolden = 0xabe5af4285d7350bull;
  expect_golden_at_every_pool(base, kGolden, [&](PimAlignerConfig config) {
    StatsCollector stats;
    config.stats = &stats;
    PimAligner aligner(config);
    std::vector<PairOutput> out;
    const RunReport report = aligner.align_all_vs_all(seqs, &out);
    EXPECT_EQ(report.batches, 3u);
    Digest d;
    d.add(out);
    d.add(report);
    d.add(stats.launches());
    return d;
  });
}

TEST(EngineDeterminismTest, TracingDoesNotPerturbModeledOutputs) {
  // The observability layer (ISSUE 3) must be a pure observer: every score,
  // CIGAR and modeled statistic bit-identical with tracing + a collector
  // attached vs a bare run, at any worker count. And the modeled per-DPU
  // trace spans must carry the exact cycle totals the collector recorded.
  data::SyntheticConfig data_config = data::s10000_config(20);
  data_config.read_length = 2000;
  const data::PairDataset dataset = data::generate_synthetic(data_config);
  std::vector<PairInput> pairs;
  for (const auto& [a, b] : dataset.pairs) pairs.push_back({a, b});

  PimAlignerConfig base;
  base.nr_ranks = 2;
  base.batch_pairs = 6;  // 20 pairs -> 4 batches over 2 ranks

  // Digest of one run's outputs and report.
  auto run = [&](bool traced, StatsCollector* stats, std::size_t threads) {
    std::optional<ThreadPool> pool;
    PimAlignerConfig config = base;
    config.stats = stats;
    if (threads > 0) config.workers = &pool.emplace(threads);
    trace::clear();
    trace::set_enabled(traced);
    PimAligner aligner(config);
    std::vector<PairOutput> out;
    const RunReport report = aligner.align_pairs(pairs, &out);
    trace::set_enabled(false);
    EXPECT_EQ(report.batches, 4u);
    Digest d;
    d.add(out);
    d.add(report);
    return d;
  };

  const Digest reference = run(false, nullptr, 1);
  for (const std::size_t threads : testing::kDigestPools) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    StatsCollector stats;
    EXPECT_EQ(run(true, &stats, threads).value(), reference.value());

    // The collector saw every committed launch, and its streaming cycle
    // aggregates agree with the per-launch records.
    ASSERT_EQ(stats.launches().size(), 4u);
    std::uint64_t record_cycle_sum = 0;
    std::uint64_t record_max = 0;
    std::uint64_t record_dpus = 0;
    for (const LaunchRecord& rec : stats.launches()) {
      record_cycle_sum += rec.sum_dpu_cycles;
      record_max = std::max(record_max, rec.max_cycles);
      record_dpus += static_cast<std::uint64_t>(rec.active_dpus);
    }
    EXPECT_EQ(stats.dpu_count(), record_dpus);
    EXPECT_EQ(stats.dpu_cycles_max(), record_max);

    // Acceptance criterion: the per-DPU modeled trace spans reproduce the
    // LaunchStats cycle totals exactly (args.cycles is the integer count;
    // the double timestamps are only its 350 MHz rendering).
    std::uint64_t span_cycle_sum = 0;
    std::uint64_t span_count = 0;
    std::uint64_t span_max = 0;
    for (const trace::Event& e : trace::snapshot()) {
      if (e.pid != trace::kModeledPid || e.phase != 'X') continue;
      if (e.name.find(" d") == std::string::npos) continue;  // "bN dD" lanes
      span_cycle_sum += e.cycles;
      span_max = std::max(span_max, e.cycles);
      ++span_count;
    }
    EXPECT_EQ(span_cycle_sum, record_cycle_sum);
    EXPECT_EQ(span_count, record_dpus);
    EXPECT_EQ(span_max, record_max);
  }
  trace::clear();
}

TEST(EngineDeterminismTest, PipelinedMatchesReferenceAligner) {
  // Belt and braces: the pipelined engine's outputs also pass the
  // against-the-spec verify path (align::banded_adaptive cross-check).
  data::SyntheticConfig data_config = data::s1000_config(24);
  const data::PairDataset dataset = data::generate_synthetic(data_config);
  std::vector<PairInput> pairs;
  for (const auto& [a, b] : dataset.pairs) pairs.push_back({a, b});

  PimAlignerConfig config;
  config.nr_ranks = 1;
  config.batch_pairs = 7;
  config.verify = true;  // throws on any mismatch
  PimAligner aligner(config);
  std::vector<PairOutput> out;
  const RunReport report = aligner.align_pairs(pairs, &out);
  EXPECT_EQ(report.total_pairs, pairs.size());
  for (const PairOutput& o : out) EXPECT_TRUE(o.ok);
}

}  // namespace
}  // namespace pimnw::core
