// The data-parallel DPU sweep (DESIGN.md §15): a rank launch fans its 64
// DPU plans out across the worker pool, yet every modeled result must be
// bit-identical to the threads=1 serial schedule. Each leg runs a fixed
// seeded corpus on pools of 1, 2 and 8 workers and on the global pool, and
// checks the golden digest (tests/testing/golden_digest.hpp) of the scores,
// CIGARs, modeled cycles and DMA bytes, the RunReport and the per-launch
// timeline at every point, plus the profiler's attributed_cycles ==
// sum_dpu_cycles reconciliation on every committed launch. Suite names
// carry "ParallelSweep" so the tsan preset's test filter includes them (the
// sweep is the most contended code path this repo has).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/host.hpp"
#include "core/session.hpp"
#include "core/stats.hpp"
#include "core/wfa_kernel.hpp"
#include "data/phylo16s.hpp"
#include "data/synthetic.hpp"
#include "testing/golden_digest.hpp"
#include "testing/stratified_pairs.hpp"

namespace pimnw::core {
namespace {

using testing::Digest;
using testing::expect_golden_at_every_pool;

/// The profiler's reconciliation invariant on every committed launch
/// (attributed_cycles == sum_dpu_cycles whenever profiles rode along, which
/// the engine always does). Not part of the digest: it is an identity, not
/// a figure.
void expect_launches_reconcile(const std::vector<LaunchRecord>& launches) {
  for (const LaunchRecord& l : launches) {
    EXPECT_EQ(l.attributed_cycles, l.sum_dpu_cycles)
        << "launch " << l.batch << " cycle attribution out of balance";
  }
}

struct PairsLeg {
  const char* name;
  const PimKernel* kernel;
  bool traceback;
  std::uint64_t golden;
};

// kernel x traceback, each on a 40-pair corpus in 10 batches over 2 ranks,
// so the pipelined engine's 4-slot window ring wraps more than twice. With
// 8 workers and 2 ranks of 64 DPUs the intra-launch sweep, the pipeline
// window and steal order all vary run to run; the digest must not.
TEST(ParallelSweepTest, PairsBitIdenticalAcrossThreadMatrix) {
  data::SyntheticConfig data_config = data::s10000_config(40);
  data_config.read_length = 2000;  // keep the suite fast; shape unchanged
  const data::PairDataset dataset = data::generate_synthetic(data_config);
  std::vector<PairInput> nw_pairs;
  for (const auto& [a, b] : dataset.pairs) nw_pairs.push_back({a, b});

  // Divergence-stratified up to 20%: some pairs exceed wfa_max_cost and
  // come back kUnreachable.
  const std::vector<testing::TestPair> stratified =
      testing::stratified_pairs(8, 4242);
  std::vector<PairInput> wfa_pairs;
  for (const testing::TestPair& p : stratified) wfa_pairs.push_back({p.a, p.b});

  const PairsLeg legs[] = {
      {"nw traceback", &nw_kernel(), true, 0x998f0eaa2bdf9742ull},
      {"nw score-only", &nw_kernel(), false, 0xb2ee7710d8d54d17ull},
      {"wfa traceback", &wfa_kernel(), true, 0x0715adac2ccfbc1bull},
      {"wfa score-only", &wfa_kernel(), false, 0x22f46d197c324bacull},
  };
  for (const PairsLeg& leg : legs) {
    const std::vector<PairInput>& pairs =
        leg.kernel == &nw_kernel() ? nw_pairs : wfa_pairs;
    SCOPED_TRACE(leg.name);
    PimAlignerConfig base;
    base.nr_ranks = 2;
    base.batch_pairs = 4;  // 40 pairs -> 10 batches over 2 ranks
    base.kernel = leg.kernel;
    base.align.traceback = leg.traceback;
    expect_golden_at_every_pool(base, leg.golden, [&](PimAlignerConfig config) {
      StatsCollector stats;
      config.stats = &stats;
      PimAligner aligner(config);
      std::vector<PairOutput> out;
      const RunReport report = aligner.align_pairs(pairs, &out);
      EXPECT_EQ(report.batches, 10u);
      if (leg.kernel == &wfa_kernel()) {
        std::size_t unreachable = 0;
        for (const PairOutput& o : out) {
          unreachable += o.status == PairStatus::kUnreachable ? 1 : 0;
        }
        EXPECT_GT(unreachable, 0u);
        EXPECT_LT(unreachable, out.size());
      }
      expect_launches_reconcile(stats.launches());
      Digest d;
      d.add(out);
      d.add(report);
      d.add(stats.launches());
      return d;
    });
  }
}

// Session rounds: a resident database queried over three align_pairs rounds
// (with the per-round scratch reset between them) through pools of every
// size. Broadcast accounting, round boundaries and the sweep must compose
// without perturbing a single modeled number.
TEST(ParallelSweepTest, SessionRoundsBitIdenticalAcrossThreads) {
  data::Phylo16sConfig db_config;
  db_config.species = 12;
  db_config.root_length = 300;
  const std::vector<std::string> db = data::generate_16s(db_config);

  // Three rounds of distinct pair sets over the same resident database.
  std::vector<std::vector<IndexPair>> rounds(3);
  std::size_t round = 0;
  for (std::uint32_t i = 0; i < db.size(); ++i) {
    for (std::uint32_t j = i + 1; j < db.size(); ++j) {
      rounds[round % rounds.size()].push_back({i, j});
      ++round;
    }
  }

  PimAlignerConfig base;
  base.nr_ranks = 2;
  constexpr std::uint64_t kGolden = 0xe6daa5a060c5fdffull;
  expect_golden_at_every_pool(base, kGolden, [&](PimAlignerConfig config) {
    StatsCollector stats;
    config.stats = &stats;
    DbSession session(db, config);
    Digest d;
    for (const std::vector<IndexPair>& p : rounds) {
      std::vector<PairOutput> out;
      d.add(session.align_pairs(p, &out));
      d.add(out);
    }
    EXPECT_GT(stats.launches().size(), 0u);
    expect_launches_reconcile(stats.launches());
    d.add(stats.launches());
    return d;
  });
}

}  // namespace
}  // namespace pimnw::core
