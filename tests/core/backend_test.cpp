// Backend layer + dispatcher (ISSUE 4): PimBackend bit-identity with the
// direct host path, cross-backend score agreement against full DP, routing
// policies, in-order merge, and accounting resets. Suite names carry
// "Backend"/"Dispatch" so the tsan preset's test filter includes them (the
// dispatcher is the one place all backends run concurrently).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "align/nw_full.hpp"
#include "align/verify.hpp"
#include "core/backend.hpp"
#include "core/dispatch.hpp"
#include "data/synthetic.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace pimnw::core {
namespace {

/// Synthetic pairs plus the owning dataset (PairInput views borrow from it).
struct TestPairs {
  data::PairDataset dataset;
  std::vector<PairInput> pairs;
};

TestPairs make_pairs(std::size_t count, std::size_t length, double error_rate,
                     std::uint64_t seed) {
  TestPairs t;
  data::SyntheticConfig config;
  config.pair_count = count;
  config.read_length = length;
  config.errors.error_rate = error_rate;
  config.seed = seed;
  t.dataset = data::generate_synthetic(config);
  for (const auto& [a, b] : t.dataset.pairs) t.pairs.push_back({a, b});
  return t;
}

// The acceptance pin: routing align_pairs work through PimBackend +
// Dispatcher must not change a single bit of any output or of the modeled
// report — scores, CIGARs, per-pair cycle counts, DMA bytes, timeline.
TEST(BackendPimBitIdentity, DispatcherMatchesDirectAlignPairs) {
  const TestPairs t = make_pairs(48, 400, 0.08, 33);
  PimAlignerConfig config;
  config.nr_ranks = 2;
  config.batch_pairs = 16;  // several batches, pipelined engine

  std::vector<PairOutput> direct_out;
  const RunReport direct = PimAligner(config).align_pairs(t.pairs, &direct_out);

  PimBackend pim({config});
  Dispatcher dispatcher({.policy = RoutePolicy::kSingle,
                         .single = BackendKind::kPim},
                        {&pim});
  std::vector<PairOutput> routed_out;
  const DispatchReport dispatched = dispatcher.align(t.pairs, &routed_out);

  ASSERT_EQ(routed_out.size(), direct_out.size());
  for (std::size_t p = 0; p < direct_out.size(); ++p) {
    EXPECT_EQ(routed_out[p].ok, direct_out[p].ok) << "pair " << p;
    EXPECT_EQ(routed_out[p].score, direct_out[p].score) << "pair " << p;
    EXPECT_EQ(routed_out[p].cigar.to_string(), direct_out[p].cigar.to_string())
        << "pair " << p;
    EXPECT_EQ(routed_out[p].dpu_pool_cycles, direct_out[p].dpu_pool_cycles)
        << "pair " << p;
    EXPECT_EQ(routed_out[p].dpu_dma_bytes, direct_out[p].dpu_dma_bytes)
        << "pair " << p;
  }

  ASSERT_EQ(dispatched.backends.size(), 1u);
  const RunReport& via = dispatched.backends[0].pim;
  EXPECT_EQ(via.makespan_seconds, direct.makespan_seconds);
  EXPECT_EQ(via.transfer_seconds, direct.transfer_seconds);
  EXPECT_EQ(via.host_prep_seconds, direct.host_prep_seconds);
  EXPECT_EQ(via.load_imbalance, direct.load_imbalance);
  EXPECT_EQ(via.batches, direct.batches);
  EXPECT_EQ(via.total_pairs, direct.total_pairs);
  EXPECT_EQ(via.bytes_to_dpus, direct.bytes_to_dpus);
  EXPECT_EQ(via.bytes_from_dpus, direct.bytes_from_dpus);
  EXPECT_EQ(via.total_instructions, direct.total_instructions);
  EXPECT_EQ(via.total_dma_bytes, direct.total_dma_bytes);
  EXPECT_EQ(dispatched.backends[0].modeled_seconds, direct.makespan_seconds);
}

// Randomized agreement: with the band wide enough to cover the whole DP
// matrix, all three backends are exact, so every score must equal the
// nw_full optimum and every CIGAR must achieve it (align::check_alignment
// recomputes the score from the path).
TEST(BackendAgreement, AllBackendsMatchFullDpOnRandomPairs) {
  // Reads short enough that the DPU's 128-wide band (the widest that fits
  // its 64 KB WRAM) covers every diagonal of the DP matrix: banded == full.
  const TestPairs t = make_pairs(24, 56, 0.10, 91);
  const align::Scoring scoring;  // every backend's default

  PimAlignerConfig pim_config;
  pim_config.nr_ranks = 1;
  pim_config.align.band_width = 128;
  PimBackend pim({pim_config});
  baseline::Ksw2Options cpu_options;
  cpu_options.band_width = 512;
  CpuBackend::Config cpu_config;
  cpu_config.scoring = scoring;
  cpu_config.options = cpu_options;
  CpuBackend cpu(cpu_config);
  WfaBackend::Config wfa_config;
  wfa_config.scoring = scoring;
  WfaBackend wfa(wfa_config);

  std::vector<AlignerBackend*> backends{&pim, &cpu, &wfa};
  for (AlignerBackend* backend : backends) {
    const AlignerBackend::Ticket ticket = backend->submit(t.pairs);
    const std::vector<PairOutput> outputs = backend->wait(ticket);
    ASSERT_EQ(outputs.size(), t.pairs.size());
    for (std::size_t p = 0; p < t.pairs.size(); ++p) {
      const align::AlignResult ref =
          align::nw_full(t.pairs[p].a, t.pairs[p].b, scoring);
      ASSERT_TRUE(outputs[p].ok)
          << backend_kind_name(backend->kind()) << " pair " << p;
      EXPECT_EQ(outputs[p].score, ref.score)
          << backend_kind_name(backend->kind()) << " pair " << p;
      align::AlignResult as_result;
      as_result.score = outputs[p].score;
      as_result.cigar = outputs[p].cigar;
      as_result.reached_end = outputs[p].ok;
      EXPECT_EQ(align::check_alignment(as_result, t.pairs[p].a, t.pairs[p].b,
                                       scoring),
                "")
          << backend_kind_name(backend->kind()) << " pair " << p;
    }
    (void)backend->drain();
  }
}

TEST(DispatchRouting, ThresholdSplitsByLongerSequence) {
  const TestPairs shorts = make_pairs(6, 80, 0.05, 1);
  const TestPairs longs = make_pairs(4, 300, 0.05, 2);
  std::vector<PairInput> mixed;
  for (std::size_t i = 0; i < shorts.pairs.size(); ++i) {
    mixed.push_back(shorts.pairs[i]);
    if (i < longs.pairs.size()) mixed.push_back(longs.pairs[i]);
  }

  CpuBackend cpu({});
  WfaBackend wfa({});
  Dispatcher dispatcher({.policy = RoutePolicy::kLengthThreshold,
                         .length_threshold = 200,
                         .short_backend = BackendKind::kCpu,
                         .long_backend = BackendKind::kWfa},
                        {&cpu, &wfa});
  std::vector<PairOutput> out;
  const DispatchReport report = dispatcher.align(mixed, &out);
  EXPECT_EQ(report.routed[static_cast<int>(BackendKind::kCpu)],
            shorts.pairs.size());
  EXPECT_EQ(report.routed[static_cast<int>(BackendKind::kWfa)],
            longs.pairs.size());
  EXPECT_EQ(report.routed[static_cast<int>(BackendKind::kPim)], 0u);
  EXPECT_EQ(report.aligned, mixed.size());
}

TEST(DispatchRouting, CostModelPicksCheapestEstimate) {
  const TestPairs t = make_pairs(8, 100, 0.05, 3);

  // Make one backend's estimate absurdly cheap, then the other's: the cost
  // policy must follow the estimates, whichever way they point.
  {
    CpuBackend cpu({});
    WfaBackend wfa({});
    cpu.set_cost_scale(1e-9);
    wfa.set_cost_scale(1e6);
    Dispatcher dispatcher({.policy = RoutePolicy::kCostModel}, {&cpu, &wfa});
    std::vector<PairOutput> out;
    const DispatchReport report = dispatcher.align(t.pairs, &out);
    EXPECT_EQ(report.routed[static_cast<int>(BackendKind::kCpu)],
              t.pairs.size());
  }
  {
    CpuBackend cpu({});
    WfaBackend wfa({});
    cpu.set_cost_scale(1e6);
    wfa.set_cost_scale(1e-9);
    Dispatcher dispatcher({.policy = RoutePolicy::kCostModel}, {&cpu, &wfa});
    std::vector<PairOutput> out;
    const DispatchReport report = dispatcher.align(t.pairs, &out);
    EXPECT_EQ(report.routed[static_cast<int>(BackendKind::kWfa)],
              t.pairs.size());
  }
}

TEST(DispatchMerge, OutputsStayInInputOrderAcrossBackends) {
  // Interleaved short/long pairs split across two backends; the merged
  // outputs must line up with the per-pair full-DP optimum slot by slot.
  const TestPairs shorts = make_pairs(10, 60, 0.08, 4);
  const TestPairs longs = make_pairs(10, 150, 0.08, 5);
  std::vector<PairInput> mixed;
  for (std::size_t i = 0; i < 10; ++i) {
    mixed.push_back(shorts.pairs[i]);
    mixed.push_back(longs.pairs[i]);
  }

  baseline::Ksw2Options wide;
  wide.band_width = 512;
  CpuBackend cpu({.options = wide});
  WfaBackend wfa({});
  Dispatcher dispatcher({.policy = RoutePolicy::kLengthThreshold,
                         .length_threshold = 120,
                         .short_backend = BackendKind::kCpu,
                         .long_backend = BackendKind::kWfa},
                        {&cpu, &wfa});
  std::vector<PairOutput> out;
  (void)dispatcher.align(mixed, &out);
  ASSERT_EQ(out.size(), mixed.size());
  for (std::size_t p = 0; p < mixed.size(); ++p) {
    EXPECT_EQ(out[p].score,
              align::nw_full(mixed[p].a, mixed[p].b, align::Scoring{}).score)
        << "slot " << p;
  }
}

TEST(DispatchConfigTest, RejectsDuplicateAndMissingBackends) {
  CpuBackend cpu_a({});
  CpuBackend cpu_b({});
  EXPECT_THROW(Dispatcher({}, {&cpu_a, &cpu_b}), CheckError);
  EXPECT_THROW(Dispatcher({}, {}), CheckError);

  // kSingle pointing at an unregistered kind fails at routing time.
  const TestPairs t = make_pairs(2, 50, 0.05, 6);
  Dispatcher dispatcher({.policy = RoutePolicy::kSingle,
                         .single = BackendKind::kPim},
                        {&cpu_a});
  std::vector<PairOutput> out;
  EXPECT_THROW((void)dispatcher.align(t.pairs, &out), CheckError);
}

TEST(BackendTicketsTest, OverlappingSubmitsResolveIndependently) {
  const TestPairs first = make_pairs(12, 70, 0.06, 7);
  const TestPairs second = make_pairs(12, 70, 0.06, 8);
  ThreadPool workers(3);
  WfaBackend wfa({}, &workers);

  // Both tickets in flight at once; waited out of submission order.
  const auto t1 = wfa.submit(first.pairs);
  const auto t2 = wfa.submit(second.pairs);
  const std::vector<PairOutput> out2 = wfa.wait(t2);
  const std::vector<PairOutput> out1 = wfa.wait(t1);
  ASSERT_EQ(out1.size(), first.pairs.size());
  ASSERT_EQ(out2.size(), second.pairs.size());
  for (std::size_t p = 0; p < first.pairs.size(); ++p) {
    EXPECT_EQ(out1[p].score,
              align::nw_full(first.pairs[p].a, first.pairs[p].b,
                             align::Scoring{})
                  .score);
  }

  const BackendReport report = wfa.drain();
  EXPECT_EQ(report.submissions, 2u);
  EXPECT_EQ(report.total_pairs, first.pairs.size() + second.pairs.size());
  EXPECT_GT(report.total_cells, 0u);

  // drain() resets: a second drain reports a clean slate.
  const BackendReport empty = wfa.drain();
  EXPECT_EQ(empty.submissions, 0u);
  EXPECT_EQ(empty.total_pairs, 0u);
  EXPECT_EQ(empty.measured_seconds, 0.0);
}

TEST(DispatchCalibrate, ScalesEstimatesByMeasuredThroughput) {
  const TestPairs t = make_pairs(8, 120, 0.05, 9);
  CpuBackend cpu({});
  WfaBackend wfa({});
  Dispatcher dispatcher({.policy = RoutePolicy::kCostModel}, {&cpu, &wfa});
  dispatcher.calibrate(t.pairs, 4);
  for (const AlignerBackend* b :
       {static_cast<const AlignerBackend*>(&cpu),
        static_cast<const AlignerBackend*>(&wfa)}) {
    EXPECT_GT(b->cost_scale(), 0.0);
    EXPECT_TRUE(std::isfinite(b->cost_scale()));
  }
  // Probe accounting must not leak into the next align's reports.
  std::vector<PairOutput> out;
  const DispatchReport report = dispatcher.align(t.pairs, &out);
  std::uint64_t reported = 0;
  for (const BackendReport& b : report.backends) reported += b.total_pairs;
  EXPECT_EQ(reported, t.pairs.size());
}

TEST(DispatchEmptyInput, ReportsZerosWithoutNans) {
  CpuBackend cpu({});
  WfaBackend wfa({});
  Dispatcher dispatcher({.policy = RoutePolicy::kCostModel}, {&cpu, &wfa});
  std::vector<PairOutput> out{PairOutput{}};  // stale content must be cleared
  const DispatchReport report = dispatcher.align({}, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(report.total_pairs, 0u);
  EXPECT_EQ(report.aligned, 0u);
  for (const BackendReport& b : report.backends) {
    EXPECT_EQ(b.total_pairs, 0u);
    EXPECT_FALSE(std::isnan(b.cells_per_second));
    EXPECT_EQ(b.cells_per_second, 0.0);
  }
}

// Pins every backend's analytic estimate and capabilities, bit for bit:
// kCostModel routes on these numbers, so a change in the last bit of any of
// them can move pairs between backends. Every estimate depends on the pair
// only through len_a + len_b; the grid covers the NW and WFA edges (empty
// and one-base sides, PiM-WFA's 8192-base WRAM limit) and long reads. On a
// mismatch the test prints the recomputed table.
TEST(BackendEstimatePin, EstimatesAndCapabilitiesAreUnchanged) {
  PimBackend pim({});
  PimWfaBackend pimwfa({});
  PimWfaBackend::Config uncapped_config;
  uncapped_config.aligner.align.wfa_max_cost = 0;
  PimWfaBackend pimwfa_uncapped(uncapped_config);
  PimWfaBackend::Config similar_config;
  similar_config.expected_divergence = 0.01;
  PimWfaBackend pimwfa_similar(similar_config);
  PimWfaBackend::Config divergent_config;
  divergent_config.expected_divergence = 0.20;
  PimWfaBackend pimwfa_divergent(divergent_config);
  SessionBackend::Config session_config;
  session_config.db = {"ACGT"};
  session_config.aligner.nr_ranks = 1;
  SessionBackend session(std::move(session_config));
  CpuBackend cpu({});
  WfaBackend wfa({});
  const std::vector<const AlignerBackend*> backends{
      &pim, &pimwfa, &pimwfa_uncapped, &pimwfa_similar, &pimwfa_divergent,
      &session, &cpu, &wfa};
  constexpr std::size_t kColumns = 8;

  struct Caps {
    bool traceback;
    bool affine_gaps;
    std::uint64_t max_pair_length;
    bool modeled_time;
  };
  const Caps expected_caps[kColumns] = {
      {true, true, 0, true},    {true, true, 8192, true},
      {true, true, 8192, true}, {true, true, 8192, true},
      {true, true, 8192, true}, {false, true, 0, true},
      {true, true, 0, false},   {true, true, 0, false}};
  ASSERT_EQ(backends.size(), kColumns);
  for (std::size_t c = 0; c < kColumns; ++c) {
    const BackendCapabilities caps = backends[c]->capabilities();
    EXPECT_EQ(caps.traceback, expected_caps[c].traceback) << "column " << c;
    EXPECT_EQ(caps.affine_gaps, expected_caps[c].affine_gaps) << "column " << c;
    EXPECT_EQ(caps.max_pair_length, expected_caps[c].max_pair_length)
        << "column " << c;
    EXPECT_EQ(caps.modeled_time, expected_caps[c].modeled_time)
        << "column " << c;
  }

  // Columns: pim, pimwfa, pimwfa (wfa_max_cost 0), pimwfa (divergence
  // 0.01), pimwfa (divergence 0.20), session, cpu, wfa.
  struct Row {
    std::size_t len_a;
    std::size_t len_b;
    double seconds[kColumns];
  };
  const Row expected[] = {
      {0, 0,
       {0x0p+0, 0x0p+0,
        0x0p+0, 0x0p+0,
        0x0p+0, 0x0p+0,
        0x0p+0, 0x0p+0}},
      {1, 1,
       {0x1.5798ee2308c3ap-21, 0x1.5798ee2308c3ap-28,
        0x1.5798ee2308c3ap-28, 0x1.5798ee2308c3ap-28,
        0x1.9c511dc3a41ep-27, 0x1.5798ee2308c3ap-21,
        0x1.ca213d840baf8p-20, 0x1.ca213d840baf8p-27}},
      {1, 0,
       {0x1.5798ee2308c3ap-22, 0x1.5798ee2308c3ap-29,
        0x1.5798ee2308c3ap-29, 0x1.5798ee2308c3ap-29,
        0x1.9c511dc3a41ep-29, 0x1.5798ee2308c3ap-22,
        0x1.ca213d840baf8p-21, 0x1.ca213d840baf8p-28}},
      {150, 150,
       {0x1.92a737110e454p-14, 0x1.55a04585454ecp-15,
        0x1.55a04585454ecp-15, 0x1.bef1edc392667p-20,
        0x1.1b1d92b7fe08bp-12, 0x1.92a737110e454p-14,
        0x1.0c6f7a0b5ed8dp-12, 0x1.c7805cb1b1be5p-14}},
      {150, 0,
       {0x1.92a737110e454p-15, 0x1.5783749426931p-17,
        0x1.5783749426931p-17, 0x1.cb064e22cdb55p-22,
        0x1.1b1d92b7fe08bp-14, 0x1.92a737110e454p-15,
        0x1.0c6f7a0b5ed8dp-13, 0x1.ca049b70336ecp-16}},
      {1000, 1000,
       {0x1.4f8b588e368f1p-11, 0x1.4801f75104d55p-10,
        0x1.d8409e55c0fcbp-10, 0x1.2f3f88ac0b8c2p-14,
        0x1.4801f75104d55p-10, 0x1.4f8b588e368f1p-11,
        0x1.bf647612f3696p-10, 0x1.3ad5bee3d5fddp-8}},
      {1000, 0,
       {0x1.4f8b588e368f1p-12, 0x1.d8a5482385404p-12,
        0x1.d8a5482385404p-12, 0x1.3081a80b4c646p-16,
        0x1.47ae147ae147bp-10, 0x1.4f8b588e368f1p-12,
        0x1.bf647612f3696p-11, 0x1.3b18dac258d58p-10}},
      {5000, 5000,
       {0x1.a36e2eb1c432dp-9, 0x1.4801f75104d55p-10,
        0x1.70b39192641b3p-5, 0x1.4801f75104d55p-10,
        0x1.4801f75104d55p-10, 0x1.a36e2eb1c432dp-9,
        0x1.179ec9cbd821ep-7, 0x1.eb9a176ddacefp-4}},
      {5000, 0,
       {0x1.a36e2eb1c432dp-10, 0x1.4801f75104d55p-10,
        0x1.70c34c1a8ac5cp-7, 0x1.d8a5482385404p-12,
        0x1.4801f75104d55p-10, 0x1.a36e2eb1c432dp-10,
        0x1.179ec9cbd821ep-8, 0x1.ebaf102363b25p-6}},
      {8192, 8192,
       {0x1.5798ee2308c3ap-8, 0x1.4801f75104d55p-10,
        0x1.eed49fda19747p-4, 0x1.4801f75104d55p-10,
        0x1.4801f75104d55p-10, 0x1.5798ee2308c3ap-8,
        0x1.ca213d840baf8p-7, 0x1.49e3153c10f85p-2}},
      {8192, 0,
       {0x1.5798ee2308c3ap-9, 0x1.4801f75104d55p-10,
        0x1.eee1826307918p-6, 0x1.3cfb41b4c7fc6p-10,
        0x1.4801f75104d55p-10, 0x1.5798ee2308c3ap-9,
        0x1.ca213d840baf8p-8, 0x1.49ebac42050bbp-4}},
      {8193, 8193,
       {0x1.57a3aaea79dbep-8, 0x1.4801f75104d55p-10,
        0x1.eef38d38b4bddp-4, 0x1.4801f75104d55p-10,
        0x1.4801f75104d55p-10, 0x1.57a3aaea79dbep-8,
        0x1.ca2f8e8df7cfep-7, 0x1.49f7b37b23293p-2}},
      {8193, 0,
       {0x1.57a3aaea79dbep-9, 0x1.4801f75104d55p-10,
        0x1.ef007028b7225p-6, 0x1.3d0f0f24587f5p-10,
        0x1.4801f75104d55p-10, 0x1.57a3aaea79dbep-9,
        0x1.ca2f8e8df7cfep-8, 0x1.4a004ac5cf6c4p-4}},
      {30000, 30000,
       {0x1.3a92a30553261p-6, 0x1.4801f75104d55p-10,
        0x1.9ebb44e50c5ebp+0, 0x1.4801f75104d55p-10,
        0x1.4801f75104d55p-10, 0x1.3a92a30553261p-6,
        0x1.a36e2eb1c432dp-5, 0x1.147cd898b2e9dp+2}},
      {30000, 0,
       {0x1.3a92a30553261p-7, 0x1.4801f75104d55p-10,
        0x1.9ebe37de939ebp-2, 0x1.4801f75104d55p-10,
        0x1.4801f75104d55p-10, 0x1.3a92a30553261p-7,
        0x1.a36e2eb1c432dp-6, 0x1.147ecfe9b7bf2p+0}},
  };
  bool all_match = true;
  for (const Row& row : expected) {
    for (std::size_t c = 0; c < kColumns; ++c) {
      const double got = backends[c]->estimate_seconds(row.len_a, row.len_b);
      EXPECT_EQ(got, row.seconds[c])
          << "len " << row.len_a << " + " << row.len_b << ", column " << c;
      all_match = all_match && got == row.seconds[c];
    }
  }
  if (!all_match) {
    std::printf("recomputed estimate table:\n");
    for (const Row& row : expected) {
      std::printf("      {%zu, %zu, {", row.len_a, row.len_b);
      for (std::size_t c = 0; c < kColumns; ++c) {
        std::printf("%s%a", c > 0 ? ", " : "",
                    backends[c]->estimate_seconds(row.len_a, row.len_b));
      }
      std::printf("}},\n");
    }
  }
}

}  // namespace
}  // namespace pimnw::core
