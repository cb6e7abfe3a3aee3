// Equivalence of the simulator's kernel execution paths (SimPath): the
// branchy scalar reference, the portable dense sweep, and the AVX2 path
// behind kAuto must produce bit-identical scores, CIGARs, modeled pool
// cycles and DMA bytes on every input. This is the contract that lets the
// fast path exist at all — host execution strategy is invisible to every
// modeled number (DESIGN.md "Simulator fast path").
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/dpu_kernel.hpp"
#include "core/host.hpp"
#include "core/kernel_simd.hpp"
#include "core/mram_layout.hpp"
#include "data/mutate.hpp"
#include "data/synthetic.hpp"
#include "upmem/dpu.hpp"
#include "util/rng.hpp"

namespace pimnw::core {
namespace {

std::vector<PairOutput> run_with_path(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    PimAlignerConfig config, SimPath path) {
  config.sim_path = path;
  PimAligner aligner(config);
  std::vector<PairInput> views;
  views.reserve(pairs.size());
  for (const auto& [a, b] : pairs) views.push_back({a, b});
  std::vector<PairOutput> outputs;
  (void)aligner.align_pairs(views, &outputs);
  return outputs;
}

/// Asserts every per-pair observable is identical across the three paths.
void expect_paths_agree(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    const PimAlignerConfig& config, const char* tag) {
  const auto scalar = run_with_path(pairs, config, SimPath::kScalar);
  const auto dense = run_with_path(pairs, config, SimPath::kDense);
  const auto fast = run_with_path(pairs, config, SimPath::kAuto);
  ASSERT_EQ(scalar.size(), pairs.size()) << tag;
  ASSERT_EQ(dense.size(), pairs.size()) << tag;
  ASSERT_EQ(fast.size(), pairs.size()) << tag;

  for (std::size_t p = 0; p < pairs.size(); ++p) {
    for (const auto* other : {&dense, &fast}) {
      const PairOutput& got = (*other)[p];
      EXPECT_EQ(got.ok, scalar[p].ok) << tag << " pair " << p;
      EXPECT_EQ(got.score, scalar[p].score) << tag << " pair " << p;
      EXPECT_EQ(got.cigar.to_string(), scalar[p].cigar.to_string())
          << tag << " pair " << p;
      EXPECT_EQ(got.dpu_pool_cycles, scalar[p].dpu_pool_cycles)
          << tag << " pair " << p;
      EXPECT_EQ(got.dpu_dma_bytes, scalar[p].dpu_dma_bytes)
          << tag << " pair " << p;
    }
  }
}

TEST(KernelFastPathTest, Avx2BuildMatchesRuntime) {
  // Informational: on x86-64 CI the AVX2 TU should be in the build. The
  // assertion only checks the call is safe to make.
  (void)simd::avx2_available();
}

TEST(KernelFastPathTest, HandPickedEdgeCases) {
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"A", "A"},
      {"A", "C"},
      {"AC", "A"},
      {"A", "ACGT"},
      {"ACGT", "A"},
      {"ACGTACGTACGTACGT", "ACGTACGTACGTACGT"},
      {"AAAAAAAAAA", "TTTTTTTTTT"},
      // Length-skewed: the band walks off one sequence (unreachable end).
      {"ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT", "AC"},
      {"AC", "ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"},
  };
  PimAlignerConfig config;
  config.nr_ranks = 1;
  config.align.band_width = 8;
  expect_paths_agree(pairs, config, "edge");
}

// The main sweep: >1000 randomized pairs across band widths, pool shapes,
// kernel variants, traceback on/off, and error rates high enough to make
// some pairs unreachable within their band.
TEST(KernelFastPathTest, RandomizedEquivalenceSweep) {
  Xoshiro256 rng(20260805);
  std::size_t total_pairs = 0;
  for (int round = 0; round < 120; ++round) {
    PimAlignerConfig config;
    config.nr_ranks = 1;
    config.align.band_width = 4 + static_cast<std::int64_t>(rng.below(45));
    config.align.traceback = (round % 3) != 0;
    config.pool.pools = 1 + static_cast<int>(rng.below(6));
    config.pool.tasklets_per_pool = 1 + static_cast<int>(rng.below(4));
    config.variant =
        (round % 2) == 0 ? KernelVariant::kAsm : KernelVariant::kPureC;

    std::vector<std::pair<std::string, std::string>> pairs;
    const int nr_pairs = 9;
    for (int p = 0; p < nr_pairs; ++p) {
      const std::size_t len = 1 + rng.below(260);
      const std::string a = data::random_dna(len, rng);
      data::ErrorModel errors;
      // Up to ~30% errors: indel drift regularly escapes narrow bands, so
      // the unreachable path is exercised too.
      errors.error_rate = 0.30 * static_cast<double>(rng.below(11)) / 10.0;
      pairs.emplace_back(a, data::mutate(a, errors, rng));
    }
    total_pairs += pairs.size();
    expect_paths_agree(pairs, config,
                       ("round " + std::to_string(round)).c_str());
  }
  EXPECT_GE(total_pairs, 1000u);
}

// Long pairs at the paper's band width: exercises window refills, lo
// staging flushes and multi-chunk BT DMA on all paths.
TEST(KernelFastPathTest, LongPairsPaperBand) {
  Xoshiro256 rng(7);
  std::vector<std::pair<std::string, std::string>> pairs;
  data::ErrorModel errors;
  errors.error_rate = 0.10;
  for (int p = 0; p < 4; ++p) {
    const std::string a = data::random_dna(3000 + rng.below(2000), rng);
    pairs.emplace_back(a, data::mutate(a, errors, rng));
  }
  PimAlignerConfig config;
  config.nr_ranks = 1;
  config.align.band_width = 128;
  expect_paths_agree(pairs, config, "long");

  config.align.traceback = false;
  expect_paths_agree(pairs, config, "long-score-only");
}

// The fast path decodes each sequence window once per refill (b's reversed)
// and packs BT rows two codes per byte. Pairs of 600–2000 bp at bands 4–48
// refill both windows many times per pair; lengths of every residue mod 4
// put the reversed b window past the sequence's last base, and the band
// start ka is odd on roughly half the anti-diagonals.
TEST(KernelFastPathTest, WindowRefillsAndBytePacking) {
  Xoshiro256 rng(16);
  for (const std::int64_t band : {4, 5, 11, 16, 33, 48}) {
    std::vector<std::pair<std::string, std::string>> pairs;
    for (const std::size_t residue : {0u, 1u, 2u, 3u}) {
      const std::size_t len = 600 + 4 * rng.below(350) + residue;
      const std::string a = data::random_dna(len, rng);
      data::ErrorModel errors;
      errors.error_rate = 0.02 * static_cast<double>(rng.below(6));
      pairs.emplace_back(a, data::mutate(a, errors, rng));
    }
    PimAlignerConfig config;
    config.nr_ranks = 1;
    config.align.band_width = band;
    const std::string tag = "band " + std::to_string(band);
    expect_paths_agree(pairs, config, tag.c_str());
    config.align.traceback = false;
    expect_paths_agree(pairs, config, (tag + " score-only").c_str());
  }
}

// A reused KernelScratch is never cleared: the fast path reads only band
// slots its own pair wrote (or the pads) and zeroes every BT code lane the
// sweep skips. So garbage in every non-pad slot of a caller-owned arena must
// leave the whole MRAM image (results, CIGARs, streamed window origins and
// BT rows) and the launch's modeled cost identical to the scalar path's.
TEST(KernelFastPathTest, GarbageScratchIsNeverRead) {
  Xoshiro256 rng(17);
  for (const std::int64_t band : {4, 5, 11, 16, 33, 48}) {
    for (const bool traceback : {true, false}) {
      PimAlignerConfig config;
      config.align.band_width = band;
      config.align.traceback = traceback;
      config.pool.pools = 3;
      config.pool.tasklets_per_pool = 2;
      std::vector<std::string> seqs;
      for (int p = 0; p < 6; ++p) {
        const std::string a = data::random_dna(1 + rng.below(400), rng);
        data::ErrorModel errors;
        errors.error_rate = 0.05 * static_cast<double>(rng.below(5));
        seqs.push_back(a);
        seqs.push_back(data::mutate(a, errors, rng));
      }
      const std::vector<std::string_view> views(seqs.begin(), seqs.end());
      const SeqPool pool = SeqPool::build(views);
      DpuBatchInput batch;
      for (std::uint32_t p = 0; 2 * p < seqs.size(); ++p) {
        batch.pairs.push_back({2 * p, 2 * p + 1, p});
      }
      const MramImage image = build_mram_image(batch, pool, nw_kernel(),
                                               config.align, config.pool);

      auto run = [&](SimPath path, KernelScratch* scratch) {
        upmem::Dpu dpu;
        dpu.mram().write(0, image.bytes);
        NwDpuProgram program(config.pool, config.variant, path, scratch);
        const auto summary = dpu.launch(program, config.pool.pools,
                                        config.pool.tasklets_per_pool);
        std::vector<std::uint8_t> bank(image.total_bytes);
        dpu.mram().read(0, bank);
        return std::make_pair(summary, bank);
      };
      const auto [want, want_bank] = run(SimPath::kScalar, nullptr);
      for (const SimPath path : {SimPath::kDense, SimPath::kAuto}) {
        KernelScratch scratch;
        scratch.prepare(band);
        const std::size_t stride = static_cast<std::size_t>(band) + 2;
        for (std::size_t r = 0; r < KernelScratch::kBandRows; ++r) {
          for (std::size_t k = 1; k < stride - 1; ++k) {
            scratch.band[r * stride + k] =
                static_cast<align::Score>(rng.below(1 << 20));
          }
        }
        for (std::uint8_t& code : scratch.codes) {
          code = static_cast<std::uint8_t>(rng.below(256));
        }
        const auto [got, bank] = run(path, &scratch);
        const std::string tag = "band " + std::to_string(band) +
                                (traceback ? " traceback" : " score-only") +
                                (path == SimPath::kAuto ? " auto" : " dense");
        EXPECT_TRUE(bank == want_bank) << tag;
        EXPECT_EQ(got.cycles, want.cycles) << tag;
        EXPECT_EQ(got.instructions, want.instructions) << tag;
        EXPECT_EQ(got.dma_cycles_total, want.dma_cycles_total) << tag;
        EXPECT_EQ(got.dma_bytes, want.dma_bytes) << tag;
      }
    }
  }
}

}  // namespace
}  // namespace pimnw::core
