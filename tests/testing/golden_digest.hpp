// Golden digest of the engine's behaviour: one 64-bit FNV-1a hash over a
// canonical byte stream of everything a run produces that must not depend on
// how the host schedules it — per pair (ok, status, score, CIGAR, DPU pool
// cycles, DMA bytes), every RunReport field, and the per-launch timeline.
// Integers enter little-endian at fixed width, doubles by bit pattern and
// strings length-prefixed, so equal digests mean bit-identical results.
//
// The determinism tests recompute the digest of a fixed seeded corpus at
// every pool size and compare it with a checked-in constant (the idea of
// checked-in golden outputs, as in a scores.txt/cigars.txt pair). On a
// mismatch expect_digest prints the recomputed value; replace the constant
// only when a change to the modeled behaviour is intended.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "core/host.hpp"
#include "core/stats.hpp"
#include "core/types.hpp"
#include "util/thread_pool.hpp"

namespace pimnw::testing {

class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }

  void add(const core::PairOutput& o) {
    u64(o.ok ? 1 : 0);
    u64(static_cast<std::uint64_t>(o.status));
    i64(o.score);
    str(o.cigar.to_string());
    u64(o.dpu_pool_cycles);
    u64(o.dpu_dma_bytes);
  }

  void add(std::span<const core::PairOutput> outputs) {
    u64(outputs.size());
    for (const core::PairOutput& o : outputs) add(o);
  }

  void add(const core::RunReport& r) {
    f64(r.makespan_seconds);
    f64(r.transfer_seconds);
    f64(r.host_prep_seconds);
    f64(r.host_overhead_fraction);
    f64(r.mean_pipeline_utilization);
    f64(r.mean_mram_overhead);
    f64(r.load_imbalance);
    u64(r.batches);
    u64(r.total_pairs);
    u64(r.rejected_pairs);
    u64(r.bytes_to_dpus);
    u64(r.bytes_broadcast);
    u64(r.bytes_from_dpus);
    u64(r.total_instructions);
    u64(r.total_dma_bytes);
  }

  void add(std::span<const core::LaunchRecord> launches) {
    u64(launches.size());
    for (const core::LaunchRecord& l : launches) {
      u64(l.batch);
      i64(l.rank);
      f64(l.start_seconds);
      f64(l.exec_end_seconds);
      u64(l.max_cycles);
      u64(l.sum_dpu_cycles);
      i64(l.active_dpus);
    }
  }

  std::uint64_t value() const { return hash_; }

 private:
  void byte(std::uint8_t b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ull;  // FNV-1a 64-bit prime
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ull;  // FNV-1a 64-bit offset basis
};

inline std::string digest_hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

inline void expect_digest(const Digest& got, std::uint64_t golden) {
  EXPECT_EQ(got.value(), golden)
      << "golden digest mismatch; recomputed value: "
      << digest_hex(got.value());
}

/// Worker pools of every determinism point: 1, 2 and 8 workers, and 0 for
/// the process-global pool.
inline constexpr std::size_t kDigestPools[] = {1, 2, 8, 0};

/// Runs `body(config)` at every determinism point — `base` on a pool of
/// each kDigestPools size — and checks the Digest it returns against
/// `golden` each time.
template <typename Body>
void expect_golden_at_every_pool(const core::PimAlignerConfig& base,
                                 std::uint64_t golden, const Body& body) {
  for (const std::size_t threads : kDigestPools) {
    SCOPED_TRACE(threads == 0 ? std::string("global pool")
                              : std::to_string(threads) + " threads");
    std::optional<ThreadPool> pool;
    core::PimAlignerConfig config = base;
    if (threads > 0) config.workers = &pool.emplace(threads);
    expect_digest(body(config), golden);
  }
}

}  // namespace pimnw::testing
