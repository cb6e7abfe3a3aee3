// Divergence-stratified random pairs for the kernel agreement tests and the
// WFA golden-digest leg.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/mutate.hpp"
#include "util/rng.hpp"

namespace pimnw::testing {

struct TestPair {
  std::string a;
  std::string b;
  double divergence;
};

/// Five error-rate strata from identical to 20% (substitutions and affine
/// indels mixed), lengths 100-600 bp. The high strata intentionally push
/// some pairs past the WFA kernel's default cost cap so the unreachable path
/// is exercised inside the same corpus.
inline std::vector<TestPair> stratified_pairs(std::size_t per_stratum,
                                              std::uint64_t seed) {
  const double strata[] = {0.0, 0.01, 0.05, 0.10, 0.20};
  Xoshiro256 rng(seed);
  std::vector<TestPair> pairs;
  for (const double divergence : strata) {
    data::ErrorModel model;
    model.error_rate = divergence;
    for (std::size_t i = 0; i < per_stratum; ++i) {
      const std::size_t len = 100 + rng.below(500);
      TestPair pair;
      pair.a = data::random_dna(len, rng);
      pair.b = divergence == 0.0 ? pair.a : data::mutate(pair.a, model, rng);
      pair.divergence = divergence;
      pairs.push_back(std::move(pair));
    }
  }
  return pairs;
}

}  // namespace pimnw::testing
