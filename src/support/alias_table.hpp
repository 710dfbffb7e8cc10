#pragma once

#include <cstdint>
#include <vector>

#include "support/rng.hpp"

namespace dws::support {

/// Walker's alias method for O(1) sampling from an arbitrary discrete
/// distribution.
///
/// This replaces the paper's use of GSL (`gsl_ran_discrete_preproc` /
/// `gsl_ran_discrete`), which is how the original study sampled the
/// distance-skewed victim distribution. Construction is O(n); each draw
/// consumes one uniform 64-bit value split into a bucket index and a
/// coin flip.
class AliasTable {
 public:
  /// Build from unnormalised non-negative weights; at least one weight must
  /// be positive. Zero-weight entries are never returned.
  explicit AliasTable(const std::vector<double>& weights);

  std::size_t size() const noexcept { return prob_.size(); }

  std::size_t sample(Xoshiro256StarStar& rng) const noexcept;

 private:
  std::vector<double> prob_;          // acceptance threshold per bucket
  std::vector<std::uint32_t> alias_;  // fallback index per bucket
};

}  // namespace dws::support
