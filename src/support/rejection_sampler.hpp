#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace dws::support {

/// O(1)-memory sampler for a discrete distribution given by a weight
/// *function* rather than a materialised weight vector.
///
/// Rationale: the paper's skewed victim selection builds, on every MPI rank,
/// an N-entry GSL discrete distribution — fine when each rank is its own
/// process, but our simulator hosts all N ranks in one address space, and N
/// alias tables of N entries is O(N^2) memory (≈0.8 GiB at N = 8192). The
/// rejection sampler draws a candidate uniformly and accepts with probability
/// w(candidate)/w_max; it produces the *same* distribution as the alias table
/// (verified by tests) with no per-rank storage.
///
/// Acceptance rate equals mean(w)/max(w). For the 1/euclidean-distance weights
/// this stays around 5-20% on realistic allocations, i.e. a handful of cheap
/// distance evaluations per steal.
template <typename WeightFn>
class RejectionSampler {
 public:
  /// Bound on consecutive rejections before sample() aborts. With any sane
  /// acceptance rate the probability of hitting it is effectively zero, so
  /// reaching it means the weight function is broken.
  static constexpr std::uint64_t kMaxIterations = 1'000'000;

  /// `weight(i)` must return a value in [0, w_max] for all i in [0, n);
  /// at least one index must have positive weight (checked — an all-zero
  /// weight vector, e.g. from underflow on a degenerate allocation, would
  /// otherwise make sample() spin forever).
  RejectionSampler(std::size_t n, double w_max, WeightFn weight)
      : n_(n), w_max_(w_max), weight_(std::move(weight)) {
    DWS_CHECK(n_ > 0);
    DWS_CHECK(w_max_ > 0.0);
    bool any_positive = false;
    for (std::size_t i = 0; i < n_ && !any_positive; ++i) {
      any_positive = weight_(i) > 0.0;
    }
    DWS_CHECK(any_positive && "all weights are zero");
  }

  std::size_t sample(Xoshiro256StarStar& rng) const {
    // The constructor guarantees a positive weight, so this accepts with
    // probability 1; the bound makes a broken weight function loud instead
    // of a silent infinite loop.
    for (std::uint64_t iter = 0; iter < kMaxIterations; ++iter) {
      const auto candidate = static_cast<std::size_t>(rng.next_below(n_));
      const double w = weight_(candidate);
      DWS_DCHECK(w >= 0.0 && w <= w_max_);
      if (w <= 0.0) continue;
      if (rng.next_double() * w_max_ < w) return candidate;
    }
    DWS_CHECK(false && "no acceptance within the iteration bound");
    return 0;  // unreachable
  }

 private:
  std::size_t n_;
  double w_max_;
  WeightFn weight_;
};

template <typename WeightFn>
RejectionSampler(std::size_t, double, WeightFn) -> RejectionSampler<WeightFn>;

}  // namespace dws::support
