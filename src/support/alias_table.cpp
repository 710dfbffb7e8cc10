#include "support/alias_table.hpp"

#include "support/check.hpp"

namespace dws::support {

AliasTable::AliasTable(const std::vector<double>& weights) {
  const std::size_t n = weights.size();
  DWS_CHECK(n > 0);
  DWS_CHECK(n <= UINT32_MAX);

  double total = 0.0;
  for (double w : weights) {
    DWS_CHECK(w >= 0.0);
    total += w;
  }
  DWS_CHECK(total > 0.0);

  // Vose's stable variant: partition scaled probabilities into small/large
  // worklists and pair each small bucket with a large donor.
  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = (weights[i] / total) * static_cast<double>(n);
  }

  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }

  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] -= 1.0 - scaled[s];
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Leftovers are 1.0 up to rounding.
  for (std::uint32_t i : large) prob_[i] = 1.0;
  for (std::uint32_t i : small) prob_[i] = 1.0;
}

std::size_t AliasTable::sample(Xoshiro256StarStar& rng) const noexcept {
  const std::size_t bucket = static_cast<std::size_t>(rng.next_below(prob_.size()));
  const double coin = rng.next_double();
  return coin < prob_[bucket] ? bucket : alias_[bucket];
}

}  // namespace dws::support
