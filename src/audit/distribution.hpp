#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topo/latency.hpp"
#include "ws/config.hpp"
#include "proto/victim.hpp"

namespace dws::audit {

/// Verdict of one chi-square goodness-of-fit screen.
struct DistributionCheck {
  double chi2 = 0.0;
  double dof = 0.0;
  double p_value = 1.0;
  std::uint64_t samples = 0;
  bool ok = true;
  std::string detail;  ///< human-readable failure description when !ok
};

/// Analytic long-run victim distribution of `config.victim_policy` for thief
/// `self`: element j is the probability of drawing rank j (0 for self).
///
///  * kRoundRobin / kRandom: uniform 1/(N-1) over the other ranks;
///  * kTofuSkewed: TofuSkewedSelector::probability (w = 1/e normalised);
///  * kHierarchical: local_tries/(local_tries+1) spread uniformly over the
///    local set, the rest uniformly over the strict complement (degenerate
///    empty sets collapse onto the other level).
std::vector<double> expected_distribution(const ws::WsConfig& config,
                                          topo::Rank self,
                                          topo::Rank num_ranks,
                                          const topo::LatencyModel& latency);

/// Draw `samples` victims from `selector` and chi-square the histogram
/// against `expected` (same convention as expected_distribution). Bins with
/// expected count < 5 are pooled, the classic validity rule. ok iff the
/// p-value is at least `min_p` and no victim outside the distribution's
/// support (expected 0, e.g. self) was drawn.
DistributionCheck check_selector_distribution(proto::VictimSelector& selector,
                                              const std::vector<double>& expected,
                                              topo::Rank self,
                                              std::uint64_t samples,
                                              double min_p = 1e-6);

/// The Tofu selector's two sampling backends (Walker alias table vs
/// rejection) must agree: identical probability() vectors and a rejection-
/// backend histogram that fits the alias-backend analytic distribution.
DistributionCheck check_tofu_backends_agree(const ws::WsConfig& config,
                                            topo::Rank self,
                                            const topo::LatencyModel& latency,
                                            std::uint64_t samples,
                                            double min_p = 1e-6);

}  // namespace dws::audit
