#include "audit/distribution.hpp"

#include <cmath>
#include <cstdio>

#include "support/check.hpp"
#include "support/stats.hpp"

namespace dws::audit {

namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

}  // namespace

std::vector<double> expected_distribution(const ws::WsConfig& config,
                                          topo::Rank self,
                                          topo::Rank num_ranks,
                                          const topo::LatencyModel& latency) {
  DWS_CHECK(num_ranks >= 2);
  DWS_CHECK(self < num_ranks);
  std::vector<double> p(num_ranks, 0.0);

  switch (config.victim_policy) {
    case ws::VictimPolicy::kRoundRobin:
    case ws::VictimPolicy::kRandom: {
      const double u = 1.0 / static_cast<double>(num_ranks - 1);
      for (topo::Rank j = 0; j < num_ranks; ++j) {
        if (j != self) p[j] = u;
      }
      return p;
    }
    case ws::VictimPolicy::kTofuSkewed: {
      // probability() is backend-independent (pure weights), so any
      // alias_table_max_ranks gives the same answer; pick the cheap one.
      proto::TofuSkewedSelector selector(self, latency, config.seed, 1);
      for (topo::Rank j = 0; j < num_ranks; ++j) {
        p[j] = selector.probability(j);
      }
      return p;
    }
    case ws::VictimPolicy::kHierarchical: {
      proto::HierarchicalSelector selector(self, latency, config.seed,
                                        config.hierarchical_local_tries,
                                        config.hierarchical_remote_tries);
      const auto& local = selector.local_set();
      const auto& remote = selector.remote_set();
      const double local_tries = config.hierarchical_local_tries;
      const double remote_tries = config.hierarchical_remote_tries;
      double local_share = local_tries / (local_tries + remote_tries);
      if (local.empty()) local_share = 0.0;
      if (remote.empty()) local_share = 1.0;
      for (const topo::Rank j : local) {
        p[j] = local_share / static_cast<double>(local.size());
      }
      for (const topo::Rank j : remote) {
        p[j] = (1.0 - local_share) / static_cast<double>(remote.size());
      }
      return p;
    }
    case ws::VictimPolicy::kAdaptive: {
      // A fresh selector has seen no feedback, so its live weights equal the
      // Tofu base and probability() — epsilon mix included — is exactly the
      // distribution the audit samples from below.
      proto::AdaptiveSkewedSelector selector(self, latency, config.seed,
                                             config);
      for (topo::Rank j = 0; j < num_ranks; ++j) {
        p[j] = selector.probability(j);
      }
      return p;
    }
  }
  DWS_CHECK(false && "unreachable victim policy");
}

DistributionCheck check_selector_distribution(
    proto::VictimSelector& selector, const std::vector<double>& expected,
    topo::Rank self, std::uint64_t samples, double min_p) {
  DWS_CHECK(samples > 0);
  DistributionCheck out;
  out.samples = samples;

  std::vector<std::uint64_t> counts(expected.size(), 0);
  for (std::uint64_t i = 0; i < samples; ++i) {
    const topo::Rank v = selector.next();
    if (v >= counts.size() || v == self || expected[v] <= 0.0) {
      out.ok = false;
      out.detail = "drew rank " + std::to_string(v) +
                   " outside the distribution's support";
      return out;
    }
    ++counts[v];
  }

  // Chi-square with small-expectation pooling: bins expecting < 5 draws are
  // merged into one, keeping the test valid for skewed distributions with
  // long tails of rarely-picked victims.
  const double n = static_cast<double>(samples);
  double chi2 = 0.0;
  double bins = 0.0;
  double pooled_expected = 0.0;
  double pooled_observed = 0.0;
  for (std::size_t j = 0; j < expected.size(); ++j) {
    if (expected[j] <= 0.0) continue;
    const double e = expected[j] * n;
    if (e < 5.0) {
      pooled_expected += e;
      pooled_observed += static_cast<double>(counts[j]);
      continue;
    }
    const double d = static_cast<double>(counts[j]) - e;
    chi2 += d * d / e;
    bins += 1.0;
  }
  if (pooled_expected > 0.0) {
    const double d = pooled_observed - pooled_expected;
    chi2 += d * d / pooled_expected;
    bins += 1.0;
  }
  if (bins < 2.0) {
    // Everything pooled into one bin: the histogram is trivially right.
    return out;
  }
  out.chi2 = chi2;
  out.dof = bins - 1.0;
  out.p_value = support::chi_square_sf(chi2, out.dof);
  if (out.p_value < min_p) {
    out.ok = false;
    out.detail = "chi2 = " + fmt(out.chi2) + " over " + fmt(out.dof) +
                 " dof, p = " + fmt(out.p_value) + " < " + fmt(min_p);
  }
  return out;
}

DistributionCheck check_tofu_backends_agree(const ws::WsConfig& config,
                                            topo::Rank self,
                                            const topo::LatencyModel& latency,
                                            std::uint64_t samples,
                                            double min_p) {
  const topo::Rank n = latency.layout().num_ranks();
  // Thresholds forcing each backend regardless of the configured cutoff.
  proto::TofuSkewedSelector alias(self, latency, config.seed, n);
  proto::TofuSkewedSelector rejection(self, latency, config.seed + 1, 1);
  DWS_CHECK(alias.uses_alias_table());
  DWS_CHECK(!rejection.uses_alias_table());

  DistributionCheck out;
  std::vector<double> expected(n, 0.0);
  for (topo::Rank j = 0; j < n; ++j) {
    expected[j] = alias.probability(j);
    const double diff = std::abs(expected[j] - rejection.probability(j));
    if (diff > 1e-12) {
      out.ok = false;
      out.detail = "probability(" + std::to_string(j) +
                   ") differs between backends by " + fmt(diff);
      return out;
    }
  }

  // Both backends must *sample* the shared analytic distribution.
  DistributionCheck a =
      check_selector_distribution(alias, expected, self, samples, min_p);
  if (!a.ok) {
    a.detail = "alias backend: " + a.detail;
    return a;
  }
  DistributionCheck r =
      check_selector_distribution(rejection, expected, self, samples, min_p);
  if (!r.ok) r.detail = "rejection backend: " + r.detail;
  return r;
}

}  // namespace dws::audit
