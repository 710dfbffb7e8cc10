#include "proto/victim.hpp"

#include <vector>

#include "support/check.hpp"

namespace dws::proto {

namespace {

/// Per-rank RNG stream: decorrelate the shared seed with SplitMix over the
/// rank so neighbouring ranks do not draw correlated victim sequences.
std::uint64_t rank_seed(std::uint64_t seed, topo::Rank rank) {
  support::SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ull * (rank + 1)));
  return sm.next();
}

}  // namespace

RoundRobinSelector::RoundRobinSelector(topo::Rank self, topo::Rank num_ranks)
    : self_(self), num_ranks_(num_ranks), cursor_((self + 1) % num_ranks) {
  DWS_CHECK(num_ranks_ >= 2);
}

topo::Rank RoundRobinSelector::next() {
  if (cursor_ == self_) cursor_ = (cursor_ + 1) % num_ranks_;
  const topo::Rank victim = cursor_;
  cursor_ = (cursor_ + 1) % num_ranks_;
  return victim;
}

UniformRandomSelector::UniformRandomSelector(topo::Rank self,
                                             topo::Rank num_ranks,
                                             std::uint64_t seed)
    : self_(self), num_ranks_(num_ranks), rng_(rank_seed(seed, self)) {
  DWS_CHECK(num_ranks_ >= 2);
}

topo::Rank UniformRandomSelector::next() {
  // Uniform over the N-1 other ranks, no rejection needed.
  const auto draw = static_cast<topo::Rank>(rng_.next_below(num_ranks_ - 1));
  return draw >= self_ ? draw + 1 : draw;
}

TofuSkewedSelector::TofuSkewedSelector(topo::Rank self,
                                       const topo::LatencyModel& latency,
                                       std::uint64_t seed,
                                       std::uint32_t alias_table_max_ranks)
    : self_(self),
      num_ranks_(latency.layout().num_ranks()),
      latency_(&latency),
      rng_(rank_seed(seed, self)) {
  DWS_CHECK(num_ranks_ >= 2);
  nodes_ = &latency.node_tables();
  node_ = nodes_->node_of(self_);
  position_ = nodes_->position_of(self_);
  // Build the table first: it sums the same weight row for the total.
  if (num_ranks_ <= alias_table_max_ranks) table_ = &nodes_->table(node_);
  weight_sum_ = nodes_->total(node_);
  // Degenerate-allocation guard: if every victim weight underflowed to zero,
  // neither backend could ever draw — fail loudly here instead of spinning
  // in next().
  DWS_CHECK(weight_sum_ > 0.0 && "all victim weights are zero");
  if (table_ == nullptr) {
    rejection_.emplace(num_ranks_, 1.0, Weight{latency_, self_});
  }
}

topo::Rank TofuSkewedSelector::next() {
  if (table_ == nullptr) {
    return static_cast<topo::Rank>(rejection_->sample(rng_));
  }
  // A node, then a rank uniformly within it, stepping over self on its own
  // node; a node with one candidate costs no draw.
  const auto node = static_cast<std::uint32_t>(table_->sample(rng_));
  const bool own = node == node_;
  const std::uint32_t candidates = nodes_->ranks_on(node) - (own ? 1 : 0);
  auto pick = candidates == 1
                  ? 0u
                  : static_cast<std::uint32_t>(rng_.next_below(candidates));
  if (own && pick >= position_) ++pick;
  return nodes_->ranks(node)[pick];
}

double TofuSkewedSelector::probability(topo::Rank victim) const {
  DWS_CHECK(victim < num_ranks_);
  if (victim == self_) return 0.0;
  return latency_->victim_weight(self_, victim) / weight_sum_;
}

AdaptiveSkewedSelector::AdaptiveSkewedSelector(topo::Rank self,
                                               const topo::LatencyModel& latency,
                                               std::uint64_t seed,
                                               const WsConfig& config)
    : self_(self),
      num_ranks_(latency.layout().num_ranks()),
      latency_(&latency),
      rng_(rank_seed(seed, self)),
      decay_(config.adapt_decay),
      epsilon_(config.adapt_epsilon),
      refresh_interval_(config.adapt_refresh_interval) {
  DWS_CHECK(num_ranks_ >= 2);
  DWS_CHECK(decay_ > 0.0 && decay_ <= 1.0);
  DWS_CHECK(epsilon_ > 0.0 && epsilon_ <= 1.0);
  DWS_CHECK(refresh_interval_ >= 1);
  base_.resize(num_ranks_, 0.0);
  success_ewma_.assign(num_ranks_, 1.0);  // optimism: untried victims look good
  rtt_ewma_.assign(num_ranks_, 0.0);
  double sum = 0.0;
  for (topo::Rank j = 0; j < num_ranks_; ++j) {
    if (j == self_) continue;
    base_[j] = latency_->victim_weight(self_, j);
    sum += base_[j];
  }
  DWS_CHECK(sum > 0.0 && "all victim weights are zero");
  if (num_ranks_ <= config.alias_table_max_ranks) {
    rebuild_alias();
  } else {
    rejection_.emplace(num_ranks_, kSkewClamp, Weight{this});
  }
}

double AdaptiveSkewedSelector::adaptive_weight(topo::Rank j) const {
  if (j == self_ || base_[j] == 0.0) return 0.0;
  // Relative RTT: victim j vs the thief's all-victim EWMA; 1.0 until both
  // sides have an observation so untried victims start unskewed.
  double rho = 1.0;
  if (rtt_ewma_[j] > 0.0 && global_rtt_ewma_ > 0.0) {
    rho = rtt_ewma_[j] / global_rtt_ewma_;
  }
  constexpr double c0 = 0.5;
  double skew = (c0 + success_ewma_[j]) / (c0 + rho);
  if (skew > kSkewClamp) skew = kSkewClamp;
  if (skew < 1.0 / kSkewClamp) skew = 1.0 / kSkewClamp;
  return base_[j] * skew;
}

void AdaptiveSkewedSelector::rebuild_alias() {
  std::vector<double> weights(num_ranks_);
  for (topo::Rank j = 0; j < num_ranks_; ++j) weights[j] = adaptive_weight(j);
  alias_.emplace(weights);
  feedback_since_rebuild_ = 0;
}

topo::Rank AdaptiveSkewedSelector::next() {
  // Exploration arm first: one coin flip, then a uniform pick over the
  // other N-1 ranks, exactly UniformRandomSelector's draw.
  if (rng_.next_double() < epsilon_) {
    const auto draw = static_cast<topo::Rank>(rng_.next_below(num_ranks_ - 1));
    return draw >= self_ ? draw + 1 : draw;
  }
  // The rejection backend reads the live weights, so feedback lands in the
  // very next draw — no rebuild step there.
  return static_cast<topo::Rank>(alias_ ? alias_->sample(rng_)
                                        : rejection_->sample(rng_));
}

void AdaptiveSkewedSelector::on_steal_result(topo::Rank victim, bool success,
                                             support::SimTime rtt) {
  DWS_CHECK(victim < num_ranks_ && victim != self_);
  const double sample = success ? 1.0 : 0.0;
  success_ewma_[victim] =
      (1.0 - decay_) * success_ewma_[victim] + decay_ * sample;
  const auto r = static_cast<double>(rtt);
  if (r > 0.0) {
    rtt_ewma_[victim] =
        rtt_ewma_[victim] == 0.0 ? r
                                 : (1.0 - decay_) * rtt_ewma_[victim] + decay_ * r;
    global_rtt_ewma_ =
        global_rtt_ewma_ == 0.0 ? r
                                : (1.0 - decay_) * global_rtt_ewma_ + decay_ * r;
  }
  if (alias_.has_value() && ++feedback_since_rebuild_ >= refresh_interval_) {
    rebuild_alias();
  }
}

bool AdaptiveSkewedSelector::ewma_snapshot(topo::Rank victim,
                                           double* success_ewma,
                                           double* rtt_ewma) const {
  if (victim >= num_ranks_ || victim == self_) return false;
  *success_ewma = success_ewma_[victim];
  *rtt_ewma = rtt_ewma_[victim];
  return true;
}

double AdaptiveSkewedSelector::probability(topo::Rank victim) const {
  DWS_CHECK(victim < num_ranks_);
  if (victim == self_) return 0.0;
  // The *live* weights, not the possibly-stale alias table: this accessor
  // tracks the feedback state for tests and the Fig. 8-style PDF dump.
  double sum = 0.0;
  for (topo::Rank j = 0; j < num_ranks_; ++j) sum += adaptive_weight(j);
  const double uniform = 1.0 / static_cast<double>(num_ranks_ - 1);
  return epsilon_ * uniform + (1.0 - epsilon_) * adaptive_weight(victim) / sum;
}

HierarchicalSelector::HierarchicalSelector(topo::Rank self,
                                           const topo::LatencyModel& latency,
                                           std::uint64_t seed,
                                           std::uint32_t local_tries,
                                           std::uint32_t remote_tries)
    : self_(self),
      num_ranks_(latency.layout().num_ranks()),
      local_tries_(local_tries),
      remote_tries_(remote_tries),
      rng_(rank_seed(seed, self)) {
  DWS_CHECK(num_ranks_ >= 2);
  DWS_CHECK(remote_tries_ >= 1);
  const auto& layout = latency.layout();
  const auto& machine = layout.machine();
  // Local level: co-located ranks if any, else ranks in the same Tofu cube.
  for (topo::Rank j = 0; j < num_ranks_; ++j) {
    if (j != self_ && layout.same_node(self_, j)) local_.push_back(j);
  }
  if (local_.empty()) {
    for (topo::Rank j = 0; j < num_ranks_; ++j) {
      if (j != self_ &&
          machine.same_cube(layout.coord_of(self_), layout.coord_of(j))) {
        local_.push_back(j);
      }
    }
  }
  // The remote level draws over the complement, so a "remote" pick can never
  // land on a local peer and the local/remote split is exactly the schedule's
  // local_tries : 1 (local_ is sorted by construction).
  std::size_t li = 0;
  for (topo::Rank j = 0; j < num_ranks_; ++j) {
    if (j == self_) continue;
    if (li < local_.size() && local_[li] == j) {
      ++li;
      continue;
    }
    remote_.push_back(j);
  }
}

topo::Rank HierarchicalSelector::next() {
  const std::uint32_t slot = phase_++ % (local_tries_ + remote_tries_);
  // Degenerate jobs: with no local peers every pick is remote; with no
  // strictly remote rank (everyone shares the node/cube) every pick is local.
  const bool pick_local =
      !local_.empty() && (remote_.empty() || slot < local_tries_);
  const std::vector<topo::Rank>& pool = pick_local ? local_ : remote_;
  return pool[static_cast<std::size_t>(rng_.next_below(pool.size()))];
}

std::unique_ptr<VictimSelector> make_selector(const WsConfig& config,
                                              topo::Rank self,
                                              const topo::LatencyModel& latency) {
  const topo::Rank n = latency.layout().num_ranks();
  switch (config.victim_policy) {
    case VictimPolicy::kRoundRobin:
      return std::make_unique<RoundRobinSelector>(self, n);
    case VictimPolicy::kRandom:
      return std::make_unique<UniformRandomSelector>(self, n, config.seed);
    case VictimPolicy::kTofuSkewed:
      return std::make_unique<TofuSkewedSelector>(self, latency, config.seed,
                                                  config.alias_table_max_ranks);
    case VictimPolicy::kHierarchical:
      return std::make_unique<HierarchicalSelector>(
          self, latency, config.seed, config.hierarchical_local_tries,
          config.hierarchical_remote_tries);
    case VictimPolicy::kAdaptive:
      return std::make_unique<AdaptiveSkewedSelector>(self, latency,
                                                      config.seed, config);
  }
  DWS_CHECK(false && "unreachable victim policy");
}

const char* to_string(VictimPolicy p) {
  switch (p) {
    case VictimPolicy::kRoundRobin: return "Reference";
    case VictimPolicy::kRandom: return "Rand";
    case VictimPolicy::kTofuSkewed: return "Tofu";
    case VictimPolicy::kHierarchical: return "Hier";
    case VictimPolicy::kAdaptive: return "Adaptive";
  }
  return "?";
}

const char* to_string(StealAmount a) {
  switch (a) {
    case StealAmount::kOneChunk: return "OneChunk";
    case StealAmount::kHalf: return "Half";
  }
  return "?";
}

const char* to_string(IdlePolicy p) {
  switch (p) {
    case IdlePolicy::kPersistentSteal: return "PersistentSteal";
    case IdlePolicy::kLifeline: return "Lifeline";
  }
  return "?";
}

}  // namespace dws::proto
