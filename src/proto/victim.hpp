#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "support/alias_table.hpp"
#include "support/rejection_sampler.hpp"
#include "support/rng.hpp"
#include "topo/latency.hpp"
#include "proto/config.hpp"

namespace dws::proto {

/// Chooses the next victim for one specific thief rank. One instance per
/// rank, holding that rank's selection state (round-robin cursor or RNG) —
/// mirroring the per-process state of the MPI implementation.
class VictimSelector {
 public:
  virtual ~VictimSelector() = default;

  /// The next victim to try; never the thief itself. Called once per steal
  /// attempt; selectors are free to keep state between calls.
  virtual topo::Rank next() = 0;

  /// Feedback seam (DESIGN.md §14): Peer reports the outcome of every
  /// *current* steal request it resolves. `success` means a response came
  /// back before the timeout — a refusal still counts, because an answered
  /// request proves the path to that victim works; only a timeout (lost
  /// request or answer, or a pause-dead victim) is a failure. Measuring
  /// *reachability* rather than momentary work availability is deliberate:
  /// who-has-work decorrelates in microseconds, so chasing it makes every
  /// thief herd onto the last victim that paid out, while loss, degraded
  /// links and stragglers — the signals worth adapting to — persist.
  /// Driven purely from the peer's own observation stream, so selector
  /// state stays a function of that rank's history and remains
  /// byte-deterministic under sim_shards and valid on both backends.
  /// Late answers to abandoned requests are NOT re-reported; their failure
  /// was already charged at timeout. Default: ignore feedback.
  virtual void on_steal_result(topo::Rank victim, bool success,
                               support::SimTime rtt) {
    (void)victim;
    (void)success;
    (void)rtt;
  }

  /// Exposes the per-victim feedback state, if this selector keeps any.
  /// Returns false for feedback-free selectors; adaptive selectors fill the
  /// success-rate and RTT EWMAs (rtt_ewma is 0 until the first observation).
  virtual bool ewma_snapshot(topo::Rank victim, double* success_ewma,
                             double* rtt_ewma) const {
    (void)victim;
    (void)success_ewma;
    (void)rtt_ewma;
    return false;
  }
};

/// The reference implementation's deterministic scheme: start at rank+1 and
/// walk the ring; the cursor persists across sessions and is NOT reset by
/// successful steals (§II-A).
class RoundRobinSelector final : public VictimSelector {
 public:
  RoundRobinSelector(topo::Rank self, topo::Rank num_ranks);
  topo::Rank next() override;

 private:
  topo::Rank self_;
  topo::Rank num_ranks_;
  topo::Rank cursor_;
};

/// Uniform random over the other N-1 ranks.
class UniformRandomSelector final : public VictimSelector {
 public:
  UniformRandomSelector(topo::Rank self, topo::Rank num_ranks,
                        std::uint64_t seed);
  topo::Rank next() override;

 private:
  topo::Rank self_;
  topo::Rank num_ranks_;
  support::Xoshiro256StarStar rng_;
};

/// The paper's distance-skewed selection: victim j is drawn with probability
/// proportional to w(i,j) = 1/e(i,j) (1 if e = 0), e being the 6D Euclidean
/// distance on the Tofu network.
///
/// Two sampling backends, equal in distribution (verified by tests):
///  * up to `alias_table_max_ranks` ranks, a two-stage draw over the job's
///    shared topo::NodeTables: a node from the thief node's Walker alias
///    table (the paper's GSL discrete table, over nodes instead of ranks),
///    then a rank uniformly within that node, stepping over self; a node
///    with one candidate costs no RNG draw. All ranks of a node share one
///    table, so a job holds nodes^2 x 12 bytes of tables (0.19 MB for 1024
///    ranks at 8 per node), where one N-entry table per rank held N^2 x 12;
///  * above it, rejection sampling over ranks with the envelope w_max = 1
///    (nodes sit on an integer lattice, so e >= 1 whenever nonzero). It keeps
///    no table at all: at one rank per node the node tables are still
///    N^2 x 12 bytes (0.8 GB at 8192 ranks) inside a single simulator
///    process, where each real MPI rank held one N-entry table.
class TofuSkewedSelector final : public VictimSelector {
 public:
  TofuSkewedSelector(topo::Rank self, const topo::LatencyModel& latency,
                     std::uint64_t seed, std::uint32_t alias_table_max_ranks);
  topo::Rank next() override;

  bool uses_alias_table() const noexcept { return table_ != nullptr; }

  /// Normalised selection probability of `victim` (for tests and Fig. 8).
  double probability(topo::Rank victim) const;

 private:
  /// w(self, j), and 0 for j = self.
  struct Weight {
    const topo::LatencyModel* latency;
    topo::Rank self;
    double operator()(std::size_t j) const {
      const auto victim = static_cast<topo::Rank>(j);
      return victim == self ? 0.0 : latency->victim_weight(self, victim);
    }
  };

  topo::Rank self_;
  topo::Rank num_ranks_;
  const topo::LatencyModel* latency_;
  const topo::NodeTables* nodes_ = nullptr;
  std::uint32_t node_ = 0;      // self's job-local node
  std::uint32_t position_ = 0;  // self's index among its node's ranks
  support::Xoshiro256StarStar rng_;
  const support::AliasTable* table_ = nullptr;  // node_'s table (alias backend)
  std::optional<support::RejectionSampler<Weight>> rejection_;
  double weight_sum_ = 0.0;  // node_'s row total, for probability()
};

/// Feedback-driven distance skew (DESIGN.md §14): victim j's weight is the
/// Tofu distance weight w(i,j) multiplied by a learned skew
///
///   m_j = (c0 + s_j) / (c0 + rho_j),   clamped to [1/kSkewClamp, kSkewClamp]
///
/// where s_j is a response-rate EWMA (optimistic init 1.0; see
/// on_steal_result for why refusals count as responses), rho_j is victim
/// j's RTT EWMA relative to the thief's all-victim RTT EWMA (1.0 until both
/// are observed), and c0 = 0.5 damps small-sample swings. Draws are
/// epsilon-greedy: with probability adapt_epsilon a uniform exploratory pick
/// (so a down-weighted victim keeps producing feedback and a healed link is
/// rediscovered), otherwise proportional to the adaptive weights — the
/// greedy arm of a bandit over softmax weights, sampled in weight space so
/// no transcendental libm call touches the deterministic path (softmax over
/// log-weights is exactly proportional-to-weight sampling).
///
/// Sampling backends mirror TofuSkewedSelector: an alias table rebuilt every
/// adapt_refresh_interval feedback events below alias_table_max_ranks, and
/// O(1)-memory rejection above, with envelope kSkewClamp (a_j <= kSkewClamp
/// since w <= 1) folding each feedback update in immediately.
///
/// Not copyable or movable: the rejection backend's weight function points
/// back at this object.
class AdaptiveSkewedSelector final : public VictimSelector {
 public:
  AdaptiveSkewedSelector(topo::Rank self, const topo::LatencyModel& latency,
                         std::uint64_t seed, const WsConfig& config);
  AdaptiveSkewedSelector(const AdaptiveSkewedSelector&) = delete;
  AdaptiveSkewedSelector& operator=(const AdaptiveSkewedSelector&) = delete;
  topo::Rank next() override;
  void on_steal_result(topo::Rank victim, bool success,
                       support::SimTime rtt) override;
  bool ewma_snapshot(topo::Rank victim, double* success_ewma,
                     double* rtt_ewma) const override;

  bool uses_alias_table() const noexcept { return alias_.has_value(); }

  /// Skew clamp; doubles as the rejection envelope (weights stay <= this).
  static constexpr double kSkewClamp = 8.0;

  /// Current normalised selection probability of `victim`, epsilon mix
  /// included (for tests; tracks the feedback state as it evolves).
  double probability(topo::Rank victim) const;

 private:
  /// adaptive_weight(j): the live weights, 0 for self.
  struct Weight {
    const AdaptiveSkewedSelector* selector;
    double operator()(std::size_t j) const {
      return selector->adaptive_weight(static_cast<topo::Rank>(j));
    }
  };

  double adaptive_weight(topo::Rank j) const;
  void rebuild_alias();

  topo::Rank self_;
  topo::Rank num_ranks_;
  const topo::LatencyModel* latency_;
  support::Xoshiro256StarStar rng_;
  double decay_;
  double epsilon_;
  std::uint32_t refresh_interval_;
  std::uint32_t feedback_since_rebuild_ = 0;
  std::vector<double> base_;          // static Tofu weights (self = 0)
  std::vector<double> success_ewma_;  // s_j, init 1.0
  std::vector<double> rtt_ewma_;      // r_j in ns; 0 until first observation
  double global_rtt_ewma_ = 0.0;      // across all victims; 0 until observed
  std::optional<support::AliasTable> alias_;
  std::optional<support::RejectionSampler<Weight>> rejection_;
};

/// Two-level hierarchical selection (related-work style, §VI): alternate
/// between the local neighbourhood (ranks on the same compute node, or — for
/// 1/N placements — the same Tofu cube) and the strictly remote rank set on a
/// fixed schedule of `local_tries` local picks followed by `remote_tries`
/// remote picks (the bounded-remote-tries knob of Suksompong, Leiserson &
/// Schardl's localized-stealing analysis). Remote picks exclude the local
/// peers, so the long-run local fraction is exactly
/// local_tries / (local_tries + remote_tries) whenever both sets are
/// non-empty (degenerate jobs where one set is empty draw from the other).
///
/// Unlike TofuSkewedSelector this uses *fixed per-level policies* rather
/// than distance weights, which is exactly the design the paper argues its
/// skewed selection generalises.
class HierarchicalSelector final : public VictimSelector {
 public:
  HierarchicalSelector(topo::Rank self, const topo::LatencyModel& latency,
                       std::uint64_t seed, std::uint32_t local_tries = 2,
                       std::uint32_t remote_tries = 1);
  topo::Rank next() override;

  std::size_t local_peers() const noexcept { return local_.size(); }
  std::size_t remote_peers() const noexcept { return remote_.size(); }
  std::uint32_t local_tries() const noexcept { return local_tries_; }
  std::uint32_t remote_tries() const noexcept { return remote_tries_; }
  const std::vector<topo::Rank>& local_set() const noexcept { return local_; }
  const std::vector<topo::Rank>& remote_set() const noexcept { return remote_; }

 private:
  topo::Rank self_;
  topo::Rank num_ranks_;
  std::uint32_t local_tries_;
  std::uint32_t remote_tries_;
  std::uint32_t phase_ = 0;
  support::Xoshiro256StarStar rng_;
  std::vector<topo::Rank> local_;   // same node (or same cube) peers
  std::vector<topo::Rank> remote_;  // every other rank outside local_
};

/// Factory keyed by WsConfig. Seeds are decorrelated per rank.
std::unique_ptr<VictimSelector> make_selector(const WsConfig& config,
                                              topo::Rank self,
                                              const topo::LatencyModel& latency);

/// Which sampling backend the distance-skewed selectors (kTofuSkewed and
/// kAdaptive) run with at this job size: alias tables or rejection. The two
/// backends are equal in distribution but draw different RNG sequences, so
/// the *active backend* — not the raw alias_table_max_ranks threshold — is
/// what identifies such a run; the record fingerprint uses this for both.
inline bool tofu_uses_alias(const WsConfig& config,
                            topo::Rank num_ranks) noexcept {
  return num_ranks <= config.alias_table_max_ranks;
}

}  // namespace dws::proto
