#pragma once

#include <cstdint>

#include "support/sim_time.hpp"

namespace dws::proto {

/// Victim selection strategy — the paper's central experimental axis.
enum class VictimPolicy {
  /// "Reference": deterministic round robin. Rank i's first victim is
  /// i+1 mod N; subsequent picks continue around the ring, persisting across
  /// sessions (paper §II-A). This is what the public UTS MPI implementation
  /// ships with.
  kRoundRobin,
  /// "Rand": uniform random over all other ranks (§IV-A), the textbook
  /// work-stealing assumption.
  kRandom,
  /// "Tofu": random skewed by physical distance, w(i,j) = 1/e(i,j)
  /// (1 when e = 0), where e is the 6D Euclidean distance between the ranks'
  /// nodes (§IV-B) — the paper's contribution.
  kTofuSkewed,
  /// "Hier": two-level hierarchical selection in the style the paper's
  /// related work contrasts against (Min et al., Quintin & Wagner): try a
  /// uniformly random *local* victim (same node, else same cube) a few times
  /// before falling back to a uniformly random remote one. Implemented as an
  /// extension so the paper's "fixed per-level policies vs direct distance
  /// weighting" discussion (§VI) can be measured (bench/ablation_selectors).
  kHierarchical,
  /// "Adaptive": the Tofu distance weights multiplied by a feedback skew
  /// learned online from the peer's own steal history. Per-victim success
  /// and RTT EWMAs (driven through VictimSelector::on_steal_result) scale
  /// each victim's weight up when steals there succeed quickly and down when
  /// they fail or stall, with epsilon-greedy exploration so degraded links
  /// can recover (DESIGN.md §14).
  kAdaptive,
};

/// How much work one successful steal transfers (§IV-C).
enum class StealAmount {
  kOneChunk,  ///< reference behaviour: a single chunk
  kHalf,      ///< half of the victim's stealable chunks (at least one)
};

/// What an idle rank does after its steal attempts keep failing.
enum class IdlePolicy {
  /// The paper's implementations: keep sending steal requests forever.
  kPersistentSteal,
  /// Lifeline-based global load balancing (Saraswat et al., PPoPP 2011 —
  /// the paper's §VI comparison point): after `lifeline_tries` consecutive
  /// failed random steals, register with the rank's lifeline buddies (a
  /// hypercube graph over ranks) and go dormant; a buddy that later holds
  /// surplus work pushes chunks to its registered dependents.
  kLifeline,
};

const char* to_string(VictimPolicy p);
const char* to_string(StealAmount a);
const char* to_string(IdlePolicy p);

/// Scheduler tuning knobs. Defaults reproduce the paper's setup: chunks of
/// 20 nodes, one SHA round per node, and a per-node compute cost calibrated
/// to the paper's measured 970,000 nodes/second on a K Computer core
/// (node_overhead + sha_round_cost = 1030 ns).
struct WsConfig {
  std::uint32_t chunk_size = 20;
  VictimPolicy victim_policy = VictimPolicy::kRoundRobin;
  StealAmount steal_amount = StealAmount::kOneChunk;

  /// Work granularity (§V-B): number of SHA rounds charged per node
  /// creation. Scales compute time per node; the tree itself is held fixed
  /// (see DESIGN.md on this deliberate simplification).
  std::uint32_t sha_rounds = 1;

  support::SimTime node_overhead = 130;    ///< ns of bookkeeping per node
  support::SimTime sha_round_cost = 900;   ///< ns per SHA round
  /// Virtual time a victim spends noticing + packaging one steal request
  /// (the "victim stops working to package work" overhead of §II-A). A
  /// model constant, like the wire sizes below: every run uses these values,
  /// and exp::canonical_config lists them in each record's fingerprint.
  static constexpr support::SimTime steal_handling_cost = 300;

  /// Nodes expanded between message polls (the reference implementation
  /// probes MPI between node expansions; >1 trades fidelity for speed).
  std::uint32_t poll_interval = 1;

  /// Wire sizes charged to the network model, in bytes.
  static constexpr std::uint32_t steal_request_bytes = 16;
  static constexpr std::uint32_t response_header_bytes = 16;
  /// Serialized TreeNode (20B state + height).
  static constexpr std::uint32_t node_bytes = 24;
  static constexpr std::uint32_t token_bytes = 8;

  std::uint64_t seed = 1;  ///< seeds the per-rank victim-selection RNGs

  /// Job size, in ranks, up to which the distance-skewed selectors sample
  /// from alias tables (the paper's GSL approach) and above which they
  /// switch to O(1)-memory rejection sampling (DESIGN.md §1 explains why;
  /// the distributions are identical). kTofuSkewed draws from the job's
  /// shared per-node tables; kAdaptive keeps one table per rank.
  std::uint32_t alias_table_max_ranks = 2048;

  /// One-sided steals (the paper's §VII future work; Dinan et al. SC'09):
  /// the thief's request is serviced at arrival — no waiting for the
  /// victim's next poll, no packaging charge on the victim's critical path —
  /// modelling RDMA access to the victim's queue.
  bool one_sided_steals = false;

  IdlePolicy idle_policy = IdlePolicy::kPersistentSteal;
  /// kLifeline: failed random steals before going dormant on the lifelines.
  std::uint32_t lifeline_tries = 8;

  /// kHierarchical: local picks before each remote pick. The selector draws
  /// `hierarchical_local_tries` uniformly random local victims (same node,
  /// else same cube), then one uniformly random *strictly remote* victim, so
  /// the long-run local fraction is exactly tries/(tries + 1). 0 means every
  /// pick is remote.
  std::uint32_t hierarchical_local_tries = 2;

  /// kHierarchical: remote picks per schedule period (Suksompong, Leiserson
  /// & Schardl bound the cost of localized stealing with a limited number of
  /// remote tries). The selector cycles `hierarchical_local_tries` local
  /// picks then `hierarchical_remote_tries` remote ones, so the long-run
  /// local fraction is tries/(tries + remote_tries). Must be >= 1.
  std::uint32_t hierarchical_remote_tries = 1;

  /// Adaptive selection (kAdaptive) and adaptive amount switching share one
  /// EWMA step: x' = (1-decay)*x + decay*sample. Must be in (0, 1].
  double adapt_decay = 0.25;
  /// kAdaptive: probability of an exploratory uniform draw instead of a
  /// weighted one. Keeps EWMAs of down-weighted victims fresh so a healed
  /// link is rediscovered. Must be in (0, 1] when kAdaptive is active — a
  /// zero epsilon can starve a victim's feedback forever (validated).
  double adapt_epsilon = 0.1;
  /// kAdaptive, alias backend: feedback events between alias-table rebuilds
  /// (the rejection backend folds feedback in immediately). Must be >= 1.
  std::uint32_t adapt_refresh_interval = 32;

  /// Adaptive steal-half <-> steal-one switching in the thief (tasking-2.0's
  /// STEAL_ADAPTIVE, keyed on recent steal yield): when enabled the thief
  /// asks for half while its yield EWMA (nodes per successful steal) sits
  /// below adapt_yield_threshold, and drops back to one chunk once steals
  /// are fat enough. steal_amount then only seeds the initial preference.
  bool adaptive_steal_amount = false;
  /// Yield threshold in nodes; 0 resolves to 2 * chunk_size.
  std::uint32_t adapt_yield_threshold = 0;

  /// Steal-protocol robustness (DESIGN.md §10). With steal_timeout > 0 a
  /// thief arms a timer per steal request; if no response arrives in time it
  /// abandons the request (a late answer is still honoured — the work it
  /// carries is banked) and re-sends to the same victim up to steal_retry_max
  /// times, the k-th retry waiting steal_timeout * steal_backoff^k, before
  /// moving to a fresh victim. 0 disables timers — the paper's blocking
  /// behaviour — and is only safe when the network never drops (validated).
  support::SimTime steal_timeout = 0;
  std::uint32_t steal_retry_max = 3;
  double steal_backoff = 2.0;

  /// Token-ring robustness: with token_timeout > 0, rank 0 regenerates the
  /// termination token (with a fresh generation number) when a probe fails
  /// to return in time; stale generations and duplicates are discarded by
  /// every rank. Mattern-style counting is per-circulation and unaffected.
  /// Size it well above an idle-ring circulation (N * hop RTT): a spurious
  /// regeneration is safe but wastes messages.
  support::SimTime token_timeout = 0;

  bool record_trace = true;

  /// Virtual compute time per tree node.
  support::SimTime node_cost() const noexcept {
    return node_overhead + static_cast<support::SimTime>(sha_rounds) * sha_round_cost;
  }
};

}  // namespace dws::proto
