#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "support/open_table.hpp"
#include "support/rng.hpp"
#include "support/sim_time.hpp"

/// dws::fault — deterministic fault injection for the simulator (DESIGN.md
/// §10). The paper models the happy path: every message arrives, every rank
/// computes at the calibrated speed. This layer perturbs both, so the
/// Reference-vs-Tofu gap can be studied in the regime related work (Gast et
/// al.) argues dominates real deployments: lossy, jittery networks and
/// heterogeneous compute.
///
/// Everything is drawn from dedicated RNG streams derived from
/// FaultConfig::seed — never from the schedulers' RNGs — so enabling faults
/// perturbs the run but a faulted run with a fixed seed replays
/// byte-identically, and the fault axes of a sweep are decorrelated from the
/// victim-selection axes. Per-message decisions are counter-based: a hash of
/// (seed, channel, the channel's own send sequence number). Keying on the
/// per-channel counter — not a global one — makes every draw a pure function
/// of the channel's send history, which is what lets the sharded simulator
/// core (DESIGN.md §12) give each shard its own Injector: a channel's sends
/// are totally ordered inside the sending rank's shard, so the draw sequence
/// is identical at every shard count.
namespace dws::fault {

/// Loss semantics of one message, declared by the protocol layer at the send
/// site. The injector only ever drops messages the protocol can recover
/// (steal requests and refusals re-covered by the thief's timeout, tokens
/// re-covered by regeneration); work-carrying responses may be duplicated —
/// the thief deduplicates by request id — but never dropped, because no
/// retransmission path exists for the nodes they carry. Everything else
/// (Terminate, lifeline traffic) is reliable.
enum class MsgClass : std::uint8_t {
  kReliable,   ///< never dropped, never duplicated
  kDroppable,  ///< may be dropped and duplicated
  kDupOnly,    ///< may be duplicated, never dropped (work-carrying)
};

/// The perturbation model. All-defaults means "no faults" (enabled() is
/// false and the simulation is bit-identical to a run without the layer).
struct FaultConfig {
  /// Per-message drop probability on kDroppable sends.
  double drop_prob = 0.0;
  /// Per-message duplication probability on kDroppable/kDupOnly sends. The
  /// copy travels the same channel with its own jitter draw.
  double dup_prob = 0.0;
  /// Latency jitter: each delivery's latency is scaled by
  /// 1 + U[0,1) * jitter_frac.
  double jitter_frac = 0.0;
  /// Fraction of directed (src, dst) channels that are persistently
  /// degraded; their latency is further scaled by degraded_mult.
  double degraded_frac = 0.0;
  double degraded_mult = 3.0;

  /// Straggler ranks: this many ranks (chosen from a seed-derived stream)
  /// expand nodes straggler_factor times slower for the whole run.
  std::uint32_t straggler_ranks = 0;
  double straggler_factor = 4.0;

  /// Transient pauses: this many ranks stall once for pause_duration ns,
  /// starting at a time drawn uniformly from [0, pause_window].
  std::uint32_t pause_ranks = 0;
  support::SimTime pause_duration = 0;
  support::SimTime pause_window = 0;

  /// Seed of the dedicated fault RNG streams.
  std::uint64_t seed = 1;

  /// True when any perturbation is active.
  bool enabled() const noexcept {
    return drop_prob > 0.0 || dup_prob > 0.0 || jitter_frac > 0.0 ||
           degraded_frac > 0.0 || straggler_ranks > 0 ||
           (pause_ranks > 0 && pause_duration > 0);
  }
};

/// What the injector actually did, for RunResult and the auditor's message
/// arithmetic (a dropped message is still counted as sent by NetworkStats —
/// send-side ledgers need no fault-awareness — while each duplicate adds one
/// extra message/byte count the auditor compensates for).
struct FaultStats {
  std::uint64_t dropped_messages = 0;
  std::uint64_t dropped_bytes = 0;
  std::uint64_t duplicated_messages = 0;
  std::uint64_t duplicated_bytes = 0;
};

/// One channel's slice of the injector state: the send counter that keys the
/// draws, plus what the injector did on this channel. Summing the per-channel
/// drop/dup counts over channels() reproduces the global FaultStats — the
/// conservation property the sharded merge (one injector per shard, disjoint
/// channel sets) relies on and the tests pin. The injector keeps the entry
/// of every channel that ever sent in one flat open-addressed table
/// (support::OpenTable) and never removes one: the send counter must
/// survive the channel's idle spells.
struct ChannelFaultState {
  std::uint64_t sends = 0;  ///< per-channel send sequence (the draw key)
  std::uint64_t dropped_messages = 0;
  std::uint64_t duplicated_messages = 0;
};

/// Per-send verdict: drop, duplicate, and the latency multipliers (jitter x
/// degraded link) for the original and — when duplicated — the copy.
struct SendPlan {
  bool drop = false;
  bool duplicate = false;
  double latency_mult = 1.0;
  double dup_latency_mult = 1.0;
};

/// The deterministic fault injector: one per run (or one per shard — see
/// below), shared by sim::Network (message faults) and ws::Worker
/// (stragglers and pauses). plan_send advances only the *channel's* send
/// sequence, so a plan depends on nothing but (seed, channel, how many
/// sends that channel has seen) — the interleaving of different channels
/// is irrelevant. Straggler and pause assignments are pure functions of
/// (seed, num_ranks), so shard-local Injector copies constructed from the
/// same config agree on them.
class Injector {
 public:
  Injector(const FaultConfig& config, std::uint32_t num_ranks);

  const FaultConfig& config() const noexcept { return cfg_; }
  bool enabled() const noexcept { return cfg_.enabled(); }
  const FaultStats& stats() const noexcept { return stats_; }

  using ChannelStates = support::OpenTable<ChannelFaultState>;

  /// Per-channel send counters and drop/dup tallies, keyed by the network's
  /// (src<<32)|dst channel key. Only channels that saw at least one
  /// plan_send appear. Iterate as `for (const auto& [key, state] : ...)`;
  /// the visiting order is the table's slot order, so sum, do not sequence.
  const ChannelStates& channels() const noexcept { return channels_; }

  /// One decision per network send on channel `channel_key` (the network's
  /// (src<<32)|dst key). Mutates the send counter and the fault stats.
  SendPlan plan_send(std::uint64_t channel_key, MsgClass cls,
                     std::uint32_t bytes);

  /// Straggler model: the per-node expansion cost this rank actually pays.
  support::SimTime scaled_node_cost(std::uint32_t rank,
                                    support::SimTime cost) const;
  bool is_straggler(std::uint32_t rank) const noexcept {
    return rank < straggler_.size() && straggler_[rank] != 0;
  }

  /// Start time of `rank`'s one transient pause, if it has one.
  std::optional<support::SimTime> pause_start(std::uint32_t rank) const;

  /// Whether the directed channel is persistently degraded (pure function of
  /// seed and channel; no counter involved).
  bool link_degraded(std::uint64_t channel_key) const;

 private:
  double unit_draw(std::uint64_t salt, std::uint64_t key) const;

  FaultConfig cfg_;
  FaultStats stats_;
  /// Per-channel state (the replayed dimension). A channel's draws are a
  /// pure function of its own send count, never of other channels' traffic.
  ChannelStates channels_;
  std::vector<std::uint8_t> straggler_;     // per rank
  std::vector<support::SimTime> pause_at_;  // per rank; <0 = no pause
};

}  // namespace dws::fault
