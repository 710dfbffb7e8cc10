#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "metrics/trace.hpp"
#include "proto/message.hpp"
#include "proto/observer.hpp"
#include "support/sim_time.hpp"
#include "topo/allocation.hpp"
#include "uts/node.hpp"

namespace dws::proto {

/// One RunObserver hook call, flattened into a POD. Field use per kind
/// mirrors the RunObserver signature: ranks in a/b, wide counters in u/v,
/// narrow values (bytes, attempt, children, generation, success) in w, the
/// explicit time argument (or on_steal_feedback's rtt) in t. on_steal_feedback
/// carries its EWMAs in u/v as bit patterns, so they replay bit-exact.
struct HookRecord {
  enum class Kind : std::uint8_t {
    kRoot,
    kNodeExpanded,
    kStealRequestSent,
    kStealResponseSent,
    kStealResponseReceived,
    kLifelineRegisterSent,
    kLifelinePushSent,
    kLifelinePushReceived,
    kStealTimeout,
    kDuplicateResponse,
    kStealFeedback,
    kTokenSent,
    kTokenAccepted,
    kTokenRegenerated,
    kPhase,
    kTermination,
    kFinish,
  };

  Kind kind = Kind::kRoot;
  metrics::Phase phase = metrics::Phase::kIdle;
  topo::Rank a = 0;
  topo::Rank b = 0;
  std::uint32_t w = 0;
  support::SimTime when = 0;  ///< stamped by BufferedObserver; 0 elsewhere
  support::SimTime t = 0;
  std::uint64_t u = 0;
  std::uint64_t v = 0;
  uts::TreeNode node{};
  Token token{};
};

/// Re-invokes on `obs` the hook call that `r` records, with the original
/// arguments bit-exact.
void replay(const HookRecord& r, RunObserver& obs);

/// A RunObserver that funnels every hook into one HookRecord and hands it to
/// on_hook. Observer decorators (buffering, locking, fault-injecting) derive
/// from it and usually end with replay(record, inner); a new hook then needs
/// one capture here and one case in replay(), not one forwarder per
/// decorator.
class HookRecorder : public RunObserver {
 public:
  virtual void on_hook(const HookRecord& record) = 0;

  void on_root(topo::Rank rank, const uts::TreeNode& root) final;
  void on_node_expanded(topo::Rank rank, const uts::TreeNode& node,
                        std::uint32_t children) final;
  void on_steal_request_sent(topo::Rank thief, topo::Rank victim,
                             std::uint32_t bytes) final;
  void on_steal_response_sent(topo::Rank victim, topo::Rank thief,
                              std::uint64_t chunks, std::uint64_t nodes,
                              std::uint32_t bytes) final;
  void on_steal_response_received(topo::Rank thief, topo::Rank victim,
                                  std::uint64_t chunks,
                                  std::uint64_t nodes) final;
  void on_lifeline_register_sent(topo::Rank rank, topo::Rank target,
                                 std::uint32_t bytes) final;
  void on_lifeline_push_sent(topo::Rank from, topo::Rank to,
                             std::uint64_t chunks, std::uint64_t nodes,
                             std::uint32_t bytes) final;
  void on_lifeline_push_received(topo::Rank rank, std::uint64_t chunks,
                                 std::uint64_t nodes) final;
  void on_steal_timeout(topo::Rank thief, topo::Rank victim,
                        std::uint32_t attempt) final;
  void on_duplicate_response(topo::Rank thief, std::uint64_t chunks,
                             std::uint64_t nodes) final;
  void on_steal_feedback(topo::Rank thief, topo::Rank victim, bool success,
                         support::SimTime rtt, double success_ewma,
                         double rtt_ewma) final;
  void on_token_sent(topo::Rank from, topo::Rank to, const Token& t) final;
  void on_token_accepted(topo::Rank rank, const Token& t) final;
  void on_token_regenerated(topo::Rank rank, std::uint32_t generation) final;
  void on_phase(topo::Rank rank, support::SimTime t, metrics::Phase p) final;
  void on_termination(support::SimTime t) final;
  void on_finish(topo::Rank rank, support::SimTime t) final;
};

/// Deterministic observer fan-in for the sharded simulator core
/// (DESIGN.md §12).
///
/// Each shard thread gets its own BufferedObserver: every hook call is
/// buffered as a HookRecord stamped with the shard engine's current virtual
/// time (hook signatures mostly carry no timestamp, so the buffer asks the
/// `clock` callback). At each window barrier, a single thread calls
/// replay_merged, which interleaves all shards' records by
/// (time, shard, buffer index) and re-invokes the hooks on the downstream
/// observer — so the auditor (or any user observer) sees one globally
/// time-ordered, run-to-run deterministic call stream no matter how the
/// shard threads raced in wall-clock time.
///
/// Within a shard the buffer is naturally time-ordered (hooks fire during
/// event execution and virtual time is nondecreasing), so replay_merged is a
/// k-way merge implemented as a sort keyed (when, shard, index).
class BufferedObserver final : public HookRecorder {
 public:
  using Clock = std::function<support::SimTime()>;

  /// `clock` must return the owning shard engine's current virtual time; it
  /// is called once per hook invocation.
  explicit BufferedObserver(Clock clock) : clock_(std::move(clock)) {}

  const std::vector<HookRecord>& records() const noexcept { return records_; }

  /// Replay every buffered record from `shards` (indexed by shard id) into
  /// `downstream` in (when, shard, index) order, then clear the buffers.
  /// Must be called while no shard thread is executing (a barrier phase).
  static void replay_merged(const std::vector<BufferedObserver*>& shards,
                            RunObserver& downstream);

  void on_hook(const HookRecord& record) override {
    records_.emplace_back(record).when = clock_();
  }

 private:
  Clock clock_;
  std::vector<HookRecord> records_;
};

}  // namespace dws::proto
