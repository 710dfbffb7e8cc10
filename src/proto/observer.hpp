#pragma once

#include <cstdint>

#include "metrics/trace.hpp"
#include "support/sim_time.hpp"
#include "topo/allocation.hpp"
#include "uts/node.hpp"
#include "proto/message.hpp"

namespace dws::proto {

/// Passive observation hooks into one run — simulated (ws::run_simulation)
/// or native (rt::run_native); every hook is a pure notification — observers
/// must not mutate scheduler state, and the simulation's behaviour (event
/// order, results, traces) is bit-identical with or without one attached.
/// On the native backend hooks may fire from any rank thread; rt serializes
/// them through a mutex before they reach user observers.
///
/// Decorators that stand between a run and its observer (the sharded
/// BufferedObserver, rt's mutex, the audit fuzzer's liar) derive from
/// HookRecorder (proto/replay.hpp), which hands every hook to one on_hook as
/// a HookRecord; proto::replay turns a record back into the call. Adding a
/// hook here means one capture in HookRecorder and one case in replay().
///
/// This is the seam the dws::audit invariant checkers hang off: the peer
/// reports node expansions, chunk movement, steal request/response pairs,
/// token traffic and phase transitions, and the auditor replays its own
/// conservation ledger against them. Hooks are only invoked when an observer
/// is attached (a single null check per site), so runs without auditing pay
/// nothing.
class RunObserver {
 public:
  virtual ~RunObserver() = default;

  /// Rank `rank` seeded the tree root at t = 0.
  virtual void on_root(topo::Rank rank, const uts::TreeNode& root) {
    (void)rank, (void)root;
  }
  /// Rank popped `node` and generated `children` children.
  virtual void on_node_expanded(topo::Rank rank, const uts::TreeNode& node,
                                std::uint32_t children) {
    (void)rank, (void)node, (void)children;
  }

  /// Thief sent a steal request of `bytes` payload bytes to `victim`.
  virtual void on_steal_request_sent(topo::Rank thief, topo::Rank victim,
                                     std::uint32_t bytes) {
    (void)thief, (void)victim, (void)bytes;
  }
  /// Victim answered `thief`'s request with `chunks` chunks carrying `nodes`
  /// tree nodes (0/0 is a refusal) in a `bytes`-byte response.
  virtual void on_steal_response_sent(topo::Rank victim, topo::Rank thief,
                                      std::uint64_t chunks, std::uint64_t nodes,
                                      std::uint32_t bytes) {
    (void)victim, (void)thief, (void)chunks, (void)nodes, (void)bytes;
  }
  /// Thief received the response to its outstanding request to `victim`.
  virtual void on_steal_response_received(topo::Rank thief, topo::Rank victim,
                                          std::uint64_t chunks,
                                          std::uint64_t nodes) {
    (void)thief, (void)victim, (void)chunks, (void)nodes;
  }

  /// kLifeline: dormant `rank` registered with buddy `target`.
  virtual void on_lifeline_register_sent(topo::Rank rank, topo::Rank target,
                                         std::uint32_t bytes) {
    (void)rank, (void)target, (void)bytes;
  }
  /// kLifeline: `from` pushed surplus work to dormant dependent `to`.
  virtual void on_lifeline_push_sent(topo::Rank from, topo::Rank to,
                                     std::uint64_t chunks, std::uint64_t nodes,
                                     std::uint32_t bytes) {
    (void)from, (void)to, (void)chunks, (void)nodes, (void)bytes;
  }
  /// kLifeline: `rank` received an unsolicited work push.
  virtual void on_lifeline_push_received(topo::Rank rank, std::uint64_t chunks,
                                         std::uint64_t nodes) {
    (void)rank, (void)chunks, (void)nodes;
  }

  /// Thief's request `attempt` (0 = the initial send) to `victim` timed out
  /// (WsConfig::steal_timeout) and was abandoned.
  virtual void on_steal_timeout(topo::Rank thief, topo::Rank victim,
                                std::uint32_t attempt) {
    (void)thief, (void)victim, (void)attempt;
  }
  /// Thief discarded a network-duplicated steal response whose id it had
  /// already consumed (only possible under fault injection).
  virtual void on_duplicate_response(topo::Rank thief, std::uint64_t chunks,
                                     std::uint64_t nodes) {
    (void)thief, (void)chunks, (void)nodes;
  }
  /// Adaptive feedback (DESIGN.md §14): `thief` resolved its current steal
  /// request to `victim` and its selector now holds the given per-victim
  /// EWMAs. `success` means a response arrived — refusals included; only
  /// timeouts are failures (see VictimSelector::on_steal_result for why the
  /// seam tracks reachability, not work availability). Fires only when
  /// the active selector keeps feedback state (kAdaptive), immediately after
  /// the corresponding on_steal_response_received / on_steal_timeout, so the
  /// auditor can replay the EWMA evolution sharded.
  virtual void on_steal_feedback(topo::Rank thief, topo::Rank victim,
                                 bool success, support::SimTime rtt,
                                 double success_ewma, double rtt_ewma) {
    (void)thief, (void)victim, (void)success, (void)rtt;
    (void)success_ewma, (void)rtt_ewma;
  }

  /// Termination token forwarded from `from` to `to`.
  virtual void on_token_sent(topo::Rank from, topo::Rank to, const Token& t) {
    (void)from, (void)to, (void)t;
  }
  /// Rank 0 accepted a returning probe of the current generation. Under
  /// faults this — not the last on_token_sent to rank 0, which may be a
  /// discarded stale token — is the probe that termination reasoning uses.
  virtual void on_token_accepted(topo::Rank rank, const Token& t) {
    (void)rank, (void)t;
  }
  /// Rank 0 gave up on circulation `generation` (WsConfig::token_timeout)
  /// and will launch a fresh one.
  virtual void on_token_regenerated(topo::Rank rank, std::uint32_t generation) {
    (void)rank, (void)generation;
  }
  /// Rank entered `phase` at virtual time `t` (mirrors RankTrace::record,
  /// including re-records of the current phase that the trace collapses).
  virtual void on_phase(topo::Rank rank, support::SimTime t, metrics::Phase p) {
    (void)rank, (void)t, (void)p;
  }
  /// Rank 0 declared global termination at virtual time `t`.
  virtual void on_termination(support::SimTime t) { (void)t; }
  /// Rank learnt of termination (entered its final Done state) at `t`.
  virtual void on_finish(topo::Rank rank, support::SimTime t) {
    (void)rank, (void)t;
  }
};

}  // namespace dws::proto
