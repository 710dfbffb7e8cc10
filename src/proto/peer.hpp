#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "metrics/rank_stats.hpp"
#include "metrics/trace.hpp"
#include "proto/chunk_stack.hpp"
#include "proto/config.hpp"
#include "proto/message.hpp"
#include "proto/payload_store.hpp"
#include "proto/transport.hpp"
#include "proto/victim.hpp"
#include "topo/latency.hpp"

namespace dws::proto {

class RunObserver;

/// The transport-agnostic protocol state machine of one rank in the paper's
/// UTS work-stealing implementation (Fig. 1):
///
///   while not finished:
///     while node <- GET(stack):   expand node, PUSH children
///     while stack empty:          v <- SELECT_VICTIM; STEAL(v)
///
/// The Peer owns everything that is *protocol*: the chunked work stack, the
/// victim selector, the steal request/response conversation (including the
/// timeout/retry/backoff machine and duplicate filtering of DESIGN.md §10),
/// lifeline registration/pushes, and Dijkstra/Mattern token termination. It
/// owns nothing that is *execution*: node expansion, message delivery order,
/// polling cadence, and timers belong to the binding, which feeds the peer
/// typed inbound messages plus the current time and receives outbound sends
/// through a Transport.
///
/// Every entry point takes `now` explicitly; the peer never reads a clock.
/// Calls into the Transport happen in a deterministic order that the
/// simulator binding relies on for bit-identical event sequences (e.g. the
/// token timer is armed *before* the token enters the network; the steal
/// request is sent *before* its timer is armed).
///
/// Termination detection (token ring 0 -> 1 -> ... -> N-1 -> 0): rank 0
/// launches a probe whenever it is idle and no probe is circulating. A rank
/// holding the token forwards it only while idle, adding its color and its
/// cumulative counters of work-carrying messages sent/received, then turns
/// white. Two rules blacken the protocol:
///
///  (1) Color (Dijkstra-style, conservative): ANY rank that ships work turns
///      black until its next token forward. This is strictly stronger than
///      the classic "send to a lower rank" rule, so every interleaving the
///      classic rule flags, this flags too.
///  (2) Counting (Mattern-style): the probe also fails when the accumulated
///      sent != received — which is exactly the case of a work message still
///      in flight when the token passed both endpoints white (the known gap
///      of color-only schemes under asynchronous delivery).
///
/// Rank 0 declares termination iff the returning token is white, rank 0 is
/// itself white and idle, and sent == recv. The test suite backs this with a
/// conservation oracle (total nodes processed == sequential tree size, and
/// chunks sent == chunks received) over hundreds of randomized runs, on both
/// the simulator and the native-thread bindings.
class Peer final {
 public:
  enum class State {
    kActive,  ///< stack non-empty; expanding nodes
    kIdle,    ///< stack empty; stealing (a request may be outstanding)
    kDone,    ///< terminated
  };

  struct Params {
    topo::Rank rank = 0;
    topo::Rank num_ranks = 1;
    /// True when the run's transport may drop or duplicate messages (the
    /// simulator under fault injection). Enables the victim-side duplicate-
    /// request filter and permits duplicate responses; with a reliable
    /// transport an unmatched response is a protocol bug and aborts.
    bool lossy_transport = false;
    /// The run's store for chunks in transit, shared by every peer of the
    /// run. Required whenever num_ranks > 1.
    PayloadStore* payloads = nullptr;
  };

  /// `latency` may be null only for single-rank runs (no victims to pick,
  /// no steal distances to measure). `observer` is optional and passive.
  Peer(const WsConfig& config, const Params& params,
       const topo::LatencyModel* latency, Transport& transport,
       RunObserver* observer);

  // ---- Binding entry points (all take the current time) ----

  /// Rank 0, t = 0: seed the tree root and go Active (fires activated()).
  void seed_root(const uts::TreeNode& root);
  /// The stack just ran dry at an execution boundary (or the rank starts
  /// without work): begin a work-discovery session.
  void on_out_of_work(support::SimTime now);
  /// Inbound message dispatch. Steal requests are served with zero
  /// packaging delay; use on_steal_request directly to charge one.
  void on_message(const Message& msg, support::SimTime now);
  /// A steal request whose response should leave after `send_delay` (the
  /// victim-side packaging time accumulated at this poll boundary).
  void on_steal_request(const StealRequest& req, support::SimTime now,
                        support::SimTime send_delay);
  /// The steal timer armed for `request_id` fired.
  void on_steal_timeout(std::uint32_t request_id, support::SimTime now);
  /// Rank 0's token timer armed for `generation` fired.
  void on_token_timeout(std::uint32_t generation, support::SimTime now);
  /// kLifeline: hand surplus chunks to dormant dependents (called by the
  /// binding at poll points). Returns how many dependents were fed, so the
  /// binding can charge steal_handling_cost each.
  std::size_t feed_lifeline_dependents(support::SimTime now);

  // ---- Elastic rank leases (svc time-sharing; DESIGN.md §13) ----

  /// Park / unpark this rank. A parked rank stays a full protocol citizen —
  /// it answers steal requests (refusing like any empty victim), forwards
  /// and launches termination tokens — but initiates no steals of its own:
  /// try_steal and same-victim retries are suppressed until unparked.
  /// Unparking a quiescent idle rank restarts the steal loop immediately.
  void set_parked(bool parked, support::SimTime now);
  bool parked() const noexcept { return parked_; }

  /// Hand the ENTIRE stack (private chunk included) to `target` as a
  /// reliable LifelinePush and fall back to idle via on_out_of_work. Called
  /// by the binding when a parked rank acquires work (its lease was revoked,
  /// or work landed after the revoke): the work must migrate to a rank that
  /// still holds a lease, else the job could deadlock — the private chunk is
  /// unreachable through ordinary steals. Requires a non-empty stack.
  void relinquish(topo::Rank target, support::SimTime now);

  // ---- Introspection ----

  bool has_dependents() const noexcept { return !registered_dependents_.empty(); }
  State state() const noexcept { return state_; }
  bool active() const noexcept { return state_ == State::kActive; }
  /// True once this rank has learnt of global termination.
  bool done() const noexcept { return state_ == State::kDone; }

  ChunkStack& stack() noexcept { return stack_; }
  const ChunkStack& stack() const noexcept { return stack_; }
  /// Mutable: the binding charges execution-side counters (nodes processed,
  /// leaves seen) directly.
  metrics::RankStats& stats() noexcept { return stats_; }
  const metrics::RankStats& stats() const noexcept { return stats_; }
  const metrics::RankTrace& trace() const noexcept { return trace_; }
  topo::Rank rank() const noexcept { return rank_; }

 private:
  /// trace_.record plus the observer's on_phase hook.
  void record_phase(support::SimTime t, metrics::Phase p);
  void handle_steal_response(const StealResponse& resp, support::SimTime now);
  void handle_token(Token token, support::SimTime now);
  void handle_lifeline_register(const LifelineRegister& reg);
  void receive_pushed_work(const ChunkBatch& batch, support::SimTime now);
  /// Parks the (non-empty) chunks leaving this rank and charges the sender
  /// side of the transfer: chunks_sent, rule (1) blackening and the Mattern
  /// sent counter.
  ChunkBatch ship(std::vector<Chunk> chunks);
  /// Wire size of a response or push carrying `batch`.
  std::uint32_t wire_bytes(const ChunkBatch& batch) const noexcept {
    return config_.response_header_bytes +
           static_cast<std::uint32_t>(batch.nodes) * config_.node_bytes;
  }
  void register_on_lifelines();
  void try_steal(support::SimTime now);
  /// Sends one steal request (fresh id, timer when steal_timeout > 0).
  void send_steal_request(topo::Rank victim, support::SimTime now);
  /// Resolution of the *current* steal request (response or timeout):
  /// feeds the selector's feedback seam, fires on_steal_feedback when the
  /// selector keeps EWMA state, and drives the adaptive steal-amount
  /// preference from the yield (`nodes` stolen; 0 on failure).
  void note_steal_result(topo::Rank victim, bool success, support::SimTime rtt,
                         std::uint64_t nodes);
  /// What the next steal request asks for under adaptive_steal_amount.
  bool want_half() const noexcept {
    return config_.adaptive_steal_amount && steal_half_pref_;
  }
  void send_token(bool black, std::uint64_t sent_acc = 0,
                  std::uint64_t recv_acc = 0, std::uint32_t generation = 0);
  void declare_termination(support::SimTime now);
  void finish(support::SimTime at);

  topo::Rank rank_;
  topo::Rank num_ranks_;
  bool lossy_transport_;
  const WsConfig& config_;
  const topo::LatencyModel* latency_;
  PayloadStore* payloads_;
  Transport& transport_;
  RunObserver* observer_;

  ChunkStack stack_;
  std::unique_ptr<VictimSelector> selector_;

  State state_ = State::kIdle;
  bool waiting_response_ = false;
  bool parked_ = false;  // svc lease revoked: no steal initiation

  // Termination detection (see class comment).
  bool black_ = false;
  bool holds_token_ = false;
  Token held_token_;
  bool token_outstanding_ = false;  // rank 0 only: a probe is circulating
  std::uint64_t work_msgs_sent_ = 0;
  std::uint64_t work_msgs_recv_ = 0;

  support::SimTime session_start_ = 0;
  support::SimTime request_sent_ = 0;
  topo::Rank request_victim_ = 0;  // victim of the outstanding request

  // Steal-protocol robustness (WsConfig::steal_timeout; DESIGN.md §10).
  std::uint32_t next_request_id_ = 0;     // last id issued (ids start at 1)
  std::uint32_t current_request_id_ = 0;  // id of the outstanding request
  std::uint32_t retry_attempt_ = 0;       // same-victim retries so far
  /// Requests abandoned by a timeout whose answer has not arrived yet; a
  /// late work-carrying answer is banked, anything else is discarded.
  struct AbandonedRequest {
    std::uint32_t id = 0;
    topo::Rank victim = 0;
  };
  std::vector<AbandonedRequest> abandoned_requests_;
  /// Victim side, lossy transports only: the highest request id seen from
  /// each thief, indexed by the thief's job-local rank; repeats are network
  /// duplicates and must not be answered twice. Ids start at 1, so 0 reads
  /// "none seen". Sized to num_ranks_ by the first request served, so a
  /// rank that serves none allocates nothing. Memory trade: 4 * num_ranks_
  /// bytes per serving victim, where a hash map held only the thieves seen
  /// but spent ~40 bytes and one allocation on each, and a hash lookup on
  /// every request served.
  std::vector<std::uint32_t> last_request_seen_;

  // Adaptive steal amount (WsConfig::adaptive_steal_amount; DESIGN.md §14):
  // EWMA of nodes gained per successful steal; below the yield threshold the
  // thief asks for half, above it a single chunk suffices.
  bool steal_half_pref_ = false;  // seeded from steal_amount in the ctor
  bool yield_seen_ = false;       // first success initialises the EWMA
  double yield_ewma_ = 0.0;

  // Token regeneration (WsConfig::token_timeout).
  std::uint32_t token_generation_ = 0;    // rank 0: current probe generation
  std::uint32_t max_token_gen_seen_ = 0;  // other ranks: stale/dup filter

  // Lifeline extension (IdlePolicy::kLifeline).
  bool dormant_ = false;                       // registered, not stealing
  std::uint32_t session_failures_ = 0;         // failed steals this session
  std::vector<topo::Rank> lifeline_targets_;   // our hypercube buddies
  std::vector<topo::Rank> registered_dependents_;  // who waits on us

  metrics::RankStats stats_;
  metrics::RankTrace trace_;
};

}  // namespace dws::proto
