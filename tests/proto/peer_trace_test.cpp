// Protocol-core parity tests (DESIGN.md §11): drive proto::Peer with
// scripted message traces through a recording Transport and assert the exact
// decision sequences — every send (destination, payload, bytes, fault class),
// every timer armed, every lifecycle signal, in order.
//
// The expected sequences below are the goldens: they transcribe the
// pre-extraction ws::Worker behaviour (steal/refusal cycling, timeout/retry
// with exponential backoff, late-answer banking, duplicate filtering, token
// generation filtering) so any drift in the refactored core fails loudly.
// Full-run byte-identity is separately pinned by the golden fig06 record test
// (tests/exp) — these traces pin the *decision* layer in isolation, on a
// scripted clock, where each divergence names the exact protocol step.
#include "proto/peer.hpp"

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "proto/config.hpp"
#include "proto/message.hpp"
#include "proto/observer.hpp"
#include "proto/payload_store.hpp"
#include "proto/transport.hpp"
#include "topo/allocation.hpp"
#include "topo/latency.hpp"
#include "uts/node.hpp"

namespace dws::proto {
namespace {

uts::TreeNode node_at(std::uint32_t height) {
  uts::TreeNode n;
  n.height = height;
  return n;
}

std::string cls_name(fault::MsgClass cls) {
  switch (cls) {
    case fault::MsgClass::kReliable:
      return "reliable";
    case fault::MsgClass::kDroppable:
      return "droppable";
    case fault::MsgClass::kDupOnly:
      return "dup-only";
  }
  return "?";
}

std::string describe(const Message& msg) {
  return std::visit(
      [](const auto& m) -> std::string {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, StealRequest>) {
          return "req{thief=" + std::to_string(m.thief) +
                 ",id=" + std::to_string(m.request_id) + "}";
        } else if constexpr (std::is_same_v<T, StealResponse>) {
          return "resp{id=" + std::to_string(m.request_id) +
                 ",chunks=" + std::to_string(m.chunks.chunks) +
                 ",nodes=" + std::to_string(m.chunks.nodes) + "}";
        } else if constexpr (std::is_same_v<T, Token>) {
          return "token{gen=" + std::to_string(m.generation) +
                 ",black=" + std::to_string(m.black) +
                 ",sent=" + std::to_string(m.sent) +
                 ",recv=" + std::to_string(m.recv) + "}";
        } else if constexpr (std::is_same_v<T, Terminate>) {
          return "terminate";
        } else if constexpr (std::is_same_v<T, LifelineRegister>) {
          return "reg{dep=" + std::to_string(m.dependent) + "}";
        } else {
          static_assert(std::is_same_v<T, LifelinePush>);
          return "push{chunks=" + std::to_string(m.chunks.chunks) + "}";
        }
      },
      msg);
}

/// Records every Transport call as one formatted line, in call order. The
/// sent messages are also kept verbatim so tests can loop them back.
class ScriptTransport final : public Transport {
 public:
  void send(topo::Rank to, Message msg, std::uint32_t bytes,
            fault::MsgClass cls) override {
    ops.push_back("send to=" + std::to_string(to) + " " + describe(msg) +
                  " bytes=" + std::to_string(bytes) + " " + cls_name(cls));
    sent.push_back(std::move(msg));
  }
  void send_deferred(support::SimTime delay, topo::Rank to, StealResponse resp,
                     std::uint32_t bytes, fault::MsgClass cls) override {
    ops.push_back("defer delay=" + std::to_string(delay) +
                  " to=" + std::to_string(to) + " " + describe(Message{resp}) +
                  " bytes=" + std::to_string(bytes) + " " + cls_name(cls));
    sent.push_back(std::move(resp));
  }
  void arm_steal_timer(support::SimTime delay,
                       std::uint32_t request_id) override {
    ops.push_back("arm-steal delay=" + std::to_string(delay) +
                  " id=" + std::to_string(request_id));
  }
  void arm_token_timer(support::SimTime delay,
                       std::uint32_t generation) override {
    ops.push_back("arm-token delay=" + std::to_string(delay) +
                  " gen=" + std::to_string(generation));
  }
  void activated() override { ops.push_back("activated"); }
  void terminated(support::SimTime at) override {
    ops.push_back("terminated at=" + std::to_string(at));
  }

  std::vector<std::string> take() { return std::exchange(ops, {}); }

  std::vector<std::string> ops;
  std::vector<Message> sent;
};

using Trace = std::vector<std::string>;

/// One scripted peer: default K-Computer geometry, kRoundRobin victims so
/// every pick in the goldens is predictable (rank i starts at i+1 mod N).
/// It owns the payload store its peer parks in and takes from, and parks
/// the scripted inbound work there too.
class ScriptedPeer {
 public:
  ScriptedPeer(WsConfig config, topo::Rank rank, topo::Rank num_ranks,
               bool lossy = false, RunObserver* observer = nullptr)
      : config_(config),
        layout_(machine_, num_ranks, topo::Placement::kOnePerNode),
        latency_(layout_),
        peer_(config_, Peer::Params{rank, num_ranks, lossy, &store_},
              &latency_, transport_, observer) {}

  Peer& peer() { return peer_; }
  ScriptTransport& transport() { return transport_; }
  PayloadStore& store() { return store_; }
  Trace take() { return transport_.take(); }

  /// One parked chunk of `nodes` nodes, as a victim would ship it.
  ChunkBatch work(std::size_t nodes) {
    Chunk chunk;
    for (std::size_t i = 0; i < nodes; ++i) chunk.push_back(node_at(1));
    std::vector<Chunk> chunks;
    chunks.push_back(std::move(chunk));
    return store_.park(std::move(chunks));
  }
  StealResponse work_response(std::uint32_t id, std::size_t nodes) {
    StealResponse r;
    r.request_id = id;
    r.chunks = work(nodes);
    return r;
  }

 private:
  WsConfig config_;
  topo::TofuMachine machine_;
  topo::JobLayout layout_;
  topo::LatencyModel latency_;
  ScriptTransport transport_;
  PayloadStore store_;
  Peer peer_;
};

StealResponse refusal(std::uint32_t id) {
  StealResponse r;
  r.request_id = id;
  return r;
}

// ---------------------------------------------------------------------------
// Steal conversation
// ---------------------------------------------------------------------------

TEST(PeerTrace, RefusalsWalkTheRoundRobinRingWithFreshIds) {
  WsConfig cfg;  // steal_timeout = 0: the blocking reference protocol
  ScriptedPeer s(cfg, /*rank=*/1, /*num_ranks=*/4);

  s.peer().on_out_of_work(0);
  EXPECT_EQ(s.take(), Trace({"send to=2 req{thief=1,id=1} bytes=16 droppable"}));

  s.peer().on_message(refusal(1), 100);
  EXPECT_EQ(s.take(), Trace({"send to=3 req{thief=1,id=2} bytes=16 droppable"}));

  s.peer().on_message(refusal(2), 200);
  EXPECT_EQ(s.take(), Trace({"send to=0 req{thief=1,id=3} bytes=16 droppable"}));

  EXPECT_EQ(s.peer().stats().steal_attempts, 3u);
  EXPECT_EQ(s.peer().stats().failed_steals, 2u);
  EXPECT_EQ(s.peer().state(), Peer::State::kIdle);
}

TEST(PeerTrace, WorkResponseInstallsChunksAndActivates) {
  WsConfig cfg;
  ScriptedPeer s(cfg, 1, 4);

  s.peer().on_out_of_work(0);
  s.take();
  s.peer().on_message(s.work_response(1, 20), 500);

  // 16B header + 20 nodes * 24B — exactly what the victim side charges.
  EXPECT_EQ(s.take(), Trace({"activated"}));
  EXPECT_EQ(s.peer().state(), Peer::State::kActive);
  EXPECT_EQ(s.peer().stack().size(), 20u);
  EXPECT_EQ(s.peer().stats().successful_steals, 1u);
  EXPECT_EQ(s.peer().stats().chunks_received, 1u);
  EXPECT_EQ(s.peer().stats().total_search_time, 500);
}

TEST(PeerTrace, VictimRefusesWhenPrivateChunkIsAllItHas) {
  WsConfig cfg;
  ScriptedPeer s(cfg, 0, 4);
  s.peer().seed_root(node_at(0));
  s.take();

  // One node = one private working chunk: nothing stealable, refuse.
  s.peer().on_message(StealRequest{2, 1}, 50);
  EXPECT_EQ(s.take(),
            Trace({"send to=2 resp{id=1,chunks=0,nodes=0} bytes=16 droppable"}));
  EXPECT_EQ(s.peer().stats().requests_served, 1u);
  EXPECT_EQ(s.peer().stats().chunks_sent, 0u);
}

TEST(PeerTrace, VictimShipsOneChunkAndDefersAtPollBoundaries) {
  WsConfig cfg;  // chunk_size 20, kOneChunk
  ScriptedPeer s(cfg, 0, 4);
  s.peer().seed_root(node_at(0));
  for (int i = 1; i < 41; ++i) s.peer().stack().push(node_at(1));
  s.take();

  // 41 nodes = chunks (20, 20, 1): two stealable, one shipped. Work-carrying
  // responses are kDupOnly — droppable would lose nodes irrecoverably.
  s.peer().on_message(StealRequest{3, 1}, 50);
  EXPECT_EQ(s.take(),
            Trace({"send to=3 resp{id=1,chunks=1,nodes=20} bytes=496 dup-only"}));

  // A request drained at a poll boundary charges the packaging delay to the
  // send instead (the simulator binding's steal_handling_cost path).
  s.peer().on_steal_request(StealRequest{2, 1}, 60, /*send_delay=*/300);
  EXPECT_EQ(s.take(), Trace({"defer delay=300 to=2 resp{id=1,chunks=1,nodes=20} "
                             "bytes=496 dup-only"}));
  EXPECT_EQ(s.peer().stats().chunks_sent, 2u);
}

// ---------------------------------------------------------------------------
// Timeout / retry / backoff (DESIGN.md §10)
// ---------------------------------------------------------------------------

TEST(PeerTrace, TimeoutsRetrySameVictimWithExponentialBackoffThenMoveOn) {
  WsConfig cfg;
  cfg.steal_timeout = 1000;
  cfg.steal_backoff = 2.0;
  cfg.steal_retry_max = 2;
  ScriptedPeer s(cfg, 1, 4);

  // Request before timer: the documented Transport call order.
  s.peer().on_out_of_work(0);
  EXPECT_EQ(s.take(), Trace({"send to=2 req{thief=1,id=1} bytes=16 droppable",
                             "arm-steal delay=1000 id=1"}));

  // Retry 1: same victim, doubled timer.
  s.peer().on_steal_timeout(1, 1000);
  EXPECT_EQ(s.take(), Trace({"send to=2 req{thief=1,id=2} bytes=16 droppable",
                             "arm-steal delay=2000 id=2"}));

  // Retry 2: same victim, doubled again.
  s.peer().on_steal_timeout(2, 3000);
  EXPECT_EQ(s.take(), Trace({"send to=2 req{thief=1,id=3} bytes=16 droppable",
                             "arm-steal delay=4000 id=3"}));

  // Retries exhausted: next ring victim, timer back at the base.
  s.peer().on_steal_timeout(3, 7000);
  EXPECT_EQ(s.take(), Trace({"send to=3 req{thief=1,id=4} bytes=16 droppable",
                             "arm-steal delay=1000 id=4"}));

  // Stale timer for an abandoned id: filtered, no decisions.
  s.peer().on_steal_timeout(3, 7500);
  EXPECT_EQ(s.take(), Trace{});

  EXPECT_EQ(s.peer().stats().steal_timeouts, 3u);
  EXPECT_EQ(s.peer().stats().steal_retries, 2u);
}

TEST(PeerTrace, ExtremeBackoffSaturatesTheTimerInsteadOfOverflowing) {
  // steal_backoff^retry would overflow SimTime after one retry; the wait
  // must saturate (at half the SimTime range, clear of the run loop's +inf
  // sentinel), not wrap through the undefined double->int cast.
  WsConfig cfg;
  cfg.steal_timeout = 1000;
  cfg.steal_backoff = 1e18;
  cfg.steal_retry_max = 2;
  ScriptedPeer s(cfg, 1, 4);
  const std::string saturated =
      std::to_string(std::numeric_limits<support::SimTime>::max() / 2);

  s.peer().on_out_of_work(0);
  EXPECT_EQ(s.take(), Trace({"send to=2 req{thief=1,id=1} bytes=16 droppable",
                             "arm-steal delay=1000 id=1"}));

  // Retry 1: 1000 * 1e18 blows past the cap -> pinned, same victim.
  s.peer().on_steal_timeout(1, 1000);
  EXPECT_EQ(s.take(), Trace({"send to=2 req{thief=1,id=2} bytes=16 droppable",
                             "arm-steal delay=" + saturated + " id=2"}));

  // Retry 2: already saturated, stays pinned instead of multiplying on.
  s.peer().on_steal_timeout(2, 2000);
  EXPECT_EQ(s.take(), Trace({"send to=2 req{thief=1,id=3} bytes=16 droppable",
                             "arm-steal delay=" + saturated + " id=3"}));
  EXPECT_EQ(s.peer().stats().steal_retries, 2u);
}

// ---------------------------------------------------------------------------
// Adaptive feedback seam (DESIGN.md §14)
// ---------------------------------------------------------------------------

/// Records the resolution + feedback hook stream: event order is the golden,
/// the EWMA values are checked numerically.
class FeedbackObserver final : public RunObserver {
 public:
  void on_steal_response_received(topo::Rank thief, topo::Rank victim,
                                  std::uint64_t chunks,
                                  std::uint64_t nodes) override {
    events.push_back("recv victim=" + std::to_string(victim) +
                     " chunks=" + std::to_string(chunks) +
                     " nodes=" + std::to_string(nodes));
    (void)thief;
  }
  void on_steal_timeout(topo::Rank thief, topo::Rank victim,
                        std::uint32_t attempt) override {
    events.push_back("timeout victim=" + std::to_string(victim) +
                     " attempt=" + std::to_string(attempt));
    (void)thief;
  }
  void on_steal_feedback(topo::Rank thief, topo::Rank victim, bool success,
                         support::SimTime rtt, double success_ewma,
                         double rtt_ewma) override {
    events.push_back("feedback victim=" + std::to_string(victim) +
                     " success=" + std::to_string(success) +
                     " rtt=" + std::to_string(rtt));
    last_success_ewma = success_ewma;
    last_rtt_ewma = rtt_ewma;
    (void)thief;
  }

  std::vector<std::string> take() { return std::exchange(events, {}); }

  std::vector<std::string> events;
  double last_success_ewma = -1.0;
  double last_rtt_ewma = -1.0;
};

TEST(PeerTrace, AdaptiveFeedbackFiresAfterEachResolutionWithEwmaSnapshots) {
  WsConfig cfg;
  cfg.victim_policy = VictimPolicy::kAdaptive;  // adapt_decay = 0.25
  cfg.steal_timeout = 1000;
  cfg.steal_backoff = 2.0;
  cfg.steal_retry_max = 2;
  FeedbackObserver obs;
  // Two ranks: the only victim is rank 0, so the adaptive draws are pinned.
  ScriptedPeer s(cfg, 1, 2, /*lossy=*/false, &obs);

  s.peer().on_out_of_work(0);
  EXPECT_EQ(obs.take(), Trace{});

  // A refusal is still an answer: reachability feedback reports success with
  // the observed round trip, ordered after the resolution hook.
  s.peer().on_message(refusal(1), 100);
  EXPECT_EQ(obs.take(), Trace({"recv victim=0 chunks=0 nodes=0",
                               "feedback victim=0 success=1 rtt=100"}));
  EXPECT_DOUBLE_EQ(obs.last_success_ewma, 1.0);   // optimistic init, sample 1
  EXPECT_DOUBLE_EQ(obs.last_rtt_ewma, 100.0);     // first observation

  // The timeout of the retry sent at t=100 is the failure case: charged with
  // the time spent waiting, EWMAs stepped by adapt_decay = 1/4.
  s.peer().on_steal_timeout(2, 1100);
  EXPECT_EQ(obs.take(), Trace({"timeout victim=0 attempt=0",
                               "feedback victim=0 success=0 rtt=1000"}));
  EXPECT_DOUBLE_EQ(obs.last_success_ewma, 0.75);  // 3/4 * 1.0 + 1/4 * 0
  EXPECT_DOUBLE_EQ(obs.last_rtt_ewma, 325.0);     // 3/4 * 100 + 1/4 * 1000

  // A work-carrying answer closes the loop: success, EWMAs recover.
  s.peer().on_message(s.work_response(3, 20), 1400);
  EXPECT_EQ(obs.take(), Trace({"recv victim=0 chunks=1 nodes=20",
                               "feedback victim=0 success=1 rtt=300"}));
  EXPECT_DOUBLE_EQ(obs.last_success_ewma, 0.8125);  // 3/4 * 0.75 + 1/4
  EXPECT_DOUBLE_EQ(obs.last_rtt_ewma, 318.75);      // 3/4 * 325 + 1/4 * 300
}

TEST(PeerTrace, NonAdaptiveSelectorsEmitNoFeedbackHooks) {
  WsConfig cfg;  // kRoundRobin: feedback-free, hook stream must stay empty
  cfg.steal_timeout = 1000;
  FeedbackObserver obs;
  ScriptedPeer s(cfg, 1, 2, /*lossy=*/false, &obs);

  s.peer().on_out_of_work(0);
  s.peer().on_message(refusal(1), 100);
  s.peer().on_steal_timeout(2, 1100);
  EXPECT_EQ(obs.events, Trace({"recv victim=0 chunks=0 nodes=0",
                               "timeout victim=0 attempt=0"}));
}

TEST(PeerTrace, LateAnswerToAnAbandonedRequestIsStillBanked) {
  WsConfig cfg;
  cfg.steal_timeout = 1000;
  ScriptedPeer s(cfg, 1, 4);

  s.peer().on_out_of_work(0);   // id=1 to victim 2
  s.peer().on_steal_timeout(1, 1000);  // abandon id=1, retry id=2
  s.take();

  // The victim really gave those nodes away: dropping them would violate
  // work conservation, so the late answer installs and reactivates.
  s.peer().on_message(s.work_response(1, 20), 1500);
  EXPECT_EQ(s.take(), Trace({"activated"}));
  EXPECT_EQ(s.peer().stack().size(), 20u);
  EXPECT_EQ(s.peer().stats().successful_steals, 1u);
}

TEST(PeerTrace, LateRefusalToAnAbandonedRequestIsDiscarded) {
  WsConfig cfg;
  cfg.steal_timeout = 1000;
  ScriptedPeer s(cfg, 1, 4);

  s.peer().on_out_of_work(0);          // id=1 to victim 2
  s.peer().on_steal_timeout(1, 1000);  // abandon id=1, retry id=2 in flight
  s.take();

  // The timeout already re-drove the steal loop; a late refusal must not
  // drive it again (that would fork the single outstanding-request chain).
  s.peer().on_message(refusal(1), 1500);
  EXPECT_EQ(s.take(), Trace{});
  EXPECT_EQ(s.peer().stats().failed_steals, 0u);
  EXPECT_EQ(s.peer().state(), Peer::State::kIdle);
}

TEST(PeerTrace, NetworkDuplicateResponsesAreConsumedExactlyOnce) {
  WsConfig cfg;
  cfg.steal_timeout = 1000;
  ScriptedPeer s(cfg, 1, 4, /*lossy=*/true);

  s.peer().on_out_of_work(0);
  s.take();
  StealResponse resp = s.work_response(1, 20);
  s.peer().on_message(resp, 500);
  EXPECT_EQ(s.take(), Trace({"activated"}));
  EXPECT_EQ(s.peer().stack().size(), 20u);
  EXPECT_EQ(s.store().in_use(), 0u);  // the accepted copy took the payload

  // The duplicated copy shares the handle of already-installed nodes.
  s.peer().on_message(resp, 600);
  EXPECT_EQ(s.take(), Trace{});
  EXPECT_EQ(s.peer().stack().size(), 20u);
  EXPECT_EQ(s.peer().stats().duplicate_responses, 1u);
  EXPECT_EQ(s.peer().stats().successful_steals, 1u);
}

TEST(PeerTrace, DuplicateOfABankedLateAnswerLeavesTheReusedHandleAlone) {
  WsConfig cfg;
  cfg.steal_timeout = 1000;
  ScriptedPeer s(cfg, 1, 4, /*lossy=*/true);

  s.peer().on_out_of_work(0);          // id=1 to victim 2
  s.peer().on_steal_timeout(1, 1000);  // abandon id=1, retry id=2
  s.take();

  const StealResponse late = s.work_response(1, 20);
  s.peer().on_message(late, 1500);
  EXPECT_EQ(s.take(), Trace({"activated"}));
  EXPECT_EQ(s.store().in_use(), 0u);

  // The freed handle goes to the next batch parked anywhere in the run. The
  // duplicate reads only its inline counts, so that batch stays parked.
  const ChunkBatch other = s.work(7);
  ASSERT_EQ(other.handle, late.chunks.handle);
  s.peer().on_message(late, 1600);
  EXPECT_EQ(s.take(), Trace{});
  EXPECT_EQ(s.peer().stack().size(), 20u);
  EXPECT_EQ(s.peer().stats().duplicate_responses, 1u);
  EXPECT_EQ(s.peer().stats().chunks_received, 1u);
  ASSERT_EQ(s.store().in_use(), 1u);
  EXPECT_EQ(s.store().take(other).front().size(), 7u);
}

TEST(PeerTrace, LossyVictimAnswersADuplicatedRequestOnlyOnce) {
  WsConfig cfg;
  ScriptedPeer s(cfg, 0, 4, /*lossy=*/true);
  s.peer().seed_root(node_at(0));
  for (int i = 1; i < 41; ++i) s.peer().stack().push(node_at(1));
  s.take();

  s.peer().on_message(StealRequest{3, 1}, 50);
  EXPECT_EQ(s.take(),
            Trace({"send to=3 resp{id=1,chunks=1,nodes=20} bytes=496 dup-only"}));

  // Same id again = network duplicate: answering twice would ship a second
  // response the thief discards, losing any work it carried.
  s.peer().on_message(StealRequest{3, 1}, 60);
  EXPECT_EQ(s.take(), Trace{});
  EXPECT_EQ(s.peer().stats().requests_served, 1u);
  EXPECT_EQ(s.store().in_use(), 1u);  // one batch parked, one shipped
}

TEST(PeerTrace, LossyVictimFiltersDuplicatesAtBothEndsOfTheThiefRange) {
  // The filter is indexed by the thief's job-local rank: thieves 0 and
  // num_ranks-1 sit at its two ends. Each is answered once per id, however
  // the duplicates of the two conversations interleave.
  WsConfig cfg;
  ScriptedPeer s(cfg, 1, 4, /*lossy=*/true);
  s.peer().seed_root(node_at(0));
  for (int i = 1; i < 100; ++i) s.peer().stack().push(node_at(1));
  s.take();

  s.peer().on_message(StealRequest{0, 1}, 50);
  s.peer().on_message(StealRequest{3, 1}, 51);
  s.peer().on_message(StealRequest{0, 1}, 52);
  s.peer().on_message(StealRequest{3, 1}, 53);
  s.peer().on_message(StealRequest{3, 2}, 54);
  s.peer().on_message(StealRequest{0, 2}, 55);
  s.peer().on_message(StealRequest{0, 2}, 56);
  s.peer().on_message(StealRequest{3, 2}, 57);
  EXPECT_EQ(s.take(),
            Trace({"send to=0 resp{id=1,chunks=1,nodes=20} bytes=496 dup-only",
                   "send to=3 resp{id=1,chunks=1,nodes=20} bytes=496 dup-only",
                   "send to=3 resp{id=2,chunks=1,nodes=20} bytes=496 dup-only",
                   "send to=0 resp{id=2,chunks=1,nodes=20} bytes=496 dup-only"}));
  EXPECT_EQ(s.peer().stats().requests_served, 4u);
}

// ---------------------------------------------------------------------------
// Termination: token ring, generations, regeneration
// ---------------------------------------------------------------------------

TEST(PeerTrace, IdleRankZeroLaunchesProbeTimerBeforeToken) {
  WsConfig cfg;
  cfg.token_timeout = 5000;
  ScriptedPeer s(cfg, 0, 3);

  // Timer armed BEFORE the token enters the network — the simulator binding
  // relies on this order for bit-identical event sequences.
  s.peer().on_out_of_work(0);
  EXPECT_EQ(s.take(),
            Trace({"arm-token delay=5000 gen=1",
                   "send to=1 token{gen=1,black=0,sent=0,recv=0} bytes=8 droppable",
                   "send to=1 req{thief=0,id=1} bytes=16 droppable"}));
}

TEST(PeerTrace, StaleTokenGenerationsAreIgnoredAndRegenerationTerminates) {
  WsConfig cfg;
  cfg.token_timeout = 5000;
  ScriptedPeer s(cfg, 0, 3);
  s.peer().on_out_of_work(0);  // gen=1 out
  s.take();

  // Probe presumed lost: regenerate with gen=2.
  s.peer().on_token_timeout(1, 5000);
  EXPECT_EQ(s.take(),
            Trace({"arm-token delay=5000 gen=2",
                   "send to=1 token{gen=2,black=0,sent=0,recv=0} bytes=8 droppable"}));
  EXPECT_EQ(s.peer().stats().token_regens, 1u);

  // The gen=1 survivor straggles home: stale, filtered.
  s.peer().on_message(Token{false, 0, 0, 1}, 6000);
  EXPECT_EQ(s.take(), Trace{});
  EXPECT_EQ(s.peer().state(), Peer::State::kIdle);

  // Stale timer for the superseded generation: filtered too.
  s.peer().on_token_timeout(1, 6500);
  EXPECT_EQ(s.take(), Trace{});

  // gen=2 comes home white with balanced counters: global quiescence.
  s.peer().on_message(Token{false, 0, 0, 2}, 7000);
  EXPECT_EQ(s.take(), Trace({"terminated at=7000",
                             "send to=1 terminate bytes=8 reliable",
                             "send to=2 terminate bytes=8 reliable"}));
  EXPECT_TRUE(s.peer().done());
}

TEST(PeerTrace, UnbalancedMatternCountersFailTheProbe) {
  WsConfig cfg;
  ScriptedPeer s(cfg, 0, 3);
  s.peer().on_out_of_work(0);  // gen=1 out
  s.take();

  // White token, but a work message was still in flight when the token
  // passed (sent != recv): relaunch instead of terminating.
  s.peer().on_message(Token{false, 3, 2, 1}, 4000);
  EXPECT_EQ(s.take(),
            Trace({"send to=1 token{gen=2,black=0,sent=0,recv=0} bytes=8 droppable"}));
  EXPECT_EQ(s.peer().state(), Peer::State::kIdle);
}

TEST(PeerTrace, MiddleRankForwardsAccumulatingCountersAndFiltersDuplicates) {
  WsConfig cfg;
  ScriptedPeer s(cfg, 1, 3);

  // Ship one chunk first so this rank is black with work_msgs_sent = 1.
  s.peer().seed_root(node_at(0));
  for (int i = 1; i < 41; ++i) s.peer().stack().push(node_at(1));
  s.peer().on_message(StealRequest{2, 1}, 10);
  while (s.peer().stack().pop().has_value()) {
  }
  s.peer().on_out_of_work(20);
  s.take();

  // Forward: color ORs in, counters accumulate, forwarder turns white.
  s.peer().on_message(Token{false, 4, 5, 1}, 100);
  EXPECT_EQ(s.take(),
            Trace({"send to=2 token{gen=1,black=1,sent=5,recv=5} bytes=8 droppable"}));

  // Duplicate (same generation): discarded, not forwarded twice.
  s.peer().on_message(Token{false, 4, 5, 1}, 200);
  EXPECT_EQ(s.take(), Trace{});

  // Next circulation: this rank already forwarded, so it is white now.
  s.peer().on_message(Token{false, 6, 6, 2}, 300);
  EXPECT_EQ(s.take(),
            Trace({"send to=2 token{gen=2,black=0,sent=7,recv=6} bytes=8 droppable"}));
}

TEST(PeerTrace, ActiveRankHoldsTheTokenUntilItIdles) {
  WsConfig cfg;
  ScriptedPeer s(cfg, 1, 3);
  s.peer().seed_root(node_at(0));
  s.take();

  s.peer().on_message(Token{false, 0, 0, 1}, 100);
  EXPECT_EQ(s.take(), Trace{});  // held, not forwarded

  while (s.peer().stack().pop().has_value()) {
  }
  s.peer().on_out_of_work(500);
  // Held token forwarded first, then the steal loop starts.
  EXPECT_EQ(s.take(),
            Trace({"send to=2 token{gen=1,black=0,sent=0,recv=0} bytes=8 droppable",
                   "send to=2 req{thief=1,id=1} bytes=16 droppable"}));
}

// ---------------------------------------------------------------------------
// Lifelines (IdlePolicy::kLifeline)
// ---------------------------------------------------------------------------

TEST(PeerTrace, RepeatedFailuresRegisterOnHypercubeBuddies) {
  WsConfig cfg;
  cfg.idle_policy = IdlePolicy::kLifeline;
  cfg.lifeline_tries = 2;
  ScriptedPeer s(cfg, 1, 4);

  s.peer().on_out_of_work(0);
  s.take();
  s.peer().on_message(refusal(1), 100);  // failure 1: keep stealing
  EXPECT_EQ(s.take(), Trace({"send to=3 req{thief=1,id=2} bytes=16 droppable"}));

  // Failure 2 hits lifeline_tries: go dormant on buddies 1^1=0 and 1^2=3.
  s.peer().on_message(refusal(2), 200);
  EXPECT_EQ(s.take(), Trace({"send to=0 reg{dep=1} bytes=16 reliable",
                             "send to=3 reg{dep=1} bytes=16 reliable"}));
  EXPECT_EQ(s.peer().stats().lifeline_registrations, 1u);

  // A buddy pushes surplus: reactivate without any further requests.
  s.peer().on_message(LifelinePush{s.work(20)}, 1000);
  EXPECT_EQ(s.take(), Trace({"activated"}));
  EXPECT_EQ(s.peer().stack().size(), 20u);
}

TEST(PeerTrace, StockedBuddyFeedsParkedDependentsAtPollPoints) {
  WsConfig cfg;
  cfg.idle_policy = IdlePolicy::kLifeline;
  ScriptedPeer s(cfg, 0, 4);
  s.peer().seed_root(node_at(0));
  s.take();

  // No surplus yet: the registration parks.
  s.peer().on_message(LifelineRegister{2}, 50);
  EXPECT_EQ(s.take(), Trace{});
  EXPECT_TRUE(s.peer().has_dependents());

  // Stock up past one chunk boundary, then feed at the poll point.
  for (int i = 1; i < 41; ++i) s.peer().stack().push(node_at(1));
  EXPECT_EQ(s.peer().feed_lifeline_dependents(100), 1u);
  EXPECT_EQ(s.take(),
            Trace({"send to=2 push{chunks=1} bytes=496 reliable"}));
  EXPECT_FALSE(s.peer().has_dependents());
  EXPECT_EQ(s.peer().stats().lifeline_pushes, 1u);
}

// ---------------------------------------------------------------------------
// Single-rank degenerate case
// ---------------------------------------------------------------------------

TEST(PeerTrace, SingleRankTerminatesTheMomentItRunsDry) {
  WsConfig cfg;
  ScriptedPeer s(cfg, 0, 1);
  s.peer().seed_root(node_at(0));
  s.take();

  while (s.peer().stack().pop().has_value()) {
  }
  s.peer().on_out_of_work(42);
  EXPECT_EQ(s.take(), Trace({"terminated at=42"}));
  EXPECT_TRUE(s.peer().done());
}

}  // namespace
}  // namespace dws::proto
