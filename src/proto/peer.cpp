#include "proto/peer.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "proto/observer.hpp"
#include "support/check.hpp"

namespace dws::proto {

Peer::Peer(const WsConfig& config, const Params& params,
           const topo::LatencyModel* latency, Transport& transport,
           RunObserver* observer)
    : rank_(params.rank),
      num_ranks_(params.num_ranks),
      lossy_transport_(params.lossy_transport),
      config_(config),
      latency_(latency),
      payloads_(params.payloads),
      transport_(transport),
      observer_(observer),
      stack_(config.chunk_size),
      selector_(params.num_ranks > 1
                    ? make_selector(config, params.rank, *latency)
                    : nullptr),
      trace_(metrics::Phase::kIdle, 0) {
  DWS_CHECK(num_ranks_ == 1 || payloads_ != nullptr);
  steal_half_pref_ = config_.steal_amount == StealAmount::kHalf;
  if (config_.idle_policy == IdlePolicy::kLifeline) {
    // Lifeline graph: hypercube buddies (Saraswat et al.) — rank ^ 2^k for
    // every bit position that stays inside the job.
    for (std::uint32_t bit = 1; bit < num_ranks_; bit <<= 1) {
      const topo::Rank buddy = rank_ ^ bit;
      if (buddy < num_ranks_) lifeline_targets_.push_back(buddy);
    }
  }
}

void Peer::record_phase(support::SimTime t, metrics::Phase p) {
  trace_.record(t, p);
  if (observer_) observer_->on_phase(rank_, t, p);
}

void Peer::seed_root(const uts::TreeNode& root) {
  DWS_CHECK(state_ == State::kIdle && stack_.empty());
  stack_.push(root);
  if (observer_) observer_->on_root(rank_, root);
  state_ = State::kActive;
  record_phase(0, metrics::Phase::kActive);
  transport_.activated();
}

void Peer::on_message(const Message& msg, support::SimTime now) {
  std::visit(
      [this, now](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, StealRequest>) {
          on_steal_request(m, now, 0);
        } else if constexpr (std::is_same_v<T, StealResponse>) {
          handle_steal_response(m, now);
        } else if constexpr (std::is_same_v<T, Token>) {
          handle_token(m, now);
        } else if constexpr (std::is_same_v<T, LifelineRegister>) {
          handle_lifeline_register(m);
        } else if constexpr (std::is_same_v<T, LifelinePush>) {
          receive_pushed_work(m.chunks, now);
        } else {
          static_assert(std::is_same_v<T, Terminate>);
          // A rank with local work can never observe global termination —
          // the token rules above make this impossible; the check makes a
          // protocol bug loud instead of silently dropping work.
          DWS_CHECK(state_ != State::kActive);
          finish(now);
        }
      },
      msg);
}

void Peer::on_steal_request(const StealRequest& req, support::SimTime now,
                            support::SimTime send_delay) {
  (void)now;
  if (lossy_transport_) {
    // A network-duplicated request must not be answered twice: the thief
    // would discard the second response as a duplicate, losing any work it
    // carried. Ids on the (thief -> victim) channel arrive non-decreasing
    // (non-overtaking), so a repeat id is exactly a duplicate.
    if (last_request_seen_.empty()) last_request_seen_.assign(num_ranks_, 0);
    DWS_DCHECK(req.thief < num_ranks_ && req.request_id > 0);
    std::uint32_t& seen = last_request_seen_[req.thief];
    if (req.request_id <= seen) return;
    seen = req.request_id;
  }
  ++stats_.requests_served;
  // Under adaptive amount switching the thief states how much it wants per
  // request; the victim honours it. Otherwise the static config applies.
  const bool steal_half = config_.adaptive_steal_amount
                              ? req.want_half
                              : config_.steal_amount == StealAmount::kHalf;
  const std::size_t k = stack_.chunks_for_steal(steal_half);

  StealResponse resp;
  resp.request_id = req.request_id;
  if (k > 0) resp.chunks = ship(stack_.steal(k));
  const std::uint32_t bytes = wire_bytes(resp.chunks);

  const topo::Rank thief = req.thief;
  // Refusals are recoverable (the thief's timeout re-drives the steal), so
  // they may be dropped; work-carrying responses must never be — there is no
  // retransmission path for the nodes they carry (fault::MsgClass).
  const fault::MsgClass cls =
      k > 0 ? fault::MsgClass::kDupOnly : fault::MsgClass::kDroppable;
  if (observer_) {
    observer_->on_steal_response_sent(rank_, thief, k, resp.chunks.nodes,
                                      bytes);
  }
  if (send_delay == 0) {
    transport_.send(thief, resp, bytes, cls);
  } else {
    // Packaging happens at a poll boundary; the response leaves once this
    // and the previously drained requests have been serviced.
    transport_.send_deferred(send_delay, thief, resp, bytes, cls);
  }
}

void Peer::handle_steal_response(const StealResponse& resp,
                                 support::SimTime now) {
  // Normally responses find us idle and waiting, but under kLifeline a push
  // can reactivate us while a steal request is still in flight, so the
  // response may also land mid-expansion (via the binding's inbox). Under
  // steal_timeout the response can also answer a request we already
  // abandoned, and under fault injection it can be a network duplicate of
  // an answer we already consumed — the id disambiguates.
  const bool current =
      waiting_response_ && resp.request_id == current_request_id_;
  topo::Rank victim = request_victim_;
  if (current) {
    waiting_response_ = false;
    stats_.total_search_time += now - request_sent_;
  } else {
    const auto it = std::find_if(
        abandoned_requests_.begin(), abandoned_requests_.end(),
        [&](const AbandonedRequest& a) { return a.id == resp.request_id; });
    if (it == abandoned_requests_.end()) {
      // Network duplicate of an already-consumed response. Its batch (if
      // any) shares the handle of work already installed: read the counts,
      // never the store, so discarding conserves.
      DWS_CHECK(lossy_transport_ &&
                "steal response without an outstanding request");
      ++stats_.duplicate_responses;
      if (observer_) {
        observer_->on_duplicate_response(rank_, resp.chunks.chunks,
                                         resp.chunks.nodes);
      }
      return;
    }
    victim = it->victim;
    abandoned_requests_.erase(it);
  }

  const std::uint64_t nodes_received = resp.chunks.nodes;
  if (observer_) {
    observer_->on_steal_response_received(rank_, victim, resp.chunks.chunks,
                                          nodes_received);
  }
  // Feedback only for the current request: a late answer to an abandoned
  // request was already charged as a failure when its timeout fired. Any
  // answer — refusals included — counts as success: the selector tracks
  // reachability, not work availability (see VictimSelector::on_steal_result).
  if (current) {
    note_steal_result(victim, true, now - request_sent_, nodes_received);
  }

  if (resp.chunks.empty()) {
    if (!current) return;  // the timeout already drove the steal loop on
    ++stats_.failed_steals;
    if (state_ != State::kIdle) return;  // reactivated meanwhile: drop it
    if (config_.idle_policy == IdlePolicy::kLifeline &&
        ++session_failures_ >= config_.lifeline_tries) {
      register_on_lifelines();
      return;
    }
    if (!parked_) try_steal(now);
    return;
  }

  // A late answer to an abandoned request still carries real work — the
  // victim gave those nodes away; bank them exactly like a current answer.
  // This is the one accepted copy, so it takes the payload.
  ++work_msgs_recv_;
  ++stats_.successful_steals;
  stats_.chunks_received += resp.chunks.chunks;
  stats_.steal_distance_sum += latency_->euclidean(rank_, victim);
  stack_.install(payloads_->take(resp.chunks));
  if (state_ != State::kIdle) return;  // already active: just keep the work

  // Work-discovery session ends with work in the queue.
  stats_.total_session_time += now - session_start_;
  state_ = State::kActive;
  record_phase(now, metrics::Phase::kActive);
  transport_.activated();
}

void Peer::on_steal_timeout(std::uint32_t request_id, support::SimTime now) {
  if (state_ == State::kDone) return;
  // Stale timer: the answer arrived (or an earlier timeout already fired).
  if (!waiting_response_ || current_request_id_ != request_id) return;
  // The request or its answer is presumed lost. Abandon it — but remember
  // the id: a late work-carrying answer must still be banked, not dropped.
  waiting_response_ = false;
  abandoned_requests_.push_back(AbandonedRequest{request_id, request_victim_});
  ++stats_.steal_timeouts;
  stats_.total_search_time += now - request_sent_;
  if (observer_) {
    observer_->on_steal_timeout(rank_, request_victim_, retry_attempt_);
  }
  note_steal_result(request_victim_, false, now - request_sent_, 0);
  if (state_ != State::kIdle) return;  // reactivated meanwhile: nothing to do
  if (retry_attempt_ < config_.steal_retry_max && !parked_) {
    // Same victim, exponentially longer timer (send_steal_request scales by
    // steal_backoff^retry_attempt_).
    ++retry_attempt_;
    ++stats_.steal_retries;
    send_steal_request(request_victim_, now);
    return;
  }
  retry_attempt_ = 0;
  if (config_.idle_policy == IdlePolicy::kLifeline &&
      ++session_failures_ >= config_.lifeline_tries) {
    register_on_lifelines();
    return;
  }
  if (!parked_) try_steal(now);
}

void Peer::handle_lifeline_register(const LifelineRegister& reg) {
  // A buddy with surplus feeds the dependent right away; otherwise the
  // registration parks until this rank has stealable chunks again.
  if (stack_.stealable_chunks() > 0) {
    const bool steal_half = config_.steal_amount == StealAmount::kHalf;
    const std::size_t k = stack_.chunks_for_steal(steal_half);
    const LifelinePush push{ship(stack_.steal(k))};
    const std::uint32_t bytes = wire_bytes(push.chunks);
    ++stats_.lifeline_pushes;
    if (observer_) {
      observer_->on_lifeline_push_sent(rank_, reg.dependent, k,
                                       push.chunks.nodes, bytes);
    }
    transport_.send(reg.dependent, push, bytes, fault::MsgClass::kReliable);
    return;
  }
  for (const topo::Rank r : registered_dependents_) {
    if (r == reg.dependent) return;  // duplicate registration
  }
  registered_dependents_.push_back(reg.dependent);
}

void Peer::receive_pushed_work(const ChunkBatch& batch,
                               support::SimTime now) {
  DWS_CHECK(!batch.empty());
  ++work_msgs_recv_;
  stats_.chunks_received += batch.chunks;
  if (observer_) {
    observer_->on_lifeline_push_received(rank_, batch.chunks, batch.nodes);
  }
  stack_.install(payloads_->take(batch));
  if (state_ != State::kIdle) return;  // already busy: surplus joins the stack

  dormant_ = false;
  session_failures_ = 0;
  stats_.total_session_time += now - session_start_;
  state_ = State::kActive;
  record_phase(now, metrics::Phase::kActive);
  transport_.activated();
}

void Peer::register_on_lifelines() {
  DWS_CHECK(state_ == State::kIdle);
  dormant_ = true;
  ++stats_.lifeline_registrations;
  for (const topo::Rank buddy : lifeline_targets_) {
    if (observer_) {
      observer_->on_lifeline_register_sent(rank_, buddy,
                                           config_.steal_request_bytes);
    }
    transport_.send(buddy, LifelineRegister{rank_},
                    config_.steal_request_bytes, fault::MsgClass::kReliable);
  }
}

std::size_t Peer::feed_lifeline_dependents(support::SimTime now) {
  (void)now;
  const std::size_t before = registered_dependents_.size();
  while (!registered_dependents_.empty() && stack_.stealable_chunks() > 0) {
    const topo::Rank dependent = registered_dependents_.back();
    registered_dependents_.pop_back();
    handle_lifeline_register(LifelineRegister{dependent});
  }
  return before - registered_dependents_.size();
}

void Peer::handle_token(Token token, support::SimTime now) {
  if (rank_ == 0) {
    // Generation filter: only the probe we are actually waiting for counts.
    // Anything else is a stale survivor of a regenerated circulation or a
    // network duplicate; acting on it would be unsound.
    if (!token_outstanding_ || token.generation != token_generation_) return;
    token_outstanding_ = false;
    if (observer_) observer_->on_token_accepted(rank_, token);
    const bool quiet = !token.black && !black_ && state_ == State::kIdle &&
                       token.sent == token.recv;
    if (quiet) {
      declare_termination(now);
      return;
    }
    // Failed probe: relaunch once idle (immediately if already idle).
    if (state_ == State::kIdle) send_token(black_);
    return;
  }
  // Generations on the ring channel arrive non-decreasing (non-overtaking
  // and rank 0 launches them in order), so a non-increase is a stale token
  // or a duplicate: discard.
  if (token.generation <= max_token_gen_seen_) return;
  max_token_gen_seen_ = token.generation;
  if (state_ == State::kIdle) {
    send_token(token.black || black_, token.sent, token.recv,
               token.generation);
  } else {
    // A newer generation supersedes any held (now stale) token.
    holds_token_ = true;
    held_token_ = token;
  }
}

void Peer::send_token(bool black, std::uint64_t sent_acc,
                      std::uint64_t recv_acc, std::uint32_t generation) {
  Token t;
  t.black = black;
  t.sent = sent_acc + work_msgs_sent_;
  t.recv = recv_acc + work_msgs_recv_;
  black_ = false;  // forwarding whitens the forwarder
  if (rank_ == 0) {
    // Launch: stamp a fresh circulation and, with token_timeout armed, a
    // timer that regenerates the probe if it never comes home.
    t.generation = ++token_generation_;
    token_outstanding_ = true;
    if (config_.token_timeout > 0) {
      transport_.arm_token_timer(config_.token_timeout, t.generation);
    }
  } else {
    t.generation = generation;
  }
  const topo::Rank next = (rank_ + 1) % num_ranks_;
  if (observer_) observer_->on_token_sent(rank_, next, t);
  transport_.send(next, t, config_.token_bytes, fault::MsgClass::kDroppable);
}

void Peer::on_token_timeout(std::uint32_t generation, support::SimTime now) {
  (void)now;
  if (state_ == State::kDone) return;
  DWS_CHECK(rank_ == 0);
  // The probe came home (or a newer one is out): stale timer.
  if (!token_outstanding_ || generation != token_generation_) return;
  // The token is presumed lost somewhere on the ring. Regenerate it with
  // the next generation — survivors of this one die at the generation
  // filters, and Mattern counting restarts with the fresh circulation.
  token_outstanding_ = false;
  ++stats_.token_regens;
  if (observer_) observer_->on_token_regenerated(rank_, generation);
  if (state_ == State::kIdle) {
    send_token(black_);
  }
  // If active, on_out_of_work() relaunches as usual when rank 0 next idles.
}

void Peer::on_out_of_work(support::SimTime now) {
  state_ = State::kIdle;
  dormant_ = false;
  session_failures_ = 0;
  record_phase(now, metrics::Phase::kIdle);
  ++stats_.sessions;
  session_start_ = now;

  if (num_ranks_ == 1) {
    // Nobody to steal from: exhausting local work IS global termination.
    declare_termination(now);
    return;
  }
  if (holds_token_) {
    const Token t = held_token_;
    holds_token_ = false;
    send_token(t.black || black_, t.sent, t.recv, t.generation);
  }
  if (rank_ == 0 && !token_outstanding_) {
    send_token(black_);
  }
  // A steal request may still be in flight from before a lifeline push
  // reactivated us; its response restarts the steal loop when it arrives.
  if (!waiting_response_ && !parked_) try_steal(now);
}

void Peer::set_parked(bool parked, support::SimTime now) {
  if (parked_ == parked) return;
  parked_ = parked;
  if (parked || state_ != State::kIdle) return;
  // Unparked while quiescent: nothing in flight will restart the steal loop
  // for us (every refusal/timeout path went silent under parked_), so kick
  // it here. A rank mid-conversation resumes through the usual paths.
  if (!waiting_response_ && !dormant_) try_steal(now);
}

void Peer::relinquish(topo::Rank target, support::SimTime now) {
  DWS_CHECK(parked_);
  DWS_CHECK(target != rank_);
  DWS_CHECK(!stack_.empty());
  const LifelinePush push{ship(stack_.take_all())};
  const std::uint32_t bytes = wire_bytes(push.chunks);
  ++stats_.lifeline_pushes;
  if (observer_) {
    observer_->on_lifeline_push_sent(rank_, target, push.chunks.chunks,
                                     push.chunks.nodes, bytes);
  }
  transport_.send(target, push, bytes, fault::MsgClass::kReliable);
  // The stack is empty now; fall back to idle. Token duties (forwarding a
  // held token, rank 0's relaunch) still run; try_steal stays suppressed.
  on_out_of_work(now);
}

ChunkBatch Peer::ship(std::vector<Chunk> chunks) {
  const ChunkBatch batch = payloads_->park(std::move(chunks));
  DWS_CHECK(!batch.empty());
  stats_.chunks_sent += batch.chunks;
  black_ = true;  // rule (1): shipping work blackens the sender
  ++work_msgs_sent_;
  return batch;
}

void Peer::try_steal(support::SimTime now) {
  DWS_CHECK(state_ == State::kIdle);
  DWS_CHECK(!waiting_response_);
  const topo::Rank victim = selector_->next();
  DWS_DCHECK(victim != rank_);
  retry_attempt_ = 0;
  send_steal_request(victim, now);
}

void Peer::send_steal_request(topo::Rank victim, support::SimTime now) {
  ++stats_.steal_attempts;
  waiting_response_ = true;
  request_sent_ = now;
  request_victim_ = victim;
  current_request_id_ = ++next_request_id_;
  if (observer_) {
    observer_->on_steal_request_sent(rank_, victim,
                                     config_.steal_request_bytes);
  }
  transport_.send(victim, StealRequest{rank_, current_request_id_, want_half()},
                  config_.steal_request_bytes, fault::MsgClass::kDroppable);
  if (config_.steal_timeout > 0) {
    // Exponential backoff: the k-th retry waits steal_timeout * backoff^k.
    // Repeated multiplication, not std::pow — libm results vary across
    // platforms and the wait feeds the deterministic event order. Saturate
    // before the integer cast: extreme backoff/retry settings push the
    // double past SimTime's range where the cast is UB. Same guard as
    // sim::Network::scale_to_sim_time — max()/2 stays below the sharded run
    // loop's +infinity sentinel.
    constexpr double kMaxTimerWait = static_cast<double>(
        std::numeric_limits<support::SimTime>::max() / 2);
    double wait = static_cast<double>(config_.steal_timeout);
    for (std::uint32_t k = 0; k < retry_attempt_ && wait < kMaxTimerWait; ++k) {
      wait *= config_.steal_backoff;
    }
    const support::SimTime delay =
        wait < kMaxTimerWait
            ? static_cast<support::SimTime>(wait)
            : std::numeric_limits<support::SimTime>::max() / 2;
    transport_.arm_steal_timer(delay, current_request_id_);
  }
}

void Peer::note_steal_result(topo::Rank victim, bool success,
                             support::SimTime rtt, std::uint64_t nodes) {
  if (selector_) {
    selector_->on_steal_result(victim, success, rtt);
    if (observer_) {
      double success_ewma = 0.0;
      double rtt_ewma = 0.0;
      if (selector_->ewma_snapshot(victim, &success_ewma, &rtt_ewma)) {
        observer_->on_steal_feedback(rank_, victim, success, rtt, success_ewma,
                                     rtt_ewma);
      }
    }
  }
  // The amount machine keys on yield per *work-carrying* answer; refusals
  // (success with zero nodes) and timeouts say nothing about chunk sizes.
  if (!config_.adaptive_steal_amount || nodes == 0) return;
  const double sample = static_cast<double>(nodes);
  yield_ewma_ = yield_seen_ ? (1.0 - config_.adapt_decay) * yield_ewma_ +
                                  config_.adapt_decay * sample
                            : sample;
  yield_seen_ = true;
  const std::uint32_t threshold = config_.adapt_yield_threshold != 0
                                      ? config_.adapt_yield_threshold
                                      : 2 * config_.chunk_size;
  const bool prefer_half = yield_ewma_ < static_cast<double>(threshold);
  if (prefer_half != steal_half_pref_) {
    steal_half_pref_ = prefer_half;
    ++stats_.amount_switches;
  }
}

void Peer::declare_termination(support::SimTime now) {
  DWS_CHECK(rank_ == 0);
  transport_.terminated(now);
  if (observer_) observer_->on_termination(now);
  for (topo::Rank r = 1; r < num_ranks_; ++r) {
    transport_.send(r, Terminate{}, config_.token_bytes,
                    fault::MsgClass::kReliable);
  }
  finish(now);
}

void Peer::finish(support::SimTime at) {
  // Open sessions/searches end at termination (paper §IV-B: a session "ends
  // with either work in the queue or application termination").
  if (state_ == State::kIdle) {
    stats_.total_session_time += at - session_start_;
    if (waiting_response_) {
      stats_.total_search_time += at - request_sent_;
      waiting_response_ = false;
    }
  }
  state_ = State::kDone;
  stats_.finish_time = at;
  if (observer_) observer_->on_finish(rank_, at);
}

}  // namespace dws::proto
