#include "proto/replay.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <tuple>

namespace dws::proto {

using Kind = HookRecord::Kind;

void HookRecorder::on_root(topo::Rank rank, const uts::TreeNode& root) {
  on_hook({.kind = Kind::kRoot, .a = rank, .node = root});
}

void HookRecorder::on_node_expanded(topo::Rank rank, const uts::TreeNode& node,
                                    std::uint32_t children) {
  on_hook(
      {.kind = Kind::kNodeExpanded, .a = rank, .w = children, .node = node});
}

void HookRecorder::on_steal_request_sent(topo::Rank thief, topo::Rank victim,
                                         std::uint32_t bytes) {
  on_hook(
      {.kind = Kind::kStealRequestSent, .a = thief, .b = victim, .w = bytes});
}

void HookRecorder::on_steal_response_sent(topo::Rank victim, topo::Rank thief,
                                          std::uint64_t chunks,
                                          std::uint64_t nodes,
                                          std::uint32_t bytes) {
  on_hook({.kind = Kind::kStealResponseSent, .a = victim, .b = thief,
           .w = bytes, .u = chunks, .v = nodes});
}

void HookRecorder::on_steal_response_received(topo::Rank thief,
                                              topo::Rank victim,
                                              std::uint64_t chunks,
                                              std::uint64_t nodes) {
  on_hook({.kind = Kind::kStealResponseReceived, .a = thief, .b = victim,
           .u = chunks, .v = nodes});
}

void HookRecorder::on_lifeline_register_sent(topo::Rank rank, topo::Rank target,
                                             std::uint32_t bytes) {
  on_hook({.kind = Kind::kLifelineRegisterSent, .a = rank, .b = target,
           .w = bytes});
}

void HookRecorder::on_lifeline_push_sent(topo::Rank from, topo::Rank to,
                                         std::uint64_t chunks,
                                         std::uint64_t nodes,
                                         std::uint32_t bytes) {
  on_hook({.kind = Kind::kLifelinePushSent, .a = from, .b = to, .w = bytes,
           .u = chunks, .v = nodes});
}

void HookRecorder::on_lifeline_push_received(topo::Rank rank,
                                             std::uint64_t chunks,
                                             std::uint64_t nodes) {
  on_hook({.kind = Kind::kLifelinePushReceived, .a = rank, .u = chunks,
           .v = nodes});
}

void HookRecorder::on_steal_timeout(topo::Rank thief, topo::Rank victim,
                                    std::uint32_t attempt) {
  on_hook({.kind = Kind::kStealTimeout, .a = thief, .b = victim, .w = attempt});
}

void HookRecorder::on_duplicate_response(topo::Rank thief,
                                         std::uint64_t chunks,
                                         std::uint64_t nodes) {
  on_hook({.kind = Kind::kDuplicateResponse, .a = thief, .u = chunks,
           .v = nodes});
}

void HookRecorder::on_steal_feedback(topo::Rank thief, topo::Rank victim,
                                     bool success, support::SimTime rtt,
                                     double success_ewma, double rtt_ewma) {
  on_hook({.kind = Kind::kStealFeedback, .a = thief, .b = victim,
           .w = success ? 1u : 0u, .t = rtt,
           .u = std::bit_cast<std::uint64_t>(success_ewma),
           .v = std::bit_cast<std::uint64_t>(rtt_ewma)});
}

void HookRecorder::on_token_sent(topo::Rank from, topo::Rank to,
                                 const Token& t) {
  on_hook({.kind = Kind::kTokenSent, .a = from, .b = to, .token = t});
}

void HookRecorder::on_token_accepted(topo::Rank rank, const Token& t) {
  on_hook({.kind = Kind::kTokenAccepted, .a = rank, .token = t});
}

void HookRecorder::on_token_regenerated(topo::Rank rank,
                                        std::uint32_t generation) {
  on_hook({.kind = Kind::kTokenRegenerated, .a = rank, .w = generation});
}

void HookRecorder::on_phase(topo::Rank rank, support::SimTime t,
                            metrics::Phase p) {
  on_hook({.kind = Kind::kPhase, .phase = p, .a = rank, .t = t});
}

void HookRecorder::on_termination(support::SimTime t) {
  on_hook({.kind = Kind::kTermination, .t = t});
}

void HookRecorder::on_finish(topo::Rank rank, support::SimTime t) {
  on_hook({.kind = Kind::kFinish, .a = rank, .t = t});
}

void replay(const HookRecord& r, RunObserver& obs) {
  switch (r.kind) {
    case Kind::kRoot:
      obs.on_root(r.a, r.node);
      break;
    case Kind::kNodeExpanded:
      obs.on_node_expanded(r.a, r.node, r.w);
      break;
    case Kind::kStealRequestSent:
      obs.on_steal_request_sent(r.a, r.b, r.w);
      break;
    case Kind::kStealResponseSent:
      obs.on_steal_response_sent(r.a, r.b, r.u, r.v, r.w);
      break;
    case Kind::kStealResponseReceived:
      obs.on_steal_response_received(r.a, r.b, r.u, r.v);
      break;
    case Kind::kLifelineRegisterSent:
      obs.on_lifeline_register_sent(r.a, r.b, r.w);
      break;
    case Kind::kLifelinePushSent:
      obs.on_lifeline_push_sent(r.a, r.b, r.u, r.v, r.w);
      break;
    case Kind::kLifelinePushReceived:
      obs.on_lifeline_push_received(r.a, r.u, r.v);
      break;
    case Kind::kStealTimeout:
      obs.on_steal_timeout(r.a, r.b, r.w);
      break;
    case Kind::kDuplicateResponse:
      obs.on_duplicate_response(r.a, r.u, r.v);
      break;
    case Kind::kStealFeedback:
      obs.on_steal_feedback(r.a, r.b, r.w != 0, r.t,
                            std::bit_cast<double>(r.u),
                            std::bit_cast<double>(r.v));
      break;
    case Kind::kTokenSent:
      obs.on_token_sent(r.a, r.b, r.token);
      break;
    case Kind::kTokenAccepted:
      obs.on_token_accepted(r.a, r.token);
      break;
    case Kind::kTokenRegenerated:
      obs.on_token_regenerated(r.a, r.w);
      break;
    case Kind::kPhase:
      obs.on_phase(r.a, r.t, r.phase);
      break;
    case Kind::kTermination:
      obs.on_termination(r.t);
      break;
    case Kind::kFinish:
      obs.on_finish(r.a, r.t);
      break;
  }
}

void BufferedObserver::replay_merged(
    const std::vector<BufferedObserver*>& shards, RunObserver& downstream) {
  // (when, shard, index) keys; each shard's buffer is already nondecreasing
  // in `when`, so this sort is a k-way merge with a deterministic shard
  // tie-break.
  struct Key {
    support::SimTime when;
    std::uint32_t shard;
    std::uint32_t index;
  };
  std::vector<Key> keys;
  std::size_t total = 0;
  for (const BufferedObserver* s : shards) total += s->records_.size();
  keys.reserve(total);
  for (std::uint32_t s = 0; s < shards.size(); ++s) {
    const auto& recs = shards[s]->records_;
    for (std::uint32_t i = 0; i < recs.size(); ++i) {
      keys.push_back(Key{recs[i].when, s, i});
    }
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    return std::tie(a.when, a.shard, a.index) <
           std::tie(b.when, b.shard, b.index);
  });
  for (const Key& k : keys) {
    replay(shards[k.shard]->records_[k.index], downstream);
  }
  for (BufferedObserver* s : shards) s->records_.clear();
}

}  // namespace dws::proto
