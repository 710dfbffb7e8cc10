#include "audit/audit.hpp"

#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "audit/distribution.hpp"
#include "rt/runtime.hpp"
#include "support/check.hpp"
#include "svc/service.hpp"
#include "topo/latency.hpp"
#include "uts/sequential.hpp"
#include "proto/victim.hpp"

namespace dws::audit {

namespace {

/// 64-bit fingerprint of a tree node. The UTS node state is a SHA-1 digest
/// chained from the root seed, so any 64 bits of it identify the node with
/// collision probability ~ n^2 / 2^65 — negligible at the sizes we track.
/// Height is folded in as a belt-and-braces guard.
std::uint64_t node_fingerprint(const uts::TreeNode& node) {
  std::uint64_t fp = 0;
  std::memcpy(&fp, node.rng.state().data(), sizeof(fp));
  return fp ^ (static_cast<std::uint64_t>(node.height) * 0x9E3779B97F4A7C15ull);
}

std::string rank_str(topo::Rank r) { return std::to_string(r); }

}  // namespace

const char* to_string(Family f) {
  switch (f) {
    case Family::kWork: return "work";
    case Family::kMessages: return "messages";
    case Family::kClock: return "clock";
    case Family::kDistribution: return "distribution";
  }
  return "?";
}

bool env_enabled() {
  const char* v = std::getenv("DWS_AUDIT");
  if (v == nullptr || *v == '\0') return false;
  const std::string s(v);
  return s != "0" && s != "false" && s != "off";
}

std::string AuditReport::summary() const {
  if (ok()) {
    return "audit: OK (" + std::to_string(nodes_expanded) + " nodes, " +
           std::to_string(requests) + " requests, " + std::to_string(tokens) +
           " tokens)";
  }
  std::string s = "audit: " + std::to_string(violations_total) + " violation" +
                  (violations_total == 1 ? "" : "s");
  for (const Violation& v : violations) {
    s += "\n  [" + std::string(to_string(v.family)) + "] " + v.message;
  }
  if (violations_total > violations.size()) {
    s += "\n  ... " + std::to_string(violations_total - violations.size()) +
         " more suppressed";
  }
  return s;
}

Auditor::Auditor(const ws::RunConfig& config, AuditConfig audit)
    : config_(config),
      audit_(audit),
      created_(config.num_ranks, 0),
      expanded_(config.num_ranks, 0),
      sent_(config.num_ranks, 0),
      recv_(config.num_ranks, 0),
      request_outstanding_(config.num_ranks, 0),
      response_outstanding_(config.num_ranks, 0),
      last_phase_time_(config.num_ranks, 0),
      finished_(config.num_ranks, 0) {
  relaxed_ = config.fault.enabled() || config.ws.steal_timeout > 0 ||
             config.ws.token_timeout > 0;
}

void Auditor::violation(Family f, std::string message) {
  ++report_.violations_total;
  if (report_.violations.size() < kMaxViolations) {
    report_.violations.push_back({f, std::move(message)});
  }
}

std::int64_t Auditor::stack_estimate(topo::Rank r) const noexcept {
  return static_cast<std::int64_t>(created_[r]) +
         static_cast<std::int64_t>(recv_[r]) -
         static_cast<std::int64_t>(expanded_[r]) -
         static_cast<std::int64_t>(sent_[r]);
}

void Auditor::on_root(topo::Rank rank, const uts::TreeNode& root) {
  (void)root;
  if (root_seen_) {
    violation(Family::kWork, "tree root seeded twice (rank " +
                                 rank_str(rank) + ")");
  }
  root_seen_ = true;
  ++created_[rank];
}

void Auditor::on_node_expanded(topo::Rank rank, const uts::TreeNode& node,
                               std::uint32_t children) {
  if (stack_estimate(rank) < 1) {
    violation(Family::kWork,
              "rank " + rank_str(rank) +
                  " expanded a node its ledger stack does not hold");
  }
  ++expanded_[rank];
  ++report_.nodes_expanded;
  created_[rank] += children;
  if (children == 0) ++leaves_;

  if (fingerprints_.size() < kMaxTrackedNodes) {
    if (!fingerprints_.insert(node_fingerprint(node)).second) {
      ++fingerprint_dups_;
      if (fingerprint_dups_ == 1) {
        violation(Family::kWork,
                  "node expanded twice (first duplicate on rank " +
                      rank_str(rank) + ", height " +
                      std::to_string(node.height) + ")");
      }
    }
    report_.nodes_tracked = fingerprints_.size();
  }
}

void Auditor::on_steal_request_sent(topo::Rank thief, topo::Rank victim,
                                    std::uint32_t bytes) {
  ++report_.requests;
  bytes_sent_ += bytes;
  if (thief == victim) {
    violation(Family::kMessages,
              "rank " + rank_str(thief) + " sent a steal request to itself");
  }
  if (request_outstanding_[thief] && !relaxed_) {
    violation(Family::kMessages,
              "rank " + rank_str(thief) +
                  " sent a second steal request with one outstanding");
  }
  request_outstanding_[thief] = 1;
}

void Auditor::on_steal_response_sent(topo::Rank victim, topo::Rank thief,
                                     std::uint64_t chunks, std::uint64_t nodes,
                                     std::uint32_t bytes) {
  ++report_.responses_sent;
  bytes_sent_ += bytes;
  if (!request_outstanding_[thief] && !relaxed_) {
    violation(Family::kMessages,
              "rank " + rank_str(victim) +
                  " answered a request rank " + rank_str(thief) +
                  " never sent");
  }
  if (response_outstanding_[thief] && !relaxed_) {
    violation(Family::kMessages, "two responses in flight to rank " +
                                     rank_str(thief));
  }
  response_outstanding_[thief] = 1;
  if (nodes > 0) {
    if (stack_estimate(victim) < static_cast<std::int64_t>(nodes)) {
      violation(Family::kWork,
                "rank " + rank_str(victim) + " shipped " +
                    std::to_string(nodes) +
                    " nodes but its ledger stack holds " +
                    std::to_string(stack_estimate(victim)));
    }
    sent_[victim] += nodes;
    chunks_sent_ += chunks;
    ++work_responses_sent_;
  }
}

void Auditor::on_steal_response_received(topo::Rank thief, topo::Rank victim,
                                         std::uint64_t chunks,
                                         std::uint64_t nodes) {
  (void)victim;
  ++report_.responses_received;
  if (!response_outstanding_[thief] && !relaxed_) {
    violation(Family::kMessages,
              "rank " + rank_str(thief) +
                  " received a response with none in flight");
  }
  response_outstanding_[thief] = 0;
  request_outstanding_[thief] = 0;
  if (nodes > 0) {
    recv_[thief] += nodes;
    chunks_recv_ += chunks;
    ++work_responses_recv_;
  }
}

void Auditor::on_lifeline_register_sent(topo::Rank rank, topo::Rank target,
                                        std::uint32_t bytes) {
  (void)rank, (void)target;
  ++report_.lifeline_registers;
  bytes_sent_ += bytes;
}

void Auditor::on_lifeline_push_sent(topo::Rank from, topo::Rank to,
                                    std::uint64_t chunks, std::uint64_t nodes,
                                    std::uint32_t bytes) {
  (void)to;
  ++report_.lifeline_pushes;
  bytes_sent_ += bytes;
  if (nodes == 0) {
    violation(Family::kWork,
              "rank " + rank_str(from) + " pushed an empty lifeline delivery");
    return;
  }
  if (stack_estimate(from) < static_cast<std::int64_t>(nodes)) {
    violation(Family::kWork,
              "rank " + rank_str(from) + " lifeline-pushed " +
                  std::to_string(nodes) +
                  " nodes but its ledger stack holds " +
                  std::to_string(stack_estimate(from)));
  }
  sent_[from] += nodes;
  chunks_sent_ += chunks;
  ++work_responses_sent_;
}

void Auditor::on_lifeline_push_received(topo::Rank rank, std::uint64_t chunks,
                                        std::uint64_t nodes) {
  recv_[rank] += nodes;
  chunks_recv_ += chunks;
  ++work_responses_recv_;
}

void Auditor::on_steal_timeout(topo::Rank thief, topo::Rank victim,
                               std::uint32_t attempt) {
  (void)victim, (void)attempt;
  ++report_.steal_timeouts;
  if (!relaxed_) {
    violation(Family::kMessages,
              "rank " + rank_str(thief) +
                  " timed out a steal request in a run with no timeout "
                  "configured");
  }
  // The abandoned pair is written off; the retry's own hooks restart it.
  request_outstanding_[thief] = 0;
  response_outstanding_[thief] = 0;
}

void Auditor::on_duplicate_response(topo::Rank thief, std::uint64_t chunks,
                                    std::uint64_t nodes) {
  (void)chunks, (void)nodes;
  ++report_.duplicate_responses;
  if (!relaxed_) {
    violation(Family::kMessages,
              "rank " + rank_str(thief) +
                  " discarded a duplicate response in a fault-free run");
  }
}

void Auditor::on_token_sent(topo::Rank from, topo::Rank to,
                            const proto::Token& t) {
  ++report_.tokens;
  bytes_sent_ += config_.ws.token_bytes;
  if (to != (from + 1) % config_.num_ranks) {
    violation(Family::kClock, "token left the ring: " + rank_str(from) +
                                  " -> " + rank_str(to));
  }
  // The counters themselves admit no per-hop invariant: they are snapshots
  // taken at different times around the ring, so recv > sent is legal in
  // flight (that inconsistency is exactly what the color bit guards). Only
  // the token that rank 0 accepts for termination must be consistent — keep
  // it for on_termination().
  if (to == 0) last_token_to_zero_ = t;
}

void Auditor::on_token_accepted(topo::Rank rank, const proto::Token& t) {
  if (rank != 0) {
    violation(Family::kClock,
              "rank " + rank_str(rank) + " accepted a termination token "
              "(only rank 0 closes the circulation)");
  }
  accepted_token_ = t;
}

void Auditor::on_token_regenerated(topo::Rank rank, std::uint32_t generation) {
  (void)generation;
  ++report_.token_regens;
  if (!relaxed_) {
    violation(Family::kClock,
              "rank " + rank_str(rank) +
                  " regenerated the token in a run with no token timeout");
  }
}

void Auditor::on_phase(topo::Rank rank, support::SimTime t, metrics::Phase p) {
  if (t < last_phase_time_[rank]) {
    violation(Family::kClock,
              "rank " + rank_str(rank) + " phase time went backwards (" +
                  std::to_string(t) + " after " +
                  std::to_string(last_phase_time_[rank]) + ")");
  }
  last_phase_time_[rank] = t;
  if (terminated_ && p == metrics::Phase::kActive) {
    violation(Family::kClock, "rank " + rank_str(rank) +
                                  " turned Active after global termination");
  }
}

void Auditor::on_termination(support::SimTime t) {
  if (terminated_) {
    violation(Family::kClock, "global termination declared twice");
    return;
  }
  terminated_ = true;
  termination_time_ = t;

  // Token soundness: termination may only be declared with no work in
  // flight and every stack empty. The ledger sees both directly.
  std::int64_t in_flight = 0;
  for (topo::Rank r = 0; r < config_.num_ranks; ++r) {
    in_flight += static_cast<std::int64_t>(sent_[r]) -
                 static_cast<std::int64_t>(recv_[r]);
    if (stack_estimate(r) != 0) {
      violation(Family::kWork,
                "termination declared while rank " + rank_str(r) +
                    "'s ledger stack holds " +
                    std::to_string(stack_estimate(r)) + " nodes");
    }
  }
  if (in_flight != 0) {
    violation(Family::kWork, "termination declared with " +
                                 std::to_string(in_flight) +
                                 " nodes in flight");
  }
  if (work_responses_sent_ != work_responses_recv_) {
    violation(Family::kWork,
              "termination declared with work messages in flight (" +
                  std::to_string(work_responses_sent_) + " sent, " +
                  std::to_string(work_responses_recv_) + " received)");
  }
  if (config_.num_ranks > 1) {
    // Termination-token soundness: rank 0 may only accept a white token whose
    // accumulated work-message counters balance. The accepted token is
    // authoritative; under regeneration the last token observed en route to
    // rank 0 may be a stale probe rank 0 (correctly) ignored.
    const std::optional<proto::Token>& final_token =
        accepted_token_.has_value() ? accepted_token_ : last_token_to_zero_;
    if (!final_token.has_value()) {
      violation(Family::kClock,
                "termination declared before any token returned to rank 0");
    } else if (final_token->black || final_token->sent != final_token->recv) {
      violation(Family::kClock,
                "termination declared on an unsound token (" +
                    std::string(final_token->black ? "black" : "white") +
                    ", sent " + std::to_string(final_token->sent) +
                    ", recv " + std::to_string(final_token->recv) + ")");
    }
  }
}

void Auditor::on_finish(topo::Rank rank, support::SimTime t) {
  if (!terminated_) {
    violation(Family::kClock, "rank " + rank_str(rank) +
                                  " finished before global termination");
  } else if (t < termination_time_) {
    violation(Family::kClock,
              "rank " + rank_str(rank) + " finished at " + std::to_string(t) +
                  ", before termination at " +
                  std::to_string(termination_time_));
  }
  if (finished_[rank]) {
    violation(Family::kClock, "rank " + rank_str(rank) + " finished twice");
  }
  finished_[rank] = 1;
}

void Auditor::finalize(const ws::RunResult& result) {
  DWS_CHECK(!finalized_);
  finalized_ = true;

  // Clock family.
  if (!terminated_) {
    violation(Family::kClock, "run completed without declaring termination");
  }
  for (topo::Rank r = 0; r < config_.num_ranks; ++r) {
    if (!finished_[r]) {
      violation(Family::kClock, "rank " + rank_str(r) + " never finished");
    }
  }
  if (terminated_ && result.runtime != termination_time_) {
    violation(Family::kClock,
              "result runtime " + std::to_string(result.runtime) +
                  " != observed termination time " +
                  std::to_string(termination_time_));
  }

  // Work family.
  std::uint64_t total_expanded = 0;
  std::uint64_t total_created = 0;
  for (topo::Rank r = 0; r < config_.num_ranks; ++r) {
    total_expanded += expanded_[r];
    total_created += created_[r];
    if (r < result.per_rank.size() &&
        expanded_[r] != result.per_rank[r].nodes_processed) {
      violation(Family::kWork,
                "rank " + rank_str(r) + " ledger expanded " +
                    std::to_string(expanded_[r]) + " nodes but reported " +
                    std::to_string(result.per_rank[r].nodes_processed));
    }
  }
  if (total_expanded != result.nodes) {
    violation(Family::kWork, "ledger expanded " +
                                 std::to_string(total_expanded) +
                                 " nodes, result claims " +
                                 std::to_string(result.nodes));
  }
  if (total_created != total_expanded) {
    violation(Family::kWork,
              std::to_string(total_created) + " nodes created but " +
                  std::to_string(total_expanded) +
                  " expanded — work lost or duplicated");
  }
  if (leaves_ != result.leaves) {
    violation(Family::kWork, "ledger saw " + std::to_string(leaves_) +
                                 " leaves, result claims " +
                                 std::to_string(result.leaves));
  }
  if (report_.nodes_expanded <= kMaxTrackedNodes &&
      fingerprints_.size() + fingerprint_dups_ != report_.nodes_expanded) {
    violation(Family::kWork,
              "fingerprint set holds " +
                  std::to_string(fingerprints_.size()) + " of " +
                  std::to_string(report_.nodes_expanded) +
                  " expanded nodes");
  }
  if (audit_.expected_nodes && result.nodes != *audit_.expected_nodes) {
    violation(Family::kWork,
              "result nodes " + std::to_string(result.nodes) +
                  " != sequential oracle " +
                  std::to_string(*audit_.expected_nodes));
  }
  if (audit_.expected_leaves && result.leaves != *audit_.expected_leaves) {
    violation(Family::kWork,
              "result leaves " + std::to_string(result.leaves) +
                  " != sequential oracle " +
                  std::to_string(*audit_.expected_leaves));
  }
  if (chunks_sent_ != result.stats.chunks_sent) {
    violation(Family::kWork,
              "ledger counted " + std::to_string(chunks_sent_) +
                  " chunks sent, result claims " +
                  std::to_string(result.stats.chunks_sent));
  }
  if (chunks_sent_ != chunks_recv_) {
    violation(Family::kWork, std::to_string(chunks_sent_) +
                                 " chunks sent but " +
                                 std::to_string(chunks_recv_) +
                                 " received");
  }

  // Message family.
  if (report_.responses_received > report_.responses_sent) {
    violation(Family::kMessages,
              "more responses received (" +
                  std::to_string(report_.responses_received) +
                  ") than sent (" + std::to_string(report_.responses_sent) +
                  ")");
  }
  if (report_.responses_sent > report_.requests) {
    violation(Family::kMessages,
              "more responses sent (" +
                  std::to_string(report_.responses_sent) +
                  ") than requests (" + std::to_string(report_.requests) +
                  ")");
  }
  // Every network send has a ledger entry; Terminate fan-out is the one
  // message class without its own hook (it follows on_termination
  // mechanically: N-1 messages of token_bytes each from rank 0).
  const std::uint64_t terminates =
      (terminated_ && config_.num_ranks > 1) ? config_.num_ranks - 1 : 0;
  // Fault accounting: a dropped message was still *sent* — both the ledger
  // and sim::NetworkStats count it at the send side, so drops need no
  // correction. A duplicated message is counted once by the ledger (one
  // hook) but twice by the network (two deliveries enqueued): add the
  // injector's duplicate counts back.
  const std::uint64_t expected_messages =
      report_.requests + report_.responses_sent + report_.tokens +
      report_.lifeline_registers + report_.lifeline_pushes + terminates +
      result.faults.duplicated_messages;
  if (expected_messages != result.network.messages) {
    violation(Family::kMessages,
              "ledger counted " + std::to_string(expected_messages) +
                  " messages, network stats claim " +
                  std::to_string(result.network.messages));
  }
  const std::uint64_t expected_bytes = bytes_sent_ +
                                       terminates * config_.ws.token_bytes +
                                       result.faults.duplicated_bytes;
  if (expected_bytes != result.network.bytes) {
    violation(Family::kMessages,
              "ledger counted " + std::to_string(expected_bytes) +
                  " bytes, network stats claim " +
                  std::to_string(result.network.bytes));
  }

  if (audit_.check_distribution) check_distributions();
}

void Auditor::check_distributions() {
  if (config_.num_ranks < 2) return;
  topo::JobLayout layout(config_.machine, config_.num_ranks,
                         config_.placement, config_.procs_per_node,
                         config_.origin_cube);
  topo::LatencyModel latency(layout, config_.latency);

  // Audit two vantage points: rank 0 (the origin corner) and a mid-job rank
  // (generic interior position). Distribution shape depends on the thief's
  // position, so corner-only sampling could miss a broken branch.
  const topo::Rank probes[2] = {0, config_.num_ranks / 2};
  for (topo::Rank self : probes) {
    if (self >= config_.num_ranks) continue;
    const std::vector<double> expected =
        expected_distribution(config_.ws, self, config_.num_ranks, latency);
    auto selector = proto::make_selector(config_.ws, self, latency);
    const DistributionCheck check = check_selector_distribution(
        *selector, expected, self, kDistributionSamples, kDistributionMinP);
    if (!check.ok) {
      violation(Family::kDistribution,
                "selector for rank " + rank_str(self) +
                    " fails its distribution test: " + check.detail);
    }
    if (self == config_.num_ranks / 2) break;  // probes coincide for N <= 2
  }
}

AuditedResult audited_run(const ws::RunConfig& config, AuditConfig audit,
                          std::uint64_t oracle_node_limit) {
  if (!audit.expected_nodes) {
    const uts::TreeStats oracle =
        uts::enumerate_sequential(config.tree, oracle_node_limit);
    if (!oracle.truncated) {
      audit.expected_nodes = oracle.nodes;
      audit.expected_leaves = oracle.leaves;
    }
  }
  Auditor auditor(config, audit);
  AuditedResult out;
  out.result = config.backend == ws::Backend::kRt
                   ? rt::run_native(config, &auditor)
                   : ws::run_simulation(config, &auditor);
  auditor.finalize(out.result);
  out.report = auditor.report();
  return out;
}

ws::RunResult checked_run(const ws::RunConfig& config) {
  // Service runs carry their own always-on conservation audit plus the
  // per-job sequential oracle; the observer-based Auditor is a single-job
  // instrument (one tree, one termination wave) and does not apply.
  if (config.svc.enabled) return svc::checked_service_run(config);
  AuditedResult audited = audited_run(config);
  if (!audited.report.ok()) {
    throw std::runtime_error(audited.report.summary());
  }
  return std::move(audited.result);
}

}  // namespace dws::audit
