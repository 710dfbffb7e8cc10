#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "proto/observer.hpp"
#include "ws/scheduler.hpp"

/// dws::audit — runtime invariant checking for the work-stealing simulator
/// (DESIGN.md §8).
///
/// An Auditor attaches to ws::run_simulation through the passive
/// proto::RunObserver seam and replays an independent conservation ledger
/// against the run:
///
///  * work conservation — every tree node is expanded exactly once (64-bit
///    fingerprints over the UTS SHA-1 node state), per-rank stacks never go
///    negative, nodes in flight sum to zero at termination, and the totals
///    match both the RunResult and (optionally) the sequential oracle;
///  * message conservation — steal responses pair with requests, at most one
///    request per thief is outstanding, and the ledger's message/byte totals
///    reproduce sim::NetworkStats exactly;
///  * clock / trace sanity — per-rank phase timestamps are monotone, no rank
///    turns Active after global termination, the token walks the ring, and
///    every rank finishes at or after the declared termination time;
///  * distribution validation — each victim selector's empirical histogram
///    passes a chi-square test against its analytic distribution
///    (distribution.hpp; sampled out-of-band, not from the run).
///
/// Auditing is strictly zero-cost when off: without an observer the worker
/// pays one null-pointer test per hook site, and the simulation's event
/// order is bit-identical either way.
namespace dws::audit {

/// The four invariant families, for violation triage.
enum class Family : std::uint8_t {
  kWork,
  kMessages,
  kClock,
  kDistribution,
};

const char* to_string(Family f);

struct Violation {
  Family family;
  std::string message;
};

/// Distribution family: draws per audited selector, and the p-value below
/// which a chi-square result is a violation (loose on purpose — this is a
/// correctness screen, not a statistics paper).
inline constexpr std::uint64_t kDistributionSamples = 20000;
inline constexpr double kDistributionMinP = 1e-6;

/// Exactly-once tracking keeps one 64-bit fingerprint per expanded node;
/// past this many nodes the set stops growing (count-based invariants still
/// apply, so huge runs degrade gracefully instead of thrashing).
inline constexpr std::uint64_t kMaxTrackedNodes = 1ull << 22;

/// Stop collecting (but keep counting) violations past this many.
inline constexpr std::size_t kMaxViolations = 32;

/// What an audit checks beyond the work, message and clock families, which
/// always run. Default: no distribution screen (it resamples selectors and
/// costs O(samples)) and no oracle comparison.
struct AuditConfig {
  bool check_distribution = false;

  /// Sequential-oracle expectations; unset skips the oracle comparison.
  std::optional<std::uint64_t> expected_nodes;
  std::optional<std::uint64_t> expected_leaves;

  /// Every family on, including the distribution screen.
  static AuditConfig all() {
    AuditConfig a;
    a.check_distribution = true;
    return a;
  }
};

/// True when the DWS_AUDIT environment variable asks for auditing ("1",
/// "true", "on", any non-empty value except "0"/"false"/"off").
bool env_enabled();

/// Everything one audited run produced: the violations (empty == clean) and
/// the ledger's headline counters, for reporting and tests.
struct AuditReport {
  std::vector<Violation> violations;
  std::size_t violations_total = 0;  ///< including ones past kMaxViolations

  std::uint64_t nodes_expanded = 0;
  std::uint64_t nodes_tracked = 0;   ///< fingerprints actually stored
  std::uint64_t requests = 0;        ///< steal requests sent
  std::uint64_t responses_sent = 0;
  std::uint64_t responses_received = 0;
  std::uint64_t tokens = 0;
  std::uint64_t lifeline_registers = 0;
  std::uint64_t lifeline_pushes = 0;
  std::uint64_t steal_timeouts = 0;       ///< abandoned requests (fault mode)
  std::uint64_t duplicate_responses = 0;  ///< network duplicates discarded
  std::uint64_t token_regens = 0;         ///< termination tokens regenerated

  bool ok() const noexcept { return violations_total == 0; }
  /// One-line verdict; multi-line violation list when not ok().
  std::string summary() const;
};

/// The invariant checker. Attach to a run, then call finalize() with the
/// run's result to cross-check ledger totals:
///
///   Auditor auditor(config);
///   ws::RunResult r = ws::run_simulation(config, &auditor);
///   auditor.finalize(r);
///   if (!auditor.report().ok()) { ... auditor.report().summary() ... }
///
/// The auditor never mutates scheduler state and never aborts; everything it
/// finds lands in the report.
class Auditor final : public proto::RunObserver {
 public:
  explicit Auditor(const ws::RunConfig& config, AuditConfig audit = {});

  // proto::RunObserver hooks (incremental checks).
  void on_root(topo::Rank rank, const uts::TreeNode& root) override;
  void on_node_expanded(topo::Rank rank, const uts::TreeNode& node,
                        std::uint32_t children) override;
  void on_steal_request_sent(topo::Rank thief, topo::Rank victim,
                             std::uint32_t bytes) override;
  void on_steal_response_sent(topo::Rank victim, topo::Rank thief,
                              std::uint64_t chunks, std::uint64_t nodes,
                              std::uint32_t bytes) override;
  void on_steal_response_received(topo::Rank thief, topo::Rank victim,
                                  std::uint64_t chunks,
                                  std::uint64_t nodes) override;
  void on_lifeline_register_sent(topo::Rank rank, topo::Rank target,
                                 std::uint32_t bytes) override;
  void on_lifeline_push_sent(topo::Rank from, topo::Rank to,
                             std::uint64_t chunks, std::uint64_t nodes,
                             std::uint32_t bytes) override;
  void on_lifeline_push_received(topo::Rank rank, std::uint64_t chunks,
                                 std::uint64_t nodes) override;
  void on_steal_timeout(topo::Rank thief, topo::Rank victim,
                        std::uint32_t attempt) override;
  void on_duplicate_response(topo::Rank thief, std::uint64_t chunks,
                             std::uint64_t nodes) override;
  void on_token_sent(topo::Rank from, topo::Rank to,
                     const proto::Token& t) override;
  void on_token_accepted(topo::Rank rank, const proto::Token& t) override;
  void on_token_regenerated(topo::Rank rank, std::uint32_t generation) override;
  void on_phase(topo::Rank rank, support::SimTime t,
                metrics::Phase p) override;
  void on_termination(support::SimTime t) override;
  void on_finish(topo::Rank rank, support::SimTime t) override;

  /// Cross-check the ledger against the run's result (totals, NetworkStats,
  /// oracle, distribution family). Call exactly once, after the run.
  void finalize(const ws::RunResult& result);

  const AuditReport& report() const noexcept { return report_; }

 private:
  void violation(Family f, std::string message);
  /// Current ledger estimate of rank r's stack depth (in tree nodes).
  std::int64_t stack_estimate(topo::Rank r) const noexcept;
  void check_distributions();

  ws::RunConfig config_;
  AuditConfig audit_;
  AuditReport report_;

  // Work-conservation ledger, one slot per rank.
  std::vector<std::uint64_t> created_;   // root + children generated
  std::vector<std::uint64_t> expanded_;  // nodes popped and expanded
  std::vector<std::uint64_t> sent_;      // nodes shipped (responses + pushes)
  std::vector<std::uint64_t> recv_;      // nodes landed (responses + pushes)
  std::uint64_t leaves_ = 0;
  std::uint64_t chunks_sent_ = 0;
  std::uint64_t chunks_recv_ = 0;
  std::uint64_t work_responses_sent_ = 0;  // work-carrying messages (Mattern)
  std::uint64_t work_responses_recv_ = 0;
  bool root_seen_ = false;
  std::unordered_set<std::uint64_t> fingerprints_;
  std::uint64_t fingerprint_dups_ = 0;

  // Message-conservation ledger.
  std::vector<std::uint8_t> request_outstanding_;   // per thief
  std::vector<std::uint8_t> response_outstanding_;  // per thief
  std::uint64_t bytes_sent_ = 0;

  /// Fault mode (drops/dups/timeouts configured): per-pair request/response
  /// pairing is legitimately violated — a thief re-requests after abandoning,
  /// a victim answers a request the timeout already wrote off — so those
  /// checks are skipped. Work conservation stays EXACT: drops are counted at
  /// send by both the ledger and sim::NetworkStats, duplicates are counted in
  /// fault::FaultStats and added back in finalize(), and banked late answers
  /// flow through the ordinary response hooks.
  bool relaxed_ = false;

  // Clock / trace ledger.
  std::optional<proto::Token> last_token_to_zero_;
  std::optional<proto::Token> accepted_token_;  // last token rank 0 accepted
  std::vector<support::SimTime> last_phase_time_;
  std::vector<std::uint8_t> finished_;
  bool terminated_ = false;
  support::SimTime termination_time_ = 0;
  bool finalized_ = false;
};

/// One run, fully audited: the result plus the audit's verdict.
struct AuditedResult {
  ws::RunResult result;
  AuditReport report;
};

/// Run the simulation with an Auditor attached and finalize the report.
/// Fills AuditConfig::expected_nodes/leaves from the sequential oracle when
/// unset (skipped if the tree exceeds `oracle_node_limit` nodes).
AuditedResult audited_run(const ws::RunConfig& config, AuditConfig audit = {},
                          std::uint64_t oracle_node_limit = 50'000'000);

/// run_simulation with the default audit families on; throws
/// std::runtime_error carrying AuditReport::summary() if any invariant is
/// violated. This is what exp::SweepRunner's default run function executes
/// per point when DWS_AUDIT=1 (the runner's scoped check handler turns the
/// throw into a failed point instead of a crash).
ws::RunResult checked_run(const ws::RunConfig& config);

}  // namespace dws::audit
