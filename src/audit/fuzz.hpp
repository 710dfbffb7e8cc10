#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "support/expected.hpp"
#include "ws/scheduler.hpp"

/// Property-based configuration fuzzing over the audited simulator
/// (examples/audit_fuzz is the CLI front end, tests/audit the regression
/// harness). Each case derives a full RunConfig from a seed — tree shape,
/// rank count, placement, every scheduler knob — and runs it through
/// exp::SweepRunner with the full audit family enabled. A failing case is
/// greedily shrunk to a minimal still-failing config and printed as a
/// ./examples/uts_cli command line anyone can paste to reproduce.
namespace dws::audit {

/// Deliberate observer-stream corruption for mutation testing: each mode
/// tells the auditor one specific lie, once, and the fuzzer asserts the
/// audit catches it. This is how we test the checker itself.
enum class Mutation : std::uint8_t {
  kNone,          ///< honest run (the normal fuzzing mode)
  kDropReceipt,   ///< swallow the first work-carrying steal-response receipt
  kDoubleExpand,  ///< report the first node expansion twice
  kLeakMessage,   ///< hide the first steal request from the ledger
};

support::Expected<Mutation> parse_mutation(std::string_view s);
const char* mutation_flag_values();  // "none|drop-receipt|double-expand|..."
const char* to_string(Mutation m);

struct FuzzOptions {
  std::uint64_t cases = 200;
  std::uint64_t seed = 1;
  /// Configs whose sequential tree exceeds this many nodes are regenerated
  /// (bounds the cost of one case and of the per-case oracle).
  std::uint64_t node_budget = 2'000'000;
  unsigned threads = 0;  ///< SweepRunner fan-out; 0 = hardware concurrency
  bool progress = false;
  Mutation mutation = Mutation::kNone;
  /// Draw fault-injection knobs (message loss, duplication, jitter,
  /// stragglers, pauses — fault::FaultConfig) for roughly half the cases.
  /// Cases with loss always get steal/token timeouts (the liveness recovery
  /// path), which also puts the auditor in its relaxed message mode.
  bool faults = false;
};

struct FuzzFailure {
  ws::RunConfig config;    ///< minimal still-failing config (after shrinking)
  ws::RunConfig original;  ///< the case as generated
  std::string first_violation;
  std::uint32_t shrink_steps = 0;
  std::string reproducer;  ///< uts_cli command line for `config`
};

struct FuzzResult {
  /// Cases up to and including the first failing one (all cases when none
  /// fails), and the rest. Cases are claimed in index order and a failure
  /// only cancels later ones, so both counts are independent of `threads`.
  std::uint64_t cases_run = 0;
  std::uint64_t cases_skipped = 0;
  std::optional<FuzzFailure> failure;
  bool ok() const noexcept { return !failure.has_value(); }
};

/// Deterministic random RunConfig for `seed`: subcritical binomial or
/// bounded geometric tree, 2..64 ranks over all three placements, and every
/// scheduler knob drawn from its interesting range. With `with_faults`,
/// roughly half the configs additionally draw a fault::FaultConfig plus the
/// timeouts that keep a lossy run live. The returned config validates and
/// its sequential tree fits `node_budget`.
ws::RunConfig random_config(std::uint64_t seed, std::uint64_t node_budget,
                            bool with_faults = false);

/// The uts_cli invocation reproducing an audited run of `config`.
std::string reproducer_command(const ws::RunConfig& config);

/// Run `opts.cases` random configs through the audited simulator on a
/// SweepRunner pool. On the first audit violation (or simulator DWS_CHECK
/// failure) the sweep cancels, the failing config is shrunk, and the result
/// carries the minimal reproducer.
FuzzResult run_fuzz(const FuzzOptions& opts);

}  // namespace dws::audit
