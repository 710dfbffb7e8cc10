#include "audit/fuzz.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "exp/record.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "proto/replay.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "uts/sequential.hpp"

namespace dws::audit {

namespace {

/// Forwards every observer hook to the real Auditor, telling exactly one lie
/// per run according to the mutation mode. The simulation itself stays
/// honest — only the auditor's view is corrupted, which is precisely what a
/// conservation bug would look like from the ledger's side.
class MutatingObserver final : public proto::HookRecorder {
 public:
  MutatingObserver(proto::RunObserver& inner, Mutation mode)
      : inner_(inner), mode_(mode) {}

  void on_hook(const proto::HookRecord& r) override {
    using Kind = proto::HookRecord::Kind;
    if (!fired_) {
      if (mode_ == Mutation::kDoubleExpand && r.kind == Kind::kNodeExpanded) {
        fired_ = true;
        proto::replay(r, inner_);  // the expansion is reported twice
      } else if (mode_ == Mutation::kLeakMessage &&
                 r.kind == Kind::kStealRequestSent) {
        fired_ = true;
        return;  // the request is never reported sent
      } else if (mode_ == Mutation::kDropReceipt &&
                 r.kind == Kind::kStealResponseReceived && r.v > 0) {
        fired_ = true;
        return;  // a work-carrying response is never reported received
      }
    }
    proto::replay(r, inner_);
  }

 private:
  proto::RunObserver& inner_;
  Mutation mode_;
  bool fired_ = false;
};

/// Greedy shrinking stops after this many adopted simplifications.
constexpr std::uint32_t kMaxShrinkRounds = 64;

/// One fully audited point: oracle, auditor (optionally behind a mutator),
/// run, finalize. Every audit family runs; the distribution screen only for
/// configs small enough to afford it. Throws std::runtime_error on any
/// violation — SweepRunner turns that into a failed point, the shrinker into
/// a rejection test.
ws::RunResult audited_point_run(const ws::RunConfig& config,
                                const FuzzOptions& opts) {
  AuditConfig acfg;
  // Distribution sampling costs O(samples + ranks) per point; cap the rank
  // count it runs at so huge fuzz cases don't dominate the budget.
  acfg.check_distribution = config.num_ranks <= 256;
  const uts::TreeStats seq =
      uts::enumerate_sequential(config.tree, opts.node_budget);
  if (!seq.truncated) {
    acfg.expected_nodes = seq.nodes;
    acfg.expected_leaves = seq.leaves;
  }

  Auditor auditor(config, acfg);
  ws::RunResult result;
  if (opts.mutation == Mutation::kNone) {
    result = ws::run_simulation(config, &auditor);
  } else {
    MutatingObserver liar(auditor, opts.mutation);
    result = ws::run_simulation(config, &liar);
  }
  auditor.finalize(result);
  if (!auditor.report().ok()) {
    throw std::runtime_error(auditor.report().summary());
  }
  return result;
}

struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void throwing_check_handler(const char* expr, const char* file,
                                         int line) {
  throw CheckFailure(std::string("DWS_CHECK failed: ") + expr + " at " + file +
                     ":" + std::to_string(line));
}

/// Does `config` still fail its audit? Used by the shrinker outside the
/// SweepRunner, so it scopes its own throwing check handler.
bool still_fails(const ws::RunConfig& config, const FuzzOptions& opts,
                 std::string* message) {
  const support::CheckHandler previous =
      support::set_check_handler(&throwing_check_handler);
  bool fails = false;
  try {
    audited_point_run(config, opts);
  } catch (const std::exception& e) {
    fails = true;
    if (message != nullptr) *message = e.what();
  }
  support::set_check_handler(previous);
  return fails;
}

/// Candidate simplifications of `config`, most aggressive first. Only valid
/// configs are returned; every candidate strictly shrinks some dimension.
std::vector<ws::RunConfig> shrink_candidates(const ws::RunConfig& config) {
  std::vector<ws::RunConfig> out;
  const std::string current = exp::canonical_config(config);
  auto push = [&out, &current](ws::RunConfig candidate) {
    if (!candidate.validate()) return;
    if (exp::canonical_config(candidate) == current) return;
    out.push_back(std::move(candidate));
  };

  {  // collapse the job: 2 ranks, one per node, origin corner
    ws::RunConfig c = config;
    c.num_ranks = 2;
    c.placement = topo::Placement::kOnePerNode;
    c.procs_per_node = 1;
    c.origin_cube = 0;
    push(std::move(c));
  }
  if (config.num_ranks / 2 >= 2) {  // halve ranks, keep placement legal
    ws::RunConfig c = config;
    topo::Rank halved = config.num_ranks / 2;
    halved -= halved % config.procs_per_node;
    if (halved >= config.procs_per_node && halved >= 2) {
      c.num_ranks = halved;
      push(std::move(c));
    }
  }
  if (config.tree.root_branching > 1) {  // halve the root fan-out
    ws::RunConfig c = config;
    c.tree.root_branching = config.tree.root_branching / 2;
    push(std::move(c));
  }
  if (config.tree.type != uts::TreeType::kBinomial && config.tree.gen_mx > 1) {
    ws::RunConfig c = config;
    c.tree.gen_mx = config.tree.gen_mx - 1;
    push(std::move(c));
  }
  if (config.tree.type == uts::TreeType::kBinomial && config.tree.q > 0.05) {
    ws::RunConfig c = config;  // thin the tree
    c.tree.q = config.tree.q * 0.8;
    push(std::move(c));
  }
  if (config.congestion.enabled) {
    ws::RunConfig c = config;
    c.congestion = sim::CongestionParams{};
    c.congestion_scale = 0.0;
    push(std::move(c));
  }
  if (config.fault.enabled() || config.ws.steal_timeout != 0 ||
      config.ws.token_timeout != 0) {
    // All-or-nothing: the timeouts exist to keep a lossy run live, so they
    // only come off together with the fault model (validate() would reject
    // drop_prob > 0 without them).
    ws::RunConfig c = config;
    c.fault = fault::FaultConfig{};
    c.ws.steal_timeout = 0;
    c.ws.token_timeout = 0;
    push(std::move(c));
  }
  {  // one knob at a time back to the boring default
    ws::RunConfig c = config;
    c.ws.idle_policy = ws::IdlePolicy::kPersistentSteal;
    push(std::move(c));
    c = config;
    c.ws.one_sided_steals = false;
    push(std::move(c));
    c = config;
    c.ws.poll_interval = 1;
    push(std::move(c));
    c = config;
    c.ws.sha_rounds = 1;
    push(std::move(c));
    c = config;
    c.ws.steal_amount = ws::StealAmount::kOneChunk;
    push(std::move(c));
    c = config;
    c.ws.victim_policy = ws::VictimPolicy::kRoundRobin;
    push(std::move(c));
    if (config.ws.adaptive_steal_amount) {
      c = config;
      c.ws.adaptive_steal_amount = false;
      c.ws.adapt_yield_threshold = 0;
      push(std::move(c));
    }
    if (config.ws.victim_policy == ws::VictimPolicy::kAdaptive ||
        config.ws.adaptive_steal_amount) {
      c = config;  // feedback knobs back to defaults
      c.ws.adapt_decay = 0.25;
      c.ws.adapt_epsilon = 0.1;
      c.ws.adapt_refresh_interval = 32;
      push(std::move(c));
    }
    if (config.ws.hierarchical_remote_tries != 1) {
      c = config;
      c.ws.hierarchical_remote_tries = 1;
      push(std::move(c));
    }
    if (config.ws.chunk_size > 1) {
      c = config;
      c.ws.chunk_size = config.ws.chunk_size / 2;
      push(std::move(c));
    }
    c = config;
    c.ws.seed = 1;
    push(std::move(c));
  }
  return out;
}

}  // namespace

support::Expected<Mutation> parse_mutation(std::string_view s) {
  using E = support::Expected<Mutation>;
  if (s == "none") return Mutation::kNone;
  if (s == "drop-receipt") return Mutation::kDropReceipt;
  if (s == "double-expand") return Mutation::kDoubleExpand;
  if (s == "leak-message") return Mutation::kLeakMessage;
  return E::failure("mutation must be " + std::string(mutation_flag_values()) +
                    ", got '" + std::string(s) + "'");
}

const char* mutation_flag_values() {
  return "none|drop-receipt|double-expand|leak-message";
}

const char* to_string(Mutation m) {
  switch (m) {
    case Mutation::kNone: return "none";
    case Mutation::kDropReceipt: return "drop-receipt";
    case Mutation::kDoubleExpand: return "double-expand";
    case Mutation::kLeakMessage: return "leak-message";
  }
  return "?";
}

ws::RunConfig random_config(std::uint64_t seed, std::uint64_t node_budget,
                            bool with_faults) {
  // Rejection loop: some draws produce trees over budget; re-derive from a
  // decorrelated sub-seed until one fits. The loop terminates fast — the
  // parameter ranges below make oversized trees the rare case.
  for (std::uint64_t attempt = 0; attempt < 1000; ++attempt) {
    support::Xoshiro256StarStar rng(seed + attempt * 0x9E3779B97F4A7C15ull);

    ws::RunConfig cfg;
    cfg.tree.name = "fuzz";
    if (rng.next_below(3) == 0) {
      cfg.tree.type = uts::TreeType::kGeometric;
      cfg.tree.root_branching =
          2 + static_cast<std::uint32_t>(rng.next_below(4));
      cfg.tree.gen_mx = 4 + static_cast<std::uint32_t>(rng.next_below(5));
      cfg.tree.shape = static_cast<uts::GeoShape>(rng.next_below(4));
    } else {
      cfg.tree.type = uts::TreeType::kBinomial;
      cfg.tree.root_branching =
          10 + static_cast<std::uint32_t>(rng.next_below(500));
      cfg.tree.m = 2 + static_cast<std::uint32_t>(rng.next_below(4));
      cfg.tree.q = (0.5 + rng.next_double() * 0.45) / cfg.tree.m;
    }
    cfg.tree.root_seed = static_cast<std::uint32_t>(rng.next_below(1000));

    const auto ppn_choice = static_cast<std::uint32_t>(rng.next_below(3));
    if (ppn_choice == 0) {
      cfg.placement = topo::Placement::kOnePerNode;
      cfg.procs_per_node = 1;
      cfg.num_ranks = 2 + static_cast<topo::Rank>(rng.next_below(40));
    } else {
      cfg.placement = ppn_choice == 1 ? topo::Placement::kRoundRobin
                                      : topo::Placement::kGrouped;
      cfg.procs_per_node = 1u << (1 + rng.next_below(3));  // 2, 4, 8
      cfg.num_ranks =
          cfg.procs_per_node * (1 + static_cast<topo::Rank>(rng.next_below(8)));
    }

    cfg.ws.chunk_size = 1 + static_cast<std::uint32_t>(rng.next_below(30));
    cfg.ws.victim_policy = static_cast<ws::VictimPolicy>(rng.next_below(5));
    cfg.ws.steal_amount = static_cast<ws::StealAmount>(rng.next_below(2));
    cfg.ws.idle_policy = static_cast<ws::IdlePolicy>(rng.next_below(2));
    cfg.ws.lifeline_tries = 1 + static_cast<std::uint32_t>(rng.next_below(6));
    cfg.ws.hierarchical_local_tries =
        static_cast<std::uint32_t>(rng.next_below(5));
    cfg.ws.hierarchical_remote_tries =
        1 + static_cast<std::uint32_t>(rng.next_below(3));
    cfg.ws.adaptive_steal_amount = rng.next_below(4) == 0;
    if (cfg.ws.victim_policy == ws::VictimPolicy::kAdaptive ||
        cfg.ws.adaptive_steal_amount) {
      cfg.ws.adapt_decay = 0.05 + 0.95 * rng.next_double();
      cfg.ws.adapt_epsilon = 0.02 + 0.5 * rng.next_double();
      cfg.ws.adapt_refresh_interval =
          1 + static_cast<std::uint32_t>(rng.next_below(64));
      cfg.ws.adapt_yield_threshold =
          static_cast<std::uint32_t>(rng.next_below(80));
    }
    cfg.ws.one_sided_steals = rng.next_below(2) == 1;
    cfg.ws.poll_interval = 1 + static_cast<std::uint32_t>(rng.next_below(4));
    cfg.ws.sha_rounds = 1 + static_cast<std::uint32_t>(rng.next_below(4));
    cfg.ws.seed = rng.next();
    if (rng.next_below(4) == 0) cfg.ws.alias_table_max_ranks = 1;
    cfg.origin_cube = static_cast<std::uint32_t>(rng.next_below(500));
    if (rng.next_below(2) == 1) cfg.enable_congestion(0.5 + rng.next_double());

    if (with_faults && rng.next_below(2) == 1) {
      cfg.fault.drop_prob = rng.next_below(2) == 1 ? 0.05 * rng.next_double()
                                                   : 0.0;
      cfg.fault.dup_prob = rng.next_below(2) == 1 ? 0.05 * rng.next_double()
                                                  : 0.0;
      cfg.fault.jitter_frac = rng.next_below(2) == 1 ? 0.5 * rng.next_double()
                                                     : 0.0;
      if (rng.next_below(3) == 0) {
        cfg.fault.degraded_frac = 0.2 * rng.next_double();
        cfg.fault.degraded_mult = 1.0 + 4.0 * rng.next_double();
      }
      if (rng.next_below(3) == 0) {
        cfg.fault.straggler_ranks =
            1 + static_cast<std::uint32_t>(rng.next_below(2));
        cfg.fault.straggler_factor = 2.0 + 6.0 * rng.next_double();
      }
      if (rng.next_below(4) == 0) {
        cfg.fault.pause_ranks = 1;
        cfg.fault.pause_duration =
            1000 + static_cast<support::SimTime>(rng.next_below(100'000));
        cfg.fault.pause_window =
            static_cast<support::SimTime>(rng.next_below(1'000'000));
      }
      cfg.fault.seed = rng.next();
      if (cfg.fault.drop_prob > 0.0) {
        // Liveness: loss needs the timeout recovery paths (validate()
        // rejects the combination otherwise).
        cfg.ws.steal_timeout =
            50'000 + static_cast<support::SimTime>(rng.next_below(200'000));
        cfg.ws.token_timeout =
            1'000'000 + static_cast<support::SimTime>(rng.next_below(9'000'000));
      } else if (cfg.fault.enabled() && rng.next_below(2) == 1) {
        cfg.ws.steal_timeout =
            50'000 + static_cast<support::SimTime>(rng.next_below(200'000));
      }
    }

    if (!cfg.validate()) continue;
    if (uts::enumerate_sequential(cfg.tree, node_budget).truncated) continue;
    return cfg;
  }
  DWS_CHECK(false && "random_config could not fit the node budget");
}

std::string reproducer_command(const ws::RunConfig& config) {
  const auto* placement = [&] {
    switch (config.placement) {
      case topo::Placement::kOnePerNode: return "1n";
      case topo::Placement::kRoundRobin: return "rr";
      case topo::Placement::kGrouped: return "g";
    }
    return "1n";
  }();
  const auto* policy = [&] {
    switch (config.ws.victim_policy) {
      case ws::VictimPolicy::kRoundRobin: return "ref";
      case ws::VictimPolicy::kRandom: return "rand";
      case ws::VictimPolicy::kTofuSkewed: return "tofu";
      case ws::VictimPolicy::kHierarchical: return "hier";
      case ws::VictimPolicy::kAdaptive: return "adaptive";
    }
    return "ref";
  }();

  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "./examples/uts_cli --engine sim -t %u -b %u -q %.17g -m %u -r %u "
      "-d %u -a %u --ranks %u --placement %s --ppn %u --origin-cube %u "
      "--policy %s --steal %s --chunk %u -g %u --poll %u --seed %llu "
      "--idle %s --lifeline-tries %u --local-tries %u%s "
      "--congestion %.17g --alias-max %u",
      static_cast<unsigned>(config.tree.type), config.tree.root_branching,
      config.tree.q, config.tree.m, config.tree.root_seed, config.tree.gen_mx,
      static_cast<unsigned>(config.tree.shape), config.num_ranks, placement,
      config.procs_per_node, config.origin_cube, policy,
      config.ws.steal_amount == ws::StealAmount::kHalf ? "half" : "1",
      config.ws.chunk_size, config.ws.sha_rounds, config.ws.poll_interval,
      static_cast<unsigned long long>(config.ws.seed),
      config.ws.idle_policy == ws::IdlePolicy::kLifeline ? "lifeline"
                                                         : "persistent",
      config.ws.lifeline_tries, config.ws.hierarchical_local_tries,
      config.ws.one_sided_steals ? " --one-sided" : "",
      config.congestion.enabled ? config.congestion_scale : 0.0,
      config.ws.alias_table_max_ranks);

  std::string cmd(buf);
  const auto flag_u64 = [&cmd](const char* flag, std::uint64_t v) {
    cmd += ' ';
    cmd += flag;
    cmd += ' ';
    cmd += std::to_string(v);
  };
  const auto flag_f64 = [&cmd, &buf](const char* flag, double v) {
    std::snprintf(buf, sizeof(buf), " %s %.17g", flag, v);
    cmd += buf;
  };
  if (config.ws.steal_timeout != 0) {
    flag_u64("--steal-timeout",
             static_cast<std::uint64_t>(config.ws.steal_timeout));
    flag_u64("--steal-retry-max", config.ws.steal_retry_max);
    flag_f64("--steal-backoff", config.ws.steal_backoff);
  }
  if (config.ws.token_timeout != 0) {
    flag_u64("--token-timeout",
             static_cast<std::uint64_t>(config.ws.token_timeout));
  }
  if (config.ws.hierarchical_remote_tries != 1) {
    flag_u64("--remote-tries", config.ws.hierarchical_remote_tries);
  }
  if (config.ws.victim_policy == ws::VictimPolicy::kAdaptive ||
      config.ws.adaptive_steal_amount) {
    flag_f64("--adapt-decay", config.ws.adapt_decay);
    flag_f64("--adapt-epsilon", config.ws.adapt_epsilon);
    flag_u64("--adapt-refresh", config.ws.adapt_refresh_interval);
  }
  if (config.ws.adaptive_steal_amount) {
    cmd += " --adaptive-amount";
    flag_u64("--adapt-yield-threshold", config.ws.adapt_yield_threshold);
  }
  const fault::FaultConfig& f = config.fault;
  if (f.enabled()) {
    if (f.drop_prob > 0.0) flag_f64("--fault-drop", f.drop_prob);
    if (f.dup_prob > 0.0) flag_f64("--fault-dup", f.dup_prob);
    if (f.jitter_frac > 0.0) flag_f64("--fault-jitter", f.jitter_frac);
    if (f.degraded_frac > 0.0) {
      flag_f64("--fault-degraded-frac", f.degraded_frac);
      flag_f64("--fault-degraded-mult", f.degraded_mult);
    }
    if (f.straggler_ranks > 0) {
      flag_u64("--fault-stragglers", f.straggler_ranks);
      flag_f64("--fault-straggler-factor", f.straggler_factor);
    }
    if (f.pause_ranks > 0 && f.pause_duration > 0) {
      flag_u64("--fault-pauses", f.pause_ranks);
      flag_u64("--fault-pause-duration",
               static_cast<std::uint64_t>(f.pause_duration));
      flag_u64("--fault-pause-window",
               static_cast<std::uint64_t>(f.pause_window));
    }
    flag_u64("--fault-seed", f.seed);
  }
  cmd += " --audit";
  return cmd;
}

FuzzResult run_fuzz(const FuzzOptions& opts) {
  DWS_CHECK(opts.cases > 0);

  auto configs = std::make_shared<std::vector<ws::RunConfig>>();
  configs->reserve(opts.cases);
  support::SplitMix64 case_seeds(opts.seed);
  for (std::uint64_t i = 0; i < opts.cases; ++i) {
    configs->push_back(
        random_config(case_seeds.next(), opts.node_budget, opts.faults));
  }

  exp::SweepSpec spec(configs->front());
  std::vector<exp::AxisPoint> points;
  points.reserve(configs->size());
  for (std::size_t i = 0; i < configs->size(); ++i) {
    points.push_back({"#" + std::to_string(i),
                      [configs, i](ws::RunConfig& cfg) { cfg = (*configs)[i]; }});
  }
  spec.axis("case", std::move(points));

  exp::RunnerOptions ropts;
  ropts.threads = opts.threads;
  ropts.progress = opts.progress;
  ropts.run = [&opts](const ws::RunConfig& cfg) {
    return audited_point_run(cfg, opts);
  };
  const exp::SweepReport report = exp::SweepRunner(ropts).run(spec);

  FuzzResult out;
  const exp::PointResult* failed = report.first_failure();
  out.cases_run = failed == nullptr ? opts.cases : failed->index + 1;
  out.cases_skipped = opts.cases - out.cases_run;
  if (failed == nullptr) return out;

  FuzzFailure failure;
  failure.original = (*configs)[failed->index];
  failure.config = failure.original;
  failure.first_violation = failed->error;

  // Greedy shrink: adopt the first candidate that still fails, restart from
  // it, stop when no candidate fails (local minimum) or the round budget is
  // spent. Deterministic because the runs are.
  bool progressed = true;
  while (progressed && failure.shrink_steps < kMaxShrinkRounds) {
    progressed = false;
    for (ws::RunConfig& candidate : shrink_candidates(failure.config)) {
      std::string message;
      if (still_fails(candidate, opts, &message)) {
        failure.config = std::move(candidate);
        failure.first_violation = std::move(message);
        ++failure.shrink_steps;
        progressed = true;
        break;
      }
    }
  }

  failure.reproducer = reproducer_command(failure.config);
  out.failure = std::move(failure);
  return out;
}

}  // namespace dws::audit
