/// sweep_cli: declare and run a parameter sweep from the command line — the
/// generic front end to the dws::exp engine the figure binaries are built on.
///
///   # 3 rank counts x 2 policies, 8 worker threads, JSONL records
///   ./sweep_cli --tree SIM200K --ranks 128,256,512 --policy ref,tofu --steal half --threads 8 --out results.jsonl
///
///   # zip mode: axes advance together instead of crossing
///   ./sweep_cli --tree SIM200K --ranks 64,128 --chunk 4,8 --zip
///
/// Every comma-separated flag becomes one sweep axis (declared in the order
/// listed by --help; the last one varies fastest under the default cartesian
/// mode). Records stream to --out, or to stdout when no file is given.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "exp/args.hpp"
#include "exp/record.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "ws/scheduler.hpp"

namespace {

using namespace dws;

support::Expected<std::vector<std::uint32_t>> parse_u32_list(
    const std::string& s) {
  std::vector<std::uint32_t> out;
  for (const std::string& item : exp::split_list(s)) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(item.c_str(), &end, 10);
    if (end == item.c_str() || *end != '\0' || v == 0) {
      return support::Expected<std::vector<std::uint32_t>>::failure(
          "'" + item + "' is not a positive integer");
    }
    out.push_back(static_cast<std::uint32_t>(v));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string tree = "SIM200K";
  std::string ranks = "256";
  std::string policy;
  std::string steal;
  std::string chunk;
  std::string sha_rounds;
  std::string placement;
  std::string local_tries;
  std::string seeds;
  bool zip = false;
  std::uint32_t threads = 0;
  std::string out;
  std::string format = "jsonl";
  bool no_congestion = false;
  bool wall = false;

  exp::ArgSpec spec(argv[0],
                    "run a declarative parameter sweep over the work-stealing "
                    "simulator; comma-separated flags become sweep axes");
  spec.str("--tree", "", "catalogue tree name(s), comma-separated", &tree)
      .str("--ranks", "-n", "simulated MPI rank count(s)", &ranks)
      .str("--policy", "-v",
           std::string("victim policies: ") + exp::policy_flag_values(),
           &policy)
      .str("--steal", "-s",
           std::string("steal amounts: ") + exp::steal_flag_values(), &steal)
      .str("--chunk", "-c", "chunk size(s) in nodes", &chunk)
      .str("--sha-rounds", "", "SHA rounds charged per node", &sha_rounds)
      .str("--placement", "-p",
           std::string("process allocations: ") + exp::placement_flag_values(),
           &placement)
      .str("--local-tries", "",
           "hier policy: local picks per remote pick (e.g. 0,2,4)",
           &local_tries)
      .str("--seeds", "", "scheduler RNG seeds (e.g. 1,2,3)", &seeds)
      .toggle("--zip", "", "advance all axes together instead of crossing",
              &zip)
      .toggle("--no-congestion", "", "disable the fluid congestion model",
              &no_congestion)
      .u32("--threads", "-j", "sweep worker threads (default: all cores)",
           &threads)
      .str("--out", "-o", "record file (default: stdout)", &out)
      .str("--format", "", "record format: jsonl|csv", &format)
      .toggle("--wall", "",
              "include host wall-clock per record (breaks byte-identity "
              "across runs)",
              &wall);
  if (const auto status = spec.parse(argc, argv); !status) {
    std::fprintf(stderr, "%s\n%s", status.message().c_str(),
                 spec.usage().c_str());
    return 2;
  }
  if (spec.help_requested()) return 0;

  exp::RecordOptions record_options;
  record_options.wall_clock = wall;
  if (format == "csv") {
    record_options.format = exp::RecordFormat::kCsv;
  } else if (format != "jsonl") {
    std::fprintf(stderr, "--format must be jsonl or csv\n");
    return 2;
  }

  auto trees = exp::tree_axis(exp::split_list(tree));
  if (!trees) {
    std::fprintf(stderr, "--tree: %s\n", trees.error().c_str());
    return 2;
  }

  // The base config: every axis mutates a copy of this. The tree and ranks
  // flags always produce an axis (single-valued axes are fine), so the
  // placeholder tree and rank count here never survive expansion.
  ws::RunConfig base;
  base.num_ranks = 1;
  base.ws.chunk_size = 4;
  if (!no_congestion) base.enable_congestion(1.0);

  exp::SweepSpec sweep(base,
                       zip ? exp::SweepMode::kZip : exp::SweepMode::kCartesian);
  sweep.axis(std::move(trees).value());
  {
    const auto list = parse_u32_list(ranks);
    if (!list) {
      std::fprintf(stderr, "--ranks: %s\n", list.error().c_str());
      return 2;
    }
    sweep.axis(exp::ranks_axis(
        std::vector<topo::Rank>(list.value().begin(), list.value().end())));
  }
  if (!placement.empty()) {
    std::vector<std::pair<topo::Placement, std::uint32_t>> allocs;
    for (const std::string& item : exp::split_list(placement)) {
      const auto p = exp::parse_placement(item);
      if (!p) {
        std::fprintf(stderr, "--placement: %s\n", p.error().c_str());
        return 2;
      }
      allocs.emplace_back(p.value(),
                          p.value() == topo::Placement::kOnePerNode ? 1u : 8u);
    }
    sweep.axis(exp::placement_axis(allocs));
  }
  if (!policy.empty()) {
    std::vector<ws::VictimPolicy> policies;
    for (const std::string& item : exp::split_list(policy)) {
      const auto p = exp::parse_policy(item);
      if (!p) {
        std::fprintf(stderr, "--policy: %s\n", p.error().c_str());
        return 2;
      }
      policies.push_back(p.value());
    }
    sweep.axis(exp::policy_axis(policies));
  }
  if (!steal.empty()) {
    std::vector<ws::StealAmount> amounts;
    for (const std::string& item : exp::split_list(steal)) {
      const auto a = exp::parse_steal(item);
      if (!a) {
        std::fprintf(stderr, "--steal: %s\n", a.error().c_str());
        return 2;
      }
      amounts.push_back(a.value());
    }
    sweep.axis(exp::steal_axis(amounts));
  }
  if (!chunk.empty()) {
    const auto list = parse_u32_list(chunk);
    if (!list) {
      std::fprintf(stderr, "--chunk: %s\n", list.error().c_str());
      return 2;
    }
    sweep.axis(exp::chunk_size_axis(list.value()));
  }
  if (!sha_rounds.empty()) {
    const auto list = parse_u32_list(sha_rounds);
    if (!list) {
      std::fprintf(stderr, "--sha-rounds: %s\n", list.error().c_str());
      return 2;
    }
    sweep.axis(exp::sha_rounds_axis(list.value()));
  }
  if (!local_tries.empty()) {
    // 0 is meaningful here (all-remote), so split/convert without the
    // parse_u32_list positivity rule.
    std::vector<std::uint32_t> list;
    for (const std::string& item : exp::split_list(local_tries)) {
      char* end = nullptr;
      const unsigned long v = std::strtoul(item.c_str(), &end, 10);
      if (end == item.c_str() || *end != '\0') {
        std::fprintf(stderr, "--local-tries: '%s' is not an integer\n",
                     item.c_str());
        return 2;
      }
      list.push_back(static_cast<std::uint32_t>(v));
    }
    sweep.axis(exp::local_tries_axis(list));
  }
  if (!seeds.empty()) {
    const auto list = parse_u32_list(seeds);
    if (!list) {
      std::fprintf(stderr, "--seeds: %s\n", list.error().c_str());
      return 2;
    }
    std::vector<exp::AxisPoint> points;
    for (const std::uint32_t s : list.value()) {
      points.push_back({std::to_string(s), [s](ws::RunConfig& cfg) {
                          cfg.ws.seed = s;
                        }});
    }
    sweep.axis("seed", std::move(points));
  }

  const auto expanded = sweep.expand();
  if (!expanded) {
    std::fprintf(stderr, "sweep expansion failed: %s\n",
                 expanded.error().c_str());
    return 2;
  }
  const auto& points = expanded.value();
  std::fprintf(stderr, "[sweep_cli] %zu points, %s mode\n", points.size(),
               zip ? "zip" : "cartesian");

  exp::RunnerOptions runner_options;
  runner_options.threads = threads;
  const exp::SweepReport report = exp::SweepRunner(runner_options).run(points);

  std::ofstream file;
  if (!out.empty()) {
    file.open(out);
    if (!file) {
      std::fprintf(stderr, "cannot open --out file '%s'\n", out.c_str());
      return 1;
    }
  }
  exp::RecordWriter writer(out.empty() ? std::cout : file, record_options);
  writer.write_report(points, report);
  if (!out.empty()) {
    std::fprintf(stderr, "[sweep_cli] wrote %zu records to %s\n",
                 points.size(), out.c_str());
  }

  if (!report.all_ok()) {
    const exp::PointResult* failure = report.first_failure();
    std::fprintf(stderr, "sweep failed at point %zu: %s\n",
                 failure != nullptr ? failure->index : 0,
                 failure != nullptr ? failure->error.c_str() : "no points");
    return 1;
  }
  return 0;
}
