#include "exp/sweep.hpp"

#include <algorithm>
#include <cstdio>

#include "uts/params.hpp"
#include "ws/config.hpp"

namespace dws::exp {

Axis ranks_axis(const std::vector<topo::Rank>& ranks) {
  Axis axis{"ranks", {}};
  for (const topo::Rank r : ranks) {
    axis.points.push_back(
        {std::to_string(r), [r](ws::RunConfig& cfg) { cfg.num_ranks = r; }});
  }
  return axis;
}

Axis policy_axis(const std::vector<ws::VictimPolicy>& policies) {
  Axis axis{"policy", {}};
  for (const ws::VictimPolicy p : policies) {
    axis.points.push_back({ws::to_string(p), [p](ws::RunConfig& cfg) {
                             cfg.ws.victim_policy = p;
                           }});
  }
  return axis;
}

Axis steal_axis(const std::vector<ws::StealAmount>& amounts) {
  Axis axis{"steal", {}};
  for (const ws::StealAmount a : amounts) {
    axis.points.push_back({ws::to_string(a), [a](ws::RunConfig& cfg) {
                             cfg.ws.steal_amount = a;
                           }});
  }
  return axis;
}

Axis chunk_size_axis(const std::vector<std::uint32_t>& sizes) {
  Axis axis{"chunk", {}};
  for (const std::uint32_t c : sizes) {
    axis.points.push_back(
        {std::to_string(c), [c](ws::RunConfig& cfg) { cfg.ws.chunk_size = c; }});
  }
  return axis;
}

Axis sha_rounds_axis(const std::vector<std::uint32_t>& rounds) {
  Axis axis{"sha_rounds", {}};
  for (const std::uint32_t r : rounds) {
    axis.points.push_back(
        {std::to_string(r), [r](ws::RunConfig& cfg) { cfg.ws.sha_rounds = r; }});
  }
  return axis;
}

support::Expected<Axis> tree_axis(
    const std::vector<std::string>& catalogue_names) {
  Axis axis{"tree", {}};
  for (const std::string& name : catalogue_names) {
    // Resolved here, not at apply time: a point with an unknown tree would
    // still be a well-formed config, so the runner's validation cannot see it.
    const uts::TreeParams* tree = uts::find_tree(name);
    if (tree == nullptr) {
      return support::Expected<Axis>::failure("unknown catalogue tree '" +
                                              name + "'");
    }
    axis.points.push_back(
        {name, [tree](ws::RunConfig& cfg) { cfg.tree = *tree; }});
  }
  return axis;
}

Axis seed_axis(std::uint64_t first, std::uint64_t count) {
  Axis axis{"seed", {}};
  for (std::uint64_t s = first; s < first + count; ++s) {
    axis.points.push_back(
        {std::to_string(s), [s](ws::RunConfig& cfg) { cfg.ws.seed = s; }});
  }
  return axis;
}

Axis local_tries_axis(const std::vector<std::uint32_t>& tries) {
  Axis axis{"local_tries", {}};
  for (const std::uint32_t t : tries) {
    axis.points.push_back({std::to_string(t), [t](ws::RunConfig& cfg) {
                             cfg.ws.hierarchical_local_tries = t;
                           }});
  }
  return axis;
}

Axis sim_shards_axis(const std::vector<std::uint32_t>& shards) {
  Axis axis{"sim_shards", {}};
  for (const std::uint32_t s : shards) {
    axis.points.push_back({std::to_string(s), [s](ws::RunConfig& cfg) {
                             cfg.sim_shards = s;
                           }});
  }
  return axis;
}

Axis congestion_axis(const std::vector<double>& scales) {
  Axis axis{"congestion", {}};
  for (const double scale : scales) {
    std::string label = "off";
    if (scale != 0.0) {
      label = "x";
      label += std::to_string(scale);
    }
    axis.points.push_back({std::move(label), [scale](ws::RunConfig& cfg) {
                             if (scale == 0.0) {
                               cfg.congestion = sim::CongestionParams{};
                               cfg.congestion_scale = 0.0;
                             } else {
                               cfg.enable_congestion(scale);
                             }
                           }});
  }
  return axis;
}

Axis placement_axis(
    const std::vector<std::pair<topo::Placement, std::uint32_t>>& allocs) {
  Axis axis{"placement", {}};
  for (const auto& [placement, procs] : allocs) {
    std::string label =
        std::string(topo::to_string(placement)) + "x" + std::to_string(procs);
    axis.points.push_back(
        {std::move(label), [placement, procs = procs](ws::RunConfig& cfg) {
           cfg.placement = placement;
           cfg.procs_per_node = procs;
         }});
  }
  return axis;
}

Axis svc_arrival_axis(const std::vector<support::SimTime>& mean_gaps) {
  Axis axis{"arrival", {}};
  for (const support::SimTime gap : mean_gaps) {
    char label[32];
    std::snprintf(label, sizeof(label), "%gms", support::to_millis(gap));
    axis.points.push_back({label, [gap](ws::RunConfig& cfg) {
                             cfg.svc.arrival = svc::ArrivalKind::kPoisson;
                             cfg.svc.mean_interarrival = gap;
                           }});
  }
  return axis;
}

Axis svc_alloc_axis(
    const std::vector<std::pair<svc::AllocPolicy, topo::Rank>>& policies) {
  Axis axis{"alloc", {}};
  for (const auto& [policy, ranks] : policies) {
    std::string label = policy == svc::AllocPolicy::kSpaceShare
                            ? "space" + std::to_string(ranks)
                            : "time";
    axis.points.push_back(
        {std::move(label), [policy, ranks = ranks](ws::RunConfig& cfg) {
           cfg.svc.alloc = policy;
           cfg.svc.ranks_per_job =
               policy == svc::AllocPolicy::kSpaceShare ? ranks : 0;
         }});
  }
  return axis;
}

Axis svc_mix_axis(
    const std::vector<std::pair<std::string, std::vector<svc::JobMixEntry>>>&
        mixes) {
  Axis axis{"mix", {}};
  for (const auto& [label, mix] : mixes) {
    axis.points.push_back(
        {label, [mix = mix](ws::RunConfig& cfg) { cfg.svc.mix = mix; }});
  }
  return axis;
}

namespace {

std::string percent_label(double p) {
  if (p == 0.0) return "off";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g%%", p * 100.0);
  return buf;
}

}  // namespace

Axis fault_drop_axis(const std::vector<double>& probs) {
  Axis axis{"drop", {}};
  for (const double p : probs) {
    axis.points.push_back(
        {percent_label(p),
         [p](ws::RunConfig& cfg) { cfg.fault.drop_prob = p; }});
  }
  return axis;
}

Axis fault_jitter_axis(const std::vector<double>& fracs) {
  Axis axis{"jitter", {}};
  for (const double f : fracs) {
    axis.points.push_back(
        {percent_label(f),
         [f](ws::RunConfig& cfg) { cfg.fault.jitter_frac = f; }});
  }
  return axis;
}

Axis custom_axis(std::string name, std::vector<AxisPoint> points) {
  return Axis{std::move(name), std::move(points)};
}

std::string SweepPoint::label() const {
  std::string out;
  for (const auto& [axis, value] : coords) {
    if (!out.empty()) out += ' ';
    out += axis + '=' + value;
  }
  return out.empty() ? "base" : out;
}

const std::string* SweepPoint::coord(std::string_view axis) const {
  for (const auto& [name, value] : coords) {
    if (name == axis) return &value;
  }
  return nullptr;
}

std::size_t SweepSpec::num_points() const {
  if (axes_.empty()) return 1;
  if (mode_ == SweepMode::kZip) {
    const std::size_t n = axes_.front().points.size();
    for (const Axis& a : axes_) {
      if (a.points.size() != n) return 0;
    }
    return n;
  }
  std::size_t n = 1;
  for (const Axis& a : axes_) n *= a.points.size();
  return n;
}

support::Expected<std::vector<SweepPoint>> SweepSpec::expand() const {
  using Result = support::Expected<std::vector<SweepPoint>>;
  for (const Axis& a : axes_) {
    if (a.points.empty()) {
      return Result::failure("axis '" + a.name + "' has no points");
    }
  }
  if (mode_ == SweepMode::kZip && !axes_.empty()) {
    const std::size_t n = axes_.front().points.size();
    for (const Axis& a : axes_) {
      if (a.points.size() != n) {
        return Result::failure(
            "zipped axes must have equal length: '" + axes_.front().name +
            "' has " + std::to_string(n) + " points, '" + a.name + "' has " +
            std::to_string(a.points.size()));
      }
    }
  }

  std::vector<SweepPoint> points;
  points.reserve(num_points());

  auto make_point = [&](const std::vector<std::size_t>& choice) {
    SweepPoint p;
    p.index = points.size();
    p.config = base_;
    p.coords.reserve(axes_.size());
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      const AxisPoint& ap = axes_[a].points[choice[a]];
      ap.apply(p.config);
      p.coords.emplace_back(axes_[a].name, ap.label);
    }
    points.push_back(std::move(p));
  };

  if (axes_.empty()) {
    make_point({});
    return points;
  }

  if (mode_ == SweepMode::kZip) {
    std::vector<std::size_t> choice(axes_.size());
    for (std::size_t i = 0; i < axes_.front().points.size(); ++i) {
      std::fill(choice.begin(), choice.end(), i);
      make_point(choice);
    }
    return points;
  }

  // Cartesian, row-major: the last axis varies fastest (odometer order).
  std::vector<std::size_t> choice(axes_.size(), 0);
  for (;;) {
    make_point(choice);
    std::size_t a = axes_.size();
    for (;;) {
      if (a == 0) return points;
      --a;
      if (++choice[a] < axes_[a].points.size()) break;
      choice[a] = 0;
    }
  }
}

}  // namespace dws::exp
