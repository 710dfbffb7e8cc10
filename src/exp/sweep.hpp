#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/expected.hpp"
#include "ws/scheduler.hpp"

/// dws::exp — the experiment subsystem (DESIGN.md §"The experiment engine").
///
/// Every paper figure is the same shape: run ws::run_simulation over a small
/// parameter grid and tabulate one metric. A SweepSpec declares that grid as
/// named axes over RunConfig fields; expansion yields fully-formed, validated
/// RunConfigs, one per point, which SweepRunner (runner.hpp) executes on a
/// thread pool and RecordWriter (record.hpp) serializes.
namespace dws::exp {

/// One setting of one axis: a human-readable label ("1024", "Tofu Half") and
/// the mutation it applies to the run configuration.
struct AxisPoint {
  std::string label;
  std::function<void(ws::RunConfig&)> apply;
};

/// A named sequence of settings ("ranks" -> 128, 256, 512, 1024).
struct Axis {
  std::string name;
  std::vector<AxisPoint> points;
};

// ---- Axis factories over the common RunConfig fields -----------------------

Axis ranks_axis(const std::vector<topo::Rank>& ranks);
Axis policy_axis(const std::vector<ws::VictimPolicy>& policies);
Axis steal_axis(const std::vector<ws::StealAmount>& amounts);
Axis chunk_size_axis(const std::vector<std::uint32_t>& sizes);
Axis sha_rounds_axis(const std::vector<std::uint32_t>& rounds);
/// Catalogue trees by name; an unknown name is an error naming it.
support::Expected<Axis> tree_axis(
    const std::vector<std::string>& catalogue_names);
/// Seeds first .. first+count-1, labelled by value.
Axis seed_axis(std::uint64_t first, std::uint64_t count);
/// Congestion capacity scales; 0 turns the model off for that point.
Axis congestion_axis(const std::vector<double>& scales);
/// kHierarchical local picks per remote pick (ws.hierarchical_local_tries).
Axis local_tries_axis(const std::vector<std::uint32_t>& tries);
/// Parallel-simulator shard counts (RunConfig::sim_shards). An execution
/// strategy, not a simulation parameter: every point must produce identical
/// records, which is exactly what sweeping it checks (and what the
/// parallel-smoke CI job times).
Axis sim_shards_axis(const std::vector<std::uint32_t>& shards);
/// Placement + procs_per_node pairs (the paper's 1/N, 8RR, 8G allocations).
Axis placement_axis(
    const std::vector<std::pair<topo::Placement, std::uint32_t>>& allocs);
/// Service axes (svc::ServiceParams; base config needs svc.enabled).
/// Mean Poisson inter-arrival gap in virtual ns — the arrival-rate axis of
/// the tail-latency sweeps, labelled in ms.
Axis svc_arrival_axis(const std::vector<support::SimTime>& mean_gaps);
/// Allocation policy per point: (kSpaceShare, ranks_per_job) labelled
/// "spaceN", or (kTimeShare, 0) labelled "time".
Axis svc_alloc_axis(
    const std::vector<std::pair<svc::AllocPolicy, topo::Rank>>& policies);
/// Job-size mixes, each a labelled weighted set of catalogue trees (an empty
/// mix means every job runs the base config's tree).
Axis svc_mix_axis(
    const std::vector<std::pair<std::string, std::vector<svc::JobMixEntry>>>&
        mixes);

/// Fault-injection axes (fault::FaultConfig), labelled "off" / "1%".
/// Points with loss need ws.steal_timeout/token_timeout set on the base
/// config — RunConfig::validate enforces the pairing.
Axis fault_drop_axis(const std::vector<double>& probs);
Axis fault_jitter_axis(const std::vector<double>& fracs);

/// Escape hatch: any label/mutation pairs under one axis name.
Axis custom_axis(std::string name, std::vector<AxisPoint> points);

// ---- Spec ------------------------------------------------------------------

/// How multiple axes combine.
enum class SweepMode {
  kCartesian,  ///< cross product; the last declared axis varies fastest
  kZip,        ///< parallel iteration; all axes must have equal length
};

/// One expanded grid point: where it sits in the sweep and the full config.
struct SweepPoint {
  std::size_t index = 0;  ///< position in expansion order (stable, 0-based)
  /// (axis name, point label) in axis declaration order.
  std::vector<std::pair<std::string, std::string>> coords;
  ws::RunConfig config;

  /// "ranks=1024 policy=Tofu" — the progress/record label.
  std::string label() const;
  /// Label of the named axis at this point; nullptr if the axis is unknown.
  const std::string* coord(std::string_view axis) const;
};

/// A declarative parameter sweep: a base RunConfig plus named axes. Axes
/// apply in declaration order, so a later axis may deliberately override an
/// earlier one's field (e.g. a "series" custom axis refining the policy).
class SweepSpec {
 public:
  explicit SweepSpec(ws::RunConfig base, SweepMode mode = SweepMode::kCartesian)
      : base_(std::move(base)), mode_(mode) {}

  SweepSpec& axis(Axis a) {
    axes_.push_back(std::move(a));
    return *this;
  }
  SweepSpec& axis(std::string name, std::vector<AxisPoint> points) {
    return axis(custom_axis(std::move(name), std::move(points)));
  }

  const ws::RunConfig& base() const noexcept { return base_; }
  SweepMode mode() const noexcept { return mode_; }
  const std::vector<Axis>& axes() const noexcept { return axes_; }

  /// Points in the expansion (0 when a zip spec is malformed). An axis-less
  /// spec is a single point: the base config.
  std::size_t num_points() const;

  /// Expand into fully-formed configs. Fails on an empty axis or on zipped
  /// axes of unequal length; per-point *validity* is the runner's concern
  /// (it knows how to report/cancel), so configs are not validated here.
  support::Expected<std::vector<SweepPoint>> expand() const;

 private:
  ws::RunConfig base_;
  SweepMode mode_;
  std::vector<Axis> axes_;
};

}  // namespace dws::exp
