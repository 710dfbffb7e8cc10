#pragma once

#include <cstdint>
#include <vector>

#include "support/check.hpp"
#include "topo/tofu.hpp"

namespace dws::topo {

/// How MPI ranks are mapped onto the compute nodes of a job — the three
/// process allocations compared throughout the paper (Fig. 2, 3, 9, 14, 15):
enum class Placement {
  kOnePerNode,  ///< "1/N": one rank per node, rank i on node i.
  kRoundRobin,  ///< "8RR": P ranks per node, ranks i, i+n, i+2n... share a node.
  kGrouped,     ///< "8G": P ranks per node, ranks Pi..Pi+P-1 share node i.
};

const char* to_string(Placement p);

using Rank = std::uint32_t;

/// A job: the set of physical nodes granted by the scheduler plus the
/// rank -> node mapping induced by the placement policy. Immutable once
/// built; the latency model and victim selectors read coordinates from it.
class JobLayout {
 public:
  /// Allocate `num_ranks` MPI ranks on a machine.
  ///
  /// Node selection mimics the K Computer scheduler as described in §II-B:
  /// the job receives a compact 3D rectangle of cubes "minimizing the average
  /// number of hops", placed at `origin_cube` (default: the machine origin;
  /// benches vary it to check placement insensitivity). procs_per_node is 1
  /// for kOnePerNode and typically 8 (the K node's core count) otherwise.
  JobLayout(const TofuMachine& machine, Rank num_ranks, Placement placement,
            std::uint32_t procs_per_node = 1, std::uint32_t origin_cube = 0);

  /// Slice `width` job-local ranks out of a parent layout, starting at
  /// parent rank `base` (svc space-sharing: each job sees ranks 0..width-1
  /// mapped onto its partition's physical nodes). Coordinates are copied
  /// from the parent, so distances and latencies inside the slice are
  /// exactly the parent's — nothing is re-placed.
  static JobLayout slice(const JobLayout& parent, Rank base, Rank width);

  const TofuMachine& machine() const noexcept { return *machine_; }
  Rank num_ranks() const noexcept { return static_cast<Rank>(rank_to_node_.size()); }
  std::uint32_t num_nodes() const noexcept { return static_cast<std::uint32_t>(nodes_.size()); }
  std::uint32_t procs_per_node() const noexcept { return procs_per_node_; }
  Placement placement() const noexcept { return placement_; }

  NodeId node_of(Rank r) const {
    DWS_CHECK(r < rank_to_node_.size());
    return rank_to_node_[r];
  }
  const TofuCoord& coord_of(Rank r) const {
    DWS_CHECK(r < rank_coord_.size());
    return rank_coord_[r];
  }
  const std::vector<NodeId>& nodes() const noexcept { return nodes_; }

  bool same_node(Rank r1, Rank r2) const { return node_of(r1) == node_of(r2); }

  /// Extent (in cubes) of the allocated rectangle, for reporting.
  std::int32_t extent_x() const noexcept { return ext_[0]; }
  std::int32_t extent_y() const noexcept { return ext_[1]; }
  std::int32_t extent_z() const noexcept { return ext_[2]; }

 private:
  JobLayout() = default;  // slice() assembles the fields directly

  const TofuMachine* machine_ = nullptr;
  Placement placement_ = Placement::kOnePerNode;
  std::uint32_t procs_per_node_ = 1;
  std::vector<NodeId> nodes_;          // job's compute nodes, scheduler order
  std::vector<NodeId> rank_to_node_;   // rank -> node id
  std::vector<TofuCoord> rank_coord_;  // cached coordinates per rank
  std::int32_t ext_[3] = {0, 0, 0};
};

}  // namespace dws::topo
