#include "topo/allocation.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace dws::topo {

const char* to_string(Placement p) {
  switch (p) {
    case Placement::kOnePerNode: return "1/N";
    case Placement::kRoundRobin: return "RR";
    case Placement::kGrouped: return "G";
  }
  return "?";
}

namespace {

/// Factor `cubes` into extents (ex, ey, ez) with ex*ey*ez >= cubes, each
/// within the machine limits, as close to a cube as possible — the "compact
/// 3D rectangle" the K scheduler aims for. Greedy: grow the smallest extent.
void choose_extents(const TofuMachine& m, std::uint32_t cubes,
                    std::int32_t ext[3]) {
  ext[0] = ext[1] = ext[2] = 1;
  const std::int32_t limits[3] = {m.nx(), m.ny(), m.nz()};
  while (static_cast<std::uint32_t>(ext[0]) * static_cast<std::uint32_t>(ext[1]) *
             static_cast<std::uint32_t>(ext[2]) < cubes) {
    // Grow the relatively least-grown axis that still has headroom.
    int best = -1;
    for (int axis = 0; axis < 3; ++axis) {
      if (ext[axis] >= limits[axis]) continue;
      if (best < 0 || ext[axis] < ext[best]) best = axis;
    }
    DWS_CHECK(best >= 0 && "job does not fit in the machine");
    ++ext[best];
  }
}

}  // namespace

JobLayout::JobLayout(const TofuMachine& machine, Rank num_ranks,
                     Placement placement, std::uint32_t procs_per_node,
                     std::uint32_t origin_cube)
    : machine_(&machine), placement_(placement), procs_per_node_(procs_per_node) {
  DWS_CHECK(num_ranks > 0);
  DWS_CHECK(procs_per_node_ > 0);
  if (placement == Placement::kOnePerNode) {
    DWS_CHECK(procs_per_node_ == 1);
  }
  DWS_CHECK(num_ranks % procs_per_node_ == 0);
  const std::uint32_t num_nodes = num_ranks / procs_per_node_;

  // Scheduler step: pick a compact rectangle of cubes holding >= num_nodes
  // nodes, then enumerate nodes inside it in scheduler order.
  const std::uint32_t cubes_needed =
      (num_nodes + TofuMachine::kNodesPerCube - 1) / TofuMachine::kNodesPerCube;
  choose_extents(machine, cubes_needed, ext_);

  const std::uint32_t total_cubes = machine.cube_count();
  DWS_CHECK(origin_cube < total_cubes);
  const std::int32_t oz = static_cast<std::int32_t>(origin_cube) % machine.nz();
  const std::int32_t oy =
      (static_cast<std::int32_t>(origin_cube) / machine.nz()) % machine.ny();
  const std::int32_t ox =
      static_cast<std::int32_t>(origin_cube) / (machine.nz() * machine.ny());

  nodes_.reserve(num_nodes);
  for (std::int32_t cx = 0; cx < ext_[0] && nodes_.size() < num_nodes; ++cx) {
    for (std::int32_t cy = 0; cy < ext_[1] && nodes_.size() < num_nodes; ++cy) {
      for (std::int32_t cz = 0; cz < ext_[2] && nodes_.size() < num_nodes; ++cz) {
        for (std::int32_t slot = 0;
             slot < TofuMachine::kNodesPerCube && nodes_.size() < num_nodes;
             ++slot) {
          TofuCoord c;
          c.x = (ox + cx) % machine.nx();
          c.y = (oy + cy) % machine.ny();
          c.z = (oz + cz) % machine.nz();
          c.c = slot % TofuMachine::kC;
          c.b = (slot / TofuMachine::kC) % TofuMachine::kB;
          c.a = slot / (TofuMachine::kC * TofuMachine::kB);
          nodes_.push_back(machine.node_id(c));
        }
      }
    }
  }
  DWS_CHECK(nodes_.size() == num_nodes);

  rank_to_node_.resize(num_ranks);
  for (Rank r = 0; r < num_ranks; ++r) {
    std::uint32_t node_index = 0;
    switch (placement_) {
      case Placement::kOnePerNode:
        node_index = r;
        break;
      case Placement::kRoundRobin:
        node_index = r % num_nodes;
        break;
      case Placement::kGrouped:
        node_index = r / procs_per_node_;
        break;
    }
    rank_to_node_[r] = nodes_[node_index];
  }

  rank_coord_.reserve(num_ranks);
  for (Rank r = 0; r < num_ranks; ++r) {
    rank_coord_.push_back(machine.coord(rank_to_node_[r]));
  }
}

JobLayout JobLayout::slice(const JobLayout& parent, Rank base, Rank width) {
  DWS_CHECK(width > 0);
  DWS_CHECK(base + width <= parent.num_ranks());
  JobLayout out;
  out.machine_ = parent.machine_;
  out.placement_ = parent.placement_;
  out.procs_per_node_ = parent.procs_per_node_;
  out.rank_to_node_.reserve(width);
  out.rank_coord_.reserve(width);
  for (Rank r = 0; r < width; ++r) {
    const NodeId node = parent.node_of(base + r);
    out.rank_to_node_.push_back(node);
    out.rank_coord_.push_back(parent.coord_of(base + r));
    if (std::find(out.nodes_.begin(), out.nodes_.end(), node) ==
        out.nodes_.end()) {
      out.nodes_.push_back(node);
    }
  }
  for (int axis = 0; axis < 3; ++axis) out.ext_[axis] = parent.ext_[axis];
  return out;
}

}  // namespace dws::topo
