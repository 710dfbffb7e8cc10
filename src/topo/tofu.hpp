#pragma once

#include <cstdint>
#include <string>

namespace dws::topo {

/// Position of a compute node in a Tofu-style 6D mesh/torus (Ajima et al.,
/// "Tofu: A 6D Mesh/Torus Interconnect for Exascale Computers").
///
/// Following the paper's description of the K Computer (§IV-B):
///  - four nodes share a blade (dedicated intra-blade transport),
///  - three blades form a 2x3x2 "cube" of 12 nodes — the (a, b, c) dims,
///  - cubes are joined in a 3D torus — the (x, y, z) dims,
///  - eight cubes along one axis share a rack (96 nodes per rack).
struct TofuCoord {
  std::int32_t x = 0;  ///< torus, cube units
  std::int32_t y = 0;  ///< torus, cube units
  std::int32_t z = 0;  ///< torus, cube units
  std::int32_t a = 0;  ///< mesh in {0, 1}
  std::int32_t b = 0;  ///< mesh in {0, 1, 2} — blade index inside the cube
  std::int32_t c = 0;  ///< mesh in {0, 1}

  friend bool operator==(const TofuCoord&, const TofuCoord&) = default;

  std::string to_string() const;
};

using NodeId = std::uint32_t;

/// Whole-machine geometry. The default constructor models the K Computer:
/// 24 x 18 x 16 cubes of 12 nodes = 82,944 compute nodes.
class TofuMachine {
 public:
  static constexpr std::int32_t kA = 2;
  static constexpr std::int32_t kB = 3;
  static constexpr std::int32_t kC = 2;
  static constexpr std::int32_t kNodesPerCube = kA * kB * kC;  // 12

  TofuMachine() : TofuMachine(24, 18, 16) {}
  TofuMachine(std::int32_t nx, std::int32_t ny, std::int32_t nz);

  std::int32_t nx() const noexcept { return nx_; }
  std::int32_t ny() const noexcept { return ny_; }
  std::int32_t nz() const noexcept { return nz_; }
  std::uint32_t node_count() const noexcept;
  std::uint32_t cube_count() const noexcept;

  /// Node ids enumerate nodes cube-by-cube (z fastest among cubes, then y,
  /// then x; within a cube c fastest, then b, then a). coord() and node_id()
  /// are inverse bijections — tested exhaustively.
  TofuCoord coord(NodeId id) const;
  NodeId node_id(const TofuCoord& c) const;

  bool same_blade(const TofuCoord& p, const TofuCoord& q) const;
  bool same_cube(const TofuCoord& p, const TofuCoord& q) const;

  /// Network hops between two nodes: torus distance (with wraparound) in
  /// x/y/z plus mesh distance in a/b/c. A node is 0 hops from itself.
  std::int32_t hops(const TofuCoord& p, const TofuCoord& q) const;

  /// Euclidean distance over the 6 coordinates (torus-wrapped deltas in
  /// x/y/z) — the distance the paper feeds into the skewed victim weights.
  double euclidean(const TofuCoord& p, const TofuCoord& q) const;

 private:
  std::int32_t torus_delta(std::int32_t d, std::int32_t extent) const;

  std::int32_t nx_;
  std::int32_t ny_;
  std::int32_t nz_;
};

}  // namespace dws::topo
