#include "topo/tofu.hpp"

#include <cmath>
#include <cstdio>

#include "support/check.hpp"

namespace dws::topo {

std::string TofuCoord::to_string() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "(%d,%d,%d,%d,%d,%d)", x, y, z, a, b, c);
  return buf;
}

TofuMachine::TofuMachine(std::int32_t nx, std::int32_t ny, std::int32_t nz)
    : nx_(nx), ny_(ny), nz_(nz) {
  DWS_CHECK(nx_ > 0 && ny_ > 0 && nz_ > 0);
}

std::uint32_t TofuMachine::cube_count() const noexcept {
  return static_cast<std::uint32_t>(nx_ * ny_ * nz_);
}

std::uint32_t TofuMachine::node_count() const noexcept {
  return cube_count() * kNodesPerCube;
}

TofuCoord TofuMachine::coord(NodeId id) const {
  DWS_CHECK(id < node_count());
  const std::int32_t in_cube = static_cast<std::int32_t>(id) % kNodesPerCube;
  const std::int32_t cube = static_cast<std::int32_t>(id) / kNodesPerCube;
  TofuCoord c;
  c.c = in_cube % kC;
  c.b = (in_cube / kC) % kB;
  c.a = in_cube / (kC * kB);
  c.z = cube % nz_;
  c.y = (cube / nz_) % ny_;
  c.x = cube / (nz_ * ny_);
  return c;
}

NodeId TofuMachine::node_id(const TofuCoord& c) const {
  DWS_CHECK(c.x >= 0 && c.x < nx_);
  DWS_CHECK(c.y >= 0 && c.y < ny_);
  DWS_CHECK(c.z >= 0 && c.z < nz_);
  DWS_CHECK(c.a >= 0 && c.a < kA);
  DWS_CHECK(c.b >= 0 && c.b < kB);
  DWS_CHECK(c.c >= 0 && c.c < kC);
  const std::int32_t cube = (c.x * ny_ + c.y) * nz_ + c.z;
  const std::int32_t in_cube = (c.a * kB + c.b) * kC + c.c;
  return static_cast<NodeId>(cube * kNodesPerCube + in_cube);
}

bool TofuMachine::same_cube(const TofuCoord& p, const TofuCoord& q) const {
  return p.x == q.x && p.y == q.y && p.z == q.z;
}

bool TofuMachine::same_blade(const TofuCoord& p, const TofuCoord& q) const {
  // A blade is the set of four nodes of a cube sharing the b coordinate.
  return same_cube(p, q) && p.b == q.b;
}

std::int32_t TofuMachine::torus_delta(std::int32_t d, std::int32_t extent) const {
  if (d < 0) d = -d;
  return d <= extent - d ? d : extent - d;
}

std::int32_t TofuMachine::hops(const TofuCoord& p, const TofuCoord& q) const {
  return torus_delta(p.x - q.x, nx_) + torus_delta(p.y - q.y, ny_) +
         torus_delta(p.z - q.z, nz_) + std::abs(p.a - q.a) +
         std::abs(p.b - q.b) + std::abs(p.c - q.c);
}

double TofuMachine::euclidean(const TofuCoord& p, const TofuCoord& q) const {
  const double dx = torus_delta(p.x - q.x, nx_);
  const double dy = torus_delta(p.y - q.y, ny_);
  const double dz = torus_delta(p.z - q.z, nz_);
  const double da = p.a - q.a;
  const double db = p.b - q.b;
  const double dc = p.c - q.c;
  return std::sqrt(dx * dx + dy * dy + dz * dz + da * da + db * db + dc * dc);
}

}  // namespace dws::topo
