#pragma once

#include <cstdint>

#include "uts/node.hpp"
#include "uts/params.hpp"

namespace dws::uts {

/// Root node of a tree.
TreeNode root_node(const TreeParams& params);

/// Number of children of `node`. Pure: depends only on (params, node state,
/// node height), so every process computes the same value for the same node.
std::uint32_t num_children(const TreeParams& params, const TreeNode& node);

/// The i-th child. Pure, independent of evaluation order.
TreeNode child_node(const TreeNode& parent, std::uint32_t index);

/// Hands children 0..n-1 of `parent` to `push`, in index order: the same
/// nodes as child_node(parent, i), realized two siblings per
/// UtsRng::spawn_pair, with an odd last child through UtsRng::spawn. Every
/// expansion loop (simulator, native runtime, sequential oracle) goes
/// through here.
template <class Push>
void for_each_child(const TreeNode& parent, std::uint32_t n, Push&& push) {
  const std::uint32_t height = parent.height + 1;
  std::uint32_t c = 0;
  // `n - c`, not `c + 1 < n`: no bound overflows for any n.
  for (; n - c >= 2; c += 2) {
    const auto pair = parent.rng.spawn_pair(c);
    push(TreeNode{pair[0], height});
    push(TreeNode{pair[1], height});
  }
  if (c < n) push(TreeNode{parent.rng.spawn(c), height});
}

/// Deterministic branching-factor profile b(d) for geometric trees (exposed
/// for tests and the docs; num_children samples a geometric distribution with
/// this mean).
double geo_branching_factor(const TreeParams& params, std::uint32_t depth);

}  // namespace dws::uts
