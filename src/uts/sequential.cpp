#include "uts/sequential.hpp"

#include <algorithm>
#include <vector>

namespace dws::uts {

TreeStats enumerate_sequential(const TreeParams& params,
                               std::uint64_t node_limit) {
  TreeStats stats;
  std::vector<TreeNode> stack;
  stack.push_back(root_node(params));

  while (!stack.empty()) {
    const TreeNode node = stack.back();
    stack.pop_back();

    ++stats.nodes;
    stats.max_depth = std::max(stats.max_depth, node.height);
    if (stats.nodes >= node_limit) {
      stats.truncated = true;
      return stats;
    }

    const std::uint32_t n = num_children(params, node);
    if (n == 0) {
      ++stats.leaves;
      continue;
    }
    for_each_child(node, n,
                   [&stack](const TreeNode& c) { stack.push_back(c); });
  }
  return stats;
}

}  // namespace dws::uts
