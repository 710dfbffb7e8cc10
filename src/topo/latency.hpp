#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "support/alias_table.hpp"
#include "support/sim_time.hpp"
#include "topo/allocation.hpp"

namespace dws::support {
class Histogram;
}

namespace dws::topo {

/// One bin of an empirical latency distribution (a bench/sim_vs_rt steal-RTT
/// histogram bin): draws land uniformly inside [lo, hi) with probability
/// weight/Σweights.
struct LatencySampleBin {
  support::SimTime lo = 0;
  support::SimTime hi = 0;
  std::uint64_t weight = 0;
};

/// Tunable latency constants for rank-to-rank messages. Defaults are
/// calibrated against published K Computer / Tofu numbers (~1.5 us MPI
/// neighbour latency, ~100 ns per additional hop, intra-node shared-memory
/// MPI well under 1 us, ~5 GB/s per link). The *ratios* are what drive the
/// paper's effect; EXPERIMENTS.md discusses sensitivity.
struct LatencyParams {
  support::SimTime same_node = 400;    ///< ns, shared-memory transport
  support::SimTime same_blade = 900;   ///< ns, intra-blade transport
  support::SimTime network_base = 1300;  ///< ns, injection + first link
  support::SimTime per_hop = 100;      ///< ns per additional hop
  double bytes_per_ns = 5.0;           ///< link bandwidth (~5 GB/s)

  /// Optional empirical sampling backend (ROADMAP item 1 follow-on): when
  /// non-empty, the network-tier distance term (network_base + per_hop *
  /// (h-1)) is replaced by an inverse-CDF draw from these bins — typically a
  /// measured steal-RTT histogram from bench/sim_vs_rt. Serialization and
  /// the same_node/same_blade tiers are untouched. Draws are a pure hash of
  /// (sample_seed, src, dst, bytes, send time), so they are deterministic
  /// and shard-invariant; a fingerprint key is emitted only when enabled.
  std::vector<LatencySampleBin> sample_bins;
  std::uint64_t sample_seed = 0;

  bool sampling_enabled() const noexcept { return !sample_bins.empty(); }
};

/// Convert a measured distribution (a support::Histogram filled with
/// latencies in ns — e.g. bench/sim_vs_rt's per-steal RTT samples, halved to
/// one-way) into sampling bins. Empty bins are dropped; underflow folds into
/// a [0, lo) bin and overflow into one trailing bin-width past the window,
/// so total probability mass is preserved. Returns an empty vector (sampling
/// disabled) when the histogram holds no samples.
std::vector<LatencySampleBin> sample_bins_from_histogram(
    const support::Histogram& h);

/// What sim::Network needs to know about one message, resolved from a single
/// lookup of each rank's node and coordinates.
struct Route {
  support::SimTime latency = 0;  ///< one-way delivery latency, ns
  std::int32_t hops = 0;         ///< network hops; 0 when co-located
  bool same_node = false;        ///< shared-memory transport, no links
};

/// The distance-skewed victim distribution of one job, grouped by node. The
/// paper's weight w(i,j) depends only on the nodes of i and j, so every rank
/// of a node draws from the same distribution over nodes: thief node A
/// weighs node B != A by w(A,B) x (ranks on B), and itself by (ranks on A) - 1
/// (co-located victims have w = 1). A draw picks a node from A's alias table,
/// then a rank uniformly within it. Nodes are numbered job-locally in order
/// of their lowest rank, so at one rank per node node i holds rank i.
///
/// The rank index is built at construction; each node's weight total and
/// alias table on first request, thread-safely, so a job that draws for a
/// few thieves pays for a few rows. A full set of tables takes nodes^2 x 12
/// bytes.
class NodeTables {
 public:
  explicit NodeTables(const JobLayout& layout);
  // Selectors hold pointers into the tables.
  NodeTables(const NodeTables&) = delete;
  NodeTables& operator=(const NodeTables&) = delete;

  std::uint32_t num_nodes() const noexcept {
    return static_cast<std::uint32_t>(offsets_.size() - 1);
  }
  /// Job-local node of rank r.
  std::uint32_t node_of(Rank r) const { return node_of_[r]; }
  /// Position of rank r among its node's ranks.
  std::uint32_t position_of(Rank r) const { return position_[r]; }
  /// The ranks on node a, ascending: ranks(a)[0 .. ranks_on(a)).
  const Rank* ranks(std::uint32_t a) const { return &ranks_[offsets_[a]]; }
  std::uint32_t ranks_on(std::uint32_t a) const {
    return offsets_[a + 1] - offsets_[a];
  }

  /// Sum of node a's row: the normaliser of a thief on node a.
  double total(std::uint32_t a) const;
  /// Node a's alias table over nodes.
  const support::AliasTable& table(std::uint32_t a) const;

 private:
  struct Row {
    std::once_flag total_once;
    std::once_flag table_once;
    double total = 0.0;
    std::optional<support::AliasTable> table;
  };

  std::vector<double> weights(std::uint32_t a) const;

  const JobLayout* layout_;
  std::vector<std::uint32_t> node_of_;   // rank -> job-local node
  std::vector<std::uint32_t> position_;  // rank -> index within its node
  std::vector<std::uint32_t> offsets_;   // node a: ranks_[offsets_[a] ..
  std::vector<Rank> ranks_;              //   offsets_[a + 1]), ascending
  std::unique_ptr<Row[]> rows_;
};

/// Computes message latency and victim-selection distances between ranks of
/// one job. Stateless beyond cached coordinates: O(1) memory per query, no
/// N x N tables (important when simulating 8192 ranks in-process). The one
/// exception is node_tables(), built on first use and shared by copies.
class LatencyModel {
 public:
  explicit LatencyModel(const JobLayout& layout, LatencyParams params = {});

  /// One-way delivery latency of a `bytes`-byte message from rank src to
  /// rank dst. Two ranks on the same node never touch the network.
  support::SimTime message_latency(Rank src, Rank dst,
                                   std::uint32_t bytes) const;

  /// The route of a `bytes`-byte message sent from src to dst at virtual
  /// time `now`: its latency, hops() and same_node, in one call — the
  /// per-send query of sim::Network. The latency equals message_latency()
  /// unless the empirical sampling backend is enabled, in which case `now`
  /// salts the network tier's per-message draw. Keeping message_latency()
  /// unsampled keeps every existing golden stable.
  Route route(Rank src, Rank dst, std::uint32_t bytes,
              support::SimTime now) const {
    return resolve(src, dst, bytes, now, params_.sampling_enabled());
  }

  /// Hop count between the ranks' nodes (0 when co-located).
  std::int32_t hops(Rank r1, Rank r2) const;

  /// 6D Euclidean distance between the ranks' nodes (0 when co-located) —
  /// the `e(i,j)` of the paper's victim weight.
  double euclidean(Rank r1, Rank r2) const;

  /// The paper's skewed-selection weight:
  ///   w(i,j) = 1/e(i,j) if e(i,j) != 0, else 1.
  double victim_weight(Rank from, Rank to) const;

  /// The job's skewed victim distribution by node. Built on the first call,
  /// from any thread, and shared with every copy of this model.
  const NodeTables& node_tables() const;

  const JobLayout& layout() const noexcept { return *layout_; }
  const LatencyParams& params() const noexcept { return params_; }

 private:
  Route resolve(Rank src, Rank dst, std::uint32_t bytes, support::SimTime now,
                bool sample) const;
  /// The sampling backend's network-tier distance term for one message.
  support::SimTime sampled_distance(Rank src, Rank dst, std::uint32_t bytes,
                                    support::SimTime now) const;

  struct SharedNodeTables {
    std::once_flag once;
    std::optional<NodeTables> tables;
  };

  const JobLayout* layout_;
  LatencyParams params_;
  std::shared_ptr<SharedNodeTables> node_tables_;
};

}  // namespace dws::topo
