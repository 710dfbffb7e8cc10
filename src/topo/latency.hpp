#pragma once

#include <cstdint>
#include <vector>

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

/// Computes message latency and victim-selection distances between ranks of
/// one job. Stateless beyond cached coordinates: O(1) memory per query, no
/// N x N tables (important when simulating 8192 ranks in-process).
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

  const JobLayout& layout() const noexcept { return *layout_; }
  const LatencyParams& params() const noexcept { return params_; }

 private:
  Route resolve(Rank src, Rank dst, std::uint32_t bytes, support::SimTime now,
                bool sample) const;
  /// The sampling backend's network-tier distance term for one message.
  support::SimTime sampled_distance(Rank src, Rank dst, std::uint32_t bytes,
                                    support::SimTime now) const;

  const JobLayout* layout_;
  LatencyParams params_;
};

}  // namespace dws::topo
