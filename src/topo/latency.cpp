#include "topo/latency.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "support/check.hpp"
#include "support/histogram.hpp"

namespace dws::topo {

std::vector<LatencySampleBin> sample_bins_from_histogram(
    const support::Histogram& h) {
  std::vector<LatencySampleBin> bins;
  if (h.total() == 0) return bins;
  const auto ns = [](double x) {
    return static_cast<support::SimTime>(std::max(0.0, x));
  };
  if (h.underflow() > 0) {
    bins.push_back({0, ns(h.bin_lo(0)), h.underflow()});
  }
  for (std::size_t i = 0; i < h.bins(); ++i) {
    if (h.bin_count(i) == 0) continue;
    bins.push_back({ns(h.bin_lo(i)), ns(h.bin_hi(i)), h.bin_count(i)});
  }
  if (h.overflow() > 0) {
    // The window cut the tail off; approximate it by one trailing bin-width
    // past the upper edge rather than dropping the mass.
    const double hi = h.bin_hi(h.bins() - 1);
    const double width = hi - h.bin_lo(h.bins() - 1);
    bins.push_back({ns(hi), ns(hi + width), h.overflow()});
  }
  return bins;
}

namespace {

/// w(from, to) = 1/e(from, to), or 1 when e = 0.
double skew_weight(const JobLayout& layout, Rank from, Rank to) {
  const double e =
      layout.machine().euclidean(layout.coord_of(from), layout.coord_of(to));
  return e != 0.0 ? 1.0 / e : 1.0;
}

double sum(const std::vector<double>& w) {
  return std::accumulate(w.begin(), w.end(), 0.0);
}

}  // namespace

NodeTables::NodeTables(const JobLayout& layout) : layout_(&layout) {
  const Rank n = layout.num_ranks();
  node_of_.resize(n);
  std::unordered_map<NodeId, std::uint32_t> index;
  for (Rank r = 0; r < n; ++r) {
    const auto next = static_cast<std::uint32_t>(index.size());
    node_of_[r] = index.try_emplace(layout.node_of(r), next).first->second;
  }
  offsets_.assign(index.size() + 1, 0);
  for (Rank r = 0; r < n; ++r) ++offsets_[node_of_[r] + 1];
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  std::vector<std::uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
  position_.resize(n);
  ranks_.resize(n);
  for (Rank r = 0; r < n; ++r) {
    const std::uint32_t a = node_of_[r];
    position_[r] = fill[a] - offsets_[a];
    ranks_[fill[a]++] = r;
  }
  rows_ = std::make_unique<Row[]>(index.size());
}

std::vector<double> NodeTables::weights(std::uint32_t a) const {
  // One weight per node pair, taken between the nodes' lowest ranks; on
  // node a itself e = 0, so each co-located victim weighs 1.
  std::vector<double> w(num_nodes());
  for (std::uint32_t b = 0; b < w.size(); ++b) {
    const std::uint32_t victims = ranks_on(b) - (b == a ? 1 : 0);
    w[b] = skew_weight(*layout_, *ranks(a), *ranks(b)) *
           static_cast<double>(victims);
  }
  return w;
}

double NodeTables::total(std::uint32_t a) const {
  Row& row = rows_[a];
  std::call_once(row.total_once, [&] { row.total = sum(weights(a)); });
  return row.total;
}

const support::AliasTable& NodeTables::table(std::uint32_t a) const {
  Row& row = rows_[a];
  std::call_once(row.table_once, [&] {
    const std::vector<double> w = weights(a);
    std::call_once(row.total_once, [&] { row.total = sum(w); });
    row.table.emplace(w);
  });
  return *row.table;
}

LatencyModel::LatencyModel(const JobLayout& layout, LatencyParams params)
    : layout_(&layout),
      params_(std::move(params)),
      node_tables_(std::make_shared<SharedNodeTables>()) {
  DWS_CHECK(params_.same_node >= 0);
  DWS_CHECK(params_.same_blade >= params_.same_node);
  DWS_CHECK(params_.network_base >= 0);
  DWS_CHECK(params_.per_hop >= 0);
  DWS_CHECK(params_.bytes_per_ns > 0.0);
  std::uint64_t total = 0;
  for (const auto& bin : params_.sample_bins) {
    DWS_CHECK(bin.lo >= 0 && bin.hi >= bin.lo);
    total += bin.weight;
  }
  DWS_CHECK(params_.sample_bins.empty() || total > 0);
}

namespace {

/// SplitMix64 finalizer used as a mixing step for the sampling draw: the
/// draw must be a pure function of its inputs (replayable, shard-invariant),
/// so no generator state is kept anywhere.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

support::SimTime LatencyModel::message_latency(Rank src, Rank dst,
                                               std::uint32_t bytes) const {
  return resolve(src, dst, bytes, 0, false).latency;
}

Route LatencyModel::resolve(Rank src, Rank dst, std::uint32_t bytes,
                            support::SimTime now, bool sample) const {
  const auto serialization =
      static_cast<support::SimTime>(static_cast<double>(bytes) / params_.bytes_per_ns);
  if (layout_->same_node(src, dst)) {
    return {params_.same_node + serialization, 0, true};
  }
  const auto& machine = layout_->machine();
  const auto& pc = layout_->coord_of(src);
  const auto& qc = layout_->coord_of(dst);
  const std::int32_t h = machine.hops(pc, qc);
  if (machine.same_blade(pc, qc)) {
    return {params_.same_blade + serialization, h, false};
  }
  const support::SimTime distance =
      sample ? sampled_distance(src, dst, bytes, now)
             : params_.network_base + params_.per_hop * (h - 1);
  return {distance + serialization, h, false};
}

support::SimTime LatencyModel::sampled_distance(Rank src, Rank dst,
                                                std::uint32_t bytes,
                                                support::SimTime now) const {
  // Replace the distance term by an inverse-CDF draw over the measured bins.
  // Two mix rounds decorrelate the structured inputs (seed, channel, time,
  // size).
  std::uint64_t h = params_.sample_seed;
  h = mix64(h ^ (static_cast<std::uint64_t>(src) << 32 | dst));
  h = mix64(h ^ static_cast<std::uint64_t>(now));
  h = mix64(h ^ bytes);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  std::uint64_t total = 0;
  for (const auto& bin : params_.sample_bins) total += bin.weight;
  const double target = u * static_cast<double>(total);
  double cum = 0.0;
  for (const auto& bin : params_.sample_bins) {
    const double w = static_cast<double>(bin.weight);
    if (target < cum + w || &bin == &params_.sample_bins.back()) {
      const double frac = w > 0.0 ? (target - cum) / w : 0.0;
      const double span = static_cast<double>(bin.hi - bin.lo);
      const double draw = static_cast<double>(bin.lo) +
                          std::clamp(frac, 0.0, 1.0) * span;
      return static_cast<support::SimTime>(draw);
    }
    cum += w;
  }
  DWS_CHECK(false && "the back bin always matches");
  return 0;
}

std::int32_t LatencyModel::hops(Rank r1, Rank r2) const {
  if (layout_->same_node(r1, r2)) return 0;
  return layout_->machine().hops(layout_->coord_of(r1), layout_->coord_of(r2));
}

double LatencyModel::euclidean(Rank r1, Rank r2) const {
  return layout_->machine().euclidean(layout_->coord_of(r1),
                                      layout_->coord_of(r2));
}

double LatencyModel::victim_weight(Rank from, Rank to) const {
  return skew_weight(*layout_, from, to);
}

const NodeTables& LatencyModel::node_tables() const {
  std::call_once(node_tables_->once,
                 [this] { node_tables_->tables.emplace(*layout_); });
  return *node_tables_->tables;
}

}  // namespace dws::topo
