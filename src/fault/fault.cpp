#include "fault/fault.hpp"

#include <cmath>

#include "support/check.hpp"

namespace dws::fault {
namespace {

// Distinct salts keep the per-message, per-link, straggler and pause streams
// independent even though they share FaultConfig::seed.
constexpr std::uint64_t kSendSalt = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kLinkSalt = 0xbf58476d1ce4e5b9ull;
constexpr std::uint64_t kStragglerSalt = 0x94d049bb133111ebull;
constexpr std::uint64_t kPauseSalt = 0xff51afd7ed558ccdull;

double to_unit(std::uint64_t x) {
  // 53-bit mantissa, [0, 1) — same convention as Xoshiro256StarStar.
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

// Chooses `count` distinct ranks via a partial Fisher–Yates shuffle of a
// seed-derived stream; marks them in `flags`.
void mark_ranks(std::vector<std::uint8_t>& flags, std::uint32_t count,
                std::uint64_t seed) {
  const auto n = static_cast<std::uint32_t>(flags.size());
  DWS_CHECK(count <= n && "more perturbed ranks than ranks");
  std::vector<std::uint32_t> pool(n);
  for (std::uint32_t i = 0; i < n; ++i) pool[i] = i;
  support::Xoshiro256StarStar rng(seed);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto j = static_cast<std::uint32_t>(i + rng.next_below(n - i));
    std::swap(pool[i], pool[j]);
    flags[pool[i]] = 1;
  }
}

}  // namespace

Injector::Injector(const FaultConfig& config, std::uint32_t num_ranks)
    : cfg_(config) {
  DWS_CHECK(cfg_.drop_prob >= 0.0 && cfg_.drop_prob < 1.0);
  DWS_CHECK(cfg_.dup_prob >= 0.0 && cfg_.dup_prob < 1.0);
  DWS_CHECK(cfg_.jitter_frac >= 0.0);
  DWS_CHECK(cfg_.degraded_frac >= 0.0 && cfg_.degraded_frac <= 1.0);
  DWS_CHECK(cfg_.degraded_mult >= 1.0);
  DWS_CHECK(cfg_.straggler_factor >= 1.0);
  DWS_CHECK(cfg_.pause_duration >= 0);
  DWS_CHECK(cfg_.pause_window >= 0);

  straggler_.assign(num_ranks, 0);
  if (cfg_.straggler_ranks > 0) {
    mark_ranks(straggler_, cfg_.straggler_ranks, cfg_.seed ^ kStragglerSalt);
  }

  pause_at_.assign(num_ranks, support::SimTime{-1});
  if (cfg_.pause_ranks > 0 && cfg_.pause_duration > 0) {
    std::vector<std::uint8_t> paused(num_ranks, 0);
    mark_ranks(paused, cfg_.pause_ranks, cfg_.seed ^ kPauseSalt);
    support::Xoshiro256StarStar rng(cfg_.seed ^ kPauseSalt ^ kSendSalt);
    for (std::uint32_t r = 0; r < num_ranks; ++r) {
      if (paused[r] == 0) continue;
      const auto window = static_cast<std::uint64_t>(cfg_.pause_window);
      pause_at_[r] = window == 0 ? support::SimTime{0}
                                 : static_cast<support::SimTime>(
                                       rng.next_below(window + 1));
    }
  }
}

double Injector::unit_draw(std::uint64_t salt, std::uint64_t key) const {
  return to_unit(support::SplitMix64(cfg_.seed ^ salt ^ key).next());
}

SendPlan Injector::plan_send(std::uint64_t channel_key, MsgClass cls,
                             std::uint32_t bytes) {
  SendPlan plan;
  // One fresh stream per send: hash of (seed, channel, the channel's own
  // send counter). Four draws in fixed order keep the decisions decorrelated;
  // keying on the per-channel counter makes the plan independent of how
  // other channels' sends interleave with this one — the property that lets
  // each simulator shard own a private Injector (DESIGN.md §12).
  ChannelFaultState& ch = channels_[channel_key];
  support::SplitMix64 sm(cfg_.seed ^ (channel_key * kSendSalt) ^
                         (++ch.sends * kPauseSalt));
  const double u_drop = to_unit(sm.next());
  const double u_dup = to_unit(sm.next());
  const double u_jitter = to_unit(sm.next());
  const double u_jitter_dup = to_unit(sm.next());

  if (cls == MsgClass::kDroppable && u_drop < cfg_.drop_prob) {
    plan.drop = true;
    ++ch.dropped_messages;
    ++stats_.dropped_messages;
    stats_.dropped_bytes += bytes;
    return plan;
  }
  if (cls != MsgClass::kReliable && u_dup < cfg_.dup_prob) {
    plan.duplicate = true;
    ++ch.duplicated_messages;
    ++stats_.duplicated_messages;
    stats_.duplicated_bytes += bytes;
  }
  double mult = 1.0;
  if (link_degraded(channel_key)) mult *= cfg_.degraded_mult;
  plan.latency_mult = mult * (1.0 + u_jitter * cfg_.jitter_frac);
  plan.dup_latency_mult = mult * (1.0 + u_jitter_dup * cfg_.jitter_frac);
  return plan;
}

support::SimTime Injector::scaled_node_cost(std::uint32_t rank,
                                            support::SimTime cost) const {
  if (!is_straggler(rank)) return cost;
  return static_cast<support::SimTime>(
      std::llround(static_cast<double>(cost) * cfg_.straggler_factor));
}

std::optional<support::SimTime> Injector::pause_start(
    std::uint32_t rank) const {
  if (rank >= pause_at_.size() || pause_at_[rank] < 0) return std::nullopt;
  return pause_at_[rank];
}

bool Injector::link_degraded(std::uint64_t channel_key) const {
  if (cfg_.degraded_frac <= 0.0) return false;
  return unit_draw(kLinkSalt, channel_key * kSendSalt) < cfg_.degraded_frac;
}

}  // namespace dws::fault
