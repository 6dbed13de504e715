#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cea::obs {

const char* slo_kind_name(SloKind kind) noexcept {
  switch (kind) {
    case SloKind::kProjectedCapBreach: return "projected_cap_breach";
    case SloKind::kAllowanceInsolvency: return "allowance_insolvency";
    case SloKind::kFeedStall: return "feed_stall";
    case SloKind::kSlotDeadlineMiss: return "slot_deadline_miss";
  }
  return "unknown";
}

SloWatchdog::SloWatchdog(SloConfig config, std::size_t num_tenants)
    : config_(config), tenants_(num_tenants) {
  if (config_.window == 0) {
    throw std::invalid_argument("SloWatchdog: window must be positive");
  }
  for (TenantState& tenant : tenants_) {
    tenant.window.assign(config_.window, 0.0);
  }
}

void SloWatchdog::raise(SloKind kind, std::size_t tenant, std::uint64_t slot,
                        double value, double threshold) {
  pending_.push_back({kind, tenant, slot, value, threshold});
  ++counts_[static_cast<std::size_t>(kind)];
}

void SloWatchdog::observe_slot(std::size_t tenant,
                               const SloTenantSlot& observed) {
  TenantState& state = tenants_.at(tenant);

  // Rolling emission window: overwrite the oldest sample, then sum the
  // ring oldest-first. The sum is a function of the window's contents
  // alone (not of every emission ever observed, as an add/subtract
  // running sum would be), so a restore rebuilds it from the last
  // `window` emissions.
  const std::size_t width = state.window.size();
  state.window[state.head] = observed.emission;
  state.head = (state.head + 1) % width;
  if (state.filled < width) ++state.filled;
  double window_sum = 0.0;
  for (std::size_t k = width - state.filled; k < width; ++k) {
    window_sum += state.window[(state.head + k) % width];
  }

  // Projected cap breach: windowed mean rate * remaining slots vs what
  // the tenant still holds. Edge-triggered per breach episode.
  const double mean_rate = window_sum / static_cast<double>(state.filled);
  const double remaining =
      observed.horizon > observed.slot + 1
          ? static_cast<double>(observed.horizon - observed.slot - 1)
          : 0.0;
  const double projected = mean_rate * remaining;
  const double covered =
      config_.breach_margin * std::max(observed.balance, 0.0);
  const bool breach = remaining > 0.0 && projected > covered;
  if (breach && !state.in_breach) {
    raise(SloKind::kProjectedCapBreach, tenant, observed.slot, projected,
          covered);
  }
  state.in_breach = breach;

  // Allowance insolvency, edge-triggered.
  const bool insolvent = observed.balance < config_.min_balance;
  if (insolvent && !state.insolvent) {
    raise(SloKind::kAllowanceInsolvency, tenant, observed.slot,
          observed.balance, config_.min_balance);
  }
  state.insolvent = insolvent;
}

void SloWatchdog::observe_feed(std::uint64_t slot, std::int64_t now_ms,
                               std::int64_t last_ready_ms) {
  if (config_.feed_stall_ms <= 0) return;
  const std::int64_t staleness = now_ms - last_ready_ms;
  const bool stalled = staleness > config_.feed_stall_ms;
  if (stalled && !feed_stalled_) {
    raise(SloKind::kFeedStall, kSloNoTenant, slot,
          static_cast<double>(staleness),
          static_cast<double>(config_.feed_stall_ms));
  }
  feed_stalled_ = stalled;
}

void SloWatchdog::observe_slot_wall(std::uint64_t slot, std::int64_t wall_ms) {
  if (config_.slot_deadline_ms <= 0) return;
  if (wall_ms > config_.slot_deadline_ms) {
    raise(SloKind::kSlotDeadlineMiss, kSloNoTenant, slot,
          static_cast<double>(wall_ms),
          static_cast<double>(config_.slot_deadline_ms));
  }
}

void SloWatchdog::absorb_replay() {
  pending_.clear();
  counts_.fill(0);
}

std::vector<SloAlert> SloWatchdog::drain() {
  std::vector<SloAlert> drained;
  drained.swap(pending_);
  return drained;
}

std::uint64_t SloWatchdog::total() const noexcept {
  std::uint64_t sum = 0;
  for (const std::uint64_t count : counts_) sum += count;
  return sum;
}

}  // namespace cea::obs
