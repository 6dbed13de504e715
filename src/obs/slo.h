#pragma once

// Carbon-SLO watchdog: a deterministic rolling-window rule engine over the
// serving stack's observed state (DESIGN.md §13). Pure in its inputs — the
// clock is injected as millisecond values, state rules see only the
// quantities the engine computed — so two identical runs raise identical
// alerts at identical slots, and the state-driven rules are safe to
// surface in the bit-identity-checked decision journal (obs/journal.h).
//
// Rules (all edge-triggered per episode unless noted):
//  * kProjectedCapBreach — the rolling-window mean emission rate,
//    extrapolated over the remaining horizon, exceeds the tenant's
//    current allowance balance: the tenant is on pace to end the horizon
//    uncovered and pay the settlement penalty.
//  * kAllowanceInsolvency — the allowance balance fell below the
//    configured floor (default 0: the tenant is emitting uncovered).
//  * kFeedStall — no slot input became ready for longer than
//    feed_stall_ms (clock injected by the daemon; disabled at 0).
//  * kSlotDeadlineMiss — one slot's wall time exceeded slot_deadline_ms
//    (level-triggered: every miss fires; disabled at 0).
//
// The watchdog is observational: it never feeds control flow, so enabling
// it cannot change any computed result. The daemon surfaces alerts in the
// journal (state rules), the metrics page (all rules), and its exit code.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/state_io.h"

namespace cea::obs {

enum class SloKind : std::uint8_t {
  kProjectedCapBreach = 0,
  kAllowanceInsolvency = 1,
  kFeedStall = 2,
  kSlotDeadlineMiss = 3,
};
inline constexpr std::size_t kSloKindCount = 4;

/// Stable rule name ("projected_cap_breach", ...) — the journal's alert
/// field and the metrics page's kind label.
const char* slo_kind_name(SloKind kind) noexcept;

/// Sentinel tenant for daemon-level alerts (feed stall, deadline miss).
inline constexpr std::size_t kSloNoTenant = static_cast<std::size_t>(-1);

struct SloAlert {
  SloKind kind = SloKind::kProjectedCapBreach;
  std::size_t tenant = kSloNoTenant;  ///< tenant index, or kSloNoTenant
  std::uint64_t slot = 0;             ///< slot the rule fired at
  double value = 0.0;                 ///< observed quantity
  double threshold = 0.0;             ///< bound it violated
};

struct SloConfig {
  /// Rolling emission window (slots) behind the breach projection.
  std::size_t window = 16;
  /// Projection safety factor: fire when projected remaining emissions
  /// exceed margin * balance. 1.0 = fire exactly at insufficiency; <1
  /// fires earlier (more conservative).
  double breach_margin = 1.0;
  /// Insolvency floor for the allowance balance.
  double min_balance = 0.0;
  /// Feed staleness bound, milliseconds (0 disables the rule).
  std::int64_t feed_stall_ms = 0;
  /// Per-slot wall-time deadline, milliseconds (0 disables the rule).
  std::int64_t slot_deadline_ms = 0;
};

/// Per-tenant state the daemon feeds after every executed slot.
struct SloTenantSlot {
  std::uint64_t slot = 0;     ///< slot just executed
  std::uint64_t horizon = 0;  ///< tenant's scenario horizon
  double emission = 0.0;      ///< e^t of this slot
  double balance = 0.0;       ///< allowance balance after the slot
};

class SloWatchdog {
 public:
  SloWatchdog(SloConfig config, std::size_t num_tenants);

  /// State rules (breach projection, insolvency) for one tenant's slot.
  void observe_slot(std::size_t tenant, const SloTenantSlot& observed);

  /// Feed staleness, from the daemon's poll loop. `last_ready_ms` is the
  /// timestamp of the most recent kReady poll (== now_ms right after one).
  void observe_feed(std::uint64_t slot, std::int64_t now_ms,
                    std::int64_t last_ready_ms);

  /// Wall time of one executed slot.
  void observe_slot_wall(std::uint64_t slot, std::int64_t wall_ms);

  /// Alerts raised since the previous drain, in raise order.
  std::vector<SloAlert> drain();

  /// The state the rules carry from slot to slot: the window W, and per
  /// tenant its newest min(slots seen, W) emissions, oldest first, and
  /// its breach and insolvency episode flags. A tenant's alerts depend
  /// only on these, the slot and the balance, so a watchdog loaded from
  /// them raises exactly the alerts this one would. Alerts (pending and
  /// counted) and the clock-driven feed-stall episode are not saved. The
  /// daemon carries this in its checkpoint (serve/daemon.cpp).
  void save_state(util::StateWriter& writer) const;
  /// Replace the rolling windows and episode flags with saved ones, all
  /// or nothing. Under a smaller window each tenant keeps its newest
  /// samples. Throws util::StateError on a tenant-count mismatch or a
  /// damaged record.
  void load_state(util::StateReader& reader);

  /// Alerts raised per rule since construction (never reset by drain).
  const std::array<std::uint64_t, kSloKindCount>& counts() const noexcept {
    return counts_;
  }
  std::uint64_t total() const noexcept;

  const SloConfig& config() const noexcept { return config_; }

 private:
  void raise(SloKind kind, std::size_t tenant, std::uint64_t slot,
             double value, double threshold);

  struct TenantState {
    std::vector<double> window;  ///< emission ring, config.window wide
    std::size_t head = 0;        ///< next slot to overwrite (the oldest)
    std::size_t filled = 0;
    bool in_breach = false;
    bool insolvent = false;
  };

  SloConfig config_;
  std::vector<TenantState> tenants_;
  bool feed_stalled_ = false;
  std::vector<SloAlert> pending_;
  std::array<std::uint64_t, kSloKindCount> counts_{};
};

}  // namespace cea::obs
