#pragma once

// The per-slot record of a run, built outside the engine. sim::SlotEngine
// keeps decision state only and reports each slot through one
// SlotObservation; a SeriesRecorder attached as its observer turns those
// into the RunResult that the paper's figures, the golden traces and
// serve_daemon --trace-out read. The record lives with whoever asked for
// it, so it never enters a checkpoint and its size is the caller's choice.
// write_trace_rows renders a recorded tenant as the serving trace CSV,
// the one writer behind serve_daemon --trace-out and journal_query
// --format trace.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/metrics.h"
#include "sim/slot_engine.h"
#include "util/csv.h"

namespace cea::sim {

/// One RunResult per tenant index (the index an engine was attached
/// with): the eight per-slot series in slot order, the per-edge selection
/// counts, and the switch total, arena overflows and carbon cap of the
/// latest slot. The algorithm name and the settlement price are not part
/// of an observation; the caller fills them in (Simulator::run does).
class SeriesRecorder final : public SlotObserver {
 public:
  /// `reserve_slots` pre-sizes every tenant's series; a batch run passes
  /// its horizon.
  explicit SeriesRecorder(std::size_t num_tenants,
                          std::size_t reserve_slots = 0);

  void on_tenant_slot(std::size_t tenant,
                      const SlotObservation& observed) override;

  std::size_t num_tenants() const noexcept { return results_.size(); }
  /// The slots recorded for `tenant` so far (an empty RunResult before
  /// its first).
  const RunResult& result(std::size_t tenant) const {
    return results_.at(tenant);
  }
  RunResult take(std::size_t tenant) { return std::move(results_.at(tenant)); }

 private:
  std::vector<RunResult> results_;
};

/// Append one tenant's trace rows, hex-float exact: the eight per-slot
/// series of `result`, each labelled `<tenant>.<series>`, then
/// `<tenant>.scalars` holding `switches` and `balance` (the tenant's
/// switch total and allowance balance after its last slot).
void write_trace_rows(CsvWriter& writer, std::string_view tenant,
                      const RunResult& result, std::uint64_t switches,
                      double balance);

}  // namespace cea::sim
