#include "sim/series_recorder.h"

#include <string>

namespace cea::sim {

SeriesRecorder::SeriesRecorder(std::size_t num_tenants,
                               std::size_t reserve_slots)
    : results_(num_tenants) {
  for (RunResult& result : results_) {
    result.inference_cost.reserve(reserve_slots);
    result.switching_cost.reserve(reserve_slots);
    result.trading_cost.reserve(reserve_slots);
    result.emissions.reserve(reserve_slots);
    result.buys.reserve(reserve_slots);
    result.sells.reserve(reserve_slots);
    result.accuracy.reserve(reserve_slots);
    result.workload.reserve(reserve_slots);
  }
}

void SeriesRecorder::on_tenant_slot(std::size_t tenant,
                                    const SlotObservation& observed) {
  RunResult& result = results_.at(tenant);
  result.inference_cost.push_back(observed.inference_cost);
  result.switching_cost.push_back(observed.switching_cost);
  result.trading_cost.push_back(observed.trading_cost);
  result.emissions.push_back(observed.emission);
  result.buys.push_back(observed.buy);
  result.sells.push_back(observed.sell);
  result.accuracy.push_back(observed.accuracy);
  result.workload.push_back(observed.workload);
  if (result.selection_counts.empty()) {
    result.selection_counts.assign(
        observed.hosted_models.size(),
        std::vector<std::size_t>(observed.model_counts.size(), 0));
  }
  for (std::size_t i = 0; i < observed.hosted_models.size(); ++i)
    ++result.selection_counts[i][observed.hosted_models[i]];
  result.total_switches = observed.switches_total;
  result.arena_overflows = observed.arena_overflows;
  result.carbon_cap = observed.carbon_cap;
}

void write_trace_rows(CsvWriter& writer, std::string_view tenant,
                      const RunResult& result, std::uint64_t switches,
                      double balance) {
  const std::string prefix = std::string(tenant) + ".";
  writer.write_row_exact(prefix + "inference_cost", result.inference_cost);
  writer.write_row_exact(prefix + "switching_cost", result.switching_cost);
  writer.write_row_exact(prefix + "trading_cost", result.trading_cost);
  writer.write_row_exact(prefix + "emissions", result.emissions);
  writer.write_row_exact(prefix + "buys", result.buys);
  writer.write_row_exact(prefix + "sells", result.sells);
  writer.write_row_exact(prefix + "accuracy", result.accuracy);
  writer.write_row_exact(prefix + "workload", result.workload);
  writer.write_row_exact(prefix + "scalars",
                         {static_cast<double>(switches), balance});
}

}  // namespace cea::sim
