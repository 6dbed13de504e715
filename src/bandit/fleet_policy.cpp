#include "bandit/fleet_policy.h"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "util/state_io.h"

namespace cea::bandit {

PerEdgeFleetAdapter::PerEdgeFleetAdapter(const PolicyFactory& factory,
                                         const FleetPolicyContext& context) {
  assert(context.switching_cost.size() == context.num_edges);
  policies_.reserve(context.num_edges);
  batchable_.reserve(context.num_edges);
  for (std::size_t edge = 0; edge < context.num_edges; ++edge) {
    PolicyContext per_edge;
    per_edge.num_models = context.num_models;
    per_edge.switching_cost = context.switching_cost[edge];
    per_edge.energy_per_sample = context.energy_per_sample;
    per_edge.seed = policy_stream_seed(context.run_seed, edge);
    per_edge.horizon = context.horizon;
    per_edge.edge = edge;
    policies_.push_back(factory(per_edge));
    batchable_.push_back(
        dynamic_cast<TsallisBatchSolvable*>(policies_.back().get()));
    any_batchable_ = any_batchable_ || batchable_.back() != nullptr;
  }
}

std::string PerEdgeFleetAdapter::name() const {
  return policies_.empty() ? "EmptyFleet" : policies_.front()->name();
}

bool PerEdgeFleetAdapter::save_state(util::StateWriter& writer) const {
  if (!policies_.empty()) {
    // Probe support on a scratch writer so an unsupported fleet leaves the
    // real writer untouched (the interface contract).
    util::StateWriter probe;
    if (!policies_.front()->save_state(probe)) return false;
  }
  for (const auto& policy : policies_) {
    if (!policy->save_state(writer)) {
      throw util::StateError(
          "PerEdgeFleetAdapter: mixed fleet — policy '" + policy->name() +
          "' does not support checkpointing");
    }
  }
  return true;
}

bool PerEdgeFleetAdapter::load_state(util::StateReader& reader) {
  for (std::size_t edge = 0; edge < policies_.size(); ++edge) {
    if (!policies_[edge]->load_state(reader)) {
      if (edge == 0) return false;  // reader untouched by contract
      throw util::StateError(
          "PerEdgeFleetAdapter: mixed fleet — policy '" +
          policies_[edge]->name() + "' does not support checkpointing");
    }
  }
  return true;
}

FleetPolicyFactory adapt_per_edge(PolicyFactory factory) {
  return [factory = std::move(factory)](const FleetPolicyContext& context) {
    return std::make_unique<PerEdgeFleetAdapter>(factory, context);
  };
}

namespace {

class FixedFleetPolicy final : public FleetPolicy {
 public:
  explicit FixedFleetPolicy(std::vector<std::size_t> models)
      : models_(std::move(models)) {}

  std::size_t num_edges() const noexcept override { return models_.size(); }
  std::size_t select(std::size_t edge, std::size_t) override {
    return models_[edge];
  }
  void feedback(std::size_t, std::size_t, std::size_t, double) override {}
  std::string name() const override { return "fixed"; }
  bool save_state(util::StateWriter&) const override { return true; }
  bool load_state(util::StateReader&) override { return true; }

 private:
  std::vector<std::size_t> models_;
};

}  // namespace

FleetPolicyFactory fixed_policy(std::vector<std::size_t> model_per_edge) {
  return [models = std::move(model_per_edge)](
             const FleetPolicyContext& context)
             -> std::unique_ptr<FleetPolicy> {
    if (models.size() != context.num_edges) {
      throw std::invalid_argument(
          "fixed_policy: " + std::to_string(models.size()) +
          " choices for " + std::to_string(context.num_edges) + " edges");
    }
    for (const std::size_t model : models) {
      if (model >= context.num_models) {
        throw std::invalid_argument(
            "fixed_policy: model " + std::to_string(model) + " out of range (" +
            std::to_string(context.num_models) + " models)");
      }
    }
    return std::make_unique<FixedFleetPolicy>(models);
  };
}

}  // namespace cea::bandit
