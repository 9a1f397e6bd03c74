// Registry adapter for the centralized LP reference
// (xform::solve_reference): the transformed problem solved exactly by the
// sparse revised simplex, with concave utilities encoded piecewise-linearly.
// It is registered under two names, "lp" and "lp-sparse", which run the
// same solve (the second name is kept for existing pipeline specs). It
// emits a routing recovered from the optimal vertex
// (core::routing_from_flows) so pipelines can warm-start iterative stages
// from the LP optimum, and its final simplex basis, which
// SolveOptions::warm_basis feeds back into the next solve of the same
// layout.

#include <algorithm>
#include <string>
#include <utility>

#include "core/warm_start.hpp"
#include "solver/adapters.hpp"
#include "solver/registry.hpp"
#include "xform/lp_reference.hpp"

namespace maxutil::solver {

namespace {

Status map_status(lp::LpStatus status) {
  switch (status) {
    case lp::LpStatus::kOptimal: return Status::kConverged;
    case lp::LpStatus::kInfeasible: return Status::kInfeasible;
    case lp::LpStatus::kUnbounded: return Status::kUnbounded;
    case lp::LpStatus::kIterationLimit: return Status::kFailed;
  }
  return Status::kFailed;
}

SolveResult solve_lp(const Problem& problem, const SolveOptions& options) {
  xform::ReferenceOptions ro;
  ro.pwl_segments = static_cast<std::size_t>(
      options.extra_number("pwl_segments", static_cast<double>(ro.pwl_segments)));

  lp::SimplexBasis basis = options.warm_basis.value_or(lp::SimplexBasis{});
  const auto reference =
      xform::solve_reference(problem.extended(), ro, &basis);
  SolveResult result;
  result.status = map_status(reference.status);
  result.iterations = reference.iterations;
  if (reference.status != lp::LpStatus::kOptimal) {
    result.message =
        std::string("LP solve failed: ") + lp::to_string(reference.status);
    return result;
  }
  result.admitted = reference.admitted;
  result.utility = reference.optimal_utility;
  result.node_usage = reference.node_usage;
  result.basis = std::move(basis);
  // The optimal vertex saturates capacities; routing_from_flows repairs it
  // to a strictly guard-feasible warm start (finite barrier cost).
  result.routing = core::routing_from_flows(
      problem.extended(), reference.flows,
      options.extra_number("capacity_guard", 0.999));
  double max_price = 0.0;
  for (const double p : reference.node_shadow_price) {
    max_price = std::max(max_price, p);
  }
  result.metrics = {{"max_shadow_price", max_price}};
  return result;
}

}  // namespace

void register_lp_solver(SolverRegistry& registry) {
  SolverInfo info;
  info.name = "lp";
  info.description =
      "centralized LP reference: sparse revised simplex on the transformed "
      "problem (PWL-encoded concave utilities)";
  info.emits_routing = true;
  info.supports_warm_basis = true;
  info.solve = solve_lp;
  registry.add(std::move(info));
}

void register_lp_sparse_solver(SolverRegistry& registry) {
  SolverInfo info;
  info.name = "lp-sparse";
  info.description = "the same solve as 'lp' (alias kept for existing specs)";
  info.emits_routing = true;
  info.supports_warm_basis = true;
  info.alias_of = "lp";
  info.solve = solve_lp;
  registry.add(std::move(info));
}

}  // namespace maxutil::solver
