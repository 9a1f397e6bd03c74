#include "xform/lp_reference.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "lp/frank_wolfe.hpp"
#include "lp/pwl.hpp"
#include "lp/revised_simplex.hpp"
#include "util/check.hpp"

namespace maxutil::xform {

using maxutil::lp::LpProblem;
using maxutil::lp::LpStatus;
using maxutil::lp::Relation;
using maxutil::lp::Sense;
using maxutil::lp::VarId;
using maxutil::util::ensure;

FlowPolytope build_flow_polytope(const ExtendedGraph& xg,
                                 bool generate_names) {
  const auto& g = xg.graph();
  const CommodityIndex& idx = xg.index();
  const std::size_t ncommodities = xg.commodity_count();

  FlowPolytope out;
  out.flow_var.resize(ncommodities);
  out.admitted_var.resize(ncommodities);

  // Flow variable y_{j,e} >= 0 per usable (commodity, extended edge): the
  // rate of commodity-j flow routed over e, measured in tail-node units
  // (y = t_i(j) * phi_e(j)). Variables are added per commodity in ascending
  // global edge id, so the VarId of a slot is edge_begin(j) + id_rank(slot)
  // — no per-edge lookup structure is needed.
  for (CommodityId j = 0; j < ncommodities; ++j) {
    const std::size_t count = idx.edge_end(j) - idx.edge_begin(j);
    out.flow_var[j].reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
      const EdgeId e = idx.edge(idx.slot_by_id(j, k));
      const VarId var = out.problem.add_variable(
          generate_names ? "y[j" + std::to_string(j) + ",e" +
                               std::to_string(e) + "]"
                         : std::string());
      out.flow_var[j].emplace_back(e, var);
    }
    out.admitted_var[j] = static_cast<VarId>(
        idx.edge_begin(j) + idx.id_rank(idx.dummy_input_slot(j)));
  }
  const auto var_of = [&idx](CommodityId j, std::size_t slot) {
    return static_cast<VarId>(idx.edge_begin(j) + idx.id_rank(slot));
  };

  // Flow balance with shrinkage (eq. 7) at every non-sink commodity node:
  //   sum_out y  -  sum_in beta * y  =  r_v(j)
  // where r is lambda_j at the dummy source, 0 elsewhere. Rows iterate
  // commodity nodes in ascending global id (node_sorted), with each row's
  // out-terms then in-terms in the graph's adjacency order — the same row
  // and term layout the pre-index builder produced.
  std::vector<std::pair<VarId, double>> terms;
  for (CommodityId j = 0; j < ncommodities; ++j) {
    for (std::size_t k = idx.node_begin(j); k < idx.node_end(j); ++k) {
      const std::size_t local = idx.sorted_local(k);
      if (local == idx.sink_local(j)) continue;
      terms.clear();
      for (std::size_t s = idx.out_begin(local); s < idx.out_end(local); ++s) {
        terms.emplace_back(var_of(j, s), 1.0);
      }
      for (std::size_t p = idx.in_begin(local); p < idx.in_end(local); ++p) {
        const std::size_t s = idx.in_slot(p);
        terms.emplace_back(var_of(j, s), -idx.beta(s));
      }
      const double r =
          (local == idx.dummy_source_local(j)) ? xg.lambda(j) : 0.0;
      out.problem.add_constraint(terms, Relation::kEq, r);
    }
  }

  // Node capacity (eq. 6): resource is spent by the tail on outgoing edges.
  // The edge -> (commodity, slot) transpose yields, per edge, the usable
  // commodities in ascending order — matching the old j-inner scan.
  out.capacity_row.assign(xg.node_count(), FlowPolytope::kNoCapacityRow);
  for (NodeId v = 0; v < xg.node_count(); ++v) {
    if (!xg.has_finite_capacity(v)) continue;
    terms.clear();
    for (const EdgeId e : g.out_edges(v)) {
      for (std::size_t k = idx.edge_commodities_begin(e);
           k < idx.edge_commodities_end(e); ++k) {
        const std::size_t slot = idx.edge_commodity_slot(k);
        terms.emplace_back(var_of(idx.edge_commodity(k), slot),
                           idx.cost_rate(slot));
      }
    }
    if (!terms.empty()) {
      out.capacity_row[v] = out.problem.constraint_count();
      out.problem.add_constraint(terms, Relation::kLessEq, xg.capacity(v));
    }
  }
  return out;
}

ReferenceSolution solve_reference(const ExtendedGraph& xg,
                                  const ReferenceOptions& options) {
  const auto& g = xg.graph();
  const std::size_t ncommodities = xg.commodity_count();

  FlowPolytope polytope = build_flow_polytope(xg, options.generate_names);
  LpProblem& problem = polytope.problem;
  problem.set_sense(Sense::kMaximize);

  // Objective: U_j of the admitted rate (the dummy input link's flow).
  for (CommodityId j = 0; j < ncommodities; ++j) {
    const VarId admitted = polytope.admitted_var[j];
    const auto& utility = xg.network().utility(j);
    if (utility.is_linear()) {
      problem.set_objective_coefficient(admitted, utility.weight());
    } else {
      const double lambda = xg.lambda(j);
      const auto pwl = maxutil::lp::PwlConcave::from_function(
          [&utility](double a) { return utility.value(a); }, lambda,
          options.pwl_segments);
      const VarId a = maxutil::lp::add_pwl_admission_variable(
          problem, lambda, pwl,
          options.generate_names ? "a" + std::to_string(j) : std::string());
      problem.add_constraint({{a, 1.0}, {admitted, -1.0}}, Relation::kEq, 0.0);
    }
  }

  const auto lp_solution = maxutil::lp::solve_revised(problem);

  ReferenceSolution out;
  out.status = lp_solution.status;
  out.iterations = lp_solution.iterations;
  if (lp_solution.status != LpStatus::kOptimal) return out;

  out.admitted.resize(ncommodities, 0.0);
  out.flows.resize(ncommodities);
  out.node_usage.assign(xg.node_count(), 0.0);
  double utility_total = 0.0;
  for (CommodityId j = 0; j < ncommodities; ++j) {
    out.admitted[j] = lp_solution.x[polytope.admitted_var[j]];
    utility_total += xg.network().utility(j).value(
        std::clamp(out.admitted[j], 0.0, xg.lambda(j)));
    for (const auto& [e, var] : polytope.flow_var[j]) {
      const double y = lp_solution.x[var];
      if (y > 1e-9) out.flows[j].emplace_back(e, y);
      out.node_usage[g.tail(e)] += xg.cost_rate(j, e) * std::max(y, 0.0);
    }
  }
  // Report the true utility of the admitted rates (not the PWL surrogate).
  out.optimal_utility = utility_total;
  // Shadow prices: the capacity rows' duals.
  out.node_shadow_price.assign(xg.node_count(), 0.0);
  for (NodeId v = 0; v < xg.node_count(); ++v) {
    const std::size_t row = polytope.capacity_row[v];
    if (row != FlowPolytope::kNoCapacityRow) {
      out.node_shadow_price[v] = lp_solution.duals[row];
    }
  }
  return out;
}

FrankWolfeReference solve_reference_frank_wolfe(const ExtendedGraph& xg,
                                                std::size_t max_iterations) {
  const std::size_t ncommodities = xg.commodity_count();
  const FlowPolytope polytope = build_flow_polytope(xg);
  const std::size_t n = polytope.problem.variable_count();

  const auto clamp_rate = [&](double a, CommodityId j) {
    return std::clamp(a, 0.0, xg.lambda(j));
  };
  const auto value = [&](const std::vector<double>& x) {
    double total = 0.0;
    for (CommodityId j = 0; j < ncommodities; ++j) {
      total += xg.network().utility(j).value(
          clamp_rate(x[polytope.admitted_var[j]], j));
    }
    return total;
  };
  const auto gradient = [&](const std::vector<double>& x) {
    std::vector<double> grad(n, 0.0);
    for (CommodityId j = 0; j < ncommodities; ++j) {
      grad[polytope.admitted_var[j]] = xg.network().utility(j).derivative(
          clamp_rate(x[polytope.admitted_var[j]], j));
    }
    return grad;
  };

  maxutil::lp::FrankWolfeOptions options;
  options.max_iterations = max_iterations;
  const auto solution = maxutil::lp::maximize_concave(polytope.problem, value,
                                                      gradient, options);
  FrankWolfeReference out;
  out.status = solution.status;
  out.iterations = solution.iterations;
  out.duality_gap = solution.gap;
  if (solution.status != LpStatus::kOptimal) return out;
  out.utility = solution.objective;
  out.admitted.resize(ncommodities);
  for (CommodityId j = 0; j < ncommodities; ++j) {
    out.admitted[j] = solution.x[polytope.admitted_var[j]];
  }
  return out;
}

}  // namespace maxutil::xform
