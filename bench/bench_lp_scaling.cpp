// E19 — LP backend scaling ladder: the dense two-phase tableau (lp::solve)
// vs the sparse revised simplex (lp::solve_revised) on the max-throughput
// flow-polytope LP of growing gen::random_instance networks, topping out at
// ~50k servers / ~5k commodities. Per rung the polytope is built once
// (build time excluded from solve timings) and each backend is timed on the
// identical LpProblem; where both run, statuses must agree and objectives
// match within 1e-6 * (1 + |obj|). The revised simplex is the library's
// only production LP engine; the dense tableau is its differential oracle,
// kept in this bench as the baseline the ladder was measured against.
//
// The dense backend is gated twice: a projected-tableau memory cap (its
// standard-form tableau is (rows+1) x (cols + 2*rows + 1) doubles — ~200 GB
// at the top rung) and a wall-clock budget carried from the previous rung.
// Gated rungs are recorded with "dense_skipped": true; the crossover where
// the dense solver drops out while the sparse one keeps completing rungs IS
// the result, visible in BENCH_lp_scaling.json.
//
// `--smoke` runs the small rungs only (CI leg in scripts/ci.sh): full
// differential parity, no large-instance wall-clock.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "gen/random_instance.hpp"
#include "lp/model.hpp"
#include "lp/revised_simplex.hpp"
#include "lp/simplex.hpp"
#include "util/artifacts.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "xform/extended_graph.hpp"
#include "xform/lp_reference.hpp"

namespace {

using namespace maxutil;

struct Rung {
  std::size_t servers;
  std::size_t commodities;
  std::size_t stages;
  std::size_t min_width;
  std::size_t max_width;
};

/// The max-throughput LP of one rung's random network (linear utilities,
/// weight 1: the paper's Section-6 objective).
lp::LpProblem rung_lp(const Rung& rung, std::size_t* nnz) {
  gen::RandomInstanceParams params;
  params.servers = rung.servers;
  params.commodities = rung.commodities;
  params.stages = rung.stages;
  params.min_width = rung.min_width;
  params.max_width = rung.max_width;
  util::Rng rng(2007);
  const auto net = gen::random_instance(params, rng);
  const xform::ExtendedGraph xg(net);
  xform::FlowPolytope polytope = xform::build_flow_polytope(xg);
  polytope.problem.set_sense(lp::Sense::kMaximize);
  for (std::size_t j = 0; j < net.commodity_count(); ++j) {
    polytope.problem.set_objective_coefficient(polytope.admitted_var[j], 1.0);
  }
  *nnz = 0;
  for (std::size_t i = 0; i < polytope.problem.constraint_count(); ++i) {
    *nnz += polytope.problem.row(i).terms.size();
  }
  return std::move(polytope.problem);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::printf("=== E19: LP backend scaling ladder%s ===\n",
              smoke ? " (smoke)" : "");
  std::printf("dense tableau vs sparse revised simplex on flow-polytope LPs\n\n");

  // Interior widths shrink as the ladder climbs: scale comes from server
  // and commodity count (more, sparser, commodities), which is exactly the
  // regime where a dense tableau dies and a sparse basis stays almost
  // fill-free.
  const std::vector<Rung> rungs =
      smoke ? std::vector<Rung>{{40, 3, 3, 1, 3}, {120, 8, 3, 1, 3}}
            : std::vector<Rung>{{40, 3, 3, 1, 3},
                                {120, 8, 3, 1, 3},
                                {400, 16, 3, 1, 3},
                                {1200, 64, 3, 1, 2},
                                {4000, 400, 2, 1, 2},
                                {12000, 1200, 2, 1, 2},
                                {50000, 5000, 2, 1, 2}};

  // Dense gates: skip when the projected tableau exceeds the memory cap or
  // the previous dense solve blew the wall-clock budget (it only gets
  // slower further up the ladder).
  const double kDenseMemoryCapBytes = smoke ? 1e9 : 2e9;
  const double kDenseTimeBudgetSeconds = 30.0;

  std::vector<util::BenchRecord> records;
  util::Table table({"servers", "commodities", "rows", "cols", "nnz",
                     "dense s", "sparse s", "speedup", "parity"});

  bool all_sparse_optimal = true;
  bool parity = true;
  double top_rung_build_fraction = 0.0;
  bool dense_over_budget = false;
  std::size_t dense_completed = 0;
  std::size_t dense_skipped = 0;
  double top_rung_sparse_seconds = 0.0;
  bool top_rung_dense_skipped = false;

  for (const Rung& rung : rungs) {
    std::size_t nnz = 0;
    const auto build_start = std::chrono::steady_clock::now();
    const lp::LpProblem problem = rung_lp(rung, &nnz);
    const double build_seconds = seconds_since(build_start);
    const std::size_t rows = problem.constraint_count();
    const std::size_t cols = problem.variable_count();

    // --- Sparse backend: every rung. ---
    const auto sparse_start = std::chrono::steady_clock::now();
    const auto sparse = lp::solve_revised(problem);
    const double sparse_seconds = seconds_since(sparse_start);
    all_sparse_optimal =
        all_sparse_optimal && sparse.status == lp::LpStatus::kOptimal;

    // Polytope assembly must stay a small fraction of the end-to-end rung:
    // the CommodityIndex-backed builder is O(nnz), so if assembly ever rivals
    // the solve again, a full-scan regression crept back in. The shape check
    // reads the ladder's top rung only — that is where an asymptotic
    // regression shows, and the millisecond rungs below are timing noise.
    const double build_fraction =
        build_seconds / (build_seconds + sparse_seconds);
    top_rung_build_fraction = build_fraction;

    // --- Dense backend: gated by memory and carried time budget. ---
    const double tableau_bytes = 8.0 * static_cast<double>(rows + 1) *
                                 (static_cast<double>(cols) +
                                  2.0 * static_cast<double>(rows) + 1.0);
    const bool skip_dense =
        tableau_bytes > kDenseMemoryCapBytes || dense_over_budget;
    double dense_seconds = 0.0;
    bool rung_parity = true;
    if (!skip_dense) {
      const auto dense_start = std::chrono::steady_clock::now();
      const auto dense = lp::solve(problem);
      dense_seconds = seconds_since(dense_start);
      dense_over_budget = dense_seconds > kDenseTimeBudgetSeconds;
      ++dense_completed;
      rung_parity = dense.status == sparse.status &&
                    (dense.status != lp::LpStatus::kOptimal ||
                     std::abs(dense.objective - sparse.objective) <=
                         1e-6 * (1.0 + std::abs(dense.objective)));
      parity = parity && rung_parity;
    } else {
      ++dense_skipped;
    }
    if (&rung == &rungs.back()) {
      top_rung_sparse_seconds = sparse_seconds;
      top_rung_dense_skipped = skip_dense;
    }

    table.add_row(
        {util::Table::cell(static_cast<long long>(rung.servers)),
         util::Table::cell(static_cast<long long>(rung.commodities)),
         util::Table::cell(static_cast<long long>(rows)),
         util::Table::cell(static_cast<long long>(cols)),
         util::Table::cell(static_cast<long long>(nnz)),
         skip_dense ? "skipped" : util::Table::cell(dense_seconds, 3),
         util::Table::cell(sparse_seconds, 3),
         skip_dense ? "-"
                    : util::Table::cell(dense_seconds / sparse_seconds, 1) +
                          "x",
         skip_dense ? "-" : (rung_parity ? "ok" : "FAIL")});

    util::BenchRecord record{
        "servers=" + std::to_string(rung.servers),
        {{"servers", static_cast<double>(rung.servers)},
         {"commodities", static_cast<double>(rung.commodities)},
         {"rows", static_cast<double>(rows)},
         {"cols", static_cast<double>(cols)},
         {"nnz", static_cast<double>(nnz)},
         {"build_seconds", build_seconds},
         {"build_fraction", build_fraction},
         {"sparse_seconds", sparse_seconds},
         {"sparse_iterations", static_cast<double>(sparse.iterations)},
         {"sparse_objective", sparse.objective},
         {"projected_dense_tableau_bytes", tableau_bytes}},
        {{"sparse_optimal", sparse.status == lp::LpStatus::kOptimal},
         {"dense_skipped", skip_dense}}};
    if (!skip_dense) {
      record.metrics.push_back({"dense_seconds", dense_seconds});
      record.metrics.push_back(
          {"dense_speedup_sparse_over_dense", dense_seconds / sparse_seconds});
      record.flags.push_back({"parity", rung_parity});
    }
    records.push_back(std::move(record));
  }
  table.print(std::cout);

  if (!smoke) {
    std::printf("\ntop rung (%zu servers): sparse %.2fs, dense %s\n",
                rungs.back().servers, top_rung_sparse_seconds,
                top_rung_dense_skipped ? "skipped (over budget)" : "ran");
  }

  const std::string path = util::write_bench_json(
      "lp_scaling", records,
      {{"smoke", smoke ? "true" : "false", /*raw=*/true},
       {"dense_memory_cap_bytes", std::to_string(kDenseMemoryCapBytes)},
       {"dense_time_budget_seconds",
        std::to_string(kDenseTimeBudgetSeconds)},
       {"instance",
        "gen::random_instance ladder to 50k servers / 5k commodities, "
        "linear max-throughput objective, seed 2007"}});
  std::printf("wrote %s\n\n", path.c_str());

  std::printf("shape checks:\n");
  bool ok = true;
  ok &= bench::shape_check("sparse backend optimal on every rung",
                           all_sparse_optimal);
  ok &= bench::shape_check(
      "backends agree (status + objective) on every rung both ran", parity);
  ok &= bench::shape_check("dense backend ran on at least the small rungs",
                           dense_completed >= 2);
  ok &= bench::shape_check(
      "polytope build stays under half of build+sparse-solve on the top rung",
      top_rung_build_fraction < 0.5);
  if (!smoke) {
    ok &= bench::shape_check(
        "the dense backend dropped out before the ladder top (crossover)",
        dense_skipped >= 1 && top_rung_dense_skipped);
    ok &= bench::shape_check(
        "sparse backend completed the 50k-server rung the dense backend "
        "could not reach",
        all_sparse_optimal && top_rung_dense_skipped);
  }
  return ok ? 0 : 1;
}
