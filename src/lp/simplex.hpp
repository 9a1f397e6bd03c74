#pragma once

#include <cstddef>

#include "lp/model.hpp"

namespace maxutil::lp {

/// Tuning knobs for the dense tableau simplex.
struct SimplexOptions {
  /// Feasibility/optimality tolerance.
  double tolerance = 1e-9;
  /// Hard pivot cap; 0 selects 200*(rows+cols) + 10000 automatically.
  std::size_t max_iterations = 0;
  /// Force Bland's anti-cycling rule from the first pivot (slower but
  /// guaranteed finite); otherwise Dantzig pricing with an automatic switch
  /// to Bland when the objective stalls.
  bool always_bland = false;
  /// Pivots without objective progress before the automatic Dantzig->Bland
  /// switch; 0 selects 2*(rows+cols) + 100. Exposed so anti-cycling
  /// regression tests can force the switch after a deterministic number of
  /// stalled pivots.
  std::size_t stall_pivot_limit = 0;
};

/// Solves `problem` with a dense two-phase primal simplex.
///
/// The differential oracle, not a production engine: every solve in the
/// library goes through lp::solve_revised (revised_simplex.hpp), and this
/// independent implementation exists so the tests (lp_diff_test, lp_test,
/// property_test) and the dense arm of bench_lp_scaling can check it.
/// Bounded variables, free variables, and all three row relations are
/// handled by internal standard-form conversion into a dense tableau, so
/// memory grows as rows x columns.
LpSolution solve(const LpProblem& problem, const SimplexOptions& options = {});

}  // namespace maxutil::lp
