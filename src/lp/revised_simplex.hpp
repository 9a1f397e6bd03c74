#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lp/model.hpp"

namespace maxutil::lp {

/// State of one computational column (structural variables first, then one
/// slack per constraint row) in a revised-simplex basis.
enum class BasisStatus : std::uint8_t {
  kAtLower,  // nonbasic at its finite lower bound
  kAtUpper,  // nonbasic at its finite upper bound
  kBasic,    // in the basis; value determined by the basic solve
  kFree,     // nonbasic free variable, parked at 0
};

/// A reusable simplex basis: the per-column status vector of a solved
/// problem, sized variable_count() + constraint_count(). Passing the basis
/// of a previous solve back into solve_revised warm-starts the method: the
/// basis is refactorized once and pivoting resumes from it, so a re-solve
/// after a small model change (churn event, serve batch, rhs drift) costs a
/// handful of pivots instead of a full cold run. An empty basis means
/// "cold start".
struct SimplexBasis {
  std::vector<BasisStatus> status;
  bool empty() const { return status.empty(); }
};

/// Tuning knobs for the sparse revised simplex.
struct RevisedSimplexOptions {
  /// Optimality/ratio-test tolerance on reduced costs and pivot rates.
  double tolerance = 1e-9;
  /// Primal feasibility tolerance (phase-1 exit, infeasibility declaration).
  double feasibility_tolerance = 1e-7;
  /// Hard pivot cap; 0 selects 200*(rows+cols) + 10000 automatically.
  std::size_t max_iterations = 0;
  /// Force Bland's anti-cycling rule from the first pivot.
  bool always_bland = false;
  /// Pivots without objective progress before the automatic Dantzig->Bland
  /// switch; 0 selects 2*(rows+cols) + 100. Exposed so the anti-cycling
  /// regression tests can force the switch deterministically.
  std::size_t stall_pivot_limit = 0;
};

/// Solves `problem` with a bounded-variable sparse revised simplex: CSC
/// constraint storage, an la::SparseLu basis factorization plus an eta-file
/// (product-form) update per pivot with a refactorization every 64 pivots,
/// Dantzig pricing with an automatic (or forced) Bland fallback, and a
/// composite phase 1 that needs no artificial variables. Free and bounded variables
/// are handled natively — no column splitting and no bound rows — so the
/// standard-form blow-up of the dense tableau solver never happens.
///
/// The library's only production LP engine: the reference LP
/// (xform::solve_reference), the `lp`/`lp-sparse` registry solvers and
/// Frank-Wolfe's linear oracle all solve through it. Results match the
/// dense tableau oracle lp::solve on status and objective (the
/// differential harness in tests/lp_diff_test.cpp pins this); `duals` is
/// d objective-in-declared-sense / d rhs, as documented on LpSolution.
///
/// `warm_basis`, when non-null and non-empty, seeds the solve with a
/// previous basis (see SimplexBasis); a stale or singular basis silently
/// falls back to the cold slack start. On an optimal exit the final basis
/// is written back through the same pointer.
LpSolution solve_revised(const LpProblem& problem,
                         const RevisedSimplexOptions& options = {},
                         SimplexBasis* warm_basis = nullptr);

}  // namespace maxutil::lp
