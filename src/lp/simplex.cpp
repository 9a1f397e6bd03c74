#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "la/matrix.hpp"
#include "util/check.hpp"

namespace maxutil::lp {

using maxutil::la::Matrix;
using maxutil::util::ensure;

namespace {

/// How a natural variable maps onto standard-form (>= 0) columns.
struct VarMap {
  std::size_t pos_col = 0;   // column for the non-negative part
  std::size_t neg_col = 0;   // column for the negative part (free vars only)
  bool split = false;        // free variable: x = pos - neg
  bool flipped = false;      // x = shift - pos (upper bound only)
  double shift = 0.0;        // additive offset: x = shift + pos (or shift - pos)
};

/// Dense two-phase tableau simplex over the standard-form system
/// min c'y s.t. Ay = b, y >= 0, b >= 0.
class Tableau {
 public:
  Tableau(Matrix rows, std::vector<double> rhs, std::vector<double> cost,
          const SimplexOptions& options)
      : m_(rows.rows()),
        n_(rows.cols()),
        art_start_(rows.cols()),
        options_(options),
        // Layout: [structural+slack columns | artificial columns | rhs],
        // plus one objective row at the bottom.
        t_(rows.rows() + 1, rows.cols() + rows.rows() + 1),
        basis_(rows.rows()) {
    ensure(rhs.size() == m_ && cost.size() == n_, "Tableau: shape mismatch");
    cost_ = std::move(cost);
    row_signs_.resize(m_);
    for (std::size_t r = 0; r < m_; ++r) {
      const double sign = rhs[r] < 0.0 ? -1.0 : 1.0;
      row_signs_[r] = sign;
      for (std::size_t c = 0; c < n_; ++c) t_(r, c) = sign * rows(r, c);
      t_(r, cols() - 1) = sign * rhs[r];
      t_(r, art_start_ + r) = 1.0;
      basis_[r] = art_start_ + r;
    }
  }

  /// Sign applied to row i during setup (rhs made non-negative).
  double row_sign(std::size_t row) const { return row_signs_[row]; }

  /// Duals of the standard-form rows at the final basis: the artificial
  /// column of row i is e_i, so its maintained reduced cost is -y_i.
  /// Valid after run() returns kOptimal.
  double row_dual(std::size_t row) const { return -t_(m_, art_start_ + row); }

  /// Runs both phases; returns the status. On kOptimal, `standard_solution`
  /// holds the standard-form y vector and `objective` the phase-2 cost.
  LpStatus run(std::vector<double>& standard_solution, double& objective,
               std::size_t& iterations) {
    max_iters_ = options_.max_iterations
                     ? options_.max_iterations
                     : 200 * (m_ + n_) + 10000;

    // --- Phase 1: minimize the sum of artificials. ---
    // Reduced costs: c_art = 1 on artificials, 0 elsewhere; artificials are
    // basic, so the objective row is minus the sum of all constraint rows on
    // the non-artificial columns.
    for (std::size_t c = 0; c < cols(); ++c) {
      double total = 0.0;
      for (std::size_t r = 0; r < m_; ++r) total += t_(r, c);
      t_(m_, c) = (c >= art_start_ && c + 1 < cols()) ? 0.0 : -total;
    }
    // Artificial columns keep reduced cost zero (they are basic); structural
    // columns carry -(row sums); the rhs cell carries -(sum b).
    for (std::size_t c = art_start_; c + 1 < cols(); ++c) t_(m_, c) = 0.0;

    const LpStatus phase1 = iterate(/*allow_artificials=*/false);
    iterations = iters_;
    if (phase1 == LpStatus::kIterationLimit) return phase1;
    // Phase-1 objective value is -t_(m_, rhs); infeasible when positive.
    if (-t_(m_, cols() - 1) > 1e-7) return LpStatus::kInfeasible;

    drive_out_artificials();

    // --- Phase 2: original costs, artificial columns barred. ---
    for (std::size_t c = 0; c < cols(); ++c) {
      t_(m_, c) = (c < n_) ? cost_[c] : 0.0;
    }
    // Price out the basic variables so reduced costs are basis-consistent.
    for (std::size_t r = 0; r < m_; ++r) {
      const std::size_t b = basis_[r];
      const double cb = (b < n_) ? cost_[b] : 0.0;
      if (cb == 0.0) continue;
      for (std::size_t c = 0; c < cols(); ++c) t_(m_, c) -= cb * t_(r, c);
    }

    const LpStatus phase2 = iterate(/*allow_artificials=*/false);
    iterations = iters_;
    if (phase2 != LpStatus::kOptimal) return phase2;

    standard_solution.assign(n_, 0.0);
    for (std::size_t r = 0; r < m_; ++r) {
      if (basis_[r] < n_) standard_solution[basis_[r]] = t_(r, cols() - 1);
    }
    objective = -t_(m_, cols() - 1);
    return LpStatus::kOptimal;
  }

 private:
  std::size_t cols() const { return n_ + m_ + 1; }

  void pivot(std::size_t prow, std::size_t pcol) {
    const double pivot_value = t_(prow, pcol);
    const double inv = 1.0 / pivot_value;
    for (std::size_t c = 0; c < cols(); ++c) t_(prow, c) *= inv;
    t_(prow, pcol) = 1.0;  // cancel round-off on the pivot itself
    for (std::size_t r = 0; r <= m_; ++r) {
      if (r == prow) continue;
      const double factor = t_(r, pcol);
      if (factor == 0.0) continue;
      for (std::size_t c = 0; c < cols(); ++c) t_(r, c) -= factor * t_(prow, c);
      t_(r, pcol) = 0.0;
    }
    basis_[prow] = pcol;
  }

  /// Entering-column choice. Bland: first eligible index. Dantzig: most
  /// negative reduced cost. Returns cols() when none is eligible (optimal).
  std::size_t choose_entering(bool bland, bool allow_artificials) const {
    const double tol = options_.tolerance;
    const std::size_t limit = allow_artificials ? cols() - 1 : art_start_;
    std::size_t best = cols();
    double best_value = -tol;
    for (std::size_t c = 0; c < limit; ++c) {
      const double rc = t_(m_, c);
      if (rc < best_value) {
        if (bland) return c;
        best_value = rc;
        best = c;
      }
    }
    return best;
  }

  /// Ratio test; returns m_ when the column is unbounded below.
  std::size_t choose_leaving(std::size_t pcol) const {
    const double tol = options_.tolerance;
    std::size_t best = m_;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < m_; ++r) {
      const double a = t_(r, pcol);
      if (a <= tol) continue;
      const double ratio = t_(r, cols() - 1) / a;
      // Tie-break on the smallest basis index (Bland-compatible).
      if (ratio < best_ratio - tol ||
          (ratio < best_ratio + tol && best != m_ && basis_[r] < basis_[best])) {
        best_ratio = ratio;
        best = r;
      }
    }
    return best;
  }

  LpStatus iterate(bool allow_artificials) {
    bool bland = options_.always_bland;
    double last_objective = std::numeric_limits<double>::infinity();
    std::size_t stall = 0;
    const std::size_t stall_limit = options_.stall_pivot_limit
                                        ? options_.stall_pivot_limit
                                        : 2 * (m_ + n_) + 100;
    while (true) {
      if (iters_ >= max_iters_) return LpStatus::kIterationLimit;
      const std::size_t entering = choose_entering(bland, allow_artificials);
      if (entering >= cols()) return LpStatus::kOptimal;
      const std::size_t leaving = choose_leaving(entering);
      if (leaving == m_) return LpStatus::kUnbounded;
      pivot(leaving, entering);
      ++iters_;
      // Degeneracy watchdog: if the objective stops moving, fall back to
      // Bland's rule, which cannot cycle.
      const double objective = -t_(m_, cols() - 1);
      if (objective < last_objective - options_.tolerance) {
        last_objective = objective;
        stall = 0;
      } else if (++stall > stall_limit) {
        bland = true;
      }
    }
  }

  /// After phase 1, replace basic artificials with structural columns where
  /// the row allows it; rows with no structural support are redundant and
  /// keep their (zero-valued) artificial, which phase 2 never re-enters.
  void drive_out_artificials() {
    for (std::size_t r = 0; r < m_; ++r) {
      if (basis_[r] < art_start_) continue;
      for (std::size_t c = 0; c < art_start_; ++c) {
        if (std::abs(t_(r, c)) > 1e-7) {
          pivot(r, c);
          break;
        }
      }
    }
  }

  std::size_t m_;
  std::size_t n_;
  std::size_t art_start_;
  SimplexOptions options_;
  Matrix t_;
  std::vector<std::size_t> basis_;
  std::vector<double> cost_;
  std::vector<double> row_signs_;
  std::size_t iters_ = 0;
  std::size_t max_iters_ = 0;
};

}  // namespace

LpSolution solve(const LpProblem& problem, const SimplexOptions& options) {
  const std::size_t nvars = problem.variable_count();

  // --- Standard-form conversion. ---
  std::vector<VarMap> maps(nvars);
  std::size_t next_col = 0;
  std::size_t bound_rows = 0;
  for (VarId v = 0; v < nvars; ++v) {
    const double lo = problem.lower(v);
    const double up = problem.upper(v);
    VarMap& vm = maps[v];
    if (std::isfinite(lo)) {
      vm.shift = lo;
      vm.pos_col = next_col++;
      if (std::isfinite(up) && up > lo) ++bound_rows;  // y <= up - lo
      // (up == lo fixes the variable; handled by a zero-width bound row.)
      if (std::isfinite(up) && up == lo) ++bound_rows;
    } else if (std::isfinite(up)) {
      vm.flipped = true;
      vm.shift = up;
      vm.pos_col = next_col++;
    } else {
      vm.split = true;
      vm.pos_col = next_col++;
      vm.neg_col = next_col++;
    }
  }

  const std::size_t nrows = problem.constraint_count() + bound_rows;
  std::size_t nslacks = 0;
  for (std::size_t i = 0; i < problem.constraint_count(); ++i) {
    if (problem.row(i).rel != Relation::kEq) ++nslacks;
  }
  nslacks += bound_rows;  // every bound row is a <= row with its own slack

  const std::size_t ncols = next_col + nslacks;
  Matrix rows(nrows, ncols);
  std::vector<double> rhs(nrows, 0.0);
  std::vector<double> cost(ncols, 0.0);

  const double sense_sign =
      problem.sense() == Sense::kMaximize ? -1.0 : 1.0;
  double objective_offset = 0.0;
  for (VarId v = 0; v < nvars; ++v) {
    const double c = problem.objective_coefficient(v);
    const VarMap& vm = maps[v];
    objective_offset += c * vm.shift;
    if (vm.split) {
      cost[vm.pos_col] = sense_sign * c;
      cost[vm.neg_col] = -sense_sign * c;
    } else {
      cost[vm.pos_col] = sense_sign * (vm.flipped ? -c : c);
    }
  }

  std::size_t row_index = 0;
  std::size_t slack_col = next_col;
  for (std::size_t i = 0; i < problem.constraint_count(); ++i) {
    const LpProblem::Row& r = problem.row(i);
    double b = r.rhs;
    for (const auto& [v, coeff] : r.terms) {
      const VarMap& vm = maps[v];
      b -= coeff * vm.shift;
      if (vm.split) {
        rows(row_index, vm.pos_col) += coeff;
        rows(row_index, vm.neg_col) -= coeff;
      } else {
        rows(row_index, vm.pos_col) += vm.flipped ? -coeff : coeff;
      }
    }
    rhs[row_index] = b;
    switch (r.rel) {
      case Relation::kLessEq:
        rows(row_index, slack_col++) = 1.0;
        break;
      case Relation::kGreaterEq:
        rows(row_index, slack_col++) = -1.0;
        break;
      case Relation::kEq:
        break;
    }
    ++row_index;
  }
  // Bound rows: y_v + s = up - lo for two-sided variables.
  for (VarId v = 0; v < nvars; ++v) {
    const double lo = problem.lower(v);
    const double up = problem.upper(v);
    if (!std::isfinite(lo) || !std::isfinite(up)) continue;
    rows(row_index, maps[v].pos_col) = 1.0;
    rows(row_index, slack_col++) = 1.0;
    rhs[row_index] = up - lo;
    ++row_index;
  }
  ensure(row_index == nrows && slack_col == ncols,
         "simplex: standard-form assembly mismatch");

  // --- Solve. ---
  Tableau tableau(std::move(rows), std::move(rhs), std::move(cost), options);
  LpSolution solution;
  std::vector<double> y;
  double std_objective = 0.0;
  solution.status = tableau.run(y, std_objective, solution.iterations);
  if (solution.status != LpStatus::kOptimal) return solution;

  // --- Map back to natural variables. ---
  solution.x.assign(nvars, 0.0);
  for (VarId v = 0; v < nvars; ++v) {
    const VarMap& vm = maps[v];
    if (vm.split) {
      solution.x[v] = y[vm.pos_col] - y[vm.neg_col];
    } else if (vm.flipped) {
      solution.x[v] = vm.shift - y[vm.pos_col];
    } else {
      solution.x[v] = vm.shift + y[vm.pos_col];
    }
  }
  solution.objective = sense_sign * std_objective + objective_offset;

  // Shadow prices of the user's constraint rows: the artificial column of
  // standard row i is e_i, so its maintained phase-2 reduced cost is -y_i;
  // undo the setup row-sign and the sense flip to express the dual as
  // d(objective-in-declared-sense)/d(rhs_i).
  solution.duals.resize(problem.constraint_count());
  for (std::size_t i = 0; i < problem.constraint_count(); ++i) {
    solution.duals[i] =
        sense_sign * tableau.row_sign(i) * tableau.row_dual(i);
  }
  return solution;
}

}  // namespace maxutil::lp
