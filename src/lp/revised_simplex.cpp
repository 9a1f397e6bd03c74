#include "lp/revised_simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "la/sparse.hpp"
#include "la/sparse_lu.hpp"

namespace maxutil::lp {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);
constexpr double kInf = std::numeric_limits<double>::infinity();

/// One product-form update: after the pivot that replaced basis position
/// `row` with the column whose FTRAN image was w, B_new^{-1} = E^{-1}
/// B_old^{-1} where E is the identity with column `row` replaced by w.
struct Eta {
  std::uint32_t row = 0;
  double diag = 1.0;                                   // w[row]
  std::vector<std::pair<std::uint32_t, double>> rest;  // w[i], i != row
};

enum class Phase { kOne, kTwo };

/// Basis pivots between LU refactorizations. The eta file (product-form
/// updates) grows one sparse column per pivot; refactorizing bounds both the
/// FTRAN/BTRAN cost and the accumulated roundoff, and recomputes the basic
/// values from scratch.
constexpr std::size_t kRefactorInterval = 64;

class RevisedSolver {
 public:
  RevisedSolver(const LpProblem& problem, const RevisedSimplexOptions& options)
      : problem_(problem), opt_(options) {
    m_ = problem.constraint_count();
    n_ = problem.variable_count();
    total_ = n_ + m_;
    max_iters_ = opt_.max_iterations ? opt_.max_iterations
                                     : 200 * (m_ + n_) + 10000;

    const double sign = problem.sense() == Sense::kMaximize ? -1.0 : 1.0;
    sense_sign_ = sign;
    lo_.resize(total_);
    up_.resize(total_);
    cost_.assign(total_, 0.0);
    for (std::size_t j = 0; j < n_; ++j) {
      lo_[j] = problem.lower(j);
      up_[j] = problem.upper(j);
      cost_[j] = sign * problem.objective_coefficient(j);
    }
    b_.resize(m_);
    std::vector<la::Triplet> entries;
    for (std::size_t i = 0; i < m_; ++i) {
      const LpProblem::Row& row = problem.row(i);
      b_[i] = row.rhs;
      for (const auto& [v, coeff] : row.terms) {
        entries.push_back({v, i, coeff});
      }
      // Slack: row + s = rhs. <= rows keep s >= 0, >= rows s <= 0, and
      // equalities pin s at 0 — no artificial variables anywhere.
      const std::size_t s = n_ + i;
      switch (row.rel) {
        case Relation::kLessEq:
          lo_[s] = 0.0;
          up_[s] = kInfinity;
          break;
        case Relation::kGreaterEq:
          lo_[s] = -kInfinity;
          up_[s] = 0.0;
          break;
        case Relation::kEq:
          lo_[s] = 0.0;
          up_[s] = 0.0;
          break;
      }
    }
    // CSC of the structural block, deduplicated and row-sorted: the CSR of
    // A^T is exactly the CSC of A.
    const la::CsrMatrix csc(n_, m_, std::move(entries));
    col_starts_.assign(n_ + 1, 0);
    col_rows_.reserve(csc.nonzeros());
    col_vals_.reserve(csc.nonzeros());
    for (std::size_t j = 0; j < n_; ++j) {
      const auto rows = csc.row_columns(j);
      const auto vals = csc.row_values(j);
      for (std::size_t k = 0; k < rows.size(); ++k) {
        if (vals[k] == 0.0) continue;  // duplicates may cancel exactly
        col_rows_.push_back(static_cast<std::uint32_t>(rows[k]));
        col_vals_.push_back(vals[k]);
      }
      col_starts_[j + 1] = col_rows_.size();
    }
    slack_rows_.resize(m_);
    for (std::size_t i = 0; i < m_; ++i) {
      slack_rows_[i] = static_cast<std::uint32_t>(i);
    }

    status_.assign(total_, BasisStatus::kFree);
    x_.assign(total_, 0.0);
    basis_.clear();
  }

  LpStatus run(SimplexBasis* warm, LpSolution& out) {
    if (warm == nullptr || warm->empty() || !init_warm(*warm)) init_cold();
    if (!factorize()) {
      // A stale warm basis can be singular for the current model; the slack
      // basis never is (identity columns).
      init_cold();
      if (!factorize()) return LpStatus::kIterationLimit;
    }
    compute_basic_values();

    LpStatus status = LpStatus::kIterationLimit;
    // Phase pair plus bounded repair rounds: the final refactorized
    // recompute can surface drift beyond the feasibility tolerance, in
    // which case the (cheap, warm) phases run again from the exact basis.
    for (int round = 0; round < 4; ++round) {
      status = iterate(Phase::kOne);
      if (status != LpStatus::kOptimal) return status;
      status = iterate(Phase::kTwo);
      if (status != LpStatus::kOptimal) return status;
      // Canonicalize before the terminal refactorization: with the basis
      // header sorted, the final LU (and so x, objective, duals) is a
      // function of the basis *set* alone — a warm re-solve that adopts
      // this basis reproduces the cold results bit for bit.
      std::sort(basis_.begin(), basis_.end());
      if (!factorize()) return LpStatus::kIterationLimit;
      compute_basic_values();
      if (basic_bound_violation() <= opt_.feasibility_tolerance) break;
      status = LpStatus::kIterationLimit;  // repair round exhausted?
    }
    if (status != LpStatus::kOptimal) return status;

    // --- Extract the natural-form solution from the exact basis. ---
    out.x.assign(x_.begin(), x_.begin() + static_cast<std::ptrdiff_t>(n_));
    out.objective = problem_.objective_value(out.x);
    // Duals: B^T y = c_B in min form; undo the sense flip so duals are
    // d(objective-in-declared-sense)/d(rhs), matching lp::solve.
    std::vector<double> y(m_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) y[i] = cost_[basis_[i]];
    btran(y);
    out.duals.resize(m_);
    for (std::size_t i = 0; i < m_; ++i) out.duals[i] = sense_sign_ * y[i];
    if (warm != nullptr) warm->status = status_;
    return LpStatus::kOptimal;
  }

  std::size_t iterations() const { return iters_; }

 private:
  // ------------------------------------------------------------- start basis

  void init_cold() {
    basis_.resize(m_);
    for (std::size_t j = 0; j < n_; ++j) set_nonbasic_start(j);
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t s = n_ + i;
      basis_[i] = static_cast<std::uint32_t>(s);
      status_[s] = BasisStatus::kBasic;
      x_[s] = 0.0;
    }
  }

  bool init_warm(const SimplexBasis& warm) {
    if (warm.status.size() != total_) return false;
    std::size_t basics = 0;
    for (const BasisStatus s : warm.status) {
      if (s == BasisStatus::kBasic) ++basics;
    }
    if (basics != m_) return false;
    basis_.clear();
    basis_.reserve(m_);
    for (std::size_t j = 0; j < total_; ++j) {
      if (warm.status[j] == BasisStatus::kBasic) {
        basis_.push_back(static_cast<std::uint32_t>(j));
        status_[j] = BasisStatus::kBasic;
        x_[j] = 0.0;
      } else {
        set_nonbasic_start(j, warm.status[j]);
      }
    }
    return true;
  }

  /// Parks column j at a sane nonbasic position, preferring `hint` when it
  /// is consistent with the bounds.
  void set_nonbasic_start(std::size_t j,
                          BasisStatus hint = BasisStatus::kAtLower) {
    const bool has_lo = std::isfinite(lo_[j]);
    const bool has_up = std::isfinite(up_[j]);
    BasisStatus s = hint;
    if (s == BasisStatus::kBasic) s = BasisStatus::kAtLower;
    if (s == BasisStatus::kAtLower && !has_lo) {
      s = has_up ? BasisStatus::kAtUpper : BasisStatus::kFree;
    } else if (s == BasisStatus::kAtUpper && !has_up) {
      s = has_lo ? BasisStatus::kAtLower : BasisStatus::kFree;
    } else if (s == BasisStatus::kFree && (has_lo || has_up)) {
      s = has_lo ? BasisStatus::kAtLower : BasisStatus::kAtUpper;
    }
    status_[j] = s;
    x_[j] = s == BasisStatus::kAtLower   ? lo_[j]
            : s == BasisStatus::kAtUpper ? up_[j]
                                         : 0.0;
  }

  // ----------------------------------------------------- basis linear algebra

  bool factorize() {
    std::vector<la::SparseColumnView> cols(m_);
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t j = basis_[i];
      if (j < n_) {
        const std::size_t s = col_starts_[j], e = col_starts_[j + 1];
        cols[i] = {{col_rows_.data() + s, e - s}, {col_vals_.data() + s, e - s}};
      } else {
        cols[i] = {{&slack_rows_[j - n_], 1}, {&kOne, 1}};
      }
    }
    lu_.emplace(m_, cols);
    if (lu_->singular()) return false;
    etas_.clear();
    return true;
  }

  /// v <- B^{-1} v through the LU factorization and the eta file.
  void ftran(std::vector<double>& v) const {
    lu_->solve_in_place(v);
    for (const Eta& eta : etas_) {
      const double vr = v[eta.row] / eta.diag;
      v[eta.row] = vr;
      if (vr == 0.0) continue;
      for (const auto& [i, d] : eta.rest) v[i] -= d * vr;
    }
  }

  /// v <- B^{-T} v (eta transposes in reverse, then the LU transpose).
  void btran(std::vector<double>& v) const {
    for (std::size_t k = etas_.size(); k-- > 0;) {
      const Eta& eta = etas_[k];
      double s = v[eta.row];
      for (const auto& [i, d] : eta.rest) s -= d * v[i];
      v[eta.row] = s / eta.diag;
    }
    lu_->solve_transposed_in_place(v);
  }

  /// Recomputes every basic value from scratch: x_B = B^{-1}(b - N x_N).
  void compute_basic_values() {
    std::vector<double> rhs = b_;
    for (std::size_t j = 0; j < total_; ++j) {
      if (status_[j] == BasisStatus::kBasic || x_[j] == 0.0) continue;
      if (j < n_) {
        for (std::size_t t = col_starts_[j]; t < col_starts_[j + 1]; ++t) {
          rhs[col_rows_[t]] -= col_vals_[t] * x_[j];
        }
      } else {
        rhs[j - n_] -= x_[j];
      }
    }
    ftran(rhs);
    for (std::size_t i = 0; i < m_; ++i) x_[basis_[i]] = rhs[i];
  }

  /// c_j - y^T a_j for the structural/slack column j (with cost term `cj`).
  double reduced_cost(std::size_t j, double cj,
                      const std::vector<double>& y) const {
    double dot = 0.0;
    if (j < n_) {
      for (std::size_t t = col_starts_[j]; t < col_starts_[j + 1]; ++t) {
        dot += col_vals_[t] * y[col_rows_[t]];
      }
    } else {
      dot = y[j - n_];
    }
    return cj - dot;
  }

  // ------------------------------------------------------------- measurements

  double basic_bound_violation() const {
    double worst = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t j = basis_[i];
      worst = std::max(worst, lo_[j] - x_[j]);
      worst = std::max(worst, x_[j] - up_[j]);
    }
    return std::max(worst, 0.0);
  }

  double infeasibility() const {
    double total = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t j = basis_[i];
      if (x_[j] < lo_[j]) total += lo_[j] - x_[j];
      if (x_[j] > up_[j]) total += x_[j] - up_[j];
    }
    return total;
  }

  double objective_min_form() const {
    double z = 0.0;
    for (std::size_t j = 0; j < total_; ++j) z += cost_[j] * x_[j];
    return z;
  }

  bool is_fixed(std::size_t j) const { return lo_[j] == up_[j]; }

  // -------------------------------------------------------------- iterations

  LpStatus iterate(const Phase phase) {
    const double tol = opt_.tolerance;
    const double ftol = opt_.feasibility_tolerance;
    bool bland = opt_.always_bland;
    double last = kInf;
    std::size_t stall = 0;
    const std::size_t stall_limit = opt_.stall_pivot_limit
                                        ? opt_.stall_pivot_limit
                                        : 2 * (m_ + n_) + 100;
    bool retried_after_refactor = false;
    std::vector<double> y(m_), w(m_);

    while (true) {
      double sigma = 0.0;
      if (phase == Phase::kOne) {
        sigma = infeasibility();
        if (sigma <= ftol) return LpStatus::kOptimal;  // feasible: phase done
      }
      if (iters_ >= max_iters_) return LpStatus::kIterationLimit;

      // Degeneracy watchdog: when the phase measure stops improving, fall
      // back to Bland's rule, which cannot cycle.
      const double measure =
          phase == Phase::kOne ? sigma : objective_min_form();
      if (measure < last - tol) {
        last = measure;
        stall = 0;
      } else if (++stall > stall_limit) {
        bland = true;
      }

      // --- Pricing: y = B^{-T} c_B, then reduced costs per nonbasic. ---
      for (std::size_t i = 0; i < m_; ++i) {
        y[i] = phase == Phase::kOne ? phase1_cost(basis_[i], ftol)
                                    : cost_[basis_[i]];
      }
      btran(y);

      std::size_t entering = kNone;
      double entering_d = 0.0;
      int delta = 0;
      for (std::size_t j = 0; j < total_; ++j) {
        const BasisStatus s = status_[j];
        if (s == BasisStatus::kBasic || is_fixed(j)) continue;
        const double cj = phase == Phase::kOne ? 0.0 : cost_[j];
        const double d = reduced_cost(j, cj, y);
        int dir = 0;
        if (s == BasisStatus::kAtLower && d < -tol) dir = 1;
        else if (s == BasisStatus::kAtUpper && d > tol) dir = -1;
        else if (s == BasisStatus::kFree && std::abs(d) > tol)
          dir = d < 0.0 ? 1 : -1;
        if (dir == 0) continue;
        if (bland) {  // first eligible index
          entering = j;
          entering_d = d;
          delta = dir;
          break;
        }
        if (std::abs(d) > std::abs(entering_d)) {  // Dantzig: steepest
          entering = j;
          entering_d = d;
          delta = dir;
        }
      }
      if (entering == kNone) {
        return phase == Phase::kOne ? LpStatus::kInfeasible
                                    : LpStatus::kOptimal;
      }

      // --- FTRAN the entering column: w = B^{-1} a_q. ---
      std::fill(w.begin(), w.end(), 0.0);
      if (entering < n_) {
        for (std::size_t t = col_starts_[entering];
             t < col_starts_[entering + 1]; ++t) {
          w[col_rows_[t]] = col_vals_[t];
        }
      } else {
        w[entering - n_] = 1.0;
      }
      ftran(w);

      // --- Ratio test (pass 1: the tightest breakpoint). ---
      double t_min = kInf;
      bool blocked_at_upper = false;
      for (std::size_t i = 0; i < m_; ++i) {
        const double t =
            block_step(phase, i, -delta * w[i], ftol, &blocked_at_upper);
        t_min = std::min(t_min, t);
      }
      // The entering variable's own opposite bound is a breakpoint too: a
      // bound flip that changes no basis.
      double t_flip = kInf;
      if (status_[entering] != BasisStatus::kFree &&
          std::isfinite(lo_[entering]) && std::isfinite(up_[entering])) {
        t_flip = up_[entering] - lo_[entering];
      }

      if (t_min == kInf && t_flip == kInf) {
        if (phase == Phase::kTwo) return LpStatus::kUnbounded;
        // Phase 1 cannot be unbounded (the infeasibility sum is bounded
        // below by zero); a missing breakpoint means the eta file has
        // drifted. Refactorize once and retry, else give up.
        if (retried_after_refactor) return LpStatus::kIterationLimit;
        retried_after_refactor = true;
        if (!factorize()) return LpStatus::kIterationLimit;
        compute_basic_values();
        continue;
      }

      if (t_flip <= t_min) {
        // --- Bound flip: walk q across to its opposite bound. ---
        apply_rates(w, delta, t_flip);
        const bool to_upper = delta > 0;
        status_[entering] =
            to_upper ? BasisStatus::kAtUpper : BasisStatus::kAtLower;
        x_[entering] = to_upper ? up_[entering] : lo_[entering];
        ++iters_;
        continue;
      }

      // --- Pass 2: pick the leaving row among the near-tied blockers. ---
      const double slack = 1e-10 * (1.0 + std::abs(t_min));
      std::size_t leaving = kNone;
      bool leave_at_upper = false;
      double best_rate = 0.0;
      for (std::size_t i = 0; i < m_; ++i) {
        const double rho = -delta * w[i];
        bool at_upper = false;
        const double t = block_step(phase, i, rho, ftol, &at_upper);
        if (t > t_min + slack) continue;
        if (leaving == kNone ||
            (bland ? basis_[i] < basis_[leaving]
                   : std::abs(rho) > std::abs(best_rate))) {
          leaving = i;
          best_rate = rho;
          leave_at_upper = at_upper;
        }
      }
      if (leaving == kNone) {  // roundoff squeezed every blocker out
        if (retried_after_refactor) return LpStatus::kIterationLimit;
        retried_after_refactor = true;
        if (!factorize()) return LpStatus::kIterationLimit;
        compute_basic_values();
        continue;
      }

      // --- Pivot: step, swap basis, append the eta column. ---
      apply_rates(w, delta, t_min);
      x_[entering] += delta * t_min;
      const std::size_t out_col = basis_[leaving];
      // The leaving variable parks exactly on the (always finite) bound
      // that blocked the ratio test.
      status_[out_col] =
          leave_at_upper ? BasisStatus::kAtUpper : BasisStatus::kAtLower;
      x_[out_col] = leave_at_upper ? up_[out_col] : lo_[out_col];
      basis_[leaving] = static_cast<std::uint32_t>(entering);
      status_[entering] = BasisStatus::kBasic;

      Eta eta;
      eta.row = static_cast<std::uint32_t>(leaving);
      eta.diag = w[leaving];
      for (std::size_t i = 0; i < m_; ++i) {
        if (i != leaving && w[i] != 0.0) {
          eta.rest.emplace_back(static_cast<std::uint32_t>(i), w[i]);
        }
      }
      etas_.push_back(std::move(eta));
      ++iters_;

      if (etas_.size() >= kRefactorInterval) {
        if (!factorize()) return LpStatus::kIterationLimit;
        compute_basic_values();
      }
      retried_after_refactor = false;
    }
  }

  /// Phase-1 cost of the basic column j: -1 below its lower bound, +1 above
  /// its upper, 0 inside (minimizing the total infeasibility).
  double phase1_cost(std::size_t j, double ftol) const {
    if (x_[j] < lo_[j] - ftol) return -1.0;
    if (x_[j] > up_[j] + ftol) return 1.0;
    return 0.0;
  }

  /// Step length at which basis row i blocks movement at rate rho
  /// (dx_basic/dt); kInf when it never does. Phase 1 lets an infeasible
  /// basic run to its *violated* bound (where it turns feasible and the
  /// phase-1 objective kinks) and ignores motion further into
  /// infeasibility (the objective stays linear there). On a finite return,
  /// *at_upper says which (finite) bound did the blocking.
  double block_step(Phase phase, std::size_t i, double rho, double ftol,
                    bool* at_upper) const {
    if (std::abs(rho) <= opt_.tolerance) return kInf;
    const std::size_t j = basis_[i];
    const double xv = x_[j];
    double limit;
    if (rho > 0.0) {
      if (phase == Phase::kOne && xv < lo_[j] - ftol) {
        limit = lo_[j];
        *at_upper = false;
      } else if (phase == Phase::kOne && xv > up_[j] + ftol) {
        return kInf;
      } else {
        limit = up_[j];
        if (!std::isfinite(limit)) return kInf;
        *at_upper = true;
      }
    } else {
      if (phase == Phase::kOne && xv > up_[j] + ftol) {
        limit = up_[j];
        *at_upper = true;
      } else if (phase == Phase::kOne && xv < lo_[j] - ftol) {
        return kInf;
      } else {
        limit = lo_[j];
        if (!std::isfinite(limit)) return kInf;
        *at_upper = false;
      }
    }
    return std::max((limit - xv) / rho, 0.0);
  }

  /// x_B += -delta * t * w (every basic moves at its ratio-test rate).
  void apply_rates(const std::vector<double>& w, int delta, double t) {
    if (t == 0.0) return;
    for (std::size_t i = 0; i < m_; ++i) {
      if (w[i] != 0.0) x_[basis_[i]] -= delta * t * w[i];
    }
  }

  // ------------------------------------------------------------------- state

  const LpProblem& problem_;
  RevisedSimplexOptions opt_;
  std::size_t m_ = 0, n_ = 0, total_ = 0;
  std::size_t max_iters_ = 0;
  double sense_sign_ = 1.0;

  std::vector<double> lo_, up_, cost_, b_;
  std::vector<std::size_t> col_starts_;
  std::vector<std::uint32_t> col_rows_;
  std::vector<double> col_vals_;
  std::vector<std::uint32_t> slack_rows_;
  static constexpr double kOne = 1.0;

  std::vector<BasisStatus> status_;
  std::vector<double> x_;
  std::vector<std::uint32_t> basis_;
  std::optional<la::SparseLu> lu_;
  std::vector<Eta> etas_;
  std::size_t iters_ = 0;
};

}  // namespace

LpSolution solve_revised(const LpProblem& problem,
                         const RevisedSimplexOptions& options,
                         SimplexBasis* warm_basis) {
  RevisedSolver solver(problem, options);
  LpSolution solution;
  solution.status = solver.run(warm_basis, solution);
  solution.iterations = solver.iterations();
  if (solution.status != LpStatus::kOptimal) {
    solution.x.clear();
    solution.duals.clear();
    solution.objective = 0.0;
  }
  return solution;
}

}  // namespace maxutil::lp
