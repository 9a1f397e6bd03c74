#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace maxutil::lp {

/// Index of a decision variable within an LpProblem.
using VarId = std::size_t;

/// Relation of a linear constraint row to its right-hand side.
enum class Relation { kLessEq, kEq, kGreaterEq };

/// Optimization direction.
enum class Sense { kMinimize, kMaximize };

/// Shorthand for an unbounded-above variable limit.
inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// A linear program in natural (modeler-facing) form:
///
///   optimize   sum_j objective_j * x_j        (Sense)
///   subject to sum_j a_ij x_j  (rel_i)  b_i   for each constraint i
///              lower_j <= x_j <= upper_j      for each variable j
///
/// The simplex solver (revised_simplex.hpp) handles bounds and row
/// relations natively; callers never deal with slacks or artificials.
/// Variables default to [0, +inf) with zero objective coefficient.
class LpProblem {
 public:
  /// Adds a variable and returns its id. `name` is used in diagnostics only.
  VarId add_variable(std::string name, double lower = 0.0,
                     double upper = kInfinity, double objective = 0.0);

  /// Adds the constraint `sum terms (rel) rhs`. Terms hold (variable, coeff)
  /// pairs; duplicate variables are summed. Throws on unknown variables.
  void add_constraint(std::vector<std::pair<VarId, double>> terms, Relation rel,
                      double rhs);

  /// Sets the optimization direction (default: minimize).
  void set_sense(Sense sense) { sense_ = sense; }

  Sense sense() const { return sense_; }
  std::size_t variable_count() const { return names_.size(); }
  std::size_t constraint_count() const { return rows_.size(); }

  const std::string& variable_name(VarId v) const;
  double lower(VarId v) const;
  double upper(VarId v) const;
  double objective_coefficient(VarId v) const;

  /// Overwrites the objective coefficient of `v`.
  void set_objective_coefficient(VarId v, double coeff);

  struct Row {
    std::vector<std::pair<VarId, double>> terms;
    Relation rel;
    double rhs;
  };
  const Row& row(std::size_t i) const;

  /// Evaluates the objective at `x` (natural form).
  double objective_value(const std::vector<double>& x) const;

  /// Largest constraint/bound violation of `x`; 0 means feasible.
  double max_violation(const std::vector<double>& x) const;

 private:
  Sense sense_ = Sense::kMinimize;
  std::vector<std::string> names_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<double> objective_;
  std::vector<Row> rows_;
};

/// Outcome of a simplex solve.
enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

/// Human-readable status name.
const char* to_string(LpStatus status);

/// Solver result. `x` is in the natural variable space of the LpProblem
/// (same indexing as LpProblem VarIds); `objective` is in the problem's
/// declared sense (i.e. the maximized value for kMaximize problems).
struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;
  std::size_t iterations = 0;
  /// Dual value (shadow price) per constraint row, in declaration order:
  /// the derivative of the optimal objective — in the problem's declared
  /// sense — with respect to that row's right-hand side. For a capacity row
  /// `usage <= C` of a maximization, duals[i] is the marginal utility of one
  /// more unit of capacity (0 when the row is slack). Non-unique at
  /// degenerate optima, as usual.
  std::vector<double> duals;
};

}  // namespace maxutil::lp
