#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "solver/solver.hpp"

namespace maxutil::solver {

using SolverFn = std::function<SolveResult(const Problem&, const SolveOptions&)>;

/// One registered backend: its name (the CLI's --algo vocabulary), a
/// one-line description, capability flags the dispatch layers key off
/// (instead of per-name if/else), and the solve entry point.
struct SolverInfo {
  std::string name;
  std::string description;

  /// Iteration budget used when SolveOptions::max_iterations == 0.
  std::size_t default_iterations = 0;

  /// Honors SolveOptions::warm_start (pipelines only chain routings into
  /// backends with this set).
  bool supports_warm_start = false;

  /// Honors SolveOptions::threads (parallel execution engine).
  bool supports_threads = false;

  /// Honors SolveOptions::observe (fills SolveResult::obs).
  bool supports_observation = false;

  /// Fills SolveResult::routing (can seed a downstream pipeline stage).
  bool emits_routing = false;

  /// Honors SolveOptions::warm_basis and fills SolveResult::basis (the
  /// simplex backends).
  bool supports_warm_basis = false;

  /// Name of the backend whose solve this entry shares, or empty for a
  /// distinct backend. `--compare` runs each distinct solve once.
  std::string alias_of;

  SolverFn solve;
};

/// Name-indexed registry of solver backends. The five built-in adapters
/// self-register on first access (lazy, deterministic order — static
/// libraries would silently drop static-initializer registrars, see
/// docs/SOLVERS.md); future backends call `add` from their own code.
class SolverRegistry {
 public:
  /// The process-wide registry, with the built-in backends registered.
  static SolverRegistry& instance();

  /// Registers a backend; throws util::CheckError on a duplicate or empty
  /// name, or a missing solve function.
  void add(SolverInfo info);

  /// Lookup by name; nullptr when unknown.
  const SolverInfo* find(std::string_view name) const;

  /// All backends, in registration order.
  const std::vector<SolverInfo>& solvers() const { return solvers_; }

  /// Registered names, in registration order.
  std::vector<std::string> names() const;

  /// "a, b, c" — for help/error messages that must list the live registry.
  std::string names_joined() const;

  /// Dispatches to the named backend and stamps SolveResult::wall_seconds.
  /// Throws util::CheckError (message includes the live name list) on an
  /// unknown name.
  SolveResult solve(const std::string& name, const Problem& problem,
                    const SolveOptions& options = {}) const;

 private:
  std::vector<SolverInfo> solvers_;
};

}  // namespace maxutil::solver
