#pragma once

// The three sections of a run. Each measures its end-to-end metrics, checks
// the program's outputs against an independent computation, counts its
// operations, and — on traced runs — times each layer call under a span.
//
// A section's measured work is cut into slices. main() runs the slices of
// all sections interleaved over the whole run, so every metric samples the
// whole run and a slow stretch of a shared host weighs on every metric
// alike instead of on one section.

#include <cstddef>
#include <memory>

#include "harness.hpp"

namespace perfbench {

class Section {
 public:
  virtual ~Section() = default;

  /// Number of measured slices.
  virtual std::size_t slices() const = 0;

  /// Runs measured slice `i` (called once per i, in increasing order).
  virtual void slice(std::size_t i) = 0;

  /// Checks, end-to-end metrics, and on traced runs the layer pass.
  virtual void finish() = 0;
};

/// `maxutil_cli serve` on the paper instance, driven over Unix sockets.
std::unique_ptr<Section> make_serve(const Options& options,
                                    const SectionPlan& plan, Spans& spans,
                                    Report& report);

/// ctrl::Controller::apply on the small gradient instances and the large
/// lp-sparse instance.
std::unique_ptr<Section> make_churn(const Options& options,
                                    const SectionPlan& plan, Spans& spans,
                                    Report& report);

/// Cold solves: gradient, distributed at 1 and N threads, lp-sparse.
std::unique_ptr<Section> make_solve(const Options& options,
                                    const SectionPlan& plan, Spans& spans,
                                    Report& report);

}  // namespace perfbench
