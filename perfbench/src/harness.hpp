#pragma once

// Shared plumbing of the perfbench program: run options, statistics, the
// span recorder used by traced runs, and the report that becomes the final
// JSON line.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
double seconds_since(Clock::time_point start);

/// Median (mean of the two middle values for even sizes); 0 for empty input.
double median(std::vector<double> values);

/// Nearest-rank percentile, p in (0, 100]; 0 for empty input.
double percentile(std::vector<double> values, double p);

/// How much of a run a section gets. The workload named on the command line
/// runs its own section as the primary one, sized by --seconds; the other
/// sections run a fixed companion share, so that every run reports every
/// metric.
struct SectionPlan {
  bool primary = false;
  bool smoke = false;
  double seconds = 10.0;  // --seconds, used by the primary section
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string cli;      // maxutil_cli binary
  std::string workdir;  // scratch directory for sockets, WALs and traces
};

/// Records one span per layer call in an obs::Tracer, in memory. Spans
/// opened while another is open are its children, so a layer's self time is
/// its duration minus the time its children cover. A disabled recorder costs
/// one branch per scope. Spans of one request or event share an id, kept as
/// the span's "id" argument.
class Spans {
 public:
  explicit Spans(bool on);

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  class Scope {
   public:
    Scope(Spans& spans, const char* name, std::uint64_t id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    std::size_t token_;
    std::uint64_t id_;
  };

  Scope scope(const char* name, std::uint64_t id) { return {*this, name, id}; }

  /// A span measured elsewhere (e.g. a client request timed by the load
  /// generator), on a track of its own, so it never nests with the others.
  void add(const char* name, std::uint64_t id, Clock::time_point start,
           Clock::time_point end);

  /// Self time in microseconds of every recorded span named `name`,
  /// optionally only those whose id lies in [first_id, end_id).
  std::vector<double> self_us(const std::string& name,
                              std::uint64_t first_id = 0,
                              std::uint64_t end_id = UINT64_MAX) const;

  /// Self time per span id, summed over spans named any of `names`.
  std::map<std::uint64_t, double> self_by_id(
      const std::vector<std::string>& names) const;

  /// Total self time per span name, in microseconds.
  std::map<std::string, double> self_totals() const;

  std::size_t size() const { return tracer_.events().size(); }

  /// Writes every span as Chrome trace-event JSON.
  void write_chrome(const std::string& path) const;

 private:
  /// Self time of every recorded event, in the tracer's order.
  std::vector<double> self_times() const;
  static std::uint64_t id_of(const maxutil::obs::TraceEvent& event);

  bool on_;
  maxutil::obs::Tracer tracer_;
};

/// Everything one run reports. End-to-end metrics are printed by untraced
/// runs and layer metrics by traced runs; checks, counts and SKIPs by both.
class Report {
 public:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };

  void metric(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);

  /// Records a correctness check; a failed one makes the run incorrect and
  /// is printed to stderr with `what`.
  void check(bool ok, const std::string& what);

  /// A measurement this host cannot make: printed as SKIP, and the run does
  /// not count as a pass.
  void skip(const std::string& what);

  /// Operations a section attempted and how many of them failed.
  void count(std::size_t attempted, std::size_t failed);

  /// Set-up times of the primary section (reported as the median).
  void setup_sample(double seconds) { setup_.push_back(seconds); }

  /// One informational line on stdout (before the result line).
  void info(const std::string& line);

  bool correct() const { return failed_checks_ == 0; }
  bool skipped() const { return !skips_.empty(); }
  const std::vector<double>& setup() const { return setup_; }

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string json(bool layers) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, Metric> layers_;
  std::vector<std::string> skips_;
  std::vector<double> setup_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t failed_checks_ = 0;
};

/// Runs a section's layer pass (a callable taking no arguments) on traced
/// runs only. The primary section runs it four times, spans off, on, off,
/// on, and reports the on/off ratio of the summed wall times as
/// trace.overhead (alternating keeps the cold first pass from biasing it).
template <typename Pass>
void layer_pass(const SectionPlan& plan, Spans& spans, Report& report,
                Pass&& pass) {
  if (!spans.on()) return;
  if (!plan.primary) {
    pass();
    return;
  }
  double seconds[2] = {0.0, 0.0};  // spans off, spans on
  for (const bool on : {false, true, false, true}) {
    spans.set_on(on);
    const Clock::time_point start = Clock::now();
    pass();
    seconds[on ? 1 : 0] += seconds_since(start);
  }
  report.layer("trace.overhead", seconds[1] / seconds[0], "x");
}

/// Host fingerprint line: cores, compiler, build type and the filesystem
/// type of `wal_dir`.
std::string fingerprint(const std::string& wal_dir);

/// Logical CPUs available to this process.
std::size_t host_cores();

}  // namespace perfbench
