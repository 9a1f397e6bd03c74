#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/timeseries.hpp"

namespace maxutil::util {

/// Directory for bench result artifacts, taken from the MAXUTIL_RESULTS_DIR
/// environment variable; std::nullopt when unset or empty. Benches that
/// regenerate figures write their raw series there so the plots can be
/// reproduced outside the console tables.
std::optional<std::string> results_dir();

/// Writes `series` as "<results_dir>/<name>.csv" when MAXUTIL_RESULTS_DIR is
/// set; returns the written path, or std::nullopt when exporting is off.
/// Throws util::CheckError when the directory is set but unwritable.
std::optional<std::string> save_series(const TimeSeries& series,
                                       const std::string& name);

/// One named measurement row of a bench run: a label plus numeric metrics
/// (e.g. {"servers=400/threads=4", {{"seconds", 1.23}, {"speedup", 2.4}}})
/// and optional boolean flags emitted as JSON booleans (e.g.
/// {"oversubscribed", true} on records where threads exceed host cores).
struct BenchRecord {
  std::string name;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, bool>> flags = {};
};

/// One "meta" entry of a bench artifact. `raw` emits the value verbatim as
/// a JSON literal (number/boolean) instead of a quoted string — e.g.
/// {"hardware_concurrency", "4", true} records an integer a consumer can
/// compare against the per-record thread counts without parsing strings.
struct BenchMeta {
  std::string key;
  std::string value;
  bool raw = false;
};

/// Writes the machine-readable perf artifact "BENCH_<bench>.json" — the
/// repository's perf trajectory files — and returns the written path.
/// Unlike save_series this always writes: into MAXUTIL_RESULTS_DIR when set,
/// else the current working directory (benches are run from the repo root to
/// refresh the tracked BENCH_*.json files). `meta` holds free-form context
/// (host cores, instance shape, ...). Throws util::CheckError on write
/// failure.
std::string write_bench_json(const std::string& bench,
                             const std::vector<BenchRecord>& records,
                             const std::vector<BenchMeta>& meta = {});

}  // namespace maxutil::util
