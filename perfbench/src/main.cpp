// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload churn|solve --seed N --seconds S --trace 0|1
//             --cli PATH/maxutil_cli [--workdir DIR]
//   perfbench --smoke --cli PATH/maxutil_cli [--workdir DIR]
//
// Every run executes the churn and solve sections, and traced runs also the
// serve section, their slices interleaved over the run; the named
// workload's section is the primary one and is sized by --seconds, the
// others run a fixed companion share (see README.md for why). The last
// stdout line is the result: {"correct", "attempted", "failed", "metrics"}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit code 0 = every check passed and nothing was skipped.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "harness.hpp"
#include "sections.hpp"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload churn|solve --seed N "
               "--seconds S --trace 0|1 --cli PATH [--workdir DIR]\n"
               "       perfbench --smoke --cli PATH [--workdir DIR]\n");
  return 2;
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--cli") {
      options.cli = value;
    } else if (key == "--workdir") {
      options.workdir = value;
    } else {
      return false;
    }
  }
  if (options.smoke) {
    options.workload = "smoke";
    options.trace = true;
    options.seconds = 2.0;
  }
  const bool known = options.workload == "churn" ||
                     options.workload == "solve" || options.smoke;
  return known && !options.cli.empty() && options.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    if (!parse(argc, argv, options)) return usage();
  } catch (const std::exception&) {
    return usage();
  }
  options.cli = fs::absolute(options.cli).string();
  if (!fs::exists(options.cli)) {
    std::fprintf(stderr, "perfbench: no maxutil_cli at %s\n",
                 options.cli.c_str());
    return 2;
  }
  const fs::path root = options.workdir.empty()
                            ? fs::absolute(".bench_run")
                            : fs::absolute(options.workdir);
  const fs::path workdir =
      root / (options.workload + "-s" + std::to_string(options.seed) + "-" +
              std::to_string(::getpid()));
  fs::create_directories(workdir);
  // Socket paths are relative to the work directory: sun_path holds only
  // 108 bytes, and the checkout may sit deep in the file system.
  fs::current_path(workdir);

  Report report;
  Spans spans(options.trace);
  report.info(fingerprint("."));
  int status = 0;
  try {
    // The serve section's figures are all ungated layer metrics, so it runs
    // on traced runs only (and in smoke mode, which is traced).
    std::vector<const char*> names = {"churn", "solve"};
    if (options.trace) names.insert(names.begin(), "serve");
    std::vector<std::unique_ptr<Section>> sections;
    std::vector<double> seconds(names.size(), 0.0);
    for (std::size_t k = 0; k < names.size(); ++k) {
      SectionPlan plan;
      plan.primary = options.smoke || options.workload == names[k];
      plan.smoke = options.smoke;
      plan.seconds = options.seconds;
      const std::string name = names[k];
      const Clock::time_point start = Clock::now();
      sections.push_back(name == "serve"   ? make_serve(options, plan, spans, report)
                         : name == "churn" ? make_churn(options, plan, spans, report)
                                           : make_solve(options, plan, spans, report));
      seconds[k] += seconds_since(start);
    }
    // Slice i of a section with n slices runs at (i + 0.5) / n of the run.
    std::vector<std::tuple<double, std::size_t, std::size_t>> order;
    for (std::size_t k = 0; k < sections.size(); ++k) {
      const std::size_t n = sections[k]->slices();
      for (std::size_t i = 0; i < n; ++i) {
        order.emplace_back((static_cast<double>(i) + 0.5) /
                               static_cast<double>(n),
                           k, i);
      }
    }
    std::sort(order.begin(), order.end());
    for (const auto& [at, k, i] : order) {
      const Clock::time_point start = Clock::now();
      sections[k]->slice(i);
      seconds[k] += seconds_since(start);
    }
    for (std::size_t k = 0; k < sections.size(); ++k) {
      const Clock::time_point start = Clock::now();
      sections[k]->finish();
      seconds[k] += seconds_since(start);
      char line[128];
      std::snprintf(line, sizeof(line), "section %s: %zu slices, %.2f s",
                    names[k], sections[k]->slices(), seconds[k]);
      report.info(line);
    }
  } catch (const std::exception& e) {
    report.check(false, std::string("run aborted: ") + e.what());
    status = 1;
  }
  report.metric("setup_s", median(report.setup()), "s");

  if (options.trace) {
    const fs::path trace_file =
        root / ("trace-" + options.workload + "-s" +
                std::to_string(options.seed) + ".json");
    spans.write_chrome(trace_file.string());
    for (const auto& [name, total] : spans.self_totals()) {
      char line[128];
      std::snprintf(line, sizeof(line), "self time %-22s %12.3f ms",
                    name.c_str(), total / 1000.0);
      report.info(line);
    }
    report.info("trace " + trace_file.string() + " (" +
                std::to_string(spans.size()) + " spans)");
  }
  fs::current_path(root);
  std::error_code ignored;
  fs::remove_all(workdir, ignored);

  if (options.smoke) {
    std::printf("%s\n", report.json(true).c_str());
  }
  std::printf("%s\n", report.json(options.trace && !options.smoke).c_str());
  std::fflush(stdout);
  if (status != 0 || !report.correct()) return 1;
  return report.skipped() ? 3 : 0;
}
