#include "harness.hpp"

#include <sys/statfs.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0,
                                          static_cast<double>(values.size()))) -
      1;
  return values[index];
}

// ---- Spans ----

namespace {

constexpr std::size_t kLayerTrack = 0;
constexpr std::size_t kOutsideTrack = 1;

std::string category_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot);
}

}  // namespace

Spans::Spans(bool on) : on_(on) {
  tracer_.set_track_name(kLayerTrack, "perfbench");
  tracer_.set_track_name(kOutsideTrack, "measured outside");
}

Spans::Scope::Scope(Spans& spans, const char* name, std::uint64_t id)
    : spans_(&spans), token_(maxutil::obs::Tracer::kDroppedSpan), id_(id) {
  if (!spans.on_) return;
  token_ = spans.tracer_.begin_span(name, category_of(name), kLayerTrack);
}

Spans::Scope::~Scope() {
  if (token_ == maxutil::obs::Tracer::kDroppedSpan) return;
  spans_->tracer_.end_span(token_, {{"id", static_cast<double>(id_)}});
}

void Spans::add(const char* name, std::uint64_t id, Clock::time_point start,
                Clock::time_point end) {
  if (!on_) return;
  const Clock::time_point now = Clock::now();
  const double now_us = tracer_.now_us();
  const auto before_now = [&](Clock::time_point t) {
    return now_us - std::chrono::duration<double, std::micro>(now - t).count();
  };
  tracer_.complete(name, category_of(name), kOutsideTrack, before_now(start),
                   before_now(end) - before_now(start),
                   {{"id", static_cast<double>(id)}});
}

std::uint64_t Spans::id_of(const maxutil::obs::TraceEvent& event) {
  return event.args.empty() ? 0 : static_cast<std::uint64_t>(event.args[0].value);
}

std::vector<double> Spans::self_times() const {
  // Layer spans are recorded in the order they open, so one stack sweep
  // finds each span's parent: the innermost open span it starts within.
  const std::vector<maxutil::obs::TraceEvent>& events = tracer_.events();
  std::vector<double> self(events.size());
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < events.size(); ++i) {
    self[i] = events[i].dur_us;
    if (events[i].track != kLayerTrack) continue;
    while (!open.empty() && events[open.back()].ts_us +
                                    events[open.back()].dur_us <=
                                events[i].ts_us) {
      open.pop_back();
    }
    if (!open.empty()) self[open.back()] -= events[i].dur_us;
    open.push_back(i);
  }
  return self;
}

std::vector<double> Spans::self_us(const std::string& name,
                                   std::uint64_t first_id,
                                   std::uint64_t end_id) const {
  const std::vector<maxutil::obs::TraceEvent>& events = tracer_.events();
  const std::vector<double> self = self_times();
  std::vector<double> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::uint64_t id = id_of(events[i]);
    if (events[i].name == name && id >= first_id && id < end_id) {
      out.push_back(self[i]);
    }
  }
  return out;
}

std::map<std::uint64_t, double> Spans::self_by_id(
    const std::vector<std::string>& names) const {
  const std::vector<maxutil::obs::TraceEvent>& events = tracer_.events();
  const std::vector<double> self = self_times();
  std::map<std::uint64_t, double> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (std::find(names.begin(), names.end(), events[i].name) != names.end()) {
      out[id_of(events[i])] += self[i];
    }
  }
  return out;
}

std::map<std::string, double> Spans::self_totals() const {
  const std::vector<maxutil::obs::TraceEvent>& events = tracer_.events();
  const std::vector<double> self = self_times();
  std::map<std::string, double> totals;
  for (std::size_t i = 0; i < events.size(); ++i) {
    totals[events[i].name] += self[i];
  }
  return totals;
}

void Spans::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  tracer_.write_chrome_json(out);
}

// ---- Report ----

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  check(std::isfinite(value), "metric " + name + " is finite");
  if (std::isfinite(value)) metrics_[name] = {value, unit};
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  check(std::isfinite(value), "layer metric " + name + " is finite");
  if (std::isfinite(value)) layers_[name] = {value, unit};
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed_checks_;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Report::skip(const std::string& what) {
  skips_.push_back(what);
  std::printf("SKIP %s\n", what.c_str());
}

void Report::count(std::size_t attempted, std::size_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::info(const std::string& line) {
  std::printf("# %s\n", line.c_str());
}

std::string Report::json(bool layers) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  const auto& chosen = layers ? layers_ : metrics_;
  bool first = true;
  char number[64];
  for (const auto& [name, m] : chosen) {
    std::snprintf(number, sizeof(number), "%.17g", m.value);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << number
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

// ---- Host ----

std::size_t host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

std::string filesystem_name(const std::string& dir) {
  struct statfs info {};
  if (statfs(dir.c_str(), &info) != 0) return "unknown";
  const auto magic = static_cast<unsigned long>(info.f_type);
  switch (magic) {
    case 0xEF53UL: return "ext4";
    case 0x794C7630UL: return "overlay";
    case 0x01021994UL: return "tmpfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    case 0x2FC12FC1UL: return "zfs";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%lx", magic);
  return hex;
}

}  // namespace

std::string fingerprint(const std::string& wal_dir) {
  std::ostringstream out;
  out << "host cores=" << host_cores() << " compiler=\"" << PERFBENCH_COMPILER
      << "\" build=" << PERFBENCH_BUILD_TYPE
      << " wal_fs=" << filesystem_name(wal_dir);
  return out.str();
}

}  // namespace perfbench
