// Serve section: the real `maxutil_cli serve` process on the Section-6
// paper instance (seed 2007), durable (--wal), multi-client (--stamp), one
// request per batch (--window 0) with the 1 ms flush timer (--flush-ms 1).
//
// A single-threaded load generator in this process drives it over one Unix
// socket per core: first an open loop (seeded Poisson arrivals at kRate,
// each request timed from its due time), then a closed loop (every
// connection sends its next request when the previous one is answered).
// Each connection owns the entities it writes (one idle server's capacity,
// and on the first connections one commodity's depart/admit), and every
// round of its script returns them to the start, so the mix stays valid in
// any interleaving and utility does not drift.
//
// Checks: one decision per request on the connection that sent it; the
// socket decision log equals a fresh in-process Acceptor + Daemon replay of
// the stamped stream (read back from the daemon's WAL); admit outcomes agree
// with their share and the thresholds; the final plan is capacity-feasible
// and its utility is at most the lp-sparse optimum of the final network.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/allocation.hpp"
#include "core/flow.hpp"
#include "gen/random_instance.hpp"
#include "scenario/scenario.hpp"
#include "sections.hpp"
#include "serve/acceptor.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/wal.hpp"
#include "util/rng.hpp"
#include "xform/lp_reference.hpp"

namespace perfbench {
namespace {

using namespace maxutil;
namespace fs = std::filesystem;

/// Open-loop arrival rate (requests per second, all connections together).
/// Fixed, and well below the closed-loop saturation rate of the reference
/// host, so queues stay short and the open loop measures latency.
constexpr double kRate = 100.0;
/// Requests per connection per round (see script()).
constexpr std::size_t kRoundLength = 6;
/// No response for this long means the daemon stalled.
constexpr double kStallSeconds = 30.0;

const char* const kNetwork = "paper.net";

/// The serve options `maxutil_cli serve` builds from the flags used below
/// (and its defaults for every other flag).
serve::ServeOptions cli_options() {
  serve::ServeOptions options;
  options.controller.pipeline = "gradient";
  options.controller.penalty.epsilon = 0.1;
  options.controller.solve.threads = 1;
  options.controller.watchdog_iterations = 4000;
  options.window = 0;
  options.admit_share = 0.95;
  options.deny_share = 0.05;
  return options;
}

// ---- Child process ----

/// A spawned process; killed and reaped on destruction if still running.
class Child {
 public:
  Child(const std::vector<std::string>& argv, const std::string& err_file) {
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int null_fd = ::open("/dev/null", O_RDWR);
      const int err_fd = ::open(err_file.c_str(),
                                O_WRONLY | O_CREAT | O_TRUNC, 0644);
      ::dup2(null_fd, 0);
      ::dup2(null_fd, 1);
      ::dup2(err_fd >= 0 ? err_fd : null_fd, 2);
      std::vector<char*> args;
      for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
      args.push_back(nullptr);
      ::execv(args[0], args.data());
      ::_exit(127);
    }
  }
  ~Child() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// True once the process has exited (reaped; status in `status`).
  bool exited(int* status) {
    if (pid_ <= 0) return true;
    int st = 0;
    if (::waitpid(pid_, &st, WNOHANG) == pid_) {
      pid_ = -1;
      if (status != nullptr) *status = st;
      return true;
    }
    return false;
  }

  /// Waits up to `timeout` seconds; kills the process on timeout. Returns
  /// the exit code, or -1 when it had to be killed or died of a signal.
  int wait(double timeout) {
    const Clock::time_point start = Clock::now();
    int status = 0;
    while (!exited(&status)) {
      if (seconds_since(start) > timeout) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        pid_ = -1;
        return -1;
      }
      ::usleep(1000);
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
};

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// A serve daemon plus its first connection; setup_seconds runs from the
/// fork until the socket accepted that connection.
struct Launch {
  std::unique_ptr<Child> child;
  int fd = -1;
  double setup_seconds = 0.0;
};

Launch launch(const Options& options, const std::string& tag) {
  Launch out;
  const std::vector<std::string> argv = {
      options.cli, "serve", kNetwork, "--listen", tag + ".sock", "--wal",
      tag + ".wal", "--stamp", "--window", "0", "--flush-ms", "1",
      "--decisions", tag + ".log"};
  const Clock::time_point start = Clock::now();
  out.child = std::make_unique<Child>(argv, tag + ".err");
  while ((out.fd = connect_unix(tag + ".sock")) < 0) {
    if (out.child->exited(nullptr)) {
      throw std::runtime_error("serve daemon " + tag + " exited at start-up");
    }
    if (seconds_since(start) > kStallSeconds) {
      throw std::runtime_error("serve daemon " + tag + " never accepted");
    }
    ::usleep(100);
  }
  out.setup_seconds = seconds_since(start);
  return out;
}

// ---- Request mix ----

struct Request {
  std::size_t conn = 0;
  std::string text;  // protocol line without "@T"
  bool write = false;
  bool open_loop = false;
  double due_us = 0.0;  // open loop: scheduled send time
  double sent_us = -1.0;
  double recv_us = -1.0;
  std::string response;
};

/// One connection's script: `rounds` repeats of bench_serve's six-request
/// cycle (bench/bench_serve.cpp, make_stream) — query, depart, admit, query,
/// capacity dip, capacity repair — so, as there, a third of the requests are
/// reads. Two changes keep the mix valid in any interleaving of the
/// connections and let every cycle return the topology exactly to its
/// start: the commodity is re-admitted at its full rate (bench_serve uses
/// half), and capacities dip by *0.5 and return by *2 (bench_serve's 0.8 and
/// 1.25 cancel exactly only when no other dip falls between them). A
/// connection that owns no commodity dips and repairs a second server in
/// place of the depart/admit pair. The seed picks the query targets.
std::vector<std::string> script(util::Rng& rng, std::size_t rounds,
                                const std::string& server,
                                const std::string& spare,
                                const std::string& owned,
                                const std::vector<std::string>& commodities) {
  const auto query = [&] {
    return "query=" + commodities[rng.index(commodities.size())];
  };
  std::vector<std::string> out;
  for (std::size_t r = 0; r < rounds; ++r) {
    out.push_back(query());
    out.push_back(owned.empty() ? "cap=" + spare + "*0.5" : "depart=" + owned);
    out.push_back(owned.empty() ? "cap=" + spare + "*2" : "admit=" + owned);
    out.push_back(query());
    out.push_back("cap=" + server + "*0.5");
    out.push_back("cap=" + server + "*2");
  }
  return out;
}

/// Fields of a decision line "t=S batch=B REQ -> OUTCOME k=v ...".
struct Decision {
  long stamp = -1;
  std::string request;  // without "@T"
  std::string outcome;
  double requested = -1.0;
  double admitted = -1.0;
  double share = -1.0;
  std::string reason;
};

Decision parse_decision(const std::string& line) {
  Decision d;
  if (line.rfind("t=", 0) != 0) return d;
  d.stamp = std::strtol(line.c_str() + 2, nullptr, 10);
  const std::size_t batch = line.find(" batch=");
  const std::size_t req = line.find(' ', batch + 1);
  const std::size_t arrow = line.find(" -> ");
  if (batch == std::string::npos || req == std::string::npos ||
      arrow == std::string::npos) {
    d.stamp = -1;
    return d;
  }
  d.request = line.substr(req + 1, arrow - req - 1);
  d.request = d.request.substr(0, d.request.rfind('@'));
  const std::size_t out_end = line.find(' ', arrow + 4);
  d.outcome = line.substr(arrow + 4, out_end == std::string::npos
                                         ? std::string::npos
                                         : out_end - arrow - 4);
  const auto field = [&](const char* key) {
    const std::size_t at = line.find(std::string(" ") + key + "=");
    return at == std::string::npos
               ? -1.0
               : std::strtod(line.c_str() + at + std::strlen(key) + 2, nullptr);
  };
  d.requested = field("requested");
  d.admitted = field("admitted");
  d.share = field("share");
  const std::size_t reason = line.find(" reason=\"");
  if (reason != std::string::npos) {
    d.reason = line.substr(reason + 9);
    if (!d.reason.empty() && d.reason.back() == '"') d.reason.pop_back();
  }
  return d;
}

bool failed_response(const Request& r) {
  if (r.recv_us < 0.0) return true;
  if (r.response.rfind("error:", 0) == 0) return true;
  const Decision d = parse_decision(r.response);
  if (d.stamp < 0 || d.outcome == "rejected") return true;
  return d.outcome == "deny" && d.reason.rfind("re-solve failed", 0) == 0;
}

// ---- Load generator ----

class Generator {
 public:
  Generator(std::vector<int> fds, std::vector<Request>& requests,
            Clock::time_point epoch)
      : fds_(std::move(fds)), requests_(&requests), epoch_(epoch),
        inbox_(fds_.size()), pending_(fds_.size()), greeted_(fds_.size(), 0) {
    for (const int fd : fds_) ::fcntl(fd, F_SETFL, O_NONBLOCK);
  }

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  void send(std::size_t index) {
    Request& r = (*requests_)[index];
    const std::string line = r.text + "@0\n";
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::send(fds_[r.conn], line.data() + off,
                               line.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        pollfd p{fds_[r.conn], POLLOUT, 0};
        ::poll(&p, 1, 100);
      } else {
        throw std::runtime_error("send to serve daemon failed");
      }
    }
    r.sent_us = now_us();
    pending_[r.conn].push_back(index);
  }

  /// Waits up to `timeout_us` for responses; returns the request indices
  /// answered.
  std::vector<std::size_t> receive(double timeout_us) {
    std::vector<pollfd> polls;
    for (const int fd : fds_) polls.push_back({fd, POLLIN, 0});
    const double t = std::max(0.0, timeout_us);
    std::vector<std::size_t> answered;
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(t / 1e6);
    ts.tv_nsec = static_cast<long>(std::fmod(t, 1e6) * 1000.0);
    if (::ppoll(polls.data(), polls.size(), &ts, nullptr) <= 0) return answered;
    char buf[65536];
    for (std::size_t c = 0; c < fds_.size(); ++c) {
      if ((polls[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      while (true) {
        const ssize_t n = ::read(fds_[c], buf, sizeof(buf));
        if (n <= 0) break;
        inbox_[c].append(buf, static_cast<std::size_t>(n));
      }
      const double at = now_us();
      std::size_t nl;
      while ((nl = inbox_[c].find('\n')) != std::string::npos) {
        std::string line = inbox_[c].substr(0, nl);
        inbox_[c].erase(0, nl + 1);
        if (!greeted_[c] && line.rfind("epoch=", 0) == 0) {
          greeted_[c] = 1;
          continue;
        }
        if (pending_[c].empty()) {
          unexpected_ += 1;
          continue;
        }
        const std::size_t index = pending_[c].front();
        pending_[c].erase(pending_[c].begin());
        (*requests_)[index].response = std::move(line);
        (*requests_)[index].recv_us = at;
        answered.push_back(index);
      }
    }
    return answered;
  }

  std::size_t unexpected() const { return unexpected_; }

 private:
  std::vector<int> fds_;
  std::vector<Request>* requests_;
  Clock::time_point epoch_;
  std::vector<std::string> inbox_;
  std::vector<std::vector<std::size_t>> pending_;
  std::vector<char> greeted_;
  std::size_t unexpected_ = 0;
};

/// Open loop over `order` (request indices in due order). Returns the
/// generator's lateness (send time minus due time) per request, in us.
std::vector<double> open_loop(Generator& gen, std::vector<Request>& requests,
                              const std::vector<std::size_t>& order) {
  std::vector<double> late;
  const double base = gen.now_us() + 2000.0;
  for (const std::size_t i : order) requests[i].due_us += base;
  std::size_t next = 0, answered = 0;
  double last_progress = gen.now_us();
  while (answered < order.size()) {
    double now = gen.now_us();
    while (next < order.size() && requests[order[next]].due_us <= now) {
      gen.send(order[next]);
      late.push_back(requests[order[next]].sent_us -
                     requests[order[next]].due_us);
      ++next;
      now = gen.now_us();
    }
    const double wait = next < order.size()
                            ? requests[order[next]].due_us - now
                            : 100000.0;
    const std::size_t got = gen.receive(wait).size();
    answered += got;
    if (got > 0) last_progress = gen.now_us();
    if (gen.now_us() - last_progress > kStallSeconds * 1e6) break;
  }
  return late;
}

/// Closed loop: each connection sends its next request (in `per_conn`
/// order) as soon as the previous one is answered. Returns the elapsed
/// seconds from the first send to the last answer.
double closed_loop(Generator& gen, std::vector<Request>& requests,
                   const std::vector<std::vector<std::size_t>>& per_conn) {
  std::vector<std::size_t> cursor(per_conn.size(), 0);
  std::size_t total = 0, answered = 0;
  for (const auto& list : per_conn) total += list.size();
  const double start = gen.now_us();
  double last = start;
  for (std::size_t c = 0; c < per_conn.size(); ++c) {
    if (!per_conn[c].empty()) gen.send(per_conn[c][cursor[c]++]);
  }
  while (answered < total) {
    const std::vector<std::size_t> got = gen.receive(100000.0);
    for (const std::size_t i : got) {
      ++answered;
      last = requests[i].recv_us;
      const std::size_t c = requests[i].conn;
      if (cursor[c] < per_conn[c].size()) gen.send(per_conn[c][cursor[c]++]);
    }
    if (got.empty() && gen.now_us() - last > kStallSeconds * 1e6) break;
  }
  return (last - start) / 1e6;
}

// ---- In-process replay ----

/// The sink the replay's Acceptor feeds: a serve::Wal in front of the
/// Daemon, synced at every flush that settled decisions (the durable
/// wrapper's rule), with one span per layer call.
class TimedSink final : public serve::ServeSink {
 public:
  TimedSink(serve::Daemon& daemon, serve::Wal& wal, Spans& spans)
      : daemon_(&daemon), wal_(&wal), spans_(&spans) {}

  void set_id(std::uint64_t id) { id_ = id; }
  std::size_t syncs() const { return syncs_; }

  void submit(const serve::Request& request) override {
    {
      const auto span = spans_->scope("wal.append", id_);
      wal_->append({++seq_, 0, request.describe()});
    }
    {
      const auto span = spans_->scope("daemon.submit", id_);
      daemon_->submit(request);
    }
    sync_if_settled();
  }
  void force_flush() override {
    {
      const auto span = spans_->scope("daemon.flush", id_);
      daemon_->flush();
    }
    sync_if_settled();
  }
  serve::Daemon& daemon() override { return *daemon_; }
  std::uint64_t epoch() const override { return 0; }
  std::uint64_t accepted() const override { return seq_; }

 private:
  void sync_if_settled() {
    const std::size_t decided = daemon_->report().decisions.size();
    if (decided == settled_) return;
    settled_ = decided;
    const auto span = spans_->scope("wal.sync", id_);
    wal_->sync();
    ++syncs_;
  }

  serve::Daemon* daemon_;
  serve::Wal* wal_;
  Spans* spans_;
  std::uint64_t id_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t settled_ = 0;
  std::size_t syncs_ = 0;
};

struct Replay {
  std::string decision_log;
  std::size_t solves = 0;
  std::size_t syncs = 0;
  double final_utility = 0.0;
  bool capacity_feasible = false;
  double final_network_optimum = 0.0;
};

/// Replays the stamped stream through Acceptor -> TimedSink -> Daemon, one
/// timer flush after each request (every window-0 batch holds exactly one
/// request, whichever of timer or arrival flushed it).
Replay replay(const std::vector<std::string>& stream, Spans& spans) {
  const stream::StreamNetwork net = scenario::load_file(kNetwork);
  serve::Daemon daemon(net, cli_options());
  std::error_code ignored;
  fs::remove("replay.wal", ignored);
  serve::Wal wal("replay.wal");
  TimedSink sink(daemon, wal, spans);
  serve::AcceptorOptions acceptor_options;
  acceptor_options.stamp_arrival = true;
  serve::Acceptor acceptor(sink, acceptor_options);
  const int session = acceptor.open_session();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    sink.set_id(i);
    const auto request_span = spans.scope("serve.request", i);
    {
      const auto span = spans.scope("protocol.parse", i);
      serve::parse_request(stream[i]);
    }
    {
      const auto span = spans.scope("acceptor.feed", i);
      acceptor.feed_line(session, stream[i]);
    }
    {
      const auto span = spans.scope("acceptor.flush", i);
      acceptor.flush_now();
    }
    acceptor.take_output(session);
  }
  acceptor.close_session(session);
  const serve::ServeReport& report = daemon.finish();

  Replay out;
  out.decision_log = report.decision_log();
  out.solves = report.solves;
  out.syncs = sink.syncs();
  out.final_utility = daemon.controller().utility();
  {
    const xform::ExtendedGraph& xg = daemon.controller().extended();
    const core::FlowState flows =
        core::compute_flows(xg, daemon.controller().routing());
    out.capacity_feasible = true;
    for (std::size_t v = 0; v < xg.node_count(); ++v) {
      if (xg.has_finite_capacity(v) &&
          flows.f_node[v] > xg.capacity(v) * (1.0 + 1e-9)) {
        out.capacity_feasible = false;
      }
    }
    xform::ReferenceOptions sparse;
    sparse.backend = xform::LpBackend::kSparse;
    out.final_network_optimum = xform::solve_reference(xg, sparse).optimal_utility;
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

class ServeSection final : public Section {
 public:
  ServeSection(const Options& options, const SectionPlan& plan, Spans& spans,
               Report& report)
      : options_(options), plan_(plan), spans_(spans), report_(report) {
    build_load();
    // Set-up: fork until the socket accepts.
    daemon_ = launch(options, "serve");
    if (plan.primary) report.setup_sample(daemon_.setup_seconds);
    fds_.push_back(daemon_.fd);
    while (fds_.size() < conns_) {
      const int fd = connect_unix("serve.sock");
      if (fd < 0) throw std::runtime_error("serve: extra connection refused");
      fds_.push_back(fd);
    }
    epoch_ = Clock::now();
    gen_ = std::make_unique<Generator>(fds_, requests_, epoch_);
    closed_loop(*gen_, requests_, blocks_[0].closed_per_conn);
  }

  ~ServeSection() override {
    for (const int fd : fds_) ::close(fd);
  }
  ServeSection(const ServeSection&) = delete;
  ServeSection& operator=(const ServeSection&) = delete;

  std::size_t slices() const override { return blocks_.size() - 1; }

  /// One block: an open-loop segment, then a closed-loop segment.
  void slice(std::size_t i) override {
    const Block& block = blocks_[i + 1];
    const std::vector<double> block_late =
        open_loop(*gen_, requests_, block.open_order);
    late_.insert(late_.end(), block_late.begin(), block_late.end());
    std::size_t sent = 0;
    for (const auto& list : block.closed_per_conn) sent += list.size();
    const double seconds = closed_loop(*gen_, requests_, block.closed_per_conn);
    block_rps_.push_back(seconds > 0.0 ? static_cast<double>(sent) / seconds
                                       : 0.0);
  }

  void finish() override;

 private:
  struct Block {
    std::vector<std::size_t> open_order;  // request indices in due order
    std::vector<std::vector<std::size_t>> closed_per_conn;
  };

  void build_load();

  const Options& options_;
  SectionPlan plan_;
  Spans& spans_;
  Report& report_;
  std::size_t conns_ = 1;
  std::vector<Request> requests_;
  std::vector<Block> blocks_;
  Launch daemon_;
  std::vector<int> fds_;
  Clock::time_point epoch_;
  std::unique_ptr<Generator> gen_;
  std::vector<double> late_, block_rps_;
};

void ServeSection::build_load() {
  const SectionPlan& plan = plan_;
  util::Rng rng(options_.seed * 0x9E3779B97F4A7C15ULL + 11);
  {
    util::Rng paper(2007);
    std::ofstream out(kNetwork);
    scenario::write(gen::random_instance({}, paper), out);
  }
  const stream::StreamNetwork net = scenario::load_file(kNetwork);

  // Idle servers (no load at the daemon's initial plan): halving and
  // restoring their capacity never binds, so writes stay valid and cheap.
  std::vector<std::string> idle;
  {
    serve::Daemon probe(net, cli_options());
    const xform::ExtendedGraph& xg = probe.controller().extended();
    const core::PhysicalAllocation alloc = core::map_to_physical(
        xg, core::compute_flows(xg, probe.controller().routing()));
    for (stream::NodeId n = 0; n < net.node_count(); ++n) {
      bool source = false;
      for (std::size_t j = 0; j < net.commodity_count(); ++j) {
        source = source || net.source(j) == n;
      }
      if (!net.is_sink(n) && !source && alloc.server_usage[n] == 0.0) {
        idle.push_back(net.node_name(n));
      }
    }
  }
  if (idle.empty()) {
    throw std::runtime_error("serve: the paper instance has no idle server");
  }
  rng.shuffle(idle);
  std::vector<std::string> commodities;
  for (std::size_t j = 0; j < net.commodity_count(); ++j) {
    commodities.push_back(net.commodity_name(j));
  }
  std::vector<std::string> owned = commodities;
  rng.shuffle(owned);

  conns_ = std::min<std::size_t>(host_cores(), 16);
  const std::size_t conns = conns_;
  // The load runs in blocks, each an open-loop segment (open_seconds at
  // kRate) followed by a closed-loop segment. Every connection sends whole
  // rounds in every segment.
  const std::size_t blocks = plan.smoke ? 1 : 5;
  const double open_seconds = plan.smoke ? 1.0 : 2.5;
  const std::size_t open_rounds = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(open_seconds * kRate /
                         static_cast<double>(conns * kRoundLength))));
  const std::size_t closed_rounds = plan.smoke ? 4 : 18;

  // blocks_[0] is the warm-up: closed loop only, untimed, run before the
  // first slice so the daemon's first requests (cold caches, first WAL
  // growth) do not land in the figures.
  blocks_.resize(blocks + 1);
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    Block& block = blocks_[b];
    const bool warmup = b == 0;
    std::vector<std::vector<std::size_t>> open_per_conn(conns);
    block.closed_per_conn.resize(conns);
    for (std::size_t c = 0; c < conns; ++c) {
      const std::string server = idle[c % idle.size()];
      const std::string spare = idle[(c + conns) % idle.size()];
      const std::string own = c < owned.size() ? owned[c] : "";
      for (const bool open : {true, false}) {
        const std::size_t rounds =
            warmup ? (open ? 0 : 6) : open ? open_rounds : closed_rounds;
        for (const std::string& text :
             script(rng, rounds, server, spare, own, commodities)) {
          Request r;
          r.conn = c;
          r.text = text;
          r.write = text.rfind("query=", 0) != 0;
          r.open_loop = open;
          (open ? open_per_conn : block.closed_per_conn)[c].push_back(
              requests_.size());
          requests_.push_back(r);
        }
      }
    }
    // Seeded interleaving of the connections' open-loop scripts, with
    // Poisson arrivals at kRate.
    std::vector<std::size_t> owners;
    for (std::size_t c = 0; c < conns; ++c) {
      owners.insert(owners.end(), open_per_conn[c].size(), c);
    }
    rng.shuffle(owners);
    std::vector<std::size_t> cursor(conns, 0);
    double due = 0.0;
    for (const std::size_t c : owners) {
      const std::size_t index = open_per_conn[c][cursor[c]++];
      due += -std::log(1.0 - rng.uniform(0.0, 1.0)) / kRate * 1e6;
      requests_[index].due_us = due;
      block.open_order.push_back(index);
    }
  }
}

void ServeSection::finish() {
  Spans& spans = spans_;
  Report& report = report_;
  std::vector<Request>& requests = requests_;
  const std::vector<double>& late = late_;
  const std::size_t conns = conns_;
  for (const int fd : fds_) ::close(fd);
  fds_.clear();
  const int exit_code = daemon_.child->wait(kStallSeconds);
  report.check(exit_code == 0, "serve: daemon exits 0 after the last client "
                               "leaves (exit " + std::to_string(exit_code) + ")");
  report.check(gen_->unexpected() == 0, "serve: no response without a request");
  const Clock::time_point epoch = epoch_;

  // ---- Outcomes, failures and metrics ----
  std::size_t failed = 0, closed_count = 0;
  std::vector<double> read_ms, write_ms, all_ms;
  for (const Request& r : requests) {
    if (failed_response(r)) ++failed;
    if (!r.open_loop) {
      ++closed_count;
      continue;
    }
    if (r.recv_us < 0.0) continue;
    const double ms = (r.recv_us - r.due_us) / 1000.0;
    (r.write ? write_ms : read_ms).push_back(ms);
    all_ms.push_back(ms);
  }
  report.count(requests.size(), failed);
  // End-to-end figures, reported with the layer metrics of traced runs:
  // on the reference host they move 2-4x between stretches of minutes, far
  // beyond any regression bound (see README.md).
  report.layer("serve.read_p50_ms", median(read_ms), "ms");
  report.layer("serve.write_p50_ms", median(write_ms), "ms");
  report.layer("serve.p99_ms", percentile(all_ms, 99.0), "ms");
  report.layer("serve.saturated_rps", median(block_rps_), "decisions/s");
  char line[256];
  std::snprintf(line, sizeof(line),
                "serve: %zu connections, %zu open-loop requests at %.0f/s "
                "(%zu reads, %zu writes), %zu closed-loop; generator late "
                "p50 %.3f ms, p99 %.3f ms, max %.3f ms",
                conns, all_ms.size(), kRate, read_ms.size(), write_ms.size(),
                closed_count, median(late) / 1000.0,
                percentile(late, 99.0) / 1000.0,
                late.empty() ? 0.0
                             : *std::max_element(late.begin(), late.end()) /
                                   1000.0);
  report.info(line);

  // ---- Checks ----
  // One decision per request, on the connection that sent it.
  const std::vector<std::string> log = split_lines(read_file("serve.log"));
  report.check(log.size() == requests.size(),
               "serve: decision log holds one line per request (" +
                   std::to_string(log.size()) + " lines, " +
                   std::to_string(requests.size()) + " requests)");
  std::vector<char> stamp_seen(requests.size(), 0);
  bool matched = true, unique = true, in_log = true, thresholds = true;
  const serve::ServeOptions serve_options = cli_options();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Decision d = parse_decision(requests[i].response);
    if (d.stamp < 0 || d.request != requests[i].text) {
      matched = false;
      continue;
    }
    if (static_cast<std::size_t>(d.stamp) >= requests.size() ||
        stamp_seen[static_cast<std::size_t>(d.stamp)]) {
      unique = false;
      continue;
    }
    stamp_seen[static_cast<std::size_t>(d.stamp)] = 1;
    if (static_cast<std::size_t>(d.stamp) >= log.size() ||
        log[static_cast<std::size_t>(d.stamp)] != requests[i].response) {
      in_log = false;
    }
    if (d.outcome == "admit" || d.outcome == "degrade" || d.outcome == "deny") {
      const bool share_ok =
          std::abs(d.share - (d.requested > 0.0 ? d.admitted / d.requested
                                                : 0.0)) <=
          1e-6 * std::max(1.0, d.share);
      const bool outcome_ok =
          d.outcome == "admit"   ? d.share >= serve_options.admit_share
          : d.outcome == "deny"  ? d.share < serve_options.deny_share ||
                                       !d.reason.empty()
                                 : d.share >= serve_options.deny_share &&
                                       d.share < serve_options.admit_share;
      thresholds = thresholds && share_ok && outcome_ok &&
                   d.admitted <= d.requested * (1.0 + 1e-9) + 1e-9;
    }
  }
  report.check(matched, "serve: every request answered once, in order, on "
                        "the connection that sent it");
  report.check(unique && in_log, "serve: each answer is its own line of the "
                                 "socket decision log");
  report.check(thresholds, "serve: admit outcomes agree with share and "
                           "thresholds; admitted <= requested");

  // The stamped stream, as the daemon logged it before deciding.
  std::vector<std::string> stream;
  for (const serve::WalRecord& record :
       serve::Wal::read_and_repair("serve.wal/wal.log")) {
    stream.push_back(record.payload);
  }
  report.check(stream.size() == requests.size(),
               "serve: the WAL holds every request");

  const Replay fresh = replay(stream, spans);
  report.check(fresh.decision_log == read_file("serve.log"),
               "serve: socket decision log equals the in-process replay");
  report.check(fresh.capacity_feasible, "serve: final plan capacity-feasible");
  report.check(fresh.final_utility <=
                   fresh.final_network_optimum +
                       1e-9 * std::max(1.0, std::abs(fresh.final_network_optimum)),
               "serve: final utility <= lp-sparse optimum of the final network");

  if (!spans.on()) return;
  // ---- Layer metrics (traced runs) ----
  const double n = static_cast<double>(stream.size());
  report.layer("protocol.parse_us", median(spans.self_us("protocol.parse")), "us");
  report.layer("acceptor.feed_us", median(spans.self_us("acceptor.feed")), "us");
  report.layer("wal.append_us", median(spans.self_us("wal.append")), "us");
  report.layer("wal.sync_us", median(spans.self_us("wal.sync")), "us");
  report.layer("wal.syncs_per_request", static_cast<double>(fresh.syncs) / n,
               "count");
  report.layer("daemon.submit_us", median(spans.self_us("daemon.submit")), "us");
  report.layer("daemon.flush_us", median(spans.self_us("daemon.flush")), "us");
  report.layer("daemon.solves_per_request",
               static_cast<double>(fresh.solves) / n, "count");
  // Batch wait, bounded from above: the client-observed open-loop read
  // latency (from the actual send) minus the in-process work of one read
  // (acceptor, WAL, daemon). What remains is the wait for the flush plus
  // socket transfer and scheduling.
  // Client spans take the request's decision stamp as id: its position in
  // the stamped stream, which is the id of its replay spans.
  std::vector<double> client_read_us;
  for (const Request& r : requests) {
    const Decision d = parse_decision(r.response);
    if (r.recv_us < 0.0 || d.stamp < 0) continue;
    const auto at = [&](double us) {
      return epoch + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::micro>(us));
    };
    spans.add("client.request", static_cast<std::uint64_t>(d.stamp),
              at(r.sent_us), at(r.recv_us));
    if (r.open_loop && !r.write) client_read_us.push_back(r.recv_us - r.sent_us);
  }
  const std::map<std::uint64_t, double> work = spans.self_by_id(
      {"acceptor.feed", "wal.append", "daemon.submit", "wal.sync",
       "acceptor.flush", "daemon.flush"});
  std::vector<double> read_work_us;
  for (const auto& [id, us] : work) {
    if (id < stream.size() && stream[id].rfind("query=", 0) == 0) {
      read_work_us.push_back(us);
    }
  }
  report.layer("daemon.batch_wait_us",
               std::max(0.0, median(client_read_us) - median(read_work_us)),
               "us");
  report.layer("loadgen.late_p99_us", percentile(late, 99.0), "us");
}

}  // namespace

std::unique_ptr<Section> make_serve(const Options& options,
                                    const SectionPlan& plan, Spans& spans,
                                    Report& report) {
  return std::make_unique<ServeSection>(options, plan, spans, report);
}

}  // namespace perfbench
