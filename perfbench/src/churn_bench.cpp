// Churn section: ctrl::Controller::apply, in process, from the event until
// the plan re-settles.
//
//   (a) the five bench_churn instances (12 servers, 2 commodities, seeds
//       1..5), each with its 8-event plan, on the warm-started `gradient`
//       pipeline with bench_churn's knobs. These inputs do not depend on
//       --seed: on them the warm re-solve runs into the 8,000-iteration
//       watchdog budget on six of the 40 events (seeds 1, 3 and 5), and
//       each such event counts as failed.
//   (b) one 1,200-server, 64-commodity instance (bench_lp_scaling's rung),
//       on the `lp-sparse` pipeline, with the same plan shape; --seed picks
//       the server, link and commodity the plan touches.
//
// Checks after every event: the routing is valid and capacity-feasible;
// utility is at most the optimum computed separately (lp-sparse on the
// network rebuilt here from the baseline); the controller's reported
// optimum matches it within 1e-6 relative; crash->restore and
// depart->arrive restore the pre-event utility exactly.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/allocation.hpp"
#include "core/flow.hpp"
#include "core/optimizer.hpp"
#include "core/warm_start.hpp"
#include "ctrl/churn_plan.hpp"
#include "ctrl/controller.hpp"
#include "gen/random_instance.hpp"
#include "sections.hpp"
#include "solver/pipeline.hpp"
#include "solver/solver.hpp"
#include "stream/surgery.hpp"
#include "util/rng.hpp"
#include "xform/lp_reference.hpp"

namespace perfbench {
namespace {

using namespace maxutil;

constexpr double kGuard = 0.999;          // ctrl's capacity guard
constexpr double kRepairHeadroom = 0.9;   // ctrl's proportional repair target

/// One instance's generator inputs, with its plan and controller options.
/// The plan is chosen once; each round builds the instance afresh.
struct Case {
  std::string label;
  bool large = false;
  gen::RandomInstanceParams params;
  std::uint64_t rng_seed = 0;
  ctrl::ChurnPlan plan;
  ctrl::ControllerOptions options;

  stream::StreamNetwork build() const {
    util::Rng rng(rng_seed);
    return gen::random_instance(params, rng);
  }
};

std::vector<stream::NodeId> interior_by_usage(
    const stream::StreamNetwork& net, const core::PhysicalAllocation& alloc) {
  std::vector<stream::NodeId> order;
  for (stream::NodeId n = 0; n < net.node_count(); ++n) {
    if (net.is_sink(n)) continue;
    bool source = false;
    for (std::size_t j = 0; j < net.commodity_count(); ++j) {
      source = source || net.source(j) == n;
    }
    if (!source) order.push_back(n);
  }
  std::sort(order.begin(), order.end(),
            [&](stream::NodeId a, stream::NodeId b) {
              if (alloc.server_usage[a] != alloc.server_usage[b]) {
                return alloc.server_usage[a] > alloc.server_usage[b];
              }
              return a < b;
            });
  return order;
}

/// bench_churn's plan: cap down/up, crash/restore, bw down/up,
/// depart/arrive. Indices matter: [3] round-trips against [1], [7] against
/// [5].
ctrl::ChurnPlan plan_for(const stream::StreamNetwork& net,
                         stream::NodeId victim, stream::LinkId link,
                         stream::CommodityId commodity) {
  const auto& g = net.graph();
  const std::string v = net.node_name(victim);
  const std::string bw =
      net.node_name(g.tail(link)) + "-" + net.node_name(g.head(link));
  const std::string j = net.commodity_name(commodity);
  return ctrl::parse_churn_plan(
      "cap=" + v + "*0.5@1,cap=" + v + "*1.2@2,crash=" + v + "@3,restore=" +
      v + "@4,bw=" + bw + "*0.5@5,bw=" + bw + "*1.6@6,depart=" + j +
      "@7,arrive=" + j + "@8");
}

/// (a): bench_churn's instance, victim, plan and warm arm, unchanged.
Case small_case(std::uint64_t seed) {
  Case c;
  c.label = "small seed " + std::to_string(seed);
  c.params.servers = 12;
  c.params.commodities = 2;
  c.params.stages = 3;
  c.params.lambda = 60.0;
  c.rng_seed = seed * 7919;
  c.options.pipeline = "gradient";
  c.options.use_warm_start = true;
  c.options.solve.eta = 0.1;
  c.options.solve.tolerance = 1e-6;
  c.options.watchdog_iterations = 8000;
  c.options.penalty.epsilon = 0.05;
  c.options.recovery_band = 0.10;

  const stream::StreamNetwork net = c.build();
  const xform::ExtendedGraph xg(net, c.options.penalty);
  core::GradientOptions probe_options;
  probe_options.eta = 0.1;
  probe_options.max_iterations = 600;
  core::GradientOptimizer probe(xg, probe_options);
  probe.run();
  stream::NodeId victim = stream::kRemovedEntity;
  for (const stream::NodeId n : interior_by_usage(net, probe.allocation())) {
    if (stream::without_server(net, n).network.commodity_count() > 0) {
      victim = n;
      break;
    }
  }
  c.plan = plan_for(net, victim, 0, net.commodity_count() - 1);
  return c;
}

/// (b): the 1,200-server rung; the seed picks a loaded server, a loaded
/// link and a commodity for the plan.
Case large_case(std::uint64_t seed, bool smoke) {
  Case c;
  c.label = "large";
  c.large = true;
  c.params.servers = smoke ? 400 : 1200;
  c.params.commodities = smoke ? 16 : 64;
  c.params.stages = 3;
  c.params.min_width = 1;
  c.params.max_width = smoke ? 3 : 2;
  c.rng_seed = 2007;
  c.options.pipeline = "lp-sparse";
  c.options.penalty.epsilon = 0.1;
  c.options.watchdog_iterations = 4000;

  const stream::StreamNetwork net = c.build();
  const solver::Problem problem(net, c.options.penalty);
  xform::ReferenceOptions sparse;
  sparse.backend = xform::LpBackend::kSparse;
  const xform::ReferenceSolution ref =
      xform::solve_reference(problem.extended(), sparse);
  const core::RoutingState routing =
      core::routing_from_flows(problem.extended(), ref.flows);
  const core::PhysicalAllocation alloc = core::map_to_physical(
      problem.extended(), core::compute_flows(problem.extended(), routing));

  util::Rng pick(seed * 0xD1B54A32D192ED03ULL + 5);
  std::vector<stream::NodeId> victims;
  for (const stream::NodeId n : interior_by_usage(net, alloc)) {
    if (victims.size() == 8 || alloc.server_usage[n] <= 0.0) break;
    if (stream::without_server(net, n).network.commodity_count() ==
        net.commodity_count()) {
      victims.push_back(n);
    }
  }
  std::vector<stream::LinkId> links;
  for (stream::LinkId l = 0; l < net.link_count(); ++l) {
    if (alloc.link_usage[l] > 0.0) links.push_back(l);
  }
  if (victims.empty() || links.empty()) {
    throw std::runtime_error("churn: large instance has no loaded server/link");
  }
  c.plan = plan_for(net, victims[pick.index(victims.size())],
                    links[pick.index(links.size())],
                    pick.index(net.commodity_count()));
  return c;
}

/// The controller's topology configuration, mirrored from the events so the
/// post-event network can be rebuilt here, independently of the controller.
class Mirror {
 public:
  explicit Mirror(const stream::StreamNetwork& baseline)
      : baseline_(&baseline),
        node_down_(baseline.node_count(), 0),
        cap_(baseline.node_count(), 1.0),
        bw_(baseline.link_count(), 1.0),
        absent_(baseline.commodity_count(), 0),
        lambda_(baseline.commodity_count(), 1.0) {}

  void apply(const ctrl::ChurnEvent& e) {
    switch (e.kind) {
      case ctrl::ChurnEventKind::kCrash: node_down_[node(e.node)] = 1; break;
      case ctrl::ChurnEventKind::kRestore: node_down_[node(e.node)] = 0; break;
      case ctrl::ChurnEventKind::kCapScale: cap_[node(e.node)] *= e.factor; break;
      case ctrl::ChurnEventKind::kBwScale: {
        const auto& g = baseline_->graph();
        for (stream::LinkId l = 0; l < baseline_->link_count(); ++l) {
          if (g.tail(l) == node(e.from) && g.head(l) == node(e.to)) {
            bw_[l] *= e.factor;
          }
        }
        break;
      }
      case ctrl::ChurnEventKind::kArrive:
        absent_[commodity(e.commodity)] = 0;
        lambda_[commodity(e.commodity)] *= e.factor;
        break;
      case ctrl::ChurnEventKind::kDepart:
        absent_[commodity(e.commodity)] = 1;
        break;
    }
  }

  stream::RebuildSpec spec() const {
    stream::RebuildSpec s;
    for (stream::NodeId n = 0; n < node_down_.size(); ++n) {
      if (node_down_[n]) s.removed_nodes.push_back(n);
      if (cap_[n] != 1.0) s.capacity_factors.emplace_back(n, cap_[n]);
    }
    for (stream::LinkId l = 0; l < bw_.size(); ++l) {
      if (bw_[l] != 1.0) s.bandwidth_factors.emplace_back(l, bw_[l]);
    }
    for (stream::CommodityId j = 0; j < absent_.size(); ++j) {
      if (absent_[j]) s.removed_commodities.push_back(j);
      if (lambda_[j] != 1.0) s.lambda_factors.emplace_back(j, lambda_[j]);
    }
    return s;
  }

 private:
  stream::NodeId node(const std::string& name) const {
    for (stream::NodeId n = 0; n < baseline_->node_count(); ++n) {
      if (baseline_->node_name(n) == name) return n;
    }
    throw std::runtime_error("churn: unknown node " + name);
  }
  stream::CommodityId commodity(const std::string& name) const {
    for (stream::CommodityId j = 0; j < baseline_->commodity_count(); ++j) {
      if (baseline_->commodity_name(j) == name) return j;
    }
    throw std::runtime_error("churn: unknown commodity " + name);
  }

  const stream::StreamNetwork* baseline_;
  std::vector<char> node_down_;
  std::vector<double> cap_;
  std::vector<double> bw_;
  std::vector<char> absent_;
  std::vector<double> lambda_;
};

/// A rebuilt network and the solver Problem over it, pinned on the heap
/// (the Problem points into the network).
struct Rebuilt {
  stream::SurgeryResult surgery;
  std::optional<solver::Problem> problem;
};

bool capacity_feasible(const xform::ExtendedGraph& xg,
                       const core::RoutingState& routing) {
  const core::FlowState flows = core::compute_flows(xg, routing);
  for (std::size_t v = 0; v < xg.node_count(); ++v) {
    if (xg.has_finite_capacity(v) &&
        flows.f_node[v] > xg.capacity(v) * (1.0 + 1e-9)) {
      return false;
    }
  }
  return true;
}

struct Tally {
  std::vector<double> small_event_ms, large_event_ms;
  std::size_t small_iterations = 0;
  std::size_t events = 0, failed = 0;
  std::size_t warm = 0, warm_useful = 0, exact = 0;
  std::vector<double> reference_pivots;  // large instance, dense reference
  std::uint64_t large_first_id = 0, large_end_id = 0;
};

/// Replays one case's plan through a controller built here on a fresh
/// instance; `setup` gains the instance build and controller construction.
/// `shadow` re-runs each event's layers (rebuild, Problem, remap, re-solve,
/// reference) under spans; otherwise every event is checked against an
/// independent optimum.
void run_case(const Case& c, bool shadow, std::uint64_t& event_id,
              Spans& spans, Report& report, Tally& tally, double& setup) {
  const Clock::time_point setup_start = Clock::now();
  ctrl::Controller controller(c.build(), c.options);
  setup += seconds_since(setup_start);
  if (c.large) tally.large_first_id = event_id;
  const stream::StreamNetwork& baseline = controller.baseline();
  Mirror mirror(baseline);
  const solver::Pipeline pipeline = solver::Pipeline::parse(c.options.pipeline);
  auto previous = std::make_unique<Rebuilt>();
  previous->surgery = stream::rebuild(baseline, {});
  previous->problem.emplace(previous->surgery.network, c.options.penalty);

  std::vector<ctrl::EventOutcome> outcomes;
  for (const ctrl::ChurnEvent& event : c.plan.events) {
    const std::uint64_t id = event_id++;
    const auto event_span = spans.scope("churn.event", id);
    std::string invalid;
    {
      const auto span = spans.scope("ctrl.validate", id);
      invalid = controller.check_event(event);
    }
    report.check(invalid.empty(), "churn: " + c.label + " event " +
                                      event.describe() + " is valid: " +
                                      invalid);
    const core::RoutingState before = controller.routing();
    const Clock::time_point start = Clock::now();
    ctrl::EventOutcome outcome;
    {
      const auto span = spans.scope("ctrl.apply", id);
      outcome = controller.apply(event);
    }
    const double ms = seconds_since(start) * 1000.0;
    outcomes.push_back(outcome);
    mirror.apply(event);

    (c.large ? tally.large_event_ms : tally.small_event_ms).push_back(ms);
    if (!c.large) tally.small_iterations += outcome.iterations;
    tally.events += 1;
    if (outcome.status != solver::Status::kConverged) tally.failed += 1;
    if (outcome.warm_started) {
      tally.warm += 1;
      if (outcome.status == solver::Status::kConverged) tally.warm_useful += 1;
    }
    if (outcome.exact_restore) tally.exact += 1;

    auto next = std::make_unique<Rebuilt>();
    {
      const auto span = spans.scope("stream.rebuild", id);
      next->surgery = stream::rebuild(baseline, mirror.spec());
    }
    {
      const auto span = spans.scope("xform.build", id);
      next->problem.emplace(next->surgery.network, c.options.penalty);
    }
    const xform::ExtendedGraph& xg = next->problem->extended();
    if (shadow) {
      if (!outcome.exact_restore) {
        std::optional<core::RoutingState> warm;
        {
          const auto span = spans.scope("core.remap", id);
          warm = core::remap_routing(
              previous->problem->extended(), before, xg,
              stream::compose_maps(previous->surgery, next->surgery), kGuard,
              /*repair=*/false);
          if (warm.has_value()) {
            const core::FlowState flows = core::compute_flows(xg, *warm);
            bool violates = false;
            for (std::size_t v = 0; v < xg.node_count(); ++v) {
              violates = violates || (xg.has_finite_capacity(v) &&
                                      flows.f_node[v] >= kGuard * xg.capacity(v));
            }
            if (violates) {
              warm = core::repair_capacity_feasibility(xg, std::move(*warm),
                                                       kRepairHeadroom);
            }
          }
        }
        solver::SolveOptions so = c.options.solve;
        so.record_history = true;
        so.max_iterations = c.options.watchdog_iterations;
        if (so.tolerance <= 0.0) so.tolerance = 1e-7;
        so.warm_start = std::move(warm);
        const auto span = spans.scope(c.large ? "solver.lp_resolve"
                                              : "solver.resolve", id);
        pipeline.run(*next->problem, so);
      }
      xform::ReferenceSolution reference;
      {
        const auto span = spans.scope("xform.reference", id);
        reference = xform::solve_reference(xg);
      }
      if (c.large) {
        tally.reference_pivots.push_back(
            static_cast<double>(reference.iterations));
      }
    } else {
      const stream::StreamNetwork& now = controller.network();
      const stream::StreamNetwork& mine = next->surgery.network;
      report.check(now.node_count() == mine.node_count() &&
                       now.link_count() == mine.link_count() &&
                       now.commodity_count() == mine.commodity_count(),
                   "churn: " + c.label + " " + event.describe() +
                       ": the controller's network matches the rebuild");
      const core::RoutingState& routing = controller.routing();
      report.check(routing.is_valid(controller.extended(), 1e-9) &&
                       capacity_feasible(controller.extended(), routing),
                   "churn: " + c.label + " " + event.describe() +
                       ": routing valid and capacity-feasible");
      xform::ReferenceOptions sparse;
      sparse.backend = xform::LpBackend::kSparse;
      const double optimum = xform::solve_reference(xg, sparse).optimal_utility;
      const double scale = std::max(1.0, std::abs(optimum));
      report.check(controller.utility() <= optimum + 1e-9 * scale,
                   "churn: " + c.label + " " + event.describe() +
                       ": utility <= independent lp-sparse optimum");
      report.check(std::abs(outcome.optimum - optimum) <= 1e-6 * scale,
                   "churn: " + c.label + " " + event.describe() +
                       ": reported optimum matches lp-sparse within 1e-6");
    }
    previous = std::move(next);
  }
  if (c.large) tally.large_end_id = event_id;
  if (!shadow) {
    for (const auto& [back, fwd] :
         {std::pair<std::size_t, std::size_t>{3, 1}, {7, 5}}) {
      report.check(outcomes[back].exact_restore &&
                       outcomes[back].utility_after == outcomes[fwd].utility_after,
                   "churn: " + c.label + " " +
                       outcomes[back].event.describe() +
                       " restores the pre-event utility exactly");
    }
  }
}

class ChurnSection final : public Section {
 public:
  ChurnSection(const Options& options, const SectionPlan& plan, Spans& spans,
               Report& report)
      : plan_(plan), spans_(spans), report_(report),
        rounds_(plan.smoke ? 1
                : plan.primary
                    ? std::max<std::size_t>(
                          1, static_cast<std::size_t>(
                                 std::lround(plan.seconds / 3.0)))
                    : 5) {
    // The victims, links and commodities the plans touch are chosen once,
    // outside every timed round.
    for (std::uint64_t s = 1; s <= (plan.smoke ? 2 : 5); ++s) {
      cases_.push_back(small_case(s));
    }
    cases_.push_back(large_case(options.seed, plan.smoke));
  }

  std::size_t slices() const override { return rounds_; }

  /// One round: every case's plan through a fresh instance and controller.
  void slice(std::size_t) override {
    double setup = 0.0;
    for (const Case& c : cases_) {
      run_case(c, false, event_id_, spans_, report_, tally_, setup);
    }
    if (plan_.primary) report_.setup_sample(setup);
  }

  void finish() override;

 private:
  SectionPlan plan_;
  Spans& spans_;
  Report& report_;
  std::size_t rounds_;
  std::vector<Case> cases_;
  Tally tally_;
  std::uint64_t event_id_ = 0;
};

void ChurnSection::finish() {
  const SectionPlan& plan = plan_;
  Spans& spans = spans_;
  Report& report = report_;
  const Tally& tally = tally_;
  const std::size_t rounds = rounds_;
  report.count(tally.events, tally.failed);
  report.metric("churn.gradient_event_p50_ms", median(tally.small_event_ms), "ms");
  report.metric("churn.lp_event_p50_ms", median(tally.large_event_ms), "ms");
  report.metric("churn.iterations",
                static_cast<double>(tally.small_iterations) /
                    static_cast<double>(rounds),
                "count");
  char line[200];
  std::snprintf(line, sizeof(line),
                "churn: %zu rounds, %zu events, %zu at the watchdog budget, "
                "%zu warm starts, %zu exact restores",
                rounds, tally.events, tally.failed, tally.warm, tally.exact);
  report.info(line);

  Tally traced;
  layer_pass(plan, spans, report, [&] {
    traced = Tally{};
    double ignored = 0.0;
    for (const Case& c : cases_) {
      run_case(c, true, event_id_, spans, report, traced, ignored);
    }
  });
  if (!spans.on()) return;
  // Layer medians over the large instance's events of the traced pass,
  // except the gradient re-solve, which only the small instances run.
  const auto large_median = [&](const char* name) {
    return median(spans.self_us(name, traced.large_first_id,
                                traced.large_end_id)) /
           1000.0;
  };
  report.layer("ctrl.validate_us", median(spans.self_us("ctrl.validate")), "us");
  report.layer("ctrl.warm_useful",
               traced.warm == 0 ? 0.0
                                : static_cast<double>(traced.warm_useful) /
                                      static_cast<double>(traced.warm),
               "ratio");
  report.layer("ctrl.exact_restores", static_cast<double>(traced.exact), "count");
  report.layer("stream.rebuild_ms", large_median("stream.rebuild"), "ms");
  report.layer("xform.build_ms", large_median("xform.build"), "ms");
  report.layer("xform.reference_ms", large_median("xform.reference"), "ms");
  report.layer("core.remap_ms", large_median("core.remap"), "ms");
  report.layer("lp.reference_pivots", median(traced.reference_pivots), "count");
  report.layer("solver.resolve_ms",
               median(spans.self_us("solver.resolve")) / 1000.0, "ms");
  report.layer("solver.lp_resolve_ms",
               median(spans.self_us("solver.lp_resolve")) / 1000.0, "ms");
}

}  // namespace

std::unique_ptr<Section> make_churn(const Options& options,
                                    const SectionPlan& plan, Spans& spans,
                                    Report& report) {
  return std::make_unique<ChurnSection>(options, plan, spans, report);
}

}  // namespace perfbench
