#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <sstream>
#include <string>

#include "core/allocation.hpp"
#include "core/flow.hpp"
#include "ctrl/churn_plan.hpp"
#include "ctrl/controller.hpp"
#include "gen/figure1.hpp"
#include "gen/random_instance.hpp"
#include "solver/registry.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "xform/lp_reference.hpp"

namespace {

using maxutil::ctrl::ChurnEvent;
using maxutil::ctrl::ChurnEventKind;
using maxutil::ctrl::ChurnPlan;
using maxutil::ctrl::ChurnReport;
using maxutil::ctrl::Controller;
using maxutil::ctrl::ControllerOptions;
using maxutil::ctrl::DegradationPolicy;
using maxutil::ctrl::EventOutcome;
using maxutil::ctrl::kNotRecovered;
using maxutil::ctrl::parse_churn_plan;
using maxutil::util::CheckError;

ControllerOptions fast_options() {
  ControllerOptions options;
  options.solve.eta = 0.1;
  options.solve.tolerance = 1e-6;
  options.watchdog_iterations = 3000;
  options.lp_reference = false;  // skip the per-event LP in structural tests
  return options;
}

// --- Plan grammar ---

TEST(ChurnPlan, ParsesEveryEventKindAndSortsByTime) {
  const ChurnPlan plan = parse_churn_plan(
      "restore=n2@6, depart=k@5,arrive=j*1.5@4,cap=relay*0.5@3,"
      "bw=a-b*2@2,crash=n2@1");
  ASSERT_EQ(plan.events.size(), 6u);
  EXPECT_EQ(plan.events[0].kind, ChurnEventKind::kCrash);
  EXPECT_EQ(plan.events[0].node, "n2");
  EXPECT_EQ(plan.events[0].time, 1u);
  EXPECT_EQ(plan.events[1].kind, ChurnEventKind::kBwScale);
  EXPECT_EQ(plan.events[1].from, "a");
  EXPECT_EQ(plan.events[1].to, "b");
  EXPECT_DOUBLE_EQ(plan.events[1].factor, 2.0);
  EXPECT_EQ(plan.events[2].kind, ChurnEventKind::kCapScale);
  EXPECT_DOUBLE_EQ(plan.events[2].factor, 0.5);
  EXPECT_EQ(plan.events[3].kind, ChurnEventKind::kArrive);
  EXPECT_EQ(plan.events[3].commodity, "j");
  EXPECT_DOUBLE_EQ(plan.events[3].factor, 1.5);
  EXPECT_EQ(plan.events[4].kind, ChurnEventKind::kDepart);
  EXPECT_EQ(plan.events[5].kind, ChurnEventKind::kRestore);
}

TEST(ChurnPlan, DescribeRoundTrips) {
  const std::string spec =
      "crash=n2@1,bw=a-b*2@2,cap=relay*0.5@3,arrive=j*1.5@4,depart=k@5";
  const ChurnPlan plan = parse_churn_plan(spec);
  const ChurnPlan again = parse_churn_plan(plan.describe());
  ASSERT_EQ(again.events.size(), plan.events.size());
  EXPECT_EQ(again.describe(), plan.describe());
}

TEST(ChurnPlan, EmptySpecIsEmptyPlan) {
  EXPECT_TRUE(parse_churn_plan("").empty());
  EXPECT_TRUE(parse_churn_plan(" ,  , ").empty());
}

TEST(ChurnPlan, SameTimeEventsKeepSpecOrder) {
  const ChurnPlan plan = parse_churn_plan("depart=a@3,arrive=b@3,crash=c@3");
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].kind, ChurnEventKind::kDepart);
  EXPECT_EQ(plan.events[1].kind, ChurnEventKind::kArrive);
  EXPECT_EQ(plan.events[2].kind, ChurnEventKind::kCrash);
}

TEST(ChurnPlan, RejectsMalformedEntries) {
  EXPECT_THROW(parse_churn_plan("boom=x@1"), CheckError);      // unknown key
  EXPECT_THROW(parse_churn_plan("crash=x"), CheckError);       // missing @T
  EXPECT_THROW(parse_churn_plan("crash=x@-1"), CheckError);    // bad time
  EXPECT_THROW(parse_churn_plan("crash=x@soon"), CheckError);  // bad time
  EXPECT_THROW(parse_churn_plan("crash=@1"), CheckError);      // empty name
  EXPECT_THROW(parse_churn_plan("cap=x@1"), CheckError);       // missing *F
  EXPECT_THROW(parse_churn_plan("cap=x*0@1"), CheckError);     // zero factor
  EXPECT_THROW(parse_churn_plan("cap=x*-2@1"), CheckError);    // negative
  EXPECT_THROW(parse_churn_plan("cap=x*nan@1"), CheckError);   // non-finite
  EXPECT_THROW(parse_churn_plan("bw=ab*2@1"), CheckError);     // no '-' pair
  EXPECT_THROW(parse_churn_plan("crash"), CheckError);         // no '='
}

TEST(ChurnPlan, ParsesPolicyNames) {
  EXPECT_EQ(maxutil::ctrl::parse_policy("proportional"),
            DegradationPolicy::kProportional);
  EXPECT_EQ(maxutil::ctrl::parse_policy("priority"),
            DegradationPolicy::kPriority);
  EXPECT_EQ(maxutil::ctrl::parse_policy("freeze"), DegradationPolicy::kFreeze);
  EXPECT_THROW(maxutil::ctrl::parse_policy("yolo"), CheckError);
}

// --- Controller: exact restores ---

TEST(Controller, CrashRestoreRoundTripIsExact) {
  maxutil::gen::Figure1Ids ids;
  const auto net = maxutil::gen::figure1_example({}, &ids);
  Controller controller(net, fast_options());
  const double before = controller.utility();
  const std::size_t nodes_before = controller.network().node_count();

  controller.apply(parse_churn_plan("crash=Server 2@1").events[0]);
  EXPECT_EQ(controller.network().node_count(), nodes_before - 1);

  const EventOutcome restore =
      controller.apply(parse_churn_plan("restore=Server 2@2").events[0]);
  EXPECT_TRUE(restore.exact_restore);
  EXPECT_EQ(restore.iterations, 0u);
  EXPECT_EQ(restore.recovery_iterations, 0u);
  EXPECT_EQ(restore.status, maxutil::solver::Status::kConverged);
  EXPECT_EQ(controller.network().node_count(), nodes_before);
  // Bit-exact: the snapshot is reinstated, not re-computed.
  EXPECT_EQ(controller.utility(), before);
  EXPECT_EQ(controller.report().exact_restores, 1u);
}

TEST(Controller, DepartArriveRoundTripIsExact) {
  const auto net = maxutil::gen::figure1_example();
  Controller controller(net, fast_options());
  const double before = controller.utility();

  controller.apply(parse_churn_plan("depart=S2@1").events[0]);
  EXPECT_EQ(controller.network().commodity_count(), 1u);

  const EventOutcome arrive =
      controller.apply(parse_churn_plan("arrive=S2@2").events[0]);
  EXPECT_TRUE(arrive.exact_restore);
  EXPECT_EQ(arrive.iterations, 0u);
  EXPECT_EQ(controller.network().commodity_count(), 2u);
  EXPECT_EQ(controller.utility(), before);
}

TEST(Controller, InterveningEventDefeatsExactRestore) {
  const auto net = maxutil::gen::figure1_example();
  Controller controller(net, fast_options());
  controller.apply(parse_churn_plan("crash=Server 2@1").events[0]);
  controller.apply(parse_churn_plan("cap=Server 4*0.5@2").events[0]);
  const EventOutcome restore =
      controller.apply(parse_churn_plan("restore=Server 2@3").events[0]);
  // The configuration no longer matches the crash snapshot, so the restore
  // re-solves (warm-started off the degraded routing).
  EXPECT_FALSE(restore.exact_restore);
  EXPECT_TRUE(restore.warm_started || restore.cold_started);
  EXPECT_GT(restore.iterations, 0u);
}

TEST(Controller, ArriveAtDifferentRateIsNotExact) {
  const auto net = maxutil::gen::figure1_example();
  Controller controller(net, fast_options());
  controller.apply(parse_churn_plan("depart=S2@1").events[0]);
  const EventOutcome arrive =
      controller.apply(parse_churn_plan("arrive=S2*0.5@2").events[0]);
  EXPECT_FALSE(arrive.exact_restore);
  EXPECT_EQ(controller.network().commodity_count(), 2u);
}

// --- Controller: warm starts, policies, SLOs ---

TEST(Controller, WarmStartsAreStrictlyFeasible) {
  const auto net = maxutil::gen::figure1_example();
  Controller controller(net, fast_options());
  const ChurnReport report = controller.run(parse_churn_plan(
      "cap=Server 3*0.3@1,bw=Server 3-Server 5*0.5@2,cap=Server 3*2@3"));
  ASSERT_EQ(report.events.size(), 3u);
  for (const EventOutcome& o : report.events) {
    EXPECT_TRUE(o.warm_started);
    // The degradation policy hands the optimizer a point strictly inside
    // the capacity guard.
    EXPECT_LT(o.warm_start_violation, 0.0) << o.event.describe();
  }
}

TEST(Controller, StartKindConservation) {
  const auto net = maxutil::gen::figure1_example();
  ControllerOptions options = fast_options();
  options.lp_reference = true;
  Controller controller(net, options);
  const ChurnReport report = controller.run(parse_churn_plan(
      "cap=Server 3*0.5@1,crash=Server 2@2,restore=Server 2@3,"
      "depart=S2@4,arrive=S2@5,cap=Server 3*2@6"));
  ASSERT_EQ(report.events.size(), 6u);
  EXPECT_EQ(report.warm_starts + report.cold_starts + report.exact_restores,
            report.events.size());
  for (const EventOutcome& o : report.events) {
    EXPECT_GE(o.utility_deficit, 0.0);
    EXPECT_GT(o.optimum, 0.0);
  }
}

TEST(Controller, FreezePolicyColdStartsOnInfeasibleCarryOver) {
  const auto net = maxutil::gen::figure1_example();
  ControllerOptions options = fast_options();
  options.policy = DegradationPolicy::kFreeze;
  Controller controller(net, options);
  // Shrinking the shared Server 3 to 2% of its power makes the carried-over
  // routing grossly infeasible; freeze sheds nothing, so it must cold-start.
  const EventOutcome outcome =
      controller.apply(parse_churn_plan("cap=Server 3*0.02@1").events[0]);
  EXPECT_TRUE(outcome.degraded_infeasible);
  EXPECT_TRUE(outcome.cold_started);
  EXPECT_FALSE(outcome.warm_started);
}

TEST(Controller, ProportionalPolicyKeepsWarmStartOnSameEvent) {
  const auto net = maxutil::gen::figure1_example();
  Controller controller(net, fast_options());  // proportional default
  const EventOutcome outcome =
      controller.apply(parse_churn_plan("cap=Server 3*0.02@1").events[0]);
  EXPECT_TRUE(outcome.warm_started);
  EXPECT_LT(outcome.warm_start_violation, 0.0);
}

TEST(Controller, PriorityPolicyKeepsWarmStartOnSameEvent) {
  const auto net = maxutil::gen::figure1_example();
  ControllerOptions options = fast_options();
  options.policy = DegradationPolicy::kPriority;
  Controller controller(net, options);
  const EventOutcome outcome =
      controller.apply(parse_churn_plan("cap=Server 3*0.02@1").events[0]);
  EXPECT_TRUE(outcome.warm_started);
  EXPECT_LT(outcome.warm_start_violation, 0.0);
}

TEST(Controller, RecoverySlosAgainstReferenceOptimum) {
  const auto net = maxutil::gen::figure1_example();
  ControllerOptions options = fast_options();
  options.lp_reference = true;
  options.recovery_band = 0.15;
  Controller controller(net, options);
  const EventOutcome outcome =
      controller.apply(parse_churn_plan("cap=Server 3*0.5@1").events[0]);
  EXPECT_GT(outcome.optimum, 0.0);
  ASSERT_NE(outcome.recovery_iterations, kNotRecovered);
  EXPECT_LE(outcome.recovery_iterations, outcome.iterations);
  EXPECT_GE(outcome.utility_deficit, 0.0);
}

TEST(Controller, MetricsAndTraceAreRecorded) {
  const auto net = maxutil::gen::figure1_example();
  ControllerOptions options = fast_options();
  options.record_trace = true;
  Controller controller(net, options);
  controller.run(
      parse_churn_plan("crash=Server 2@1,restore=Server 2@2,depart=S2@3"));
  const auto& metrics = controller.metrics();
  const auto events = metrics.find("ctrl_events_total");
  ASSERT_TRUE(events.has_value());
  EXPECT_EQ(metrics.counter_value(*events), 3u);
  const auto exact = metrics.find("ctrl_exact_restores_total");
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(metrics.counter_value(*exact), 1u);
  // One deterministic span per event.
  EXPECT_EQ(controller.tracer().events().size(), 3u);
}

TEST(Controller, ColdStartArmNeverWarmStarts) {
  const auto net = maxutil::gen::figure1_example();
  ControllerOptions options = fast_options();
  options.use_warm_start = false;
  Controller controller(net, options);
  const ChurnReport report = controller.run(
      parse_churn_plan("cap=Server 3*0.5@1,bw=Server 3-Server 5*0.5@2"));
  EXPECT_EQ(report.warm_starts, 0u);
  EXPECT_EQ(report.cold_starts, 2u);
}

TEST(Controller, BudgetExhaustedReSolvesAreCountedNotFailed) {
  // A tiny watchdog budget stops every re-solve at its iteration limit. The
  // result is usable, so the controller neither retries nor fails it: it
  // counts the event as budget-exhausted and keeps the stopped solve's plan.
  const auto net = maxutil::gen::figure1_example();
  ControllerOptions options = fast_options();
  options.watchdog_iterations = 5;
  options.use_warm_start = false;  // cold, so the re-solve is reproducible
  Controller controller(net, options);
  const EventOutcome outcome =
      controller.apply(parse_churn_plan("cap=Server 3*0.5@1").events[0]);
  EXPECT_EQ(outcome.status, maxutil::solver::Status::kIterationLimit);
  EXPECT_FALSE(outcome.watchdog_retry);
  EXPECT_EQ(controller.report().budget_exhausted, 1u);
  EXPECT_EQ(controller.report().failures, 0u);
  const auto& metrics = controller.metrics();
  const auto counted = metrics.find("ctrl_budget_exhausted_total");
  ASSERT_TRUE(counted.has_value());
  EXPECT_EQ(metrics.counter_value(*counted), 1u);
  EXPECT_NE(controller.report().summary().find("budget exhausted 1"),
            std::string::npos);

  // Routing and utility are those of the same budget-stopped cold solve run
  // directly: counting the stall changes no decision.
  maxutil::solver::SolveOptions so = options.solve;
  so.max_iterations = options.watchdog_iterations;
  so.record_history = true;
  const maxutil::solver::Problem problem(controller.network(),
                                         options.penalty);
  const maxutil::solver::SolveResult direct =
      maxutil::solver::Pipeline::parse(options.pipeline).run(problem, so);
  EXPECT_EQ(direct.status, maxutil::solver::Status::kIterationLimit);
  ASSERT_TRUE(direct.routing.has_value());
  EXPECT_EQ(controller.utility(), direct.utility);
  EXPECT_EQ(controller.admitted(), direct.admitted);
  EXPECT_EQ(controller.routing().max_difference(*direct.routing), 0.0);
}

// --- Controller: validation errors ---

TEST(Controller, RejectsInvalidEvents) {
  maxutil::gen::Figure1Ids ids;
  const auto net = maxutil::gen::figure1_example({}, &ids);
  Controller controller(net, fast_options());
  // Unknown entities.
  EXPECT_THROW(controller.apply(parse_churn_plan("crash=nope@1").events[0]),
               CheckError);
  EXPECT_THROW(controller.apply(parse_churn_plan("depart=nope@1").events[0]),
               CheckError);
  EXPECT_THROW(
      controller.apply(parse_churn_plan("bw=Server 1-Server 8*2@1").events[0]),
      CheckError);  // no such baseline link
  // State mismatches.
  EXPECT_THROW(
      controller.apply(parse_churn_plan("restore=Server 2@1").events[0]),
      CheckError);  // not down
  EXPECT_THROW(controller.apply(parse_churn_plan("arrive=S2@1").events[0]),
               CheckError);  // already present
  EXPECT_THROW(controller.apply(parse_churn_plan("cap=Sink 1*2@1").events[0]),
               CheckError);  // sinks have no computing power
  controller.apply(parse_churn_plan("crash=Server 2@2").events[0]);
  EXPECT_THROW(controller.apply(parse_churn_plan("crash=Server 2@3").events[0]),
               CheckError);  // already down
  EXPECT_THROW(
      controller.apply(parse_churn_plan("cap=Server 2*0.5@3").events[0]),
      CheckError);  // down
}

TEST(Controller, ResolvesEntitiesByNumericId) {
  maxutil::gen::Figure1Ids ids;
  const auto net = maxutil::gen::figure1_example({}, &ids);
  Controller controller(net, fast_options());
  const EventOutcome outcome = controller.apply(parse_churn_plan(
      "crash=" + std::to_string(ids.server[1]) + "@1").events[0]);
  EXPECT_EQ(outcome.status, maxutil::solver::Status::kConverged);
  EXPECT_EQ(controller.network().node_count(), net.node_count() - 1);
}

TEST(Controller, RejectsPipelineWithoutRoutingOutput) {
  const auto net = maxutil::gen::figure1_example();
  ControllerOptions options = fast_options();
  options.pipeline = "fw";  // fw emits admissions, not a routing
  EXPECT_THROW(Controller(net, options), CheckError);
}

// --- Watchdog ---

/// A deliberately flaky backend: delegates to the gradient adapter but fails
/// outright on a scripted window of call numbers (1-based, inclusive), so
/// tests can script "the first attempt dies, the watchdog's retry succeeds"
/// or "both attempts die".
std::size_t g_flaky_calls = 0;
std::size_t g_flaky_fail_lo = 0;
std::size_t g_flaky_fail_hi = 0;  // 0 = never fail

void register_flaky_solver() {
  static bool once = [] {
    maxutil::solver::SolverInfo info;
    info.name = "flaky";
    info.description = "test-only: fails on a scripted call-number window";
    info.default_iterations = 5000;
    info.supports_warm_start = true;
    info.emits_routing = true;
    info.solve = [](const maxutil::solver::Problem& problem,
                    const maxutil::solver::SolveOptions& options) {
      ++g_flaky_calls;
      if (g_flaky_calls >= g_flaky_fail_lo && g_flaky_calls <= g_flaky_fail_hi) {
        maxutil::solver::SolveResult result;
        result.status = maxutil::solver::Status::kFailed;
        result.message = "flaky: scripted failure";
        return result;
      }
      return maxutil::solver::SolverRegistry::instance().solve(
          "gradient", problem, options);
    };
    maxutil::solver::SolverRegistry::instance().add(std::move(info));
    return true;
  }();
  (void)once;
}

TEST(Controller, WatchdogRetriesOnceThenSucceeds) {
  register_flaky_solver();
  g_flaky_calls = 0;
  g_flaky_fail_lo = g_flaky_fail_hi = 2;  // boot passes, first attempt dies
  const auto net = maxutil::gen::figure1_example();
  ControllerOptions options = fast_options();
  options.pipeline = "flaky";
  Controller controller(net, options);
  const EventOutcome outcome =
      controller.apply(parse_churn_plan("cap=Server 3*0.5@1").events[0]);
  EXPECT_TRUE(outcome.watchdog_retry);
  EXPECT_TRUE(maxutil::solver::is_usable(outcome.status));
  EXPECT_EQ(controller.report().watchdog_retries, 1u);
  EXPECT_EQ(controller.report().failures, 0u);
  g_flaky_fail_lo = g_flaky_fail_hi = 0;
}

TEST(Controller, FailedRetryKeepsDegradedInterimPoint) {
  register_flaky_solver();
  g_flaky_calls = 0;
  g_flaky_fail_lo = 2;
  g_flaky_fail_hi = 3;  // boot passes; the event's attempt AND retry die
  const auto net = maxutil::gen::figure1_example();
  ControllerOptions options = fast_options();
  options.pipeline = "flaky";
  Controller controller(net, options);
  const double boot_utility = controller.utility();
  // Harsh enough that the degraded interim point must shed admitted rate.
  const EventOutcome outcome =
      controller.apply(parse_churn_plan("cap=Server 3*0.05@1").events[0]);
  // The topology change stands even though the solve failed; the degraded
  // interim routing keeps serving traffic until a later event recovers.
  EXPECT_FALSE(maxutil::solver::is_usable(outcome.status));
  EXPECT_TRUE(outcome.watchdog_retry);
  EXPECT_EQ(outcome.message, "flaky: scripted failure");
  EXPECT_EQ(controller.report().failures, 1u);
  EXPECT_GT(controller.utility(), 0.0);
  EXPECT_LT(controller.utility(), boot_utility);

  // The next event re-solves (calls 4+ succeed) and recovers.
  const EventOutcome next =
      controller.apply(parse_churn_plan("cap=Server 3*20@2").events[0]);
  EXPECT_TRUE(maxutil::solver::is_usable(next.status));
  EXPECT_GT(controller.utility(), 0.0);
  g_flaky_fail_lo = g_flaky_fail_hi = 0;
}

// --- Determinism ---

// --- Serialized state (serve recovery snapshots ride on this) ---

TEST(Controller, ExportImportStateIsBitExact) {
  const auto net = maxutil::gen::figure1_example();
  Controller original(net, fast_options());
  // Build up non-trivial state: a scale, a departure (creates a snapshot
  // entry for exact restore), and a crash.
  original.run(parse_churn_plan(
      "cap=Server 3*0.5@1,depart=S2@2,crash=Server 2@3"));
  std::ostringstream blob;
  original.export_state(blob);

  Controller restored(net, fast_options());
  std::istringstream in(blob.str());
  restored.import_state(in);
  EXPECT_EQ(restored.utility(), original.utility());  // exact, not approx
  EXPECT_EQ(restored.network().commodity_count(),
            original.network().commodity_count());
  ASSERT_EQ(restored.admitted().size(), original.admitted().size());
  for (std::size_t j = 0; j < restored.admitted().size(); ++j) {
    EXPECT_EQ(restored.admitted()[j], original.admitted()[j]);
  }

  // The restored controller continues identically: the snapshot map came
  // across, so re-arriving S2 is an exact restore in both.
  const ChurnPlan tail = parse_churn_plan("restore=Server 2@4,arrive=S2@5");
  original.run(tail);
  restored.run(tail);
  EXPECT_EQ(restored.utility(), original.utility());

  // A truncated blob is rejected without corrupting the target.
  Controller fresh(net, fast_options());
  const double before = fresh.utility();
  std::istringstream torn(blob.str().substr(0, blob.str().size() / 2));
  EXPECT_THROW(fresh.import_state(torn), CheckError);
  EXPECT_EQ(fresh.utility(), before);
}

// --- Controller: the carried simplex basis (lp pipeline) ---

/// A generated instance under the `lp` pipeline, with bench_churn's plan
/// shape aimed at a loaded server, a loaded link and the last commodity:
/// cap down/up, crash/restore, bw down/up, depart/arrive.
struct LpChurnCase {
  maxutil::stream::StreamNetwork net;
  ChurnPlan plan;
};

ControllerOptions lp_options() {
  ControllerOptions options;
  options.pipeline = "lp";
  options.lp_reference = true;
  return options;
}

LpChurnCase lp_churn_case() {
  maxutil::gen::RandomInstanceParams params;
  params.servers = 60;
  params.commodities = 6;
  params.stages = 3;
  maxutil::util::Rng rng(2007);
  LpChurnCase c{maxutil::gen::random_instance(params, rng), {}};
  const maxutil::stream::StreamNetwork& net = c.net;

  const Controller probe(net, lp_options());
  const auto alloc = maxutil::core::map_to_physical(
      probe.extended(),
      maxutil::core::compute_flows(probe.extended(), probe.routing()));
  maxutil::stream::NodeId victim = 0;
  double victim_usage = 0.0;
  for (maxutil::stream::NodeId n = 0; n < net.node_count(); ++n) {
    bool source = false;
    for (std::size_t j = 0; j < net.commodity_count(); ++j) {
      source = source || net.source(j) == n;
    }
    if (!net.is_sink(n) && !source && alloc.server_usage[n] > victim_usage) {
      victim = n;
      victim_usage = alloc.server_usage[n];
    }
  }
  maxutil::stream::LinkId link = 0;
  for (maxutil::stream::LinkId l = 0; l < net.link_count(); ++l) {
    if (alloc.link_usage[l] > alloc.link_usage[link]) link = l;
  }
  const auto& g = net.graph();
  const std::string v = net.node_name(victim);
  const std::string bw =
      net.node_name(g.tail(link)) + "-" + net.node_name(g.head(link));
  const std::string j = net.commodity_name(net.commodity_count() - 1);
  c.plan = parse_churn_plan("cap=" + v + "*0.5@1,cap=" + v + "*1.2@2,crash=" +
                            v + "@3,restore=" + v + "@4,bw=" + bw +
                            "*0.5@5,bw=" + bw + "*1.6@6,depart=" + j +
                            "@7,arrive=" + j + "@8");
  return c;
}

bool within_relative(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(1.0, std::abs(b));
}

TEST(Controller, LpCarriedBasisWarmsRhsEventsAndMatchesColdOptimum) {
  const LpChurnCase c = lp_churn_case();
  ControllerOptions cold_options = lp_options();
  cold_options.use_warm_start = false;  // every LP from the slack basis
  Controller warm(c.net, lp_options());
  Controller cold(c.net, cold_options);
  ASSERT_EQ(c.plan.events.size(), 8u);
  for (const ChurnEvent& event : c.plan.events) {
    const EventOutcome w = warm.apply(event);
    const EventOutcome k = cold.apply(event);
    SCOPED_TRACE(event.describe());
    ASSERT_EQ(w.status, maxutil::solver::Status::kConverged);
    ASSERT_EQ(k.status, maxutil::solver::Status::kConverged);
    EXPECT_FALSE(k.lp_warm_basis);

    // Same optimum and utility as an independent cold reference solve.
    const double optimum =
        maxutil::xform::solve_reference(warm.extended()).optimal_utility;
    EXPECT_TRUE(within_relative(w.optimum, optimum, 1e-9))
        << w.optimum << " vs " << optimum;
    EXPECT_TRUE(within_relative(warm.utility(), optimum, 1e-9))
        << warm.utility() << " vs " << optimum;

    switch (event.kind) {
      case ChurnEventKind::kCapScale:
      case ChurnEventKind::kBwScale:
        // RHS-only: the re-solve warm-starts from the carried basis, and
        // the reference solve then starts at the re-solve's optimal basis,
        // so it pivots nowhere and reproduces the re-solve bit for bit.
        EXPECT_TRUE(w.lp_warm_basis);
        EXPECT_LT(w.iterations, k.iterations);
        EXPECT_EQ(w.reference_pivots, 0u);
        EXPECT_EQ(w.optimum, w.utility_after);
        break;
      case ChurnEventKind::kCrash:
      case ChurnEventKind::kDepart:
        // The layout changed: both controllers solve the same LP cold.
        EXPECT_FALSE(w.lp_warm_basis);
        EXPECT_EQ(w.iterations, k.iterations);
        EXPECT_EQ(w.utility_after, k.utility_after);
        EXPECT_EQ(w.reference_pivots, 0u);  // warm from the cold re-solve
        break;
      case ChurnEventKind::kRestore:
      case ChurnEventKind::kArrive:
        // Exact restore: the snapshot's basis comes back with its routing,
        // so the optimum costs no pivots; the cold arm pays a full solve.
        EXPECT_TRUE(w.exact_restore);
        EXPECT_TRUE(w.lp_warm_basis);
        EXPECT_EQ(w.reference_pivots, 0u);
        EXPECT_GT(k.reference_pivots, 0u);
        break;
    }
  }
  const auto counted = warm.metrics().find("ctrl_lp_warm_basis_total");
  ASSERT_TRUE(counted.has_value());
  // cap x2 and bw x2: re-solve + reference each; crash and depart: the
  // reference only; the two exact restores: the reference.
  EXPECT_EQ(warm.metrics().counter_value(*counted), 12u);
  const auto cold_counted = cold.metrics().find("ctrl_lp_warm_basis_total");
  ASSERT_TRUE(cold_counted.has_value());
  EXPECT_EQ(cold.metrics().counter_value(*cold_counted), 0u);
}

TEST(Controller, LpExportImportRoundTripsTheBases) {
  const LpChurnCase c = lp_churn_case();
  // Stop after the crash: the carried basis and the crash snapshot's basis
  // are both pending.
  const ChurnPlan head{{c.plan.events.begin(), c.plan.events.begin() + 3}};
  const ChurnPlan tail{{c.plan.events.begin() + 3, c.plan.events.end()}};
  Controller original(c.net, lp_options());
  original.run(head);
  std::ostringstream blob;
  original.export_state(blob);
  EXPECT_EQ(blob.str().rfind("maxutil-ctrl-state 2\n", 0), 0u);

  Controller restored(c.net, lp_options());
  std::istringstream in(blob.str());
  restored.import_state(in);
  std::ostringstream again;
  restored.export_state(again);
  EXPECT_EQ(again.str(), blob.str());  // every basis came across bit-exactly

  // A warm solve's vertex depends on its basis: the restored controller
  // continues with the same pivots and bit-identical plans only because the
  // bases came across.
  for (const ChurnEvent& event : tail.events) {
    const EventOutcome a = original.apply(event);
    const EventOutcome b = restored.apply(event);
    EXPECT_EQ(a.iterations, b.iterations) << event.describe();
    EXPECT_EQ(a.reference_pivots, b.reference_pivots) << event.describe();
    EXPECT_EQ(a.lp_warm_basis, b.lp_warm_basis) << event.describe();
    EXPECT_EQ(a.utility_after, b.utility_after) << event.describe();
  }
  EXPECT_EQ(restored.routing().max_difference(original.routing()), 0.0);
}

TEST(Controller, VersionOneStateBlobIsRefused) {
  const auto net = maxutil::gen::figure1_example();
  Controller original(net, fast_options());
  std::ostringstream blob;
  original.export_state(blob);
  std::string v1 = blob.str();
  const std::string header = "maxutil-ctrl-state 2";
  ASSERT_EQ(v1.rfind(header, 0), 0u);
  v1.replace(0, header.size(), "maxutil-ctrl-state 1");

  Controller target(net, fast_options());
  std::istringstream in(v1);
  try {
    target.import_state(in);
    FAIL() << "a version-1 blob was accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("ctrl state: unsupported version"),
              std::string::npos)
        << e.what();
  }
}

TEST(Controller, DistributedChurnRunsAreThreadIndependent) {
  const auto net = maxutil::gen::figure1_example();
  const std::string plan_spec =
      "cap=Server 3*0.5@1,crash=Server 2@2,restore=Server 2@3";
  std::optional<ChurnReport> reference;
  std::optional<double> reference_utility;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ControllerOptions options = fast_options();
    options.pipeline = "distributed";
    options.watchdog_iterations = 120;
    options.solve.threads = threads;
    Controller controller(net, options);
    const ChurnReport report = controller.run(parse_churn_plan(plan_spec));
    if (!reference.has_value()) {
      reference = report;
      reference_utility = controller.utility();
    } else {
      EXPECT_EQ(controller.utility(), *reference_utility);
      ASSERT_EQ(report.events.size(), reference->events.size());
      for (std::size_t i = 0; i < report.events.size(); ++i) {
        EXPECT_EQ(report.events[i].iterations,
                  reference->events[i].iterations);
        EXPECT_EQ(report.events[i].utility_after,
                  reference->events[i].utility_after);
      }
    }
  }
}

}  // namespace
