#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "gen/figure1.hpp"
#include "gen/random_instance.hpp"
#include "graph/algorithms.hpp"
#include "lp/model.hpp"
#include "stream/model.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "xform/extended_graph.hpp"
#include "xform/lp_reference.hpp"
#include "xform/penalty.hpp"

namespace {

using maxutil::stream::CommodityId;
using maxutil::stream::NodeId;
using maxutil::stream::StreamNetwork;
using maxutil::stream::Utility;
using maxutil::util::CheckError;
using maxutil::util::Rng;
using maxutil::xform::BarrierKind;
using maxutil::xform::ExtendedGraph;
using maxutil::xform::LinkKind;
using maxutil::xform::NodeKind;
using maxutil::xform::PenaltyConfig;

// a --(bw 5, c=2)--> b --(bw 6, c=1)--> t, one linear commodity.
StreamNetwork chain_network(double lambda = 3.0) {
  StreamNetwork net;
  const NodeId a = net.add_server("a", 10.0);
  const NodeId b = net.add_server("b", 20.0);
  const NodeId t = net.add_sink("t");
  const auto ab = net.add_link(a, b, 5.0);
  const auto bt = net.add_link(b, t, 6.0);
  const CommodityId j = net.add_commodity("c0", a, t, lambda, Utility::linear());
  net.enable_link(j, ab, 2.0);
  net.enable_link(j, bt, 1.0);
  return net;
}

TEST(Penalty, ReciprocalBarrier) {
  const PenaltyConfig cfg{BarrierKind::kReciprocal, 0.2};
  EXPECT_DOUBLE_EQ(maxutil::xform::penalty_value(cfg, 10.0, 0.0), 0.02);
  EXPECT_DOUBLE_EQ(maxutil::xform::penalty_value(cfg, 10.0, 8.0), 0.1);
  EXPECT_TRUE(std::isinf(maxutil::xform::penalty_value(cfg, 10.0, 10.0)));
  EXPECT_DOUBLE_EQ(maxutil::xform::penalty_derivative(cfg, 10.0, 8.0),
                   0.2 / 4.0);
}

TEST(Penalty, LogBarrier) {
  const PenaltyConfig cfg{BarrierKind::kLog, 1.0};
  EXPECT_DOUBLE_EQ(maxutil::xform::penalty_value(cfg, 10.0, 0.0), 0.0);
  EXPECT_NEAR(maxutil::xform::penalty_value(cfg, 10.0, 5.0), std::log(2.0),
              1e-12);
  EXPECT_TRUE(std::isinf(maxutil::xform::penalty_value(cfg, 10.0, 10.0)));
  EXPECT_DOUBLE_EQ(maxutil::xform::penalty_derivative(cfg, 10.0, 5.0), 0.2);
}

TEST(Penalty, InfiniteCapacityIsFree) {
  const PenaltyConfig cfg{BarrierKind::kReciprocal, 0.2};
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(maxutil::xform::penalty_value(cfg, inf, 1e9), 0.0);
  EXPECT_DOUBLE_EQ(maxutil::xform::penalty_derivative(cfg, inf, 1e9), 0.0);
}

TEST(Penalty, DerivativeMatchesFiniteDifference) {
  for (const auto kind : {BarrierKind::kReciprocal, BarrierKind::kLog}) {
    const PenaltyConfig cfg{kind, 0.3};
    const double h = 1e-7;
    for (const double z : {0.5, 3.0, 7.0, 9.0}) {
      const double fd = (maxutil::xform::penalty_value(cfg, 10.0, z + h) -
                         maxutil::xform::penalty_value(cfg, 10.0, z - h)) /
                        (2.0 * h);
      EXPECT_NEAR(maxutil::xform::penalty_derivative(cfg, 10.0, z), fd,
                  1e-4 * (1.0 + std::abs(fd)));
    }
  }
}

TEST(ExtendedGraph, NodeAndEdgeCountsMatchPaperFormula) {
  // Paper, Section 3: N nodes, M edges, J commodities become
  // N + M + J nodes and 2M + 2J edges.
  const StreamNetwork net = chain_network();
  const ExtendedGraph xg(net);
  const std::size_t n = net.node_count();
  const std::size_t m = net.link_count();
  const std::size_t j = net.commodity_count();
  EXPECT_EQ(xg.node_count(), n + m + j);
  EXPECT_EQ(xg.edge_count(), 2 * m + 2 * j);
}

TEST(ExtendedGraph, NodeKindsAndCapacities) {
  const StreamNetwork net = chain_network();
  const ExtendedGraph xg(net);
  EXPECT_EQ(xg.node_kind(0), NodeKind::kServer);
  EXPECT_DOUBLE_EQ(xg.capacity(0), 10.0);
  EXPECT_EQ(xg.node_kind(2), NodeKind::kSink);
  EXPECT_FALSE(xg.has_finite_capacity(2));

  const NodeId bw_ab = xg.bandwidth_node(0);
  EXPECT_EQ(xg.node_kind(bw_ab), NodeKind::kBandwidth);
  EXPECT_DOUBLE_EQ(xg.capacity(bw_ab), 5.0);
  EXPECT_EQ(xg.physical_link_of_bandwidth_node(bw_ab), 0u);

  const NodeId dummy = xg.dummy_source(0);
  EXPECT_EQ(xg.node_kind(dummy), NodeKind::kDummySource);
  EXPECT_FALSE(xg.has_finite_capacity(dummy));
}

TEST(ExtendedGraph, SplicedTopology) {
  const StreamNetwork net = chain_network();
  const ExtendedGraph xg(net);
  const auto& g = xg.graph();
  const NodeId bw = xg.bandwidth_node(0);
  // a -> bw(a->b) -> b replaces a -> b.
  EXPECT_TRUE(g.has_edge(0, bw));
  EXPECT_TRUE(g.has_edge(bw, 1));
  EXPECT_FALSE(g.has_edge(0, 1));
  // Dummy wiring: s-bar -> source and s-bar -> sink.
  const NodeId dummy = xg.dummy_source(0);
  EXPECT_EQ(g.tail(xg.dummy_input_link(0)), dummy);
  EXPECT_EQ(g.head(xg.dummy_input_link(0)), 0u);
  EXPECT_EQ(g.tail(xg.dummy_difference_link(0)), dummy);
  EXPECT_EQ(g.head(xg.dummy_difference_link(0)), 2u);
}

TEST(ExtendedGraph, LinkKindsBetaAndCost) {
  StreamNetwork net = chain_network();
  net.set_potential(0, 1, 0.5);  // shrink a->b by half
  const ExtendedGraph xg(net);
  const auto& g = xg.graph();
  const NodeId bw = xg.bandwidth_node(0);
  const auto processing = g.find_edge(0, bw);
  const auto transfer = g.find_edge(bw, 1);
  EXPECT_EQ(xg.link_kind(processing), LinkKind::kProcessing);
  EXPECT_EQ(xg.link_kind(transfer), LinkKind::kTransfer);
  // Processing carries the physical consumption and shrinkage; the transfer
  // hop is 1:1 with unit bandwidth spend.
  EXPECT_DOUBLE_EQ(xg.cost_rate(0, processing), 2.0);
  EXPECT_DOUBLE_EQ(xg.beta(0, processing), 0.5);
  EXPECT_DOUBLE_EQ(xg.cost_rate(0, transfer), 1.0);
  EXPECT_DOUBLE_EQ(xg.beta(0, transfer), 1.0);
  EXPECT_EQ(xg.link_kind(xg.dummy_input_link(0)), LinkKind::kDummyInput);
  EXPECT_EQ(xg.link_kind(xg.dummy_difference_link(0)),
            LinkKind::kDummyDifference);
  EXPECT_DOUBLE_EQ(xg.beta(0, xg.dummy_input_link(0)), 1.0);
}

TEST(ExtendedGraph, UsabilityRespectsCommodities) {
  Rng rng(5);
  maxutil::gen::RandomInstanceParams p;
  p.servers = 12;
  p.commodities = 2;
  p.stages = 3;
  const StreamNetwork net = maxutil::gen::random_instance(p, rng);
  const ExtendedGraph xg(net);
  // Dummy links belong to exactly one commodity.
  EXPECT_TRUE(xg.usable(0, xg.dummy_input_link(0)));
  EXPECT_FALSE(xg.usable(1, xg.dummy_input_link(0)));
  EXPECT_TRUE(xg.usable(1, xg.dummy_difference_link(1)));
  EXPECT_FALSE(xg.usable(0, xg.dummy_difference_link(1)));
  // Every usable extended edge of a commodity lies in its node set.
  for (CommodityId j = 0; j < 2; ++j) {
    const auto& nodes = xg.commodity_nodes(j);
    for (maxutil::graph::EdgeId e = 0; e < xg.edge_count(); ++e) {
      if (!xg.usable(j, e)) continue;
      EXPECT_TRUE(std::binary_search(nodes.begin(), nodes.end(),
                                     xg.graph().tail(e)));
      EXPECT_TRUE(std::binary_search(nodes.begin(), nodes.end(),
                                     xg.graph().head(e)));
    }
  }
}

TEST(ExtendedGraph, CommoditySubgraphIsDagWithDummies) {
  Rng rng(11);
  const StreamNetwork net = maxutil::gen::random_instance({}, rng);
  const ExtendedGraph xg(net);
  for (CommodityId j = 0; j < xg.commodity_count(); ++j) {
    EXPECT_TRUE(maxutil::graph::is_dag(xg.graph(), xg.commodity_filter(j)));
  }
}

TEST(ExtendedGraph, DummyDifferenceCostIsUtilityLoss) {
  const StreamNetwork net = chain_network(/*lambda=*/3.0);
  const ExtendedGraph xg(net);
  const auto diff = xg.dummy_difference_link(0);
  // Linear utility U(a) = a: Y(x) = U(3) - U(3 - x) = x.
  EXPECT_DOUBLE_EQ(xg.edge_cost(diff, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(xg.edge_cost(diff, 1.25), 1.25);
  EXPECT_DOUBLE_EQ(xg.edge_cost_derivative(diff, 2.0), 1.0);
  // All other links carry zero Y-cost.
  EXPECT_DOUBLE_EQ(xg.edge_cost(xg.dummy_input_link(0), 2.0), 0.0);
  EXPECT_DOUBLE_EQ(xg.edge_cost_derivative(0, 2.0), 0.0);
}

TEST(ExtendedGraph, DummyDifferenceCostConcaveUtility) {
  StreamNetwork net;
  const NodeId a = net.add_server("a", 10.0);
  const NodeId t = net.add_sink("t");
  const auto at = net.add_link(a, t, 10.0);
  const CommodityId j =
      net.add_commodity("c", a, t, 4.0, Utility::logarithmic());
  net.enable_link(j, at, 1.0);
  const ExtendedGraph xg(net);
  const auto diff = xg.dummy_difference_link(j);
  // Y(x) = log(5) - log(5 - x); Y'(x) = 1/(5 - x).
  EXPECT_NEAR(xg.edge_cost(diff, 2.0), std::log(5.0) - std::log(3.0), 1e-12);
  EXPECT_NEAR(xg.edge_cost_derivative(diff, 2.0), 1.0 / 3.0, 1e-12);
}

TEST(ExtendedGraph, PenaltyDelegatesToBarrier) {
  const StreamNetwork net = chain_network();
  PenaltyConfig cfg;
  cfg.epsilon = 0.5;
  const ExtendedGraph xg(net, cfg);
  EXPECT_DOUBLE_EQ(xg.node_penalty(0, 8.0), 0.5 / 2.0);
  EXPECT_DOUBLE_EQ(xg.node_penalty_derivative(0, 8.0), 0.5 / 4.0);
  EXPECT_DOUBLE_EQ(xg.node_penalty(xg.dummy_source(0), 100.0), 0.0);
}

TEST(ExtendedGraph, LabelsAreInformative) {
  const StreamNetwork net = chain_network();
  const ExtendedGraph xg(net);
  EXPECT_EQ(xg.node_label(0), "a");
  EXPECT_NE(xg.node_label(xg.bandwidth_node(0)).find("bw("), std::string::npos);
  EXPECT_NE(xg.node_label(xg.dummy_source(0)).find("dummy"), std::string::npos);
}

// --- LP reference ---

TEST(LpReference, ChainBottleneckIsLambda) {
  // lambda = 3 is below every network limit: admit all.
  const StreamNetwork net = chain_network(3.0);
  const ExtendedGraph xg(net);
  const auto ref = maxutil::xform::solve_reference(xg);
  ASSERT_EQ(ref.status, maxutil::lp::LpStatus::kOptimal);
  EXPECT_NEAR(ref.optimal_utility, 3.0, 1e-7);
  EXPECT_NEAR(ref.admitted[0], 3.0, 1e-7);
}

TEST(LpReference, ChainBottleneckIsBandwidth) {
  // lambda = 100: binding limit is the a->b bandwidth (5) and node a
  // capacity 10 with c=2 (also 5): admit 5.
  const StreamNetwork net = chain_network(100.0);
  const ExtendedGraph xg(net);
  const auto ref = maxutil::xform::solve_reference(xg);
  ASSERT_EQ(ref.status, maxutil::lp::LpStatus::kOptimal);
  EXPECT_NEAR(ref.optimal_utility, 5.0, 1e-7);
}

TEST(LpReference, ShrinkageChangesBottleneck) {
  // With g_b = 0.5, g_t = 1.5: bandwidth ab carries 0.5x <= 5 -> x <= 10;
  // node a: 2x <= 10 -> x <= 5; node b: 0.5x <= 20; bw bt: 1.5x <= 6 ->
  // x <= 4. Optimal admitted = 4.
  StreamNetwork net = chain_network(100.0);
  net.set_potential(0, 1, 0.5);
  net.set_potential(0, 2, 1.5);
  const ExtendedGraph xg(net);
  const auto ref = maxutil::xform::solve_reference(xg);
  ASSERT_EQ(ref.status, maxutil::lp::LpStatus::kOptimal);
  EXPECT_NEAR(ref.admitted[0], 4.0, 1e-7);
}

TEST(LpReference, NodeUsageRespectsCapacities) {
  Rng rng(31);
  const StreamNetwork net = maxutil::gen::random_instance({}, rng);
  const ExtendedGraph xg(net);
  const auto ref = maxutil::xform::solve_reference(xg);
  ASSERT_EQ(ref.status, maxutil::lp::LpStatus::kOptimal);
  for (NodeId v = 0; v < xg.node_count(); ++v) {
    if (xg.has_finite_capacity(v)) {
      EXPECT_LE(ref.node_usage[v], xg.capacity(v) + 1e-6);
    }
  }
  for (CommodityId j = 0; j < xg.commodity_count(); ++j) {
    EXPECT_GE(ref.admitted[j], -1e-9);
    EXPECT_LE(ref.admitted[j], xg.lambda(j) + 1e-9);
  }
}

TEST(LpReference, WeightedLinearPrefersHeavyCommodity) {
  // Two commodities compete for one unit-cost relay of capacity 10; the
  // weight-2 commodity takes everything.
  StreamNetwork net;
  const NodeId a1 = net.add_server("a1", 100.0);
  const NodeId a2 = net.add_server("a2", 100.0);
  const NodeId m = net.add_server("m", 10.0);
  const NodeId t1 = net.add_sink("t1");
  const NodeId t2 = net.add_sink("t2");
  const auto a1m = net.add_link(a1, m, 1000.0);
  const auto a2m = net.add_link(a2, m, 1000.0);
  const auto mt1 = net.add_link(m, t1, 1000.0);
  const auto mt2 = net.add_link(m, t2, 1000.0);
  const CommodityId c1 =
      net.add_commodity("c1", a1, t1, 20.0, Utility::linear(1.0));
  const CommodityId c2 =
      net.add_commodity("c2", a2, t2, 20.0, Utility::linear(2.0));
  net.enable_link(c1, a1m, 1.0);
  net.enable_link(c1, mt1, 1.0);
  net.enable_link(c2, a2m, 1.0);
  net.enable_link(c2, mt2, 1.0);
  const ExtendedGraph xg(net);
  const auto ref = maxutil::xform::solve_reference(xg);
  ASSERT_EQ(ref.status, maxutil::lp::LpStatus::kOptimal);
  // m spends 1 per unit on each: x1 + x2 <= 10, maximize x1 + 2*x2.
  EXPECT_NEAR(ref.admitted[c2], 10.0, 1e-6);
  EXPECT_NEAR(ref.admitted[c1], 0.0, 1e-6);
  EXPECT_NEAR(ref.optimal_utility, 20.0, 1e-6);
}

TEST(LpReference, LogUtilitySplitsBottleneckEvenly) {
  StreamNetwork net;
  const NodeId a1 = net.add_server("a1", 100.0);
  const NodeId a2 = net.add_server("a2", 100.0);
  const NodeId m = net.add_server("m", 10.0);
  const NodeId t1 = net.add_sink("t1");
  const NodeId t2 = net.add_sink("t2");
  const auto a1m = net.add_link(a1, m, 1000.0);
  const auto a2m = net.add_link(a2, m, 1000.0);
  const auto mt1 = net.add_link(m, t1, 1000.0);
  const auto mt2 = net.add_link(m, t2, 1000.0);
  const CommodityId c1 =
      net.add_commodity("c1", a1, t1, 20.0, Utility::logarithmic());
  const CommodityId c2 =
      net.add_commodity("c2", a2, t2, 20.0, Utility::logarithmic());
  net.enable_link(c1, a1m, 1.0);
  net.enable_link(c1, mt1, 1.0);
  net.enable_link(c2, a2m, 1.0);
  net.enable_link(c2, mt2, 1.0);
  const ExtendedGraph xg(net);
  maxutil::xform::ReferenceOptions opts;
  opts.pwl_segments = 400;
  const auto ref = maxutil::xform::solve_reference(xg, opts);
  ASSERT_EQ(ref.status, maxutil::lp::LpStatus::kOptimal);
  EXPECT_NEAR(ref.admitted[c1], 5.0, 0.1);
  EXPECT_NEAR(ref.admitted[c2], 5.0, 0.1);
  EXPECT_NEAR(ref.optimal_utility, 2.0 * std::log(6.0), 1e-2);
}

TEST(LpReference, FlowsSatisfyShrinkageBalance) {
  Rng rng(77);
  maxutil::gen::RandomInstanceParams p;
  p.servers = 15;
  p.commodities = 2;
  p.stages = 3;
  const StreamNetwork net = maxutil::gen::random_instance(p, rng);
  const ExtendedGraph xg(net);
  const auto ref = maxutil::xform::solve_reference(xg);
  ASSERT_EQ(ref.status, maxutil::lp::LpStatus::kOptimal);
  const auto& g = xg.graph();
  for (CommodityId j = 0; j < xg.commodity_count(); ++j) {
    std::vector<double> in(xg.node_count(), 0.0), out(xg.node_count(), 0.0);
    for (const auto& [e, y] : ref.flows[j]) {
      out[g.tail(e)] += y;
      in[g.head(e)] += xg.beta(j, e) * y;
    }
    for (const NodeId v : xg.commodity_nodes(j)) {
      if (v == xg.sink(j)) continue;
      const double r = (v == xg.dummy_source(j)) ? xg.lambda(j) : 0.0;
      EXPECT_NEAR(out[v], in[v] + r, 1e-6) << "node " << v;
    }
  }
}

TEST(LpReference, Figure1InstanceSolves) {
  const StreamNetwork net = maxutil::gen::figure1_example();
  const ExtendedGraph xg(net);
  const auto ref = maxutil::xform::solve_reference(xg);
  ASSERT_EQ(ref.status, maxutil::lp::LpStatus::kOptimal);
  // lambda = 10 per stream and ample capacity: everything admitted.
  EXPECT_NEAR(ref.admitted[0], 10.0, 1e-6);
  EXPECT_NEAR(ref.admitted[1], 10.0, 1e-6);
}

}  // namespace
