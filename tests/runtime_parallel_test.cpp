// Tests for the parallel deterministic runtime: thread-pool semantics,
// flat-inbox ordering, payload-pool recycling, and bit-identical results
// across thread counts and against golden trajectories recorded from the
// runtime's earlier delivery paths.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/routing.hpp"
#include "gen/figure1.hpp"
#include "gen/random_instance.hpp"
#include "sim/distributed_gradient.hpp"
#include "sim/runtime.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "xform/extended_graph.hpp"

namespace {

using maxutil::sim::Actor;
using maxutil::sim::ActorId;
using maxutil::sim::DistributedGradientSystem;
using maxutil::sim::Message;
using maxutil::sim::Outbox;
using maxutil::sim::QuietResult;
using maxutil::sim::QuietStatus;
using maxutil::sim::Runtime;
using maxutil::sim::RuntimeOptions;
using maxutil::util::CheckError;
using maxutil::util::Rng;
using maxutil::util::ThreadPool;
using maxutil::xform::ExtendedGraph;

RuntimeOptions threaded(std::size_t threads) {
  RuntimeOptions options;
  options.num_threads = threads;
  options.serial_cutoff = 0;  // exercise the parallel path even when tiny
  return options;
}

TEST(ThreadPool, RunsEveryChunkExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::vector<std::atomic<int>> hits(100);
  pool.run_chunks(hits.size(), [&](std::size_t worker, std::size_t chunk) {
    EXPECT_LT(worker, 4u);
    hits[chunk].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int job = 0; job < 50; ++job) {
    pool.run_chunks(7, [&](std::size_t, std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 50 * 7);
}

TEST(ThreadPool, SerialFallbackWithoutWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  int sum = 0;  // no synchronization needed: everything runs inline
  pool.run_chunks(5, [&](std::size_t worker, std::size_t chunk) {
    EXPECT_EQ(worker, 0u);
    sum += static_cast<int>(chunk);
  });
  EXPECT_EQ(sum, 0 + 1 + 2 + 3 + 4);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.run_chunks(32,
                      [&](std::size_t, std::size_t chunk) {
                        if (chunk % 2 == 0) throw std::runtime_error("boom");
                      }),
      std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<int> ok{0};
  pool.run_chunks(8, [&](std::size_t, std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 8);
}

/// Sends `count` messages to a fixed target in the first round, tagged with
/// the send sequence number.
class Sprayer : public Actor {
 public:
  Sprayer(ActorId target, int count) : target_(target), count_(count) {}
  void on_round(Outbox& out, std::span<const Message> inbox) override {
    (void)inbox;
    if (sent_) return;
    sent_ = true;
    for (int i = 0; i < count_; ++i) {
      out.send(target_, i, 0, {static_cast<double>(i)});
    }
  }

 private:
  ActorId target_;
  int count_;
  bool sent_ = false;
};

/// Records the (from, tag) sequence of every message it ever receives.
class Collector : public Actor {
 public:
  void on_round(Outbox& out, std::span<const Message> inbox) override {
    (void)out;
    for (const Message& m : inbox) {
      seen_.emplace_back(m.from, m.tag);
      EXPECT_EQ(m.payload.size(), 1u);
      EXPECT_DOUBLE_EQ(m.payload[0], static_cast<double>(m.tag));
    }
  }
  const std::vector<std::pair<ActorId, int>>& seen() const { return seen_; }

 private:
  std::vector<std::pair<ActorId, int>> seen_;
};

/// The flat counting-sort inbox must deliver grouped by recipient in
/// (sender actor id, send order) sequence — for every thread count.
TEST(ParallelRuntime, InboxOrderedBySenderThenSendSequence) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Runtime rt(threaded(threads));
    constexpr int kSenders = 9;
    constexpr int kPerSender = 3;
    for (int s = 0; s < kSenders; ++s) {
      rt.add_actor(std::make_unique<Sprayer>(kSenders, kPerSender));
    }
    const ActorId sink = rt.add_actor(std::make_unique<Collector>());
    rt.run_round();  // sprayers emit
    rt.run_round();  // collector drains
    ASSERT_TRUE(rt.quiet());
    const auto& collector = dynamic_cast<const Collector&>(rt.actor(sink));
    ASSERT_EQ(collector.seen().size(),
              static_cast<std::size_t>(kSenders * kPerSender));
    std::size_t i = 0;
    for (ActorId s = 0; s < kSenders; ++s) {
      for (int k = 0; k < kPerSender; ++k, ++i) {
        EXPECT_EQ(collector.seen()[i].first, s) << "thread count " << threads;
        EXPECT_EQ(collector.seen()[i].second, k);
      }
    }
    EXPECT_EQ(rt.delivered_messages(),
              static_cast<std::size_t>(kSenders * kPerSender));
  }
}

/// An actor that never stops chattering to itself — run_until_quiet can
/// never succeed.
class Chatter : public Actor {
 public:
  void on_round(Outbox& out, std::span<const Message> inbox) override {
    (void)inbox;
    out.send(0, 0, 0, {1.0});
  }
};

TEST(ParallelRuntime, RunUntilQuietStrictnessKnob) {
  Runtime rt;
  rt.add_actor(std::make_unique<Chatter>());
  rt.run_round();
  // Non-strict: the budget is observable instead of fatal, and the result
  // names the failure mode instead of leaving quiet() inference to callers.
  const QuietResult result = rt.run_until_quiet(50, /*strict=*/false);
  EXPECT_EQ(result.rounds, 50u);
  EXPECT_EQ(result.status, QuietStatus::kRoundLimit);
  EXPECT_FALSE(result.quiet());
  EXPECT_FALSE(rt.quiet());
  // Strict (the default) aborts once the budget is exhausted.
  EXPECT_THROW(rt.run_until_quiet(50), CheckError);
}

/// Bit-identical allocations and utility trajectories across thread counts
/// (1, 2, 8) and across several seeds — the determinism contract of the
/// parallel runtime.
TEST(ParallelRuntime, DeterministicAcrossThreadCountsAndSeeds) {
  constexpr std::size_t kIterations = 12;
  for (const std::uint64_t seed : {2007ull, 11ull, 42ull}) {
    Rng rng(seed);
    const auto net = maxutil::gen::random_instance({}, rng);
    const ExtendedGraph xg(net);

    // Serial (one-shard) reference trajectory.
    DistributedGradientSystem reference(xg);
    std::vector<double> reference_utilities;
    for (std::size_t i = 0; i < kIterations; ++i) {
      reference.iterate();
      reference_utilities.push_back(reference.utility());
    }
    const auto reference_routing = reference.routing_snapshot();

    // Every thread count must replay the serial trajectory exactly — the
    // partition must be invisible in every output.
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      DistributedGradientSystem parallel(xg, {}, threaded(threads));
      for (std::size_t i = 0; i < kIterations; ++i) {
        parallel.iterate();
        EXPECT_EQ(parallel.utility(), reference_utilities[i])
            << threads << " threads diverged at iteration " << i << ", seed "
            << seed;
      }
      EXPECT_EQ(parallel.routing_snapshot().max_difference(reference_routing),
                0.0)
          << threads << " threads, seed " << seed;
      EXPECT_EQ(parallel.runtime().delivered_messages(),
                reference.runtime().delivered_messages());
      EXPECT_EQ(parallel.runtime().delivered_payload_doubles(),
                reference.runtime().delivered_payload_doubles());
      EXPECT_TRUE(parallel.runtime().partitioned())
          << "threaded runs must install a partition";
    }
  }
}

// --- Golden trajectories ---
//
// Reference values for the distributed gradient system, recorded as data so
// the runtime's delivery path can change without losing its reference:
// fault-free runs were recorded from the original serial delivery path (a
// per-round vector<vector<Message>> inbox rebuild), faulted runs from the
// chunked parallel stepper that drew every fault at its serial outbox
// merge. Every thread count must reproduce them bit for bit.

constexpr std::size_t kGoldenIterations = 12;

struct GoldenRecord {
  std::array<double, kGoldenIterations> utility;
  std::uint64_t phi_digest;
  std::size_t sent, delivered, dropped, payload_doubles;
  std::size_t fault_dropped, fault_duplicated, fault_delayed;
};

struct GoldenRun {
  GoldenRecord record{};
  bool partitioned = false;
};

/// FNV-1a over the bit patterns of every phi slot (little-endian bytes).
std::uint64_t phi_digest(const maxutil::core::RoutingState& routing) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (std::size_t s = 0; s < routing.slot_count(); ++s) {
    const double phi = routing.phi_slot(s);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &phi, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  }
  return hash;
}

/// Golden inputs: Figure 1, then gen::random_instance at three seeds.
maxutil::stream::StreamNetwork golden_network(std::size_t input) {
  if (input == 0) return maxutil::gen::figure1_example();
  constexpr std::uint64_t kSeeds[] = {2007, 11, 42};
  Rng rng(kSeeds[input - 1]);
  return maxutil::gen::random_instance({}, rng);
}

/// Drop 0.2, extra delay 0..3, duplicate 0.05, plus one crash window.
RuntimeOptions golden_faults(std::size_t threads) {
  RuntimeOptions options = threaded(threads);
  options.faults.drop = 0.2;
  options.faults.delay_max = 3;
  options.faults.duplicate = 0.05;
  options.faults.seed = 2007;
  options.faults.crashes.push_back({1, 40, 120});
  return options;
}

GoldenRun run_golden(const ExtendedGraph& xg, const RuntimeOptions& options) {
  DistributedGradientSystem system(xg, {}, options);
  GoldenRun run;
  GoldenRecord& r = run.record;
  for (std::size_t i = 0; i < kGoldenIterations; ++i) {
    system.iterate();
    r.utility[i] = system.utility();
  }
  r.phi_digest = phi_digest(system.routing_snapshot());
  const Runtime& rt = system.runtime();
  r.sent = rt.sent_messages();
  r.delivered = rt.delivered_messages();
  r.dropped = rt.dropped_messages();
  r.payload_doubles = rt.delivered_payload_doubles();
  r.fault_dropped = rt.fault_dropped_messages();
  r.fault_duplicated = rt.fault_duplicated_messages();
  r.fault_delayed = rt.fault_delayed_messages();
  run.partitioned = rt.partitioned();
  return run;
}

void expect_golden(const GoldenRecord& got, const GoldenRecord& want,
                   const std::string& label) {
  for (std::size_t i = 0; i < kGoldenIterations; ++i) {
    EXPECT_EQ(got.utility[i], want.utility[i])
        << label << ": utility diverged at iteration " << i;
  }
  EXPECT_EQ(got.phi_digest, want.phi_digest) << label;
  EXPECT_EQ(got.sent, want.sent) << label;
  EXPECT_EQ(got.delivered, want.delivered) << label;
  EXPECT_EQ(got.dropped, want.dropped) << label;
  EXPECT_EQ(got.payload_doubles, want.payload_doubles) << label;
  EXPECT_EQ(got.fault_dropped, want.fault_dropped) << label;
  EXPECT_EQ(got.fault_duplicated, want.fault_duplicated) << label;
  EXPECT_EQ(got.fault_delayed, want.fault_delayed) << label;
}

/// [input][0] = fault-free, [input][1] = golden_faults; inputs in
/// golden_network order.
constexpr GoldenRecord kGolden[4][2] = {
    {  // Figure 1: fault-free, faulted
      {{0x1.4781819c6327cp-4, 0x1.47817a7575704p-3, 0x1.eb422cf22a45cp-3, 0x1.47816c205619dp-2, 0x1.9961be2eaa629p-2, 0x1.eb420ca23d77bp-2, 0x1.1e912bbc9cc3cp-1, 0x1.47814f58e3b97p-1, 0x1.707171250765ep-1, 0x1.996191201aea6p-1, 0x1.c251af4930bf4p-1, 0x1.eb41cb9f5ab44p-1},
       0xd5e26c2b4f268c8bull, 750, 750, 0, 2970, 0, 0, 0},
      {{0x1.47903e4f66b2ap-4, 0x1.47903ac672214p-3, 0x1.eb50f28e5a0c8p-3, 0x1.4788d1faa5d36p-2, 0x1.99692722bd9cp-2, 0x1.eb4979c241adep-2, 0x1.1e94e3cfc8117p-1, 0x1.47850a07f0894p-1, 0x1.70752ed238cbp-1, 0x1.996553378eb0bp-1, 0x1.c255756b26372p-1, 0x1.eb4595f749ae7p-1},
       0x43615b9f76b7e0f5ull, 1166, 970, 250, 3998, 242, 54, 723},
    },
    {  // random_instance seed 2007: fault-free, faulted
      {{0x1.e6e24bf26f7d6p-4, 0x1.e822b519ef8fp-3, 0x1.6e68bcedc0a09p-2, 0x1.e8beb353d52a8p-2, 0x1.31899b627dacep-1, 0x1.6eb3200b1f78bp-1, 0x1.abdbe3f51f4ccp-1, 0x1.e903e357b3491p-1, 0x1.13158d2786076p+0, 0x1.31a8c26daf29bp+0, 0x1.503b8f6ff0e86p+0, 0x1.6ecdf210e284p+0},
       0xfb142b59bb0740beull, 2100, 2100, 0, 8316, 0, 0, 0},
      {{0x1.e7ee8e75be97ep-4, 0x1.e8ba1ad63f9p-3, 0x1.6ebdc2fa05d0ap-2, 0x1.e91807beb9e1cp-2, 0x1.31b904f8040cap-1, 0x1.6ee4d56a6a77ap-1, 0x1.ac0ecb1be18c8p-1, 0x1.e938215b73664p-1, 0x1.1330ab13e5917p+0, 0x1.31c53a40f6e77p+0, 0x1.5058e0d38438dp+0, 0x1.6eebf8a6fedaep+0},
       0x22068d97b4ef3f7bull, 2878, 2400, 611, 10018, 605, 133, 1785},
    },
    {  // random_instance seed 11: fault-free, faulted
      {{0x1.e0e55ee100472p-4, 0x1.e302f7ebf352cp-3, 0x1.6abeff5857f75p-2, 0x1.e3f16dc25fce9p-2, 0x1.2e8c262b5da58p-1, 0x1.6b198c7c78fbap-1, 0x1.a7a0a4e1b2b3fp-1, 0x1.e42126387394fp-1, 0x1.104d616e2643dp+0, 0x1.2e869426a80c8p+0, 0x1.4cbbff67012e6p+0, 0x1.6aed747bf8e69p+0},
       0xffbc5b00b7093c5full, 1900, 1900, 0, 7524, 0, 0, 0},
      {{0x1.e2258fe6f1444p-4, 0x1.e3f931be4e81bp-3, 0x1.6b51e16360cabp-2, 0x1.e48e6b953d8a2p-2, 0x1.2ee030d4cfd17p-1, 0x1.6b77af4942626p-1, 0x1.a80f0d2aa88fcp-1, 0x1.e48e8df883c8cp-1, 0x1.1086c02f438c8p+0, 0x1.2ec01672f1b1bp+0, 0x1.4cf6c9013ced7p+0, 0x1.6b27efe19ddbp+0},
       0xb739470dec20ad8eull, 3110, 2597, 655, 11003, 653, 142, 1928},
    },
    {  // random_instance seed 42: fault-free, faulted
      {{0x1.e38976793f6b3p-4, 0x1.e64d08cab0c75p-3, 0x1.6d66d06aeb4fp-2, 0x1.e7a3131d13ebp-2, 0x1.30ed8d4d6860dp-1, 0x1.6e0758b0fda5ap-1, 0x1.ab1ecef980126p-1, 0x1.e833d1346de38p-1, 0x1.12a31f00e21cp+0, 0x1.312af8a8acebep+0, 0x1.4fb1620b8a5b4p+0, 0x1.6e3645fa38a45p+0},
       0x8169a9b4da0b94afull, 2350, 2350, 0, 9306, 0, 0, 0},
      {{0x1.e4614f01919ecp-4, 0x1.e5ed4908acf67p-3, 0x1.6d22b33789adp-2, 0x1.e76210eb95838p-2, 0x1.30d02ddf5d32p-1, 0x1.6dea13dd3a5dp-1, 0x1.ab03c4852e6fap-1, 0x1.e81c1e1508b14p-1, 0x1.12987ee2c58a2p+0, 0x1.3122ce212b2c7p+0, 0x1.4faabcdb2c706p+0, 0x1.6e306a42a332p+0},
       0x65afd87170c42b80ull, 3324, 2773, 703, 11609, 695, 152, 2057},
    },
};

TEST(ParallelRuntime, GoldenTrajectoriesAcrossThreadCounts) {
  for (std::size_t input = 0; input < 4; ++input) {
    const auto net = golden_network(input);
    const ExtendedGraph xg(net);
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      const std::string label = "input " + std::to_string(input) + ", " +
                                std::to_string(threads) + " threads";
      expect_golden(run_golden(xg, threaded(threads)).record,
                    kGolden[input][0], label + ", fault-free");
      const GoldenRun faulted = run_golden(xg, golden_faults(threads));
      expect_golden(faulted.record, kGolden[input][1], label + ", faulted");
      // Threaded faulted runs are sharded like fault-free ones.
      EXPECT_EQ(faulted.partitioned, threads > 1) << label;
    }
  }
}

/// After warmup, every payload buffer must come from the recycle free list:
/// steady-state rounds perform zero per-message heap allocations — at every
/// thread count, not just serially. Cross-shard sends return each buffer to
/// the pool that issued it (exact conservation), so the shard path has no
/// warmup-resistant leak.
TEST(ParallelRuntime, PayloadPoolRecyclesInSteadyState) {
  Rng rng(2007);
  const auto net = maxutil::gen::random_instance({}, rng);
  const ExtendedGraph xg(net);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    maxutil::sim::RuntimeOptions options;
    options.num_threads = threads;
    DistributedGradientSystem system(xg, {}, options);
    system.run(4);  // warmup: free lists grow to the per-round working set

    const std::size_t allocations_after_warmup =
        system.runtime().payload_pool_allocations();
    const std::size_t reuses_after_warmup =
        system.runtime().payload_pool_reuses();
    EXPECT_GT(allocations_after_warmup, 0u);

    system.run(6);
    EXPECT_EQ(system.runtime().payload_pool_allocations(),
              allocations_after_warmup)
        << "steady-state iterations must not allocate payload buffers at "
        << threads << " thread(s)";
    EXPECT_GT(system.runtime().payload_pool_reuses(), reuses_after_warmup);
    // Every send was served by the pool: acquisitions == reuses +
    // allocations and the overwhelming majority are reuses by now.
    EXPECT_GT(system.runtime().payload_pool_reuses(),
              10 * allocations_after_warmup);
  }
}

/// The pool also recycles under threads, and failure drops recycle rather
/// than leak (exercised via counters staying consistent).
TEST(ParallelRuntime, PoolAndCountersConsistentUnderThreadsAndFailure) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Runtime rt(threaded(threads));
    constexpr int kSenders = 6;
    for (int s = 0; s < kSenders; ++s) {
      rt.add_actor(std::make_unique<Sprayer>(kSenders, 4));
    }
    rt.add_actor(std::make_unique<Collector>());
    rt.run_round();
    rt.fail(kSenders);  // kill the collector before delivery
    rt.run_until_quiet(10);
    EXPECT_TRUE(rt.quiet());
    EXPECT_EQ(rt.dropped_messages(), static_cast<std::size_t>(kSenders * 4));
    EXPECT_EQ(rt.delivered_messages(), 0u);
  }
}

/// Wall-time counters accumulate (values are host-dependent, presence and
/// monotonicity are not).
TEST(ParallelRuntime, RoundTimersAccumulate) {
  Runtime rt;
  rt.add_actor(std::make_unique<Chatter>());
  rt.run_round();
  const double after_one = rt.total_round_seconds();
  EXPECT_GE(after_one, 0.0);
  rt.run_round();
  EXPECT_GE(rt.total_round_seconds(), after_one);
  EXPECT_GE(rt.last_round_seconds(), 0.0);
}

}  // namespace
