// Tests for the hierarchical federation + pub/sub serving layer (src/fed/).
//
// The load-bearing contracts:
//   * subtree shard plans partition the global tree's sensors exactly, and
//     shard scenarios keep global node ids while restricting topology;
//   * a lossless-tree federated run is bit-identical in its global
//     estimates to a single-engine run over the whole deployment;
//   * coordinator merging is order-invariant for every registry aggregate
//     (any permutation of gateway roots yields bit-identical answers);
//   * the broker dedups identical subscriptions into ONE computation group
//     (one window instance, one merge chain per epoch), and a group dies
//     only when its last subscriber leaves;
//   * per-gateway dynamics stay scoped to the gateway's shard;
//   * Threads(1) == Threads(N) RunTrials determinism holds for federations;
//   * malformed federation configs die fast with descriptive messages.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "agg/query_set.h"
#include "api/experiment.h"
#include "fed/broker.h"
#include "fed/coordinator.h"
#include "fed/federated_experiment.h"
#include "fed/sharding.h"
#include "obs/telemetry.h"
#include "util/hash.h"
#include "window/window.h"
#include "workload/dynamics.h"
#include "workload/scenario.h"

namespace td {
namespace {

uint64_t LightReading(NodeId node, uint32_t epoch) {
  return node * 3 + epoch % 5;
}

double RealLight(NodeId node, uint32_t epoch) {
  return static_cast<double>(LightReading(node, epoch));
}

std::vector<NodeId> GlobalSensors(const Scenario& sc) {
  std::vector<NodeId> sensors;
  for (NodeId v = 0; v < sc.deployment.size(); ++v) {
    if (sc.tree.InTree(v) && v != sc.base()) sensors.push_back(v);
  }
  return sensors;
}

// --------------------------------------------------------------- sharding

TEST(ShardingTest, SubtreePlanPartitionsTheGlobalSensors) {
  const Scenario sc = MakeSyntheticScenario(11, 200);
  const ShardPlan plan = PlanSubtreeShards(sc, 4);
  ValidateShardPlan(sc, plan);  // must not die
  ASSERT_EQ(plan.shards.size(), 4u);

  std::vector<NodeId> merged;
  for (const std::vector<NodeId>& shard : plan.shards) {
    EXPECT_FALSE(shard.empty());
    EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end()));
    merged.insert(merged.end(), shard.begin(), shard.end());
  }
  std::sort(merged.begin(), merged.end());
  EXPECT_EQ(merged, GlobalSensors(sc));  // every sensor exactly once
}

TEST(ShardingTest, ShardScenarioKeepsGlobalIdsAndRestrictsTopology) {
  const Scenario global = MakeSyntheticScenario(12, 150);
  const ShardPlan plan = PlanSubtreeShards(global, 3);
  const Scenario shard = MakeShardScenario(global, plan.shards[0]);

  // Global deployment preserved: same node count, same base.
  EXPECT_EQ(shard.deployment.size(), global.deployment.size());
  EXPECT_EQ(shard.base(), global.base());

  // Tree membership is exactly shard ∪ {base}, and every shard edge is a
  // global tree edge (the shard trees partition the global tree's edges).
  std::set<NodeId> members(plan.shards[0].begin(), plan.shards[0].end());
  for (NodeId v = 0; v < shard.deployment.size(); ++v) {
    if (v == shard.base()) {
      EXPECT_TRUE(shard.tree.InTree(v));
    } else if (members.count(v) > 0) {
      ASSERT_TRUE(shard.tree.InTree(v));
      EXPECT_EQ(shard.tree.parent(v), global.tree.parent(v));
    } else {
      EXPECT_FALSE(shard.tree.InTree(v));
    }
  }
}

// --------------------------------------------------- lossless federation

TEST(FederationTest, LosslessTreeFederationBitMatchesSingleEngine) {
  auto queries = [](auto builder) {
    return std::move(builder.AddQuery(Query{.kind = AggregateKind::kCount})
                         .AddQuery(Query{.kind = AggregateKind::kSum})
                         .AddQuery(Query{.kind = AggregateKind::kQuantile,
                                         .quantile_p = 0.9})
                         .AddQuery(Query{.kind = AggregateKind::kUniqueCount})
                         .Reading(LightReading)
                         .RealReading(RealLight)
                         .Epochs(10));
  };
  const RunResult single = queries(Experiment::Builder().Synthetic(7, 200))
                               .Strategy(Strategy::kTag)
                               .Run();

  for (size_t gateways : {size_t{2}, size_t{4}}) {
    const FederatedResult fed =
        queries(FederatedExperiment::Builder().Synthetic(7, 200))
            .Gateways(gateways, Strategy::kTag)
            .Run();
    ASSERT_EQ(fed.global.size(), single.queries.size());
    for (size_t q = 0; q < fed.global.size(); ++q) {
      // Bit-identical, not approximately equal: the coordinator fold is
      // the single-engine fold regrouped by gateway, and every registry
      // merge is exact (integer sums, bitwise-OR sketches, canonical
      // samples, min/max).
      EXPECT_EQ(fed.global[q].estimates, single.queries[q].estimates)
          << gateways << " gateways, query " << q;
      EXPECT_EQ(fed.global[q].truths, single.queries[q].truths);
      EXPECT_EQ(fed.global[q].rms, single.queries[q].rms);
    }
    // The shard trees partition the global tree's edges, so the federated
    // radio bill is the single-engine bill, split across gateways.
    EXPECT_DOUBLE_EQ(fed.bytes_per_epoch, single.bytes_per_epoch);
  }
}

// A single engine is the one-gateway federation: gateway g of a federation
// seeded s runs exactly what an Experiment seeded Hash64(s, g) runs, down
// to every telemetry series the Experiment reports.
TEST(FederationTest, OneGatewayFederationIsASingleExperiment) {
  constexpr uint64_t kSeed = 29;
  const obs::TelemetryConfig telemetry{.trace = false};
  const std::optional<DynamicsConfig> churn = DynamicsConfig{
      .churn = ChurnConfig{.fail_rate = 0.01, .mean_downtime = 8.0}};
  for (Strategy strategy :
       {Strategy::kTag, Strategy::kSynopsisDiffusion, Strategy::kTdCoarse,
        Strategy::kTributaryDelta}) {
    for (const std::optional<DynamicsConfig>& dynamics :
         {std::optional<DynamicsConfig>(), churn}) {
      SCOPED_TRACE(std::string(StrategyName(strategy)) +
                   (dynamics ? " churn" : " static"));
      Experiment::Builder single_builder;
      single_builder.Synthetic(31, 150)
          .AddQuery(Query{.kind = AggregateKind::kCount})
          .AddQuery(Query{.kind = AggregateKind::kSum})
          .Reading(LightReading)
          .Strategy(strategy)
          .GlobalLossRate(0.1)
          .NetworkSeed(Hash64(kSeed, 0))
          .Warmup(5)
          .Epochs(40)
          .Telemetry(telemetry);
      if (dynamics) single_builder.Dynamics(*dynamics);
      const RunResult single = single_builder.Run();
      const FederatedResult fed =
          FederatedExperiment::Builder()
              .Synthetic(31, 150)
              .AddGateway({.strategy = strategy,
                           .loss = std::make_shared<GlobalLoss>(0.1),
                           .dynamics = dynamics})
              .AddQuery(Query{.kind = AggregateKind::kCount})
              .AddQuery(Query{.kind = AggregateKind::kSum})
              .Reading(LightReading)
              .NetworkSeed(kSeed)
              .Warmup(5)
              .Epochs(40)
              .Telemetry(telemetry)
              .Run();

      ASSERT_EQ(fed.global.size(), single.queries.size());
      for (size_t q = 0; q < fed.global.size(); ++q) {
        EXPECT_EQ(fed.global[q].estimates, single.queries[q].estimates);
        EXPECT_EQ(fed.global[q].truths, single.queries[q].truths);
      }
      EXPECT_EQ(fed.bytes_per_epoch, single.bytes_per_epoch);
      if (dynamics) EXPECT_GT(single.topology_repairs, 0u);
      // Every series the single engine reports, with the same value.
      ASSERT_FALSE(single.telemetry.metrics.empty());
      for (const obs::MetricRow& row : single.telemetry.metrics) {
        const auto it = std::find_if(
            fed.telemetry.metrics.begin(), fed.telemetry.metrics.end(),
            [&](const obs::MetricRow& r) { return r.name == row.name; });
        if (it == fed.telemetry.metrics.end()) {
          ADD_FAILURE() << "federation lacks " << row.name;
          continue;
        }
        EXPECT_EQ(it->value, row.value) << row.name;
      }
    }
  }
}

// Shards keep global node ids and are disjoint, so the union of the
// gateways' ring maps attributes every transmitted byte to exactly one
// ring -- also after churn repairs re-level a shard's rings.
TEST(FederationTest, PerRingSeriesCoverEveryByteUnderChurn) {
  const DynamicsConfig churn{
      .churn = ChurnConfig{.fail_rate = 0.02, .mean_downtime = 6.0}};
  FederatedExperiment::Builder b;
  b.Synthetic(37, 300);
  for (Strategy strategy :
       {Strategy::kTributaryDelta, Strategy::kTag,
        Strategy::kSynopsisDiffusion, Strategy::kTdCoarse}) {
    b.AddGateway({.strategy = strategy,
                  .loss = std::make_shared<GlobalLoss>(0.1),
                  .dynamics = churn});
  }
  const FederatedResult fed =
      b.NetworkSeed(3).Warmup(5).Epochs(40).Telemetry().Run();

  const obs::TelemetrySummary& t = fed.telemetry;
  EXPECT_GT(t.metric("dynamics.repairs"), 0.0);
  double ring_bytes = 0.0;
  int rings = 0;
  for (const obs::MetricRow& row : t.metrics) {
    const std::string& n = row.name;
    if (n.rfind("net.ring", 0) == 0 && n.size() > 6 &&
        n.compare(n.size() - 6, 6, ".bytes") == 0) {
      ring_bytes += row.value;
      ++rings;
    }
  }
  EXPECT_GT(rings, 2);
  EXPECT_GT(ring_bytes, 0.0);
  EXPECT_EQ(ring_bytes, t.metric("net.tx.bytes"));
  EXPECT_EQ(t.metric("net.tx.bytes"), fed.bytes_per_epoch * 40.0);
}

TEST(FederationTest, MixedStrategyFederationCombinesSides) {
  FederatedResult fed =
      FederatedExperiment::Builder()
          .Synthetic(21, 200)
          .AddGateway({.strategy = Strategy::kTag})
          .AddGateway({.strategy = Strategy::kSynopsisDiffusion})
          .Epochs(8)
          .Run();
  // Tree gateway contributes an exact partial, multi-path gateway an FM
  // synopsis; the combined global count must land near the truth (sketch
  // error only, lossless radios).
  ASSERT_EQ(fed.global.size(), 1u);
  for (size_t e = 0; e < fed.global[0].estimates.size(); ++e) {
    const double est = fed.global[0].estimates[e];
    const double truth = fed.global[0].truths[e];
    EXPECT_GT(est, truth * 0.3) << "epoch " << e;
    EXPECT_LT(est, truth * 3.0) << "epoch " << e;
  }
}

// ---------------------------------------------- merge-order invariance

TEST(FederationTest, CoordinatorMergeIsOrderInvariantForEveryKind) {
  const std::vector<AggregateKind> kinds = {
      AggregateKind::kCount,       AggregateKind::kSum,
      AggregateKind::kAvg,         AggregateKind::kEwma,
      AggregateKind::kMin,         AggregateKind::kMax,
      AggregateKind::kUniqueCount, AggregateKind::kQuantile,
  };
  constexpr size_t kGateways = 4;
  constexpr uint32_t kEpoch = 3;

  for (AggregateKind kind : kinds) {
    Query q = api_internal::ResolveQuery(Query{.kind = kind}, LightReading,
                                         RealLight, 0);
    // Fabricate per-gateway root states: gateway g folds the sensors with
    // id % kGateways == g, finalized at its own base -- the shape a real
    // query-set engine exports.
    std::vector<std::unique_ptr<QueryOps>> ops;
    ops.push_back(api_internal::MakeQueryOps(q));
    QuerySetAggregate qs(std::move(ops));
    std::vector<QuerySetTreePartial> partials;
    std::vector<QuerySetSynopsis> synopses;
    for (size_t g = 0; g < kGateways; ++g) {
      QuerySetTreePartial p = qs.EmptyTreePartial();
      QuerySetSynopsis s = qs.EmptySynopsis();
      for (NodeId v = 1; v <= 40; ++v) {
        if (v % kGateways != g) continue;
        qs.MergeTree(&p, qs.MakeTreePartial(v, kEpoch));
        qs.Fuse(&s, qs.MakeSynopsis(v, kEpoch));
      }
      qs.FinalizeTreePartial(&p, 0);
      partials.push_back(std::move(p));
      synopses.push_back(std::move(s));
    }

    std::vector<std::unique_ptr<QueryOps>> coord_ops;
    coord_ops.push_back(api_internal::MakeQueryOps(q));
    Coordinator coord(std::move(coord_ops));

    // All 24 permutations of the 4 gateway roots, each side combination,
    // must evaluate bit-identically.
    std::vector<size_t> perm(kGateways);
    std::iota(perm.begin(), perm.end(), size_t{0});
    bool first = true;
    double tree_ref = 0.0, syn_ref = 0.0, combined_ref = 0.0;
    do {
      FedState both = coord.MakeState();
      FedState tree_only = coord.MakeState();
      FedState syn_only = coord.MakeState();
      for (size_t g : perm) {
        coord.Merge(&both, {&partials[g], &synopses[g]});
        coord.Merge(&tree_only, {&partials[g], nullptr});
        coord.Merge(&syn_only, {nullptr, &synopses[g]});
      }
      const double tree_val = tree_only[0].Evaluate();
      const double syn_val = syn_only[0].Evaluate();
      const double combined_val = both[0].Evaluate();
      if (first) {
        tree_ref = tree_val;
        syn_ref = syn_val;
        combined_ref = combined_val;
        first = false;
      }
      EXPECT_EQ(tree_val, tree_ref) << AggregateKindName(kind);
      EXPECT_EQ(syn_val, syn_ref) << AggregateKindName(kind);
      EXPECT_EQ(combined_val, combined_ref) << AggregateKindName(kind);
    } while (std::next_permutation(perm.begin(), perm.end()));

    // Regrouping invariance: the 4-way gateway fold equals the flat fold
    // of all 40 sensors in one partial.
    QuerySetTreePartial flat = qs.EmptyTreePartial();
    for (NodeId v = 1; v <= 40; ++v) {
      qs.MergeTree(&flat, qs.MakeTreePartial(v, kEpoch));
    }
    qs.FinalizeTreePartial(&flat, 0);
    FedState flat_state = coord.MakeState();
    coord.Merge(&flat_state, {&flat, nullptr});
    EXPECT_EQ(flat_state[0].Evaluate(), tree_ref)
        << AggregateKindName(kind);
  }
}

// ------------------------------------------------------- broker dedup

TEST(BrokerTest, IdenticalSubscriptionsShareOneComputationGroup) {
  const Subscription sub{.query = 0, .window = WindowSpec::Sliding(8)};
  auto build = [&](size_t subscribers) {
    return FederatedExperiment::Builder()
        .Synthetic(31, 150)
        .Gateways(2, Strategy::kTag)
        .Subscribe(sub, subscribers)
        .Epochs(20)
        .Run();
  };
  const FederatedResult many = build(50);
  const FederatedResult one = build(1);

  // 50 identical subscriptions: ONE group, ONE window instance, ONE scope
  // merge chain per epoch -- and exactly the window work of one subscriber.
  EXPECT_EQ(many.num_subscribers, 50u);
  EXPECT_EQ(many.num_groups, 1u);
  EXPECT_EQ(many.window_instances, 1u);
  EXPECT_EQ(many.merge_chains_per_epoch, 1u);
  ASSERT_EQ(many.groups.size(), 1u);
  EXPECT_EQ(many.groups[0].subscribers, 50u);
  EXPECT_EQ(many.groups[0].window_merges, one.groups[0].window_merges);
  // Two-stacks amortized bound carries through the broker.
  EXPECT_LE(many.groups[0].window_merges, 2u * 20u);
  // Delivery still reaches everyone: one value per subscriber per epoch.
  EXPECT_EQ(many.total_deliveries, 50u * 20u);
  EXPECT_EQ(one.total_deliveries, 1u * 20u);
  EXPECT_EQ(many.groups[0].values, one.groups[0].values);
}

TEST(BrokerTest, NoDedupPaysOneChainPerSubscriber) {
  const FederatedResult fed =
      FederatedExperiment::Builder()
          .Synthetic(32, 150)
          .Gateways(2, Strategy::kTag)
          .Subscribe({.query = 0, .window = WindowSpec::Sliding(8)}, 10)
          .DedupSubscriptions(false)
          .Epochs(5)
          .Run();
  EXPECT_EQ(fed.num_subscribers, 10u);
  EXPECT_EQ(fed.num_groups, 10u);
  EXPECT_EQ(fed.window_instances, 10u);
  EXPECT_EQ(fed.merge_chains_per_epoch, 10u);
}

TEST(BrokerTest, GroupDiesOnlyWithItsLastSubscriber) {
  FederatedExperiment fed = FederatedExperiment::Builder()
                                .Synthetic(33, 150)
                                .Gateways(2, Strategy::kTag)
                                .Epochs(10)
                                .Build();
  const Subscription sub{.query = 0, .window = WindowSpec::Sliding(4)};
  const SubscriberId a = fed.broker().Subscribe(sub);
  const SubscriberId b = fed.broker().Subscribe(sub);
  EXPECT_EQ(fed.broker().num_groups(), 1u);
  EXPECT_EQ(fed.broker().window_instances(), 1u);

  fed.StepEpoch(0);
  fed.StepEpoch(1);
  fed.broker().Unsubscribe(a);
  // The co-subscriber keeps the group (and its window state) alive.
  EXPECT_EQ(fed.broker().num_groups(), 1u);
  EXPECT_EQ(fed.broker().num_subscribers(), 1u);
  fed.StepEpoch(2);
  ASSERT_EQ(fed.broker().groups().size(), 1u);
  EXPECT_EQ(fed.broker().groups()[0].values.size(), 3u);  // epochs 0..2

  fed.broker().Unsubscribe(b);
  EXPECT_EQ(fed.broker().num_groups(), 0u);
  EXPECT_EQ(fed.broker().window_instances(), 0u);
  fed.StepEpoch(3);  // delivering with no groups is a no-op
  EXPECT_EQ(fed.broker().total_deliveries(), 2u + 2u + 1u);

  // Re-subscribing starts a FRESH group: its window has no history.
  fed.broker().Subscribe(sub);
  ASSERT_EQ(fed.broker().groups().size(), 1u);
  EXPECT_TRUE(fed.broker().groups()[0].values.empty());
}

TEST(BrokerTest, GatewayScopedSubscriptionAnswersShardOnly) {
  FederatedExperiment fed = FederatedExperiment::Builder()
                                .Synthetic(34, 150)
                                .Gateways(2, Strategy::kTag)
                                .Epochs(4)
                                .Build();
  fed.broker().Subscribe({.query = 0, .gateways = {1}});
  for (uint32_t e = 0; e < 4; ++e) fed.StepEpoch(e);
  // Lossless tree count scoped to gateway 1 == that shard's size.
  const auto groups = fed.broker().groups();
  ASSERT_EQ(groups.size(), 1u);
  ASSERT_EQ(groups[0].values.size(), 4u);
  for (double v : groups[0].values) {
    EXPECT_EQ(v, static_cast<double>(fed.shards()[1].size()));
  }
}

// A scope's window evaluates in the form its gateways' sides pick: a TAG
// gateway's scope as a tree, an SD gateway's as a synopsis, and the scope
// spanning both as combined. Each windowed value equals a brute-force
// re-merge of the gateway roots over the window's epochs.
TEST(BrokerTest, MixedScopeWindowCombinesBothSides) {
  constexpr uint32_t kEpochs = 7;
  constexpr size_t kWidth = 3;
  FederatedExperiment fed =
      FederatedExperiment::Builder()
          .Synthetic(36, 160)
          .AddGateway({.strategy = Strategy::kTag})
          .AddGateway({.strategy = Strategy::kSynopsisDiffusion})
          .AddQuery({.kind = AggregateKind::kSum})
          .Reading([](NodeId v, uint32_t e) { return v % 7 + e; })
          .Epochs(kEpochs)
          .Build();
  const std::vector<std::vector<size_t>> scopes = {{0}, {1}, {}};
  for (const std::vector<size_t>& scope : scopes) {
    fed.broker().Subscribe({.query = 0,
                            .window = WindowSpec::Sliding(kWidth),
                            .gateways = scope});
  }

  // history[e][g]: gateway g's root state for the query after epoch e.
  const QueryOps& ops = fed.coordinator().ops(0);
  std::vector<std::vector<QueryRootState>> history;
  for (uint32_t e = 0; e < kEpochs; ++e) {
    fed.StepEpoch(e);
    std::vector<QueryRootState>& roots = history.emplace_back();
    for (size_t g = 0; g < fed.num_gateways(); ++g) {
      roots.emplace_back(&ops).Assign(SliceQueryRoot(
          fed.gateway_engine(g).root_state(), 0, /*query_set=*/true));
    }
    ASSERT_NE(roots[0].view().tree_partial, nullptr);
    ASSERT_EQ(roots[0].view().synopsis, nullptr);
    ASSERT_EQ(roots[1].view().tree_partial, nullptr);
    ASSERT_NE(roots[1].view().synopsis, nullptr);
  }

  enum class Form { kTree, kSynopsis, kCombined };
  auto brute = [&](const std::vector<size_t>& gateways, size_t lo, size_t hi,
                   Form form) {
    qs_internal::PayloadBox<qs_internal::TreePayloadTraits> p(&ops);
    qs_internal::PayloadBox<qs_internal::SynopsisPayloadTraits> s(&ops);
    for (size_t e = lo; e < hi; ++e) {
      for (size_t g : gateways) {
        const RootState r = history[e][g].view();
        if (r.tree_partial != nullptr) ops.MergeTree(p.get(), r.tree_partial);
        if (r.synopsis != nullptr) ops.Fuse(s.get(), r.synopsis);
      }
    }
    switch (form) {
      case Form::kTree:
        return ops.EvaluateTree(p.get());
      case Form::kSynopsis:
        return ops.EvaluateSynopsis(s.get());
      case Form::kCombined:
        break;
    }
    return ops.EvaluateCombined(p.get(), s.get());
  };

  const auto groups = fed.broker().groups();
  ASSERT_EQ(groups.size(), 3u);
  const Form forms[] = {Form::kTree, Form::kSynopsis, Form::kCombined};
  const std::vector<size_t> all = {0, 1};
  for (size_t k = 0; k < 3; ++k) {
    ASSERT_EQ(groups[k].values.size(), kEpochs);
    const std::vector<size_t>& gateways = scopes[k].empty() ? all : scopes[k];
    for (size_t e = 0; e < kEpochs; ++e) {
      const size_t lo = e + 1 >= kWidth ? e + 1 - kWidth : 0;
      EXPECT_EQ(groups[k].values[e], brute(gateways, lo, e + 1, forms[k]))
          << "scope " << k << " epoch " << e;
    }
  }
}

// ----------------------------------------------------- scoped dynamics

TEST(FederationTest, PerGatewayDynamicsStayScopedToTheShard) {
  FederatedExperiment fed =
      FederatedExperiment::Builder()
          .Synthetic(41, 200)
          .AddGateway({.strategy = Strategy::kTag,
                       .dynamics =
                           DynamicsConfig{
                               .churn = ChurnConfig{.fail_rate = 0.05,
                                                    .mean_downtime = 10.0}}})
          .AddGateway({.strategy = Strategy::kTag})
          .Epochs(30)
          .Build();
  FederatedResult r = fed.Run();

  // Every churn event lands inside gateway 0's shard.
  std::set<NodeId> shard0(fed.shards()[0].begin(), fed.shards()[0].end());
  ASSERT_NE(fed.gateway_dynamics(0), nullptr);
  EXPECT_FALSE(fed.gateway_dynamics(0)->events().empty());
  for (const DynEvent& ev : fed.gateway_dynamics(0)->events()) {
    EXPECT_TRUE(shard0.count(ev.node) > 0) << "node " << ev.node;
  }
  EXPECT_EQ(fed.gateway_dynamics(1), nullptr);

  // The static gateway is untouched: lossless exact counts, zero error.
  EXPECT_EQ(r.per_gateway[1][0].rms, 0.0);
  for (size_t e = 0; e < r.per_gateway[1][0].estimates.size(); ++e) {
    EXPECT_EQ(r.per_gateway[1][0].estimates[e],
              static_cast<double>(fed.shards()[1].size()));
  }
}

// ------------------------------------------------- sweep determinism

TEST(FederationTest, RunTrialsIsBitIdenticalForAnyThreadCount) {
  auto sweep = [](unsigned threads) {
    return FederatedExperiment::Builder()
        .Synthetic(51, 150)
        .AddGateway(
            {.strategy = Strategy::kTag,
             .loss = std::make_shared<GlobalLoss>(0.2),
             .dynamics =
                 DynamicsConfig{.churn = ChurnConfig{.fail_rate = 0.02,
                                                     .mean_downtime = 8.0}}})
        .AddGateway({.strategy = Strategy::kSynopsisDiffusion,
                     .loss = std::make_shared<GlobalLoss>(0.2)})
        .Subscribe({.query = 0, .window = WindowSpec::Sliding(6)})
        .Warmup(4)
        .Epochs(8)
        .Trials(4)
        .Threads(threads)
        .RunTrials();
  };
  const FederatedSweepResult a = sweep(1);
  const FederatedSweepResult b = sweep(4);
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (size_t t = 0; t < a.trials.size(); ++t) {
    EXPECT_EQ(a.trials[t].global[0].estimates,
              b.trials[t].global[0].estimates);
    EXPECT_EQ(a.trials[t].global[0].rms, b.trials[t].global[0].rms);
    ASSERT_EQ(a.trials[t].groups.size(), b.trials[t].groups.size());
    EXPECT_EQ(a.trials[t].groups[0].values, b.trials[t].groups[0].values);
  }
  EXPECT_EQ(a.rms.mean(), b.rms.mean());
  EXPECT_EQ(a.bytes_per_epoch.mean(), b.bytes_per_epoch.mean());
}

// ------------------------------------------------- fail-fast validation

TEST(FederationDeathTest, ZeroGatewaysDies) {
  EXPECT_DEATH(
      FederatedExperiment::Builder().Synthetic(61, 100).Epochs(1).Build(),
      "needs at least one gateway");
}

TEST(FederationDeathTest, MissingScenarioDies) {
  EXPECT_DEATH(FederatedExperiment::Builder()
                   .Gateways(2, Strategy::kTag)
                   .Epochs(1)
                   .Build(),
               "no scenario: call Synthetic");
}

TEST(FederationDeathTest, OverlappingShardsDie) {
  const Scenario sc = MakeSyntheticScenario(62, 100);
  ShardPlan plan = PlanSubtreeShards(sc, 2);
  plan.shards[1].push_back(plan.shards[0].front());  // steal a sensor
  EXPECT_DEATH(FederatedExperiment::Builder()
                   .Scenario(&sc)
                   .AddGateway({.shard = plan.shards[0]})
                   .AddGateway({.shard = plan.shards[1]})
                   .Epochs(1)
                   .Build(),
               "overlapping shards");
}

TEST(FederationDeathTest, MixedExplicitAndPlannedShardsDie) {
  const Scenario sc = MakeSyntheticScenario(63, 100);
  const ShardPlan plan = PlanSubtreeShards(sc, 2);
  EXPECT_DEATH(FederatedExperiment::Builder()
                   .Scenario(&sc)
                   .AddGateway({.shard = plan.shards[0]})
                   .AddGateway({.strategy = Strategy::kTag})  // planner
                   .Epochs(1)
                   .Build(),
               "all explicit or all planner-assigned");
}

TEST(FederationDeathTest, SubscriptionToUnknownQueryDies) {
  EXPECT_DEATH(FederatedExperiment::Builder()
                   .Synthetic(64, 100)
                   .Gateways(2, Strategy::kTag)
                   .Subscribe({.query = 7})
                   .Epochs(1)
                   .Build(),
               "unknown query");
}

TEST(FederationDeathTest, SubscriptionToUnknownGatewayDies) {
  EXPECT_DEATH(FederatedExperiment::Builder()
                   .Synthetic(65, 100)
                   .Gateways(2, Strategy::kTag)
                   .Subscribe({.query = 0, .gateways = {9}})
                   .Epochs(1)
                   .Build(),
               "unknown gateway");
}

TEST(FederationDeathTest, DecayedWindowOnNonInvertibleKindDies) {
  EXPECT_DEATH(
      FederatedExperiment::Builder()
          .Synthetic(66, 100)
          .Gateways(2, Strategy::kTag)
          .AddQuery(Query{.kind = AggregateKind::kMax})
          .Reading(LightReading)
          .Subscribe({.query = 0, .window = WindowSpec::Decayed(0.5)})
          .Epochs(1)
          .Build(),
      "EWMA windows need an invertible aggregate");
}

// Run lengths of zero name the builder call that set them.
TEST(FederationDeathTest, ZeroEpochsDies) {
  EXPECT_DEATH(FederatedExperiment::Builder()
                   .Synthetic(67, 100)
                   .Gateways(2, Strategy::kTag)
                   .Epochs(0)
                   .Run(),
               "Epochs\\(0\\): a run needs at least one measured epoch");
}

TEST(FederationDeathTest, ZeroTrialsDies) {
  EXPECT_DEATH(FederatedExperiment::Builder()
                   .Synthetic(68, 100)
                   .Gateways(2, Strategy::kTag)
                   .Epochs(1)
                   .Trials(0)
                   .RunTrials(),
               "Trials\\(0\\): a sweep needs at least one trial");
}

}  // namespace
}  // namespace td
