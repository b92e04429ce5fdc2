// Tests for the multi-query QuerySet API (agg/query_set.h, api/query.h).
//
// The load-bearing contracts:
//   * a one-query set is bit-identical to the directly constructed
//     single-aggregate engine for every strategy x registry aggregate (and
//     to the Aggregate(kind) sugar, which lowers to that engine);
//   * a width-N set matches N independent single-query runs bit-for-bit on
//     estimates (only bytes/energy differ -- headers amortize);
//   * RunTrials determinism (Threads(1) == Threads(N)) holds for query
//     sets;
//   * incompatible Builder combinations die with descriptive messages.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "agg/aggregates.h"
#include "agg/query_set.h"
#include "api/experiment.h"
#include "core/soa_td.h"
#include "net/network.h"
#include "util/stats.h"
#include "workload/dynamics.h"
#include "workload/scenario.h"

namespace td {
namespace {

uint64_t LightReading(NodeId node, uint32_t epoch) {
  return node * 3 + epoch % 5;
}

uint64_t TempReading(NodeId node, uint32_t epoch) {
  return (node * 7 + epoch) % 97;
}

struct GoldenRow {
  double value;
  size_t contributing;
  double reported;

  bool operator==(const GoldenRow& o) const {
    // Bitwise comparison: the adapter must not perturb anything.
    return value == o.value && contributing == o.contributing &&
           reported == o.reported;
  }
};

/// Runs `strategy` by constructing the class templates directly, exactly
/// as aggregate-generic code does via MakeEngine.
template <Aggregate A>
std::vector<GoldenRow> RunDirect(Strategy strategy, const Scenario& sc,
                                 std::shared_ptr<LossModel> loss,
                                 uint64_t seed, const A& agg, uint32_t epochs,
                                 double (*eval)(typename A::Result)) {
  Network net(&sc.deployment, &sc.connectivity, std::move(loss), seed);
  std::vector<GoldenRow> out;
  auto push = [&](const auto& o) {
    out.push_back(GoldenRow{eval(o.result), o.true_contributing,
                            o.reported_contributing});
  };
  switch (strategy) {
    case Strategy::kTag: {
      SoaTributaryDeltaAggregator<A> eng(
          &sc.tree, &sc.rings, &net, &agg, Mode::kTree);
      for (uint32_t e = 0; e < epochs; ++e) push(eng.RunEpoch(e));
      break;
    }
    case Strategy::kTagRetx: {
      typename SoaTributaryDeltaAggregator<A>::Options retx;
      retx.tree_extra_retransmissions = 2;
      SoaTributaryDeltaAggregator<A> eng(&sc.tree, &sc.rings, &net, &agg,
                                         Mode::kTree, retx);
      for (uint32_t e = 0; e < epochs; ++e) push(eng.RunEpoch(e));
      break;
    }
    case Strategy::kSynopsisDiffusion: {
      SoaTributaryDeltaAggregator<A> eng(
          &sc.tree, &sc.rings, &net, &agg, Mode::kMultipath);
      for (uint32_t e = 0; e < epochs; ++e) push(eng.RunEpoch(e));
      break;
    }
    case Strategy::kTributaryDelta:
    case Strategy::kTdCoarse: {
      std::unique_ptr<AdaptationPolicy> policy;
      if (strategy == Strategy::kTdCoarse) {
        policy = std::make_unique<TdCoarsePolicy>();
      } else {
        policy = std::make_unique<TdFinePolicy>();
      }
      SoaTributaryDeltaAggregator<A> eng(&sc.tree, &sc.rings, &net, &agg,
                                         std::move(policy));
      for (uint32_t e = 0; e < epochs; ++e) push(eng.RunEpoch(e));
      break;
    }
  }
  return out;
}

double Identity(double v) { return v; }

std::vector<GoldenRow> ToRows(const RunResult& r) {
  std::vector<GoldenRow> out;
  for (const EpochResult& e : r.epochs) {
    out.push_back(
        GoldenRow{e.value, e.true_contributing, e.reported_contributing});
  }
  return out;
}

constexpr uint32_t kGoldenEpochs = 20;
constexpr uint64_t kNetSeed = 91;

class QuerySetStrategyTest : public ::testing::TestWithParam<Strategy> {};
INSTANTIATE_TEST_SUITE_P(AllStrategies, QuerySetStrategyTest,
                         ::testing::ValuesIn(kAllStrategies),
                         [](const auto& info) {
                           std::string n = StrategyName(info.param);
                           if (n == "TAG+retx") return std::string("TAGretx");
                           if (n == "TD-Coarse") return std::string("TDCoarse");
                           return n;
                         });

/// One-query sets must reproduce the direct single-aggregate goldens
/// bit-identically -- and match the Aggregate(kind) sugar, which lowers to
/// the direct engine.
TEST_P(QuerySetStrategyTest, SingleQueryMatchesDirectAndSugar) {
  Scenario sc = MakeSyntheticScenario(61, 150);
  auto loss = std::make_shared<GlobalLoss>(0.2);

  struct Case {
    Query query;
    std::vector<GoldenRow> direct;
  };
  std::vector<Case> cases;
  {
    CountAggregate agg;
    cases.push_back({Query{.kind = AggregateKind::kCount},
                     RunDirect(GetParam(), sc, loss, kNetSeed, agg,
                               kGoldenEpochs, Identity)});
  }
  {
    SumAggregate agg(LightReading);
    cases.push_back({Query{.kind = AggregateKind::kSum},
                     RunDirect(GetParam(), sc, loss, kNetSeed, agg,
                               kGoldenEpochs, Identity)});
  }
  {
    AverageAggregate agg(LightReading);
    cases.push_back({Query{.kind = AggregateKind::kAvg},
                     RunDirect(GetParam(), sc, loss, kNetSeed, agg,
                               kGoldenEpochs, Identity)});
  }
  {
    ExtremumAggregate agg(ExtremumAggregate::Kind::kMax, [](NodeId v,
                                                            uint32_t e) {
      return static_cast<double>(LightReading(v, e));
    });
    cases.push_back({Query{.kind = AggregateKind::kMax},
                     RunDirect(GetParam(), sc, loss, kNetSeed, agg,
                               kGoldenEpochs, Identity)});
  }
  {
    ExtremumAggregate agg(ExtremumAggregate::Kind::kMin, [](NodeId v,
                                                            uint32_t e) {
      return static_cast<double>(LightReading(v, e));
    });
    cases.push_back({Query{.kind = AggregateKind::kMin},
                     RunDirect(GetParam(), sc, loss, kNetSeed, agg,
                               kGoldenEpochs, Identity)});
  }
  {
    UniqueCountAggregate agg(LightReading);
    cases.push_back({Query{.kind = AggregateKind::kUniqueCount},
                     RunDirect(GetParam(), sc, loss, kNetSeed, agg,
                               kGoldenEpochs, Identity)});
  }
  {
    QuantileAggregate agg(
        [](NodeId v, uint32_t e) {
          return static_cast<double>(LightReading(v, e));
        },
        0.5);
    cases.push_back({Query{.kind = AggregateKind::kQuantile},
                     RunDirect(GetParam(), sc, loss, kNetSeed, agg,
                               kGoldenEpochs, Identity)});
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(AggregateKindName(c.query.kind));
    RunResult set = Experiment::Builder()
                        .Scenario(&sc)
                        .AddQuery(c.query)
                        .Reading(LightReading)
                        .Strategy(GetParam())
                        .LossModel(loss)
                        .NetworkSeed(kNetSeed)
                        .Epochs(kGoldenEpochs)
                        .Run();
    EXPECT_EQ(ToRows(set), c.direct);

    RunResult sugar = Experiment::Builder()
                          .Scenario(&sc)
                          .Aggregate(c.query.kind)
                          .Reading(LightReading)
                          .Strategy(GetParam())
                          .LossModel(loss)
                          .NetworkSeed(kNetSeed)
                          .Epochs(kGoldenEpochs)
                          .Run();
    EXPECT_EQ(ToRows(sugar), c.direct);

    // Byte/energy accounting must agree too: a one-query set charges the
    // same payload plus the same once-per-transmission header.
    EXPECT_EQ(set.bytes_per_epoch, sugar.bytes_per_epoch);
    EXPECT_EQ(set.energy.transmissions, sugar.energy.transmissions);
    EXPECT_EQ(set.energy.packets, sugar.energy.packets);

    // Both report a one-entry per-query series with matching estimates.
    ASSERT_EQ(set.queries.size(), 1u);
    ASSERT_EQ(sugar.queries.size(), 1u);
    EXPECT_EQ(set.queries[0].estimates, sugar.queries[0].estimates);
    EXPECT_EQ(set.queries[0].rms, sugar.queries[0].rms);
  }
}

/// A width-N set must answer exactly what N independent runs answer; only
/// the byte/energy tallies (shared headers) may differ.
TEST_P(QuerySetStrategyTest, MultiQueryMatchesIndependentRuns) {
  Scenario sc = MakeSyntheticScenario(62, 150);
  auto loss = std::make_shared<GlobalLoss>(0.25);

  std::vector<Query> queries = {
      Query{.kind = AggregateKind::kCount},
      Query{.kind = AggregateKind::kSum},
      Query{.kind = AggregateKind::kAvg, .reading = TempReading},
      Query{.kind = AggregateKind::kMax},
      Query{.kind = AggregateKind::kQuantile, .quantile_p = 0.9},
  };

  auto base = [&] {
    return Experiment::Builder()
        .Scenario(&sc)
        .Reading(LightReading)
        .Strategy(GetParam())
        .LossModel(loss)
        .NetworkSeed(kNetSeed)
        .AdaptPeriod(5)
        .Epochs(kGoldenEpochs);
  };

  Experiment::Builder multi = base();
  for (const Query& q : queries) multi.AddQuery(q);
  RunResult joint = multi.Run();
  ASSERT_EQ(joint.queries.size(), queries.size());

  double independent_bytes = 0.0;
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE(joint.queries[i].name);
    RunResult solo = base().AddQuery(queries[i]).Run();
    ASSERT_EQ(solo.queries.size(), 1u);
    EXPECT_EQ(joint.queries[i].estimates, solo.queries[0].estimates);
    EXPECT_EQ(joint.queries[i].truths, solo.queries[0].truths);
    EXPECT_EQ(joint.queries[i].rms, solo.queries[0].rms);
    independent_bytes += solo.bytes_per_epoch;
  }

  // The joint run ships every payload but pays the fixed per-message
  // overhead once, so it must be strictly cheaper than the independent
  // runs combined -- the whole point of the multi-query API.
  EXPECT_LT(joint.bytes_per_epoch, independent_bytes);
  // Same transmission schedule as any one run; only payload widths differ.
  RunResult solo0 = base().AddQuery(queries[0]).Run();
  EXPECT_EQ(joint.energy.transmissions, solo0.energy.transmissions);
  // The header/payload split is consistent and headers match the
  // transmission count exactly.
  EXPECT_DOUBLE_EQ(
      joint.header_bytes_per_epoch + joint.payload_bytes_per_epoch,
      joint.bytes_per_epoch);
  EXPECT_EQ(joint.header_bytes_per_epoch, solo0.header_bytes_per_epoch);
}

TEST_P(QuerySetStrategyTest, RunTrialsDeterministicForAnyThreadCount) {
  auto sweep = [&](unsigned threads) {
    return Experiment::Builder()
        .Synthetic(63, 120)
        .AddQuery({.kind = AggregateKind::kCount})
        .AddQuery({.kind = AggregateKind::kSum})
        .AddQuery({.kind = AggregateKind::kQuantile})
        .Reading(LightReading)
        .Strategy(GetParam())
        .GlobalLossRate(0.25)
        .NetworkSeed(17)
        .AdaptPeriod(5)
        .Warmup(4)
        .Epochs(8)
        .Trials(4)
        .Threads(threads)
        .RunTrials();
  };
  SweepResult serial = sweep(1);
  SweepResult threaded = sweep(8);

  ASSERT_EQ(serial.trials.size(), 4u);
  ASSERT_EQ(threaded.trials.size(), 4u);
  for (size_t t = 0; t < serial.trials.size(); ++t) {
    SCOPED_TRACE("trial " + std::to_string(t));
    const RunResult& a = serial.trials[t];
    const RunResult& b = threaded.trials[t];
    ASSERT_EQ(a.queries.size(), 3u);
    ASSERT_EQ(b.queries.size(), 3u);
    for (size_t i = 0; i < a.queries.size(); ++i) {
      EXPECT_EQ(a.queries[i].estimates, b.queries[i].estimates);
      EXPECT_EQ(a.queries[i].rms, b.queries[i].rms);
    }
    EXPECT_EQ(a.bytes_per_epoch, b.bytes_per_epoch);
    EXPECT_EQ(a.energy.bytes, b.energy.bytes);
  }
  EXPECT_EQ(serial.rms.mean(), threaded.rms.mean());
  EXPECT_EQ(serial.estimates.mean(), threaded.estimates.mean());
}

// --------------------------------------------------- primary + series shape

TEST(QuerySetTest, PrimaryQuerySelectsReportedValue) {
  auto build = [&](size_t primary) {
    return Experiment::Builder()
        .Synthetic(64, 100)
        .AddQuery({.kind = AggregateKind::kCount})
        .AddQuery({.kind = AggregateKind::kSum})
        .Reading(LightReading)
        .Strategy(Strategy::kSynopsisDiffusion)
        .GlobalLossRate(0.2)
        .PrimaryQuery(primary)
        .Epochs(5)
        .Run();
  };
  RunResult count_primary = build(0);
  RunResult sum_primary = build(1);
  for (const EpochResult& e : count_primary.epochs) {
    ASSERT_EQ(e.query_values.size(), 2u);
    EXPECT_EQ(e.value, e.query_values[0]);
  }
  for (const EpochResult& e : sum_primary.epochs) {
    EXPECT_EQ(e.value, e.query_values[1]);
  }
  // Same engine pass either way; only the reported scalar changes.
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(count_primary.queries[i].estimates,
              sum_primary.queries[i].estimates);
  }
  // Top-level rms follows the primary query's series.
  EXPECT_EQ(count_primary.rms, count_primary.queries[0].rms);
  EXPECT_EQ(sum_primary.rms, sum_primary.queries[1].rms);
}

TEST(QuerySetTest, ScratchReusedAcrossEpochs) {
  Experiment exp = Experiment::Builder()
                       .Synthetic(65, 100)
                       .AddQuery({.kind = AggregateKind::kCount})
                       .AddQuery({.kind = AggregateKind::kAvg})
                       .Reading(LightReading)
                       .Strategy(Strategy::kTributaryDelta)
                       .GlobalLossRate(0.2)
                       .Epochs(1)
                       .Build();
  exp.engine().RunEpochs(0, 10);
  ScratchStats stats = exp.engine().scratch_stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.reuses, 9u);
}

// ----------------------------------------------------------- kQuantile

TEST(QuantileTest, LosslessTreeIsExactWhenSampleCoversNetwork) {
  // 100-node network, sample capacity >= population: the sample survives
  // intact on a lossless tree, so nearest-rank estimate == exact truth.
  for (double p : {0.1, 0.5, 0.9}) {
    RunResult r = Experiment::Builder()
                      .Synthetic(66, 100)
                      .AddQuery({.kind = AggregateKind::kQuantile,
                                 .quantile_p = p,
                                 .sample_size = 256})
                      .Reading(LightReading)
                      .Strategy(Strategy::kTag)
                      .Epochs(3)
                      .Run();
    ASSERT_EQ(r.truths.size(), 3u);
    for (size_t i = 0; i < r.epochs.size(); ++i) {
      EXPECT_DOUBLE_EQ(r.epochs[i].value, r.truths[i]) << "p=" << p;
    }
    EXPECT_EQ(r.rms, 0.0);
  }
}

TEST(QuantileTest, RegistrySugarDefaultsToMedian) {
  RunResult r = Experiment::Builder()
                    .Synthetic(67, 150)
                    .Aggregate(AggregateKind::kQuantile)
                    .Reading(LightReading)
                    .Strategy(Strategy::kSynopsisDiffusion)
                    .GlobalLossRate(0.1)
                    .Epochs(5)
                    .Run();
  ASSERT_EQ(r.truths.size(), 5u);
  ASSERT_EQ(r.queries.size(), 1u);
  EXPECT_EQ(r.queries[0].name, "Quantile");
  // A 64-sample median over ~150 readings lands within a generous band of
  // the exact median.
  for (size_t i = 0; i < r.epochs.size(); ++i) {
    EXPECT_NEAR(r.epochs[i].value, r.truths[i], 0.25 * r.truths[i] + 10.0);
  }
}

// ------------------------------------------------- fail-fast validation

TEST(QuerySetDeathTest, DynamicsWithSharedNetworkDies) {
  Scenario sc = MakeSyntheticScenario(68, 80);
  auto net = std::make_shared<Network>(&sc.deployment, &sc.connectivity,
                                       std::make_shared<GlobalLoss>(0.1), 5);
  DynamicsConfig dyn;
  dyn.churn.emplace();
  EXPECT_DEATH(Experiment::Builder()
                   .Scenario(&sc)
                   .Aggregate(AggregateKind::kCount)
                   .Network(net)
                   .Dynamics(dyn)
                   .Epochs(1)
                   .Build(),
               "Dynamics\\(\\) is incompatible with a shared Network");
}

TEST(QuerySetDeathTest, DynamicsWithFrequentItemsDies) {
  DynamicsConfig dyn;
  dyn.churn.emplace();
  EXPECT_DEATH(Experiment::Builder()
                   .Synthetic(69, 80)
                   .Aggregate(AggregateKind::kFrequentItems)
                   .Dynamics(dyn)
                   .Epochs(1)
                   .Build(),
               "does not support kFrequentItems");
}

TEST(QuerySetDeathTest, LossModelWithSharedNetworkDies) {
  Scenario sc = MakeSyntheticScenario(70, 80);
  auto net = std::make_shared<Network>(&sc.deployment, &sc.connectivity,
                                       std::make_shared<GlobalLoss>(0.1), 5);
  EXPECT_DEATH(Experiment::Builder()
                   .Scenario(&sc)
                   .Aggregate(AggregateKind::kCount)
                   .Network(net)
                   .GlobalLossRate(0.3)
                   .Epochs(1)
                   .Build(),
               "incompatible with a shared Network");
}

TEST(QuerySetDeathTest, NetworkSeedWithSharedNetworkDies) {
  Scenario sc = MakeSyntheticScenario(71, 80);
  auto net = std::make_shared<Network>(&sc.deployment, &sc.connectivity,
                                       std::make_shared<GlobalLoss>(0.1), 5);
  EXPECT_DEATH(Experiment::Builder()
                   .Scenario(&sc)
                   .Aggregate(AggregateKind::kCount)
                   .Network(net)
                   .NetworkSeed(9)
                   .Epochs(1)
                   .Build(),
               "NetworkSeed\\(\\) is incompatible with a shared Network");
}

TEST(QuerySetDeathTest, AggregateAndAddQueryDies) {
  EXPECT_DEATH(Experiment::Builder()
                   .Synthetic(72, 80)
                   .Aggregate(AggregateKind::kCount)
                   .AddQuery({.kind = AggregateKind::kSum})
                   .Reading(LightReading)
                   .Epochs(1)
                   .Build(),
               "mutually exclusive");
}

TEST(QuerySetDeathTest, FrequentItemsQueryDies) {
  EXPECT_DEATH(
      Experiment::Builder().AddQuery({.kind = AggregateKind::kFrequentItems}),
      "cannot join a query set");
}

TEST(QuerySetDeathTest, SumQueryWithoutReadingDies) {
  EXPECT_DEATH(Experiment::Builder()
                   .Synthetic(73, 80)
                   .AddQuery({.kind = AggregateKind::kSum})
                   .Epochs(1)
                   .Build(),
               "need an integer Reading");
}

}  // namespace
}  // namespace td
