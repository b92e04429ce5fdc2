// Tests for src/td: region state invariants (Properties 1-2, Observation 1,
// Lemma 1), the TD-Coarse / TD adaptation strategies, oscillation damping,
// the Tributary-Delta engine, and TAG / SD as its two pinned labellings.
#include <gtest/gtest.h>

#include <memory>

#include "agg/aggregates.h"
#include "api/experiment.h"
#include "core/soa_td.h"
#include "net/network.h"
#include "td/adaptation.h"
#include "td/region_state.h"
#include "util/stats.h"
#include "workload/dynamics.h"
#include "workload/scenario.h"

namespace td {
namespace {

// ------------------------------------------------------------ RegionState

class RegionStateTest : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, RegionStateTest, ::testing::Values(1, 2, 3));

TEST_P(RegionStateTest, InitialStateIsPureTree) {
  Scenario sc = MakeSyntheticScenario(GetParam(), 200);
  RegionState r(&sc.tree, &sc.rings);
  EXPECT_EQ(r.delta_size(), 1u);
  EXPECT_TRUE(r.IsM(sc.base()));
  EXPECT_TRUE(r.CheckInvariants());
}

TEST_P(RegionStateTest, ExpandAllGrowsOneLevelAtATime) {
  Scenario sc = MakeSyntheticScenario(GetParam(), 200);
  RegionState r(&sc.tree, &sc.rings);
  // First expansion: exactly the base station's tree children.
  size_t switched = r.ExpandAll();
  EXPECT_EQ(switched, sc.tree.children(sc.base()).size());
  EXPECT_TRUE(r.CheckInvariants());
  // Expanding until no switchable T remains must absorb every in-tree node.
  while (r.ExpandAll() > 0) {
    EXPECT_TRUE(r.CheckInvariants());
  }
  EXPECT_EQ(r.delta_size(), sc.tree.num_in_tree());
}

TEST_P(RegionStateTest, ShrinkUndoesExpand) {
  Scenario sc = MakeSyntheticScenario(GetParam(), 200);
  RegionState r(&sc.tree, &sc.rings);
  r.ExpandAll();
  r.ExpandAll();
  while (r.ShrinkAll() > 0) {
    EXPECT_TRUE(r.CheckInvariants());
  }
  EXPECT_EQ(r.delta_size(), 1u);  // back to base-only delta
}

TEST_P(RegionStateTest, Observation1) {
  // All children of a switchable M vertex are switchable T vertices.
  Scenario sc = MakeSyntheticScenario(GetParam(), 200);
  RegionState r(&sc.tree, &sc.rings);
  r.ExpandAll();
  r.ExpandAll();
  for (NodeId v : r.SwitchableMs()) {
    for (NodeId c : sc.tree.children(v)) {
      EXPECT_TRUE(r.IsSwitchableT(c));
    }
  }
}

TEST_P(RegionStateTest, Lemma1SwitchabilityAlwaysExists) {
  Scenario sc = MakeSyntheticScenario(GetParam(), 200);
  RegionState r(&sc.tree, &sc.rings);
  Rng rng(GetParam());
  // Random walk over expansion/shrink steps; at every state with T vertices
  // there is a switchable T, and with non-base M vertices a switchable M.
  for (int step = 0; step < 50; ++step) {
    size_t t_nodes = sc.tree.num_in_tree() - r.delta_size();
    if (t_nodes > 0) EXPECT_FALSE(r.SwitchableTs().empty());
    if (r.delta_size() > 1) EXPECT_FALSE(r.SwitchableMs().empty());
    if (rng.Bernoulli(0.6)) {
      auto ts = r.SwitchableTs();
      if (!ts.empty()) r.SwitchToM(ts[rng.NextBounded(ts.size())]);
    } else {
      auto ms = r.SwitchableMs();
      if (!ms.empty()) r.SwitchToT(ms[rng.NextBounded(ms.size())]);
    }
    EXPECT_TRUE(r.CheckInvariants());
  }
}

TEST_P(RegionStateTest, EdgeCorrectnessHolds) {
  // Property 1 operationally: every non-base M vertex has an M tree parent
  // (so its multi-path output always has an M receiver), and no T vertex
  // ever receives multi-path traffic (checked structurally: a T vertex's
  // children that are M would violate the crown; CheckInvariants covers
  // it). Here we verify the crown directly after random adaptation.
  Scenario sc = MakeSyntheticScenario(GetParam(), 150);
  RegionState r(&sc.tree, &sc.rings);
  r.ExpandAll();
  r.ExpandAll();
  auto ms = r.SwitchableMs();
  if (!ms.empty()) r.SwitchToT(ms[0]);
  for (NodeId v = 0; v < sc.tree.num_nodes(); ++v) {
    if (!sc.tree.InTree(v) || v == sc.base()) continue;
    if (r.IsM(v)) {
      EXPECT_TRUE(r.IsM(sc.tree.parent(v)))
          << "M vertex " << v << " must have an M parent";
    }
  }
}

TEST(RegionStateTest2, FrontierIncludesBaseOnlyWhenDeltaIsBase) {
  Scenario sc = MakeSyntheticScenario(4, 100);
  RegionState r(&sc.tree, &sc.rings);
  EXPECT_TRUE(r.IsFrontierM(sc.base()));
  r.ExpandAll();
  EXPECT_FALSE(r.IsFrontierM(sc.base()));
}

// ------------------------------------------------------------- Policies --

AdaptationFeedback MakeFeedback(double pct) {
  AdaptationFeedback f;
  f.pct_contributing = pct;      // expansion signal (lower bound)
  f.pct_contributing_raw = pct;  // shrink signal (point estimate)
  return f;
}

TEST(TdCoarsePolicyTest, ExpandsWhenStarving) {
  Scenario sc = MakeSyntheticScenario(5, 150);
  RegionState r(&sc.tree, &sc.rings);
  TdCoarsePolicy policy;
  AdaptationConfig config;
  EXPECT_EQ(policy.Adapt(MakeFeedback(0.5), config, &r), AdaptAction::kExpand);
  EXPECT_GT(r.delta_size(), 1u);
}

TEST(TdCoarsePolicyTest, ShrinksWhenWellAboveThreshold) {
  Scenario sc = MakeSyntheticScenario(6, 150);
  RegionState r(&sc.tree, &sc.rings);
  r.ExpandAll();
  r.ExpandAll();
  size_t before = r.delta_size();
  TdCoarsePolicy policy;
  AdaptationConfig config;
  EXPECT_EQ(policy.Adapt(MakeFeedback(0.99), config, &r),
            AdaptAction::kShrink);
  EXPECT_LT(r.delta_size(), before);
}

TEST(TdCoarsePolicyTest, HoldsInsideHysteresisBand) {
  Scenario sc = MakeSyntheticScenario(7, 150);
  RegionState r(&sc.tree, &sc.rings);
  r.ExpandAll();
  size_t before = r.delta_size();
  TdCoarsePolicy policy;
  AdaptationConfig config;  // threshold .9, margin .05
  EXPECT_EQ(policy.Adapt(MakeFeedback(0.92), config, &r), AdaptAction::kNone);
  EXPECT_EQ(r.delta_size(), before);
}

TEST(TdFinePolicyTest, ExpandsOnlyUnderWorstFrontier) {
  Scenario sc = MakeSyntheticScenario(8, 200);
  RegionState r(&sc.tree, &sc.rings);
  r.ExpandAll();  // base children M
  // Identify two frontier nodes with children; report one as lossy.
  std::vector<NodeId> frontier = r.FrontierMs();
  NodeId bad = kNoParent, good = kNoParent;
  for (NodeId v : frontier) {
    if (sc.tree.children(v).empty()) continue;
    if (bad == kNoParent) {
      bad = v;
    } else if (good == kNoParent) {
      good = v;
    }
  }
  ASSERT_NE(bad, kNoParent);
  ASSERT_NE(good, kNoParent);

  // Within panic_gap of the threshold, so the per-subtree fine path (not
  // the coarse network-wide fallback) is exercised.
  AdaptationFeedback f = MakeFeedback(0.7);
  f.missing_valid = true;
  f.frontier_missing[bad] = 40;
  f.frontier_missing[good] = 2;
  f.max_missing = 40;
  f.min_missing = 2;

  TdFinePolicy policy;
  AdaptationConfig config;
  EXPECT_EQ(policy.Adapt(f, config, &r), AdaptAction::kExpand);
  for (NodeId c : sc.tree.children(bad)) EXPECT_TRUE(r.IsM(c));
  for (NodeId c : sc.tree.children(good)) EXPECT_TRUE(r.IsT(c));
}

TEST(TdFinePolicyTest, ShrinksOnlyHealthiestFrontier) {
  Scenario sc = MakeSyntheticScenario(9, 200);
  RegionState r(&sc.tree, &sc.rings);
  r.ExpandAll();
  std::vector<NodeId> frontier = r.SwitchableMs();
  ASSERT_GE(frontier.size(), 2u);
  NodeId healthy = frontier[0], lossy = frontier[1];

  AdaptationFeedback f = MakeFeedback(0.99);
  f.missing_valid = true;
  f.frontier_missing[healthy] = 0;
  f.frontier_missing[lossy] = 30;
  f.max_missing = 30;
  f.min_missing = 0;

  TdFinePolicy policy;
  AdaptationConfig config;
  EXPECT_EQ(policy.Adapt(f, config, &r), AdaptAction::kShrink);
  EXPECT_TRUE(r.IsT(healthy));
  EXPECT_TRUE(r.IsM(lossy));
}

TEST(TdFinePolicyTest, FallsBackToCoarseWithoutReports) {
  Scenario sc = MakeSyntheticScenario(10, 150);
  RegionState r(&sc.tree, &sc.rings);
  TdFinePolicy policy;
  AdaptationConfig config;
  // Starving with no frontier reports (the all-T bootstrap): expand.
  EXPECT_EQ(policy.Adapt(MakeFeedback(0.1), config, &r), AdaptAction::kExpand);
  EXPECT_GT(r.delta_size(), 1u);
}

// --------------------------------------------------------------- Damping --

TEST(OscillationDamperTest, PeriodDoublesOnAlternation) {
  AdaptationConfig config;
  config.period = 10;
  OscillationDamper damper(config);
  EXPECT_EQ(damper.current_period(), 10u);
  damper.Record(9, AdaptAction::kExpand);
  damper.Record(19, AdaptAction::kShrink);
  EXPECT_EQ(damper.current_period(), 20u);
  damper.Record(39, AdaptAction::kExpand);
  EXPECT_EQ(damper.current_period(), 40u);
}

TEST(OscillationDamperTest, PeriodCapAndReset) {
  AdaptationConfig config;
  config.period = 10;
  config.max_period_scale = 4;
  OscillationDamper damper(config);
  AdaptAction actions[] = {AdaptAction::kExpand, AdaptAction::kShrink};
  uint32_t epoch = 0;
  for (int i = 0; i < 10; ++i) {
    damper.Record(epoch, actions[i % 2]);
    epoch += damper.current_period();
  }
  EXPECT_EQ(damper.current_period(), 40u);  // capped at 4x
  damper.Record(epoch, AdaptAction::kExpand);
  damper.Record(epoch + 40, AdaptAction::kExpand);  // repeated action
  EXPECT_EQ(damper.current_period(), 10u);          // reset
}

TEST(OscillationDamperTest, ShouldAdaptHonorsPeriod) {
  AdaptationConfig config;
  config.period = 10;
  OscillationDamper damper(config);
  EXPECT_FALSE(damper.ShouldAdapt(0));
  EXPECT_TRUE(damper.ShouldAdapt(9));
  damper.Record(9, AdaptAction::kExpand);
  EXPECT_FALSE(damper.ShouldAdapt(15));
  EXPECT_TRUE(damper.ShouldAdapt(19));
}

TEST(OscillationDamperTest, DampingDisabled) {
  AdaptationConfig config;
  config.period = 10;
  config.damping = false;
  OscillationDamper damper(config);
  damper.Record(9, AdaptAction::kExpand);
  damper.Record(19, AdaptAction::kShrink);
  EXPECT_EQ(damper.current_period(), 10u);
}

// ----------------------------------------------------------- TD engine --

template <typename Policy>
SoaTributaryDeltaAggregator<CountAggregate> MakeTdEngine(Scenario* sc,
                                                         Network* net,
                                                         CountAggregate* agg) {
  return SoaTributaryDeltaAggregator<CountAggregate>(
      &sc->tree, &sc->rings, net, agg, std::make_unique<Policy>());
}

TEST(TdEngineTest, PureTreeStateMatchesTreeSemantics) {
  Scenario sc = MakeSyntheticScenario(11, 200);
  Network net(&sc.deployment, &sc.connectivity,
              std::make_shared<GlobalLoss>(0.0), 5);
  CountAggregate agg;
  auto engine = MakeTdEngine<StaticPolicy>(&sc, &net, &agg);
  auto out = engine.RunEpoch(0);
  // All-T region, no loss: exact count of every reachable sensor.
  size_t reachable = sc.tree.num_in_tree() - 1;
  EXPECT_DOUBLE_EQ(out.result, static_cast<double>(reachable));
  EXPECT_EQ(out.true_contributing, reachable);
}

TEST(TdEngineTest, SaturatedDeltaMatchesMultipathRobustness) {
  Scenario sc = MakeSyntheticScenario(12, 600);
  Network net(&sc.deployment, &sc.connectivity,
              std::make_shared<GlobalLoss>(0.3), 6);
  CountAggregate agg;
  auto engine = MakeTdEngine<StaticPolicy>(&sc, &net, &agg);
  while (engine.region().ExpandAll() > 0) {
  }
  RunningStat contrib;
  for (uint32_t e = 0; e < 15; ++e) {
    contrib.Add(
        static_cast<double>(engine.RunEpoch(e).true_contributing));
  }
  EXPECT_GT(contrib.mean(), 0.85 * (sc.tree.num_in_tree() - 1));
}

TEST(TdEngineTest, CoarseAdaptationReachesThreshold) {
  Scenario sc = MakeSyntheticScenario(13, 300);
  Network net(&sc.deployment, &sc.connectivity,
              std::make_shared<GlobalLoss>(0.25), 7);
  CountAggregate agg;
  SoaTributaryDeltaAggregator<CountAggregate>::Options options;
  options.adaptation.period = 5;
  SoaTributaryDeltaAggregator<CountAggregate> engine(
      &sc.tree, &sc.rings, &net, &agg, std::make_unique<TdCoarsePolicy>(),
      options);
  RunningStat tail_contrib;
  for (uint32_t e = 0; e < 120; ++e) {
    auto out = engine.RunEpoch(e);
    if (e >= 80) tail_contrib.Add(static_cast<double>(out.true_contributing) /
                                  static_cast<double>(sc.num_sensors()));
  }
  EXPECT_GT(engine.stats().expansions, 0u);
  // After convergence the engine should be meeting (close to) the 90%
  // threshold.
  EXPECT_GT(tail_contrib.mean(), 0.8);
}

TEST(TdEngineTest, FineAdaptationTargetsLossyRegion) {
  Scenario sc = MakeSyntheticScenario(14, 400);
  Rect lossy_region{{0, 0}, {10, 10}};
  auto loss = std::make_shared<RegionalLoss>(&sc.deployment, lossy_region,
                                             0.5, 0.03);
  Network net(&sc.deployment, &sc.connectivity, loss, 8);
  CountAggregate agg;
  SoaTributaryDeltaAggregator<CountAggregate>::Options options;
  options.adaptation.period = 5;
  SoaTributaryDeltaAggregator<CountAggregate> engine(
      &sc.tree, &sc.rings, &net, &agg, std::make_unique<TdFinePolicy>(),
      options);
  for (uint32_t e = 0; e < 200; ++e) engine.RunEpoch(e);

  // Count delta membership inside vs outside the lossy region (excluding
  // base); the delta should be biased toward the lossy quadrant.
  size_t in_region_m = 0, in_region = 0, out_region_m = 0, out_region = 0;
  for (NodeId v = 1; v < sc.deployment.size(); ++v) {
    if (!sc.tree.InTree(v)) continue;
    bool inside = lossy_region.Contains(sc.deployment.position(v));
    if (inside) {
      ++in_region;
      in_region_m += engine.region().IsM(v);
    } else {
      ++out_region;
      out_region_m += engine.region().IsM(v);
    }
  }
  ASSERT_GT(in_region, 0u);
  ASSERT_GT(out_region, 0u);
  double frac_in = static_cast<double>(in_region_m) / in_region;
  double frac_out = static_cast<double>(out_region_m) / out_region;
  EXPECT_GT(frac_in, frac_out);
}

TEST(TdEngineTest, InvariantsHoldThroughoutAdaptation) {
  Scenario sc = MakeSyntheticScenario(15, 250);
  Network net(&sc.deployment, &sc.connectivity,
              std::make_shared<GlobalLoss>(0.35), 9);
  CountAggregate agg;
  SoaTributaryDeltaAggregator<CountAggregate>::Options options;
  options.adaptation.period = 3;
  SoaTributaryDeltaAggregator<CountAggregate> engine(
      &sc.tree, &sc.rings, &net, &agg, std::make_unique<TdFinePolicy>(),
      options);
  for (uint32_t e = 0; e < 60; ++e) {
    engine.RunEpoch(e);
    EXPECT_TRUE(engine.region().CheckInvariants());
  }
}

TEST(TdEngineTest, CombinedBeatsPureSchemesAtModerateLoss) {
  // The core Tributary-Delta claim in miniature: at moderate loss the
  // adapted hybrid tracks the truth at least as well as the best pure
  // scheme (Section 7.3).
  Scenario sc = MakeSyntheticScenario(16, 300);
  CountAggregate agg;
  double truth = static_cast<double>(sc.num_sensors());
  const double loss = 0.15;

  auto run_static = [&](bool saturate) {
    Network net(&sc.deployment, &sc.connectivity,
                std::make_shared<GlobalLoss>(loss), 99);
    auto engine = MakeTdEngine<StaticPolicy>(&sc, &net, &agg);
    if (saturate) {
      while (engine.region().ExpandAll() > 0) {
      }
    }
    std::vector<double> est;
    for (uint32_t e = 0; e < 40; ++e) est.push_back(engine.RunEpoch(e).result);
    return RelativeRmsError(est, truth);
  };
  auto run_td = [&] {
    Network net(&sc.deployment, &sc.connectivity,
                std::make_shared<GlobalLoss>(loss), 99);
    SoaTributaryDeltaAggregator<CountAggregate>::Options options;
    options.adaptation.period = 4;
    SoaTributaryDeltaAggregator<CountAggregate> engine(
        &sc.tree, &sc.rings, &net, &agg, std::make_unique<TdFinePolicy>(),
        options);
    // Warm-up for convergence (the paper observes ~50 epochs for TD), then
    // measure steady state.
    for (uint32_t e = 0; e < 150; ++e) engine.RunEpoch(e);
    std::vector<double> est;
    for (uint32_t e = 150; e < 200; ++e) {
      est.push_back(engine.RunEpoch(e).result);
    }
    return RelativeRmsError(est, truth);
  };

  double tree_rms = run_static(false);
  double mp_rms = run_static(true);
  double td_rms = run_td();
  EXPECT_LT(td_rms, std::max(tree_rms, mp_rms));
  // And it should be competitive with the better of the two (the threshold
  // targets 90% contributing, so up to ~10% communication error is within
  // contract; allow 2x of the best pure scheme).
  EXPECT_LT(td_rms, 2.0 * std::min(tree_rms, mp_rms));
}

// ------------------------------------- TAG and SD: TD's two labellings --

using CountKernel = SoaTributaryDeltaAggregator<CountAggregate>;

/// Runs two kernels on twin networks (same loss, same seed) for `epochs`
/// epochs and expects bit-identical answers and contributor counts.
void ExpectSameAnswers(CountKernel* a, CountKernel* b, uint32_t epochs) {
  for (uint32_t e = 0; e < epochs; ++e) {
    auto oa = a->RunEpoch(e);
    auto ob = b->RunEpoch(e);
    EXPECT_EQ(oa.result, ob.result) << "epoch " << e;
    EXPECT_EQ(oa.true_contributing, ob.true_contributing) << "epoch " << e;
    EXPECT_EQ(oa.reported_contributing, ob.reported_contributing)
        << "epoch " << e;
  }
}

TEST(TdLabellingTest, ExpandedStaticRegionIsSdPlusPiggyback) {
  Scenario sc = MakeSyntheticScenario(17, 300);
  auto loss = std::make_shared<GlobalLoss>(0.2);
  Network td_net(&sc.deployment, &sc.connectivity, loss, 31);
  Network sd_net(&sc.deployment, &sc.connectivity, loss, 31);
  CountAggregate agg;
  auto td = MakeTdEngine<StaticPolicy>(&sc, &td_net, &agg);
  while (td.region().ExpandAll() > 0) {
  }
  CountKernel sd(&sc.tree, &sc.rings, &sd_net, &agg, Mode::kMultipath);
  EXPECT_EQ(td.region().delta_size(), sd.region().delta_size());
  ExpectSameAnswers(&td, &sd, 20);
  // Same broadcasts; each carries the 2 x 8-byte frontier max/min.
  const EnergyStats td_e = td_net.total_energy();
  const EnergyStats sd_e = sd_net.total_energy();
  EXPECT_EQ(td_e.transmissions, sd_e.transmissions);
  EXPECT_EQ(td_e.bytes, sd_e.bytes + 16 * sd_e.transmissions);
}

TEST(TdLabellingTest, InitialAllTreeRegionIsTagAtZeroLoss) {
  Scenario sc = MakeSyntheticScenario(18, 300);
  auto loss = std::make_shared<GlobalLoss>(0.0);
  Network td_net(&sc.deployment, &sc.connectivity, loss, 32);
  Network tag_net(&sc.deployment, &sc.connectivity, loss, 32);
  CountAggregate agg;
  auto td = MakeTdEngine<StaticPolicy>(&sc, &td_net, &agg);
  CountKernel tag(&sc.tree, &sc.rings, &tag_net, &agg, Mode::kTree);
  ExpectSameAnswers(&td, &tag, 10);
  EXPECT_EQ(td.region().delta_size(), 1u);
  EXPECT_EQ(td_net.total_energy().transmissions,
            tag_net.total_energy().transmissions);
  EXPECT_EQ(td_net.total_energy().bytes, tag_net.total_energy().bytes);
}

TEST(TdLabellingTest, PinnedLabellingsSurviveChurnRepairs) {
  Scenario sc = MakeSyntheticScenario(23, 150);
  DynamicsConfig config;
  config.churn = ChurnConfig{
      .fail_rate = 0.03, .mean_downtime = 5.0, .max_dead_fraction = 0.5};
  config.horizon = 60;
  DynamicScenario dyn(&sc, config, 8);
  Network net(&sc.deployment, &sc.connectivity,
              std::make_shared<GlobalLoss>(0.1), 2);
  CountAggregate agg;
  CountKernel tag(&sc.tree, &sc.rings, &net, &agg, Mode::kTree);
  CountKernel sd(&sc.tree, &sc.rings, &net, &agg, Mode::kMultipath);
  size_t repairs = 0;
  for (uint32_t e = 0; e < config.horizon; ++e) {
    if (dyn.Advance(e, &net).topology_changed) {
      ++repairs;
      tag.OnTopologyChanged();
      sd.OnTopologyChanged();
    }
    tag.RunEpoch(e);
    sd.RunEpoch(e);
  }
  size_t rejoins = 0;
  for (const DynEvent& ev : dyn.events()) {
    rejoins += ev.kind == DynEventKind::kRejoin && ev.epoch < config.horizon;
  }
  ASSERT_GT(repairs, 0u);
  ASSERT_GT(rejoins, 0u);
  for (NodeId v = 1; v < sc.deployment.size(); ++v) {
    if (!sc.tree.InTree(v)) continue;
    EXPECT_TRUE(tag.region().IsT(v)) << v;
    EXPECT_TRUE(sd.region().IsM(v)) << v;
  }
  EXPECT_EQ(tag.region().delta_size(), 1u);
  EXPECT_EQ(sd.region().delta_size(), sc.tree.num_in_tree());
  EXPECT_TRUE(sd.region().CheckInvariants());
}

TEST(TdLabellingTest, PinnedEnginesExposeNoRegionOrStats) {
  for (Strategy s : {Strategy::kTag, Strategy::kTagRetx,
                     Strategy::kSynopsisDiffusion}) {
    DynamicsConfig config;
    config.churn = ChurnConfig{
        .fail_rate = 0.03, .mean_downtime = 5.0, .max_dead_fraction = 0.5};
    Experiment exp = Experiment::Builder()
                         .Synthetic(5, 200)
                         .Aggregate(AggregateKind::kCount)
                         .Strategy(s)
                         .GlobalLossRate(0.3)
                         .Dynamics(config)
                         .AdaptPeriod(2)
                         .Epochs(40)
                         .Build();
    for (uint32_t e = 0; e < 40; ++e) exp.StepEpoch(e);
    const Engine& engine = exp.engine();
    EXPECT_EQ(engine.stats().decisions, 0u) << StrategyName(s);
    EXPECT_EQ(engine.stats().expansions, 0u) << StrategyName(s);
    EXPECT_EQ(engine.stats().shrinks, 0u) << StrategyName(s);
    EXPECT_EQ(engine.region(), nullptr) << StrategyName(s);
    EXPECT_EQ(engine.delta_size(), 0u) << StrategyName(s);
  }
}

}  // namespace
}  // namespace td
