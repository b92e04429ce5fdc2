// Unit tests for src/link: quality maps, quality-aware topology, retry
// policy wiring, fault injection, route aging, and the Experiment-level
// acceptance pins (quality-PRR-as-LossModel bit-identity, thread-count
// determinism with the full link layer on).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "api/experiment.h"
#include "link/fault_injector.h"
#include "link/link_layer.h"
#include "link/link_quality.h"
#include "link/retry_policy.h"
#include "link/route_aging.h"
#include "net/connectivity.h"
#include "net/deployment.h"
#include "net/loss_model.h"
#include "topology/rings.h"
#include "topology/tree_builder.h"
#include "workload/scenario.h"

namespace td {
namespace {

Deployment LineDeployment(size_t n, double spacing = 1.0) {
  std::vector<Point> p;
  for (size_t i = 0; i < n; ++i) {
    p.push_back(Point{spacing * static_cast<double>(i), 0.0});
  }
  return Deployment(std::move(p));
}

// Line 0-1-2-3 with range 2.5: links {01, 02, 12, 13, 23}; rings from base
// 0 are levels {0, 1, 1, 2}. Tree: 1 -> 0, 2 -> 0, 3 -> 1.
Scenario MakeLineScenario() {
  Deployment d = LineDeployment(4, 1.0);
  Connectivity c = Connectivity::FromRadioRange(d, 2.5);
  Rings r = Rings::Build(c, 0);
  Tree t(4, 0);
  t.SetParent(1, 0);
  t.SetParent(2, 0);
  t.SetParent(3, 1);
  return Scenario{std::move(d), std::move(c), std::move(r), t, t};
}

// -------------------------------------------------------- LinkQualityMap --

TEST(LinkQualityTest, PrrBoundsAndNonNeighbors) {
  Scenario sc = MakeSyntheticScenario(7, 100);
  LinkQualityParams qp;
  LinkQualityMap qm(&sc.deployment, &sc.connectivity, qp, 42);
  EXPECT_EQ(qm.num_links(), 2 * sc.connectivity.num_links());
  for (NodeId u = 0; u < sc.deployment.size(); ++u) {
    for (NodeId v : sc.connectivity.Neighbors(u)) {
      const double prr = qm.Prr(u, v);
      EXPECT_GE(prr, qp.prr_min);
      EXPECT_LE(prr, qp.prr_max);
      EXPECT_DOUBLE_EQ(qm.LossRate(u, v), 1.0 - prr);
    }
  }
  // A non-neighbor pair has no link.
  NodeId far_a = 0, far_b = 0;
  for (NodeId u = 0; u < sc.deployment.size() && far_b == 0; ++u) {
    for (NodeId v = 0; v < sc.deployment.size(); ++v) {
      if (u != v && !sc.connectivity.AreNeighbors(u, v)) {
        far_a = u;
        far_b = v;
        break;
      }
    }
  }
  EXPECT_DOUBLE_EQ(qm.Prr(far_a, far_b), 0.0);
  EXPECT_DOUBLE_EQ(qm.LinkEtx(far_a, far_b), LinkQualityMap::kNoLink);
}

TEST(LinkQualityTest, DeterministicPerSeedAndPersistent) {
  Scenario sc = MakeSyntheticScenario(7, 100);
  LinkQualityParams qp;
  LinkQualityMap a(&sc.deployment, &sc.connectivity, qp, 42);
  LinkQualityMap b(&sc.deployment, &sc.connectivity, qp, 42);
  LinkQualityMap c(&sc.deployment, &sc.connectivity, qp, 43);
  bool any_differ = false;
  for (NodeId u = 0; u < sc.deployment.size(); ++u) {
    for (NodeId v : sc.connectivity.Neighbors(u)) {
      EXPECT_DOUBLE_EQ(a.Prr(u, v), b.Prr(u, v));
      if (a.Prr(u, v) != c.Prr(u, v)) any_differ = true;
    }
  }
  EXPECT_TRUE(any_differ);  // shadowing actually depends on the seed
}

TEST(LinkQualityTest, DistanceCurveMonotoneWithoutShadowing) {
  Deployment d = LineDeployment(4, 1.0);
  Connectivity c = Connectivity::FromRadioRange(d, 2.5);
  LinkQualityParams qp;
  qp.shadowing = 0.0;
  LinkQualityMap qm(&d, &c, qp, 1);
  EXPECT_GT(qm.Prr(0, 1), qm.Prr(0, 2));  // distance 1 vs 2
  EXPECT_DOUBLE_EQ(qm.Prr(0, 1), qm.Prr(1, 0));  // symmetric geometry
}

TEST(LinkQualityTest, SymmetricShadowingAgreesBothWays) {
  Scenario sc = MakeSyntheticScenario(9, 80);
  LinkQualityParams qp;
  qp.symmetric = true;
  LinkQualityMap qm(&sc.deployment, &sc.connectivity, qp, 5);
  for (NodeId u = 0; u < sc.deployment.size(); ++u) {
    for (NodeId v : sc.connectivity.Neighbors(u)) {
      EXPECT_DOUBLE_EQ(qm.Prr(u, v), qm.Prr(v, u));
    }
  }
}

TEST(LinkQualityTest, EtxMatchesPrrProduct) {
  Scenario sc = MakeSyntheticScenario(9, 80);
  LinkQualityMap qm(&sc.deployment, &sc.connectivity, LinkQualityParams{},
                    5);
  for (NodeId v : sc.connectivity.Neighbors(0)) {
    EXPECT_DOUBLE_EQ(qm.LinkEtx(0, v),
                     1.0 / (qm.Prr(0, v) * qm.Prr(v, 0)));
    EXPECT_GE(qm.LinkEtx(0, v), 1.0);
  }
}

TEST(LinkQualityDeathTest, RejectsBadParams) {
  Deployment d = LineDeployment(3);
  Connectivity c = Connectivity::FromRadioRange(d, 1.5);
  LinkQualityParams qp;
  qp.prr_min = 0.0;
  EXPECT_DEATH(LinkQualityMap(&d, &c, qp, 1), "prr_min");
  qp = LinkQualityParams{};
  qp.prr_max = 1.3;
  EXPECT_DEATH(LinkQualityMap(&d, &c, qp, 1), "prr_max");
  qp = LinkQualityParams{};
  qp.shadowing = 1.0;
  EXPECT_DEATH(LinkQualityMap(&d, &c, qp, 1), "shadowing");
}

// ------------------------------------------------- quality-aware topology --

TEST(EtxTreeTest, RespectsRingConstraintAndMinimizesEtx) {
  Scenario sc = MakeSyntheticScenario(11, 120);
  LinkQualityMap qm(&sc.deployment, &sc.connectivity, LinkQualityParams{},
                    7);
  Tree tree = BuildEtxTree(sc.connectivity, sc.rings,
                           [&qm](NodeId child, NodeId parent) {
                             return qm.LinkEtx(child, parent);
                           });
  for (int level = 1; level <= sc.rings.max_level(); ++level) {
    for (NodeId v : sc.rings.NodesAtLevel(level)) {
      const NodeId p = tree.parent(v);
      ASSERT_NE(p, kNoParent);
      // Section 4.1: the parent is exactly one ring closer.
      EXPECT_EQ(sc.rings.level(p), level - 1);
      // Quality: no upstream candidate is strictly cheaper, and ties go to
      // the lowest id.
      const double pc = qm.LinkEtx(v, p);
      for (NodeId w : sc.rings.UpstreamNeighbors(sc.connectivity, v)) {
        const double wc = qm.LinkEtx(v, w);
        EXPECT_GE(wc, pc);
        if (wc == pc) EXPECT_GE(w, p);
      }
    }
  }
}

TEST(EtxTreeTest, DeterministicAcrossCalls) {
  Scenario sc = MakeSyntheticScenario(11, 120);
  LinkQualityMap qm(&sc.deployment, &sc.connectivity, LinkQualityParams{},
                    7);
  auto cost = [&qm](NodeId child, NodeId parent) {
    return qm.LinkEtx(child, parent);
  };
  Tree a = BuildEtxTree(sc.connectivity, sc.rings, cost);
  Tree b = BuildEtxTree(sc.connectivity, sc.rings, cost);
  for (NodeId v = 0; v < sc.deployment.size(); ++v) {
    EXPECT_EQ(a.parent(v), b.parent(v));
  }
}

TEST(RingsTest, LinkFilterReroutesBfs) {
  Deployment d = LineDeployment(4, 1.0);
  Connectivity c = Connectivity::FromRadioRange(d, 2.5);
  const std::vector<bool> all(4, true);
  // Null filter is bit-identical to the unfiltered build.
  Rings plain = Rings::Build(c, 0);
  Rings null_f = Rings::Build(c, 0, all, nullptr);
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(plain.level(v), null_f.level(v));
  EXPECT_EQ(plain.level(2), 1);
  // Rejecting 0 -> 2 pushes node 2 to level 2 (via node 1).
  Rings filtered = Rings::Build(c, 0, all, [](NodeId from, NodeId to) {
    return !(from == 0 && to == 2);
  });
  EXPECT_EQ(filtered.level(1), 1);
  EXPECT_EQ(filtered.level(2), 2);
  EXPECT_EQ(filtered.level(3), 2);
}

TEST(RepairTreeTest, EdgeFilterReparentsAroundRejectedLink) {
  Scenario sc = MakeLineScenario();
  const std::vector<bool> alive(4, true);
  // Reject the current edge 3 -> 1; node 3's other upstream candidate is 2.
  TreeRepairResult r = RepairTree(
      &sc.tree, sc.connectivity, sc.rings, alive,
      [](NodeId child, NodeId parent) {
        return !(child == 3 && parent == 1);
      });
  EXPECT_EQ(r.reattached, 1u);
  EXPECT_EQ(r.detached, 0u);
  EXPECT_EQ(sc.tree.parent(3), 2u);
}

TEST(RepairTreeTest, AllCandidatesRejectedFallsBackInsteadOfDetaching) {
  Scenario sc = MakeLineScenario();
  const std::vector<bool> alive(4, true);
  // Every upstream candidate of node 3 is rejected: a bad parent beats no
  // parent, so node 3 keeps an attachment.
  TreeRepairResult r = RepairTree(&sc.tree, sc.connectivity, sc.rings, alive,
                                  [](NodeId child, NodeId /*parent*/) {
                                    return child != 3;
                                  });
  EXPECT_EQ(r.detached, 0u);
  EXPECT_TRUE(sc.tree.InTree(3));
  const NodeId p = sc.tree.parent(3);
  EXPECT_TRUE(p == 1 || p == 2);
}

TEST(RepairTreeTest, NullFilterMatchesLegacyOverload) {
  Scenario a = MakeLineScenario();
  Scenario b = MakeLineScenario();
  std::vector<bool> alive(4, true);
  alive[1] = false;  // node 3 must re-parent; node 1 drops out
  Rings rebuilt = Rings::Build(a.connectivity, 0, alive);
  TreeRepairResult ra = RepairTree(&a.tree, a.connectivity, rebuilt, alive);
  TreeRepairResult rb =
      RepairTree(&b.tree, b.connectivity, rebuilt, alive, nullptr);
  EXPECT_EQ(ra.reattached, rb.reattached);
  EXPECT_EQ(ra.detached, rb.detached);
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(a.tree.parent(v), b.tree.parent(v));
}

// --------------------------------------------------------- fault injector --

TEST(FaultInjectorTest, WindowsAndKinds) {
  Deployment d = LineDeployment(4, 1.0);
  std::vector<LinkFault> faults = KillLinkBothWays(1, 2, 10, 20);
  LinkFault degrade;
  degrade.kind = LinkFault::Kind::kDegradeRegion;
  degrade.start_epoch = 15;
  degrade.end_epoch = 25;
  degrade.region = Rect{{0, -1}, {1.5, 1}};  // senders 0 and 1
  degrade.loss = 0.4;
  faults.push_back(degrade);
  LinkFaultInjector inj(&d, faults);

  EXPECT_DOUBLE_EQ(inj.LossRate(1, 2, 9), 0.0);    // before the window
  EXPECT_DOUBLE_EQ(inj.LossRate(1, 2, 10), 1.0);   // kill, both ways
  EXPECT_DOUBLE_EQ(inj.LossRate(2, 1, 19), 1.0);
  // Half-open end: at epoch 20 the kill has expired; only the region
  // degrade (sender 1 is inside) still applies.
  EXPECT_DOUBLE_EQ(inj.LossRate(1, 2, 20), 0.4);
  EXPECT_DOUBLE_EQ(inj.LossRate(1, 2, 25), 0.0);   // both windows closed
  EXPECT_DOUBLE_EQ(inj.LossRate(0, 1, 15), 0.4);   // region, sender inside
  EXPECT_DOUBLE_EQ(inj.LossRate(3, 2, 15), 0.0);   // sender outside, no kill
  // Overlap takes the worst rate: at epoch 15 link 1->2 has the kill (1.0)
  // and the region degrade (0.4).
  EXPECT_DOUBLE_EQ(inj.LossRate(1, 2, 15), 1.0);
}

TEST(FaultInjectorTest, ComposesViaMaxLoss) {
  Deployment d = LineDeployment(3);
  auto base = std::make_shared<GlobalLoss>(0.2);
  auto inj = std::make_shared<LinkFaultInjector>(
      &d, KillLinkBothWays(0, 1, 5, 6));
  MaxLoss combined(base, inj);
  EXPECT_DOUBLE_EQ(combined.LossRate(0, 1, 0), 0.2);
  EXPECT_DOUBLE_EQ(combined.LossRate(0, 1, 5), 1.0);
}

TEST(FaultInjectorTest, ReferenceScheduleAvoidsBaseStation) {
  Scenario sc = MakeSyntheticScenario(3, 200);
  const uint32_t horizon = 60;
  std::vector<LinkFault> faults = ReferenceFaultSchedule(sc.deployment,
                                                         horizon);
  ASSERT_EQ(faults.size(), 3u);
  const Point base_pos = sc.deployment.position(sc.base());
  for (const LinkFault& f : faults) {
    EXPECT_LT(f.start_epoch, f.end_epoch);
    EXPECT_LE(f.end_epoch, horizon);
    if (f.kind == LinkFault::Kind::kKillRegion) {
      // The barrier outage must not swallow the base station itself.
      EXPECT_FALSE(f.region.Contains(base_pos));
    }
  }
}

TEST(FaultInjectorDeathTest, RejectsBadFaults) {
  Deployment d = LineDeployment(3);
  LinkFault empty;
  empty.start_epoch = 10;
  empty.end_epoch = 10;
  EXPECT_DEATH(LinkFaultInjector(&d, {empty}), "window is empty");
  LinkFault bad_rate;
  bad_rate.kind = LinkFault::Kind::kDegradeLink;
  bad_rate.end_epoch = 5;
  bad_rate.loss = 1.5;
  EXPECT_DEATH(LinkFaultInjector(&d, {bad_rate}),
               "probability in \\[0, 1\\]");
  LinkFault region;
  region.kind = LinkFault::Kind::kKillRegion;
  region.end_epoch = 5;
  EXPECT_DEATH(LinkFaultInjector(nullptr, {region}),
               "region faults need the deployment");
}

// ------------------------------------------------------------ route aging --

TEST(RouteAgingTest, BlacklistsAfterConsecutiveFailuresAndReroutes) {
  Scenario sc = MakeLineScenario();
  RouteAgingConfig cfg;
  cfg.fail_threshold = 3;
  cfg.blacklist_epochs = 10;
  RouteAger ager(cfg, &sc);

  ager.OnUnicast(3, 1, 0, 1, false);
  ager.OnUnicast(3, 1, 0, 1, false);
  EXPECT_FALSE(ager.IsBlacklisted(3, 1, 0));
  EXPECT_EQ(ager.EndEpoch(0), 0u);
  ager.OnUnicast(3, 1, 1, 1, false);  // third in a row
  EXPECT_TRUE(ager.IsBlacklisted(3, 1, 1));
  EXPECT_EQ(ager.EndEpoch(1), 1u);
  EXPECT_EQ(sc.tree.parent(3), 2u);  // steered to the other upstream parent
  EXPECT_EQ(ager.total_reroutes(), 1u);
  // Expiry: blacklisted until epoch 1 + 10.
  EXPECT_TRUE(ager.IsBlacklisted(3, 1, 10));
  EXPECT_FALSE(ager.IsBlacklisted(3, 1, 11));
}

TEST(RouteAgingTest, DeliveryResetsTheStreak) {
  Scenario sc = MakeLineScenario();
  RouteAgingConfig cfg;
  cfg.fail_threshold = 3;
  RouteAger ager(cfg, &sc);
  ager.OnUnicast(3, 1, 0, 1, false);
  ager.OnUnicast(3, 1, 0, 1, false);
  ager.OnUnicast(3, 1, 0, 1, true);  // success wipes the streak
  ager.OnUnicast(3, 1, 1, 1, false);
  ager.OnUnicast(3, 1, 1, 1, false);
  EXPECT_FALSE(ager.IsBlacklisted(3, 1, 1));
  EXPECT_EQ(ager.EndEpoch(1), 0u);
}

TEST(RouteAgingTest, IgnoresNonParentLinks) {
  Scenario sc = MakeLineScenario();
  RouteAger ager(RouteAgingConfig{}, &sc);
  // Node 3's parent is 1; failures toward 2 say nothing about its route.
  for (int i = 0; i < 10; ++i) ager.OnUnicast(3, 2, 0, 1, false);
  EXPECT_FALSE(ager.IsBlacklisted(3, 2, 0));
  EXPECT_EQ(ager.EndEpoch(0), 0u);
  EXPECT_EQ(sc.tree.parent(3), 1u);
}

TEST(RouteAgingDeathTest, RejectsBadConfig) {
  Scenario sc = MakeLineScenario();
  RouteAgingConfig cfg;
  cfg.fail_threshold = 0;
  EXPECT_DEATH(RouteAger(cfg, &sc), "fail_threshold");
  cfg = RouteAgingConfig{};
  cfg.blacklist_epochs = 0;
  EXPECT_DEATH(RouteAger(cfg, &sc), "blacklist_epochs");
}

// ------------------------------------------- Experiment-level acceptance --

// With retries disabled the link layer is just a loss model: an experiment
// with LinkLayer() must be bit-identical to one feeding the same per-link
// rates through PerLinkLoss.
TEST(LinkLayerTest, QualityLossBitIdenticalToPerLinkLoss) {
  Scenario sc = MakeSyntheticScenario(11, 100);
  LinkLayerConfig ll;
  ll.seed = 77;
  LinkQualityMap qm(&sc.deployment, &sc.connectivity, ll.quality, ll.seed);
  auto per = std::make_shared<PerLinkLoss>(0.0);
  for (NodeId u = 0; u < sc.deployment.size(); ++u) {
    for (NodeId v : sc.connectivity.Neighbors(u)) {
      per->SetLink(u, v, qm.LossRate(u, v));
    }
  }
  RunResult a = Experiment::Builder()
                    .Scenario(&sc)
                    .Aggregate(AggregateKind::kCount)
                    .Strategy(Strategy::kTag)
                    .LinkLayer(ll)
                    .NetworkSeed(3)
                    .Warmup(5)
                    .Epochs(30)
                    .Run();
  RunResult b = Experiment::Builder()
                    .Scenario(&sc)
                    .Aggregate(AggregateKind::kCount)
                    .Strategy(Strategy::kTag)
                    .LossModel(per)
                    .NetworkSeed(3)
                    .Warmup(5)
                    .Epochs(30)
                    .Run();
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_EQ(a.epochs[i].value, b.epochs[i].value);
  }
  EXPECT_EQ(a.energy.bytes, b.energy.bytes);
  EXPECT_EQ(a.energy.transmissions, b.energy.transmissions);
  EXPECT_EQ(a.rms, b.rms);
}

// The full link layer -- ETX parents, retries, aging, scripted faults --
// stays bit-identical across RunTrials thread counts.
TEST(LinkLayerTest, TrialsDeterministicAcrossThreadCounts) {
  Scenario sc = MakeSyntheticScenario(9, 120);
  LinkLayerConfig ll;
  ll.etx_parents = true;
  ll.retry.max_attempts = 3;
  ll.aging = RouteAgingConfig{};
  ll.faults = ReferenceFaultSchedule(sc.deployment, 48);
  auto run = [&](unsigned threads) {
    return Experiment::Builder()
        .Scenario(&sc)
        .Aggregate(AggregateKind::kCount)
        .Strategy(Strategy::kTag)
        .LinkLayer(ll)
        .NetworkSeed(5)
        .Warmup(8)
        .Epochs(40)
        .Trials(4)
        .Threads(threads)
        .RunTrials();
  };
  SweepResult a = run(1);
  SweepResult b = run(3);
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (size_t t = 0; t < a.trials.size(); ++t) {
    ASSERT_EQ(a.trials[t].epochs.size(), b.trials[t].epochs.size());
    for (size_t i = 0; i < a.trials[t].epochs.size(); ++i) {
      EXPECT_EQ(a.trials[t].epochs[i].value, b.trials[t].epochs[i].value);
    }
    EXPECT_EQ(a.trials[t].energy.bytes, b.trials[t].energy.bytes);
    EXPECT_EQ(a.trials[t].delivery_ratio, b.trials[t].delivery_ratio);
    EXPECT_EQ(a.trials[t].route_reroutes, b.trials[t].route_reroutes);
    EXPECT_EQ(a.trials[t].retry_histogram, b.trials[t].retry_histogram);
  }
  EXPECT_EQ(a.rms.mean(), b.rms.mean());
  EXPECT_EQ(a.bytes_per_epoch.mean(), b.bytes_per_epoch.mean());
}

TEST(LinkLayerTest, RetryStatsSurfaceInRunResult) {
  Scenario sc = MakeSyntheticScenario(9, 100);
  LinkLayerConfig ll;
  ll.retry.max_attempts = 3;
  RunResult r = Experiment::Builder()
                    .Scenario(&sc)
                    .Aggregate(AggregateKind::kCount)
                    .Strategy(Strategy::kTag)
                    .LinkLayer(ll)
                    .NetworkSeed(2)
                    .Epochs(20)
                    .Run();
  EXPECT_GT(r.delivery_ratio, 0.0);
  EXPECT_LE(r.delivery_ratio, 1.0);
  EXPECT_GT(r.attempts_per_epoch, 0.0);
  // The histogram never exceeds the attempt budget and sums to a positive
  // unicast count.
  EXPECT_LE(r.retry_histogram.size(), 3u);
  uint64_t unicasts = 0;
  for (uint64_t n : r.retry_histogram) unicasts += n;
  EXPECT_GT(unicasts, 0u);
}

// ETX routing with a bounded retry budget strictly beats hop-count routing
// on delivery ratio under the reference fault schedule, at equal or lower
// radio cost -- the ISSUE's headline acceptance criterion (the bench gate
// replays the same comparison over the full sweep).
TEST(LinkLayerTest, EtxBeatsHopCountUnderReferenceFaults) {
  Scenario sc = MakeSyntheticScenario(13, 200);
  auto run = [&](bool etx) {
    LinkLayerConfig ll;
    ll.etx_parents = etx;
    ll.retry.max_attempts = 2;
    ll.faults = ReferenceFaultSchedule(sc.deployment, 72);
    return Experiment::Builder()
        .Scenario(&sc)
        .Aggregate(AggregateKind::kCount)
        .Strategy(Strategy::kTag)
        .LinkLayer(ll)
        .NetworkSeed(4)
        .Warmup(12)
        .Epochs(60)
        .Trials(3)
        .RunTrials();
  };
  SweepResult hop = run(false);
  SweepResult etx = run(true);
  double hop_dr = 0.0, etx_dr = 0.0;
  for (const RunResult& r : hop.trials) hop_dr += r.delivery_ratio;
  for (const RunResult& r : etx.trials) etx_dr += r.delivery_ratio;
  EXPECT_GT(etx_dr, hop_dr);
  EXPECT_LE(etx.bytes_per_epoch.mean(), hop.bytes_per_epoch.mean());
}

TEST(LinkLayerDeathTest, BuilderRejectsIncompatibleCombos) {
  Scenario sc = MakeSyntheticScenario(9, 80);
  LinkLayerConfig ll;
  EXPECT_DEATH(Experiment::Builder()
                   .Scenario(&sc)
                   .Aggregate(AggregateKind::kCount)
                   .LinkLayer(ll)
                   .GlobalLossRate(0.1)
                   .Epochs(1)
                   .Build(),
               "supplies the loss model");
  LinkLayerConfig aged = ll;
  aged.aging = RouteAgingConfig{};
  DynamicsConfig dyn;
  dyn.churn = ChurnConfig{};
  EXPECT_DEATH(Experiment::Builder()
                   .Scenario(&sc)
                   .Aggregate(AggregateKind::kCount)
                   .LinkLayer(aged)
                   .Dynamics(dyn)
                   .Epochs(1)
                   .Build(),
               "incompatible with Dynamics");
  auto net = std::make_shared<Network>(
      &sc.deployment, &sc.connectivity, std::make_shared<GlobalLoss>(0.0),
      1);
  EXPECT_DEATH(Experiment::Builder()
                   .Scenario(&sc)
                   .Aggregate(AggregateKind::kCount)
                   .LinkLayer(ll)
                   .Network(net)
                   .Epochs(1)
                   .Build(),
               "shared Network");
}

}  // namespace
}  // namespace td
