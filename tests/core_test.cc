// Tests for the engine core (src/core/). The load-bearing pins:
//
//   * golden: every cell of tests/golden_engines.h -- all five strategies
//     x every registry aggregate (frequent items and the q-digest kinds
//     included) x three network seeds, plus query-set/window/group-by,
//     dynamics and link-layer cells -- reproduces the line the deleted
//     per-node-object engines wrote into tests/golden/engines.txt: every
//     epoch's answer bits and radio bytes, the energy totals, adaptation
//     counters and digests of the per-query, windowed, grouped and
//     frequent-items series.
//   * epoch deltas: unchanged readings (for frequent items, unchanged
//     ItemSource versions) replay cached self state (the
//     nodes_reprocessed_per_epoch observability) without perturbing
//     results relative to a full recompute.
//   * determinism: Threads(1) == Threads(8) RunTrials.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <regex>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "freq/item_source.h"
#include "golden_engines.h"
#include "workload/labdata.h"
#include "workload/scenario.h"

namespace td {
namespace {

uint64_t IdReading(NodeId node, uint32_t epoch) {
  return node * 3 + epoch % 5;
}

uint64_t ConstantReading(NodeId node, uint32_t /*epoch*/) {
  return node % 17 + 1;
}

// Perturbs a small pseudo-random subset of nodes each epoch; everyone else
// keeps yesterday's reading, which is what the delta cache feeds on.
uint64_t SparselyChangingReading(NodeId node, uint32_t epoch) {
  if (node % 13 == epoch % 13) return node + epoch * 7 + 1;
  return node % 23 + 1;
}

// Full bitwise comparison of two runs. EXPECT_EQ on doubles is exact
// equality -- that is the point: the runs must not differ in the last ulp.
// Per-query series are compared by the caller when both runs have them.
void ExpectBitIdentical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_EQ(a.epochs[i].value, b.epochs[i].value) << "epoch " << i;
    EXPECT_EQ(a.epochs[i].true_contributing, b.epochs[i].true_contributing)
        << "epoch " << i;
    EXPECT_EQ(a.epochs[i].reported_contributing,
              b.epochs[i].reported_contributing)
        << "epoch " << i;
  }
  EXPECT_EQ(a.rms, b.rms);
  EXPECT_EQ(a.truths, b.truths);
  EXPECT_EQ(a.contributing, b.contributing);
  EXPECT_EQ(a.energy.bytes, b.energy.bytes);
  EXPECT_EQ(a.energy.transmissions, b.energy.transmissions);
  EXPECT_EQ(a.bytes_per_epoch, b.bytes_per_epoch);
  EXPECT_EQ(a.header_bytes_per_epoch, b.header_bytes_per_epoch);
  EXPECT_EQ(a.final_delta_size, b.final_delta_size);
  EXPECT_EQ(a.stats.expansions, b.stats.expansions);
  EXPECT_EQ(a.stats.shrinks, b.stats.shrinks);
  EXPECT_EQ(a.stats.decisions, b.stats.decisions);
  EXPECT_EQ(a.topology_repairs, b.topology_repairs);
}

Experiment::Builder BaseBuilder(td::Strategy strategy, AggregateKind kind) {
  Experiment::Builder b;
  b.Synthetic(/*seed=*/7, /*num_sensors=*/300)
      .Aggregate(kind)
      .Reading(IdReading)
      .Strategy(strategy)
      .GlobalLossRate(0.2)
      .NetworkSeed(11)
      .Warmup(4)
      .Epochs(12);
  return b;
}

class CoreStrategyTest : public testing::TestWithParam<td::Strategy> {};

INSTANTIATE_TEST_SUITE_P(AllStrategies, CoreStrategyTest,
                         testing::ValuesIn(kAllStrategies),
                         [](const auto& info) {
                           switch (info.param) {
                             case Strategy::kTag: return "Tag";
                             case Strategy::kTagRetx: return "TagRetx";
                             case Strategy::kSynopsisDiffusion: return "SD";
                             case Strategy::kTributaryDelta: return "TD";
                             case Strategy::kTdCoarse: return "TdCoarse";
                           }
                           return "Unknown";
                         });

// ------------------------------------------------------------- golden --

struct GoldenFile {
  std::vector<std::string> header;
  std::map<std::string, std::string> lines;  // cell name -> full line
};

const GoldenFile& Golden() {
  static const GoldenFile* file = [] {
    auto* f = new GoldenFile();
    std::ifstream in(TD_GOLDEN_FILE);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      if (line[0] == '#') {
        f->header.push_back(line);
        continue;
      }
      f->lines[line.substr(0, line.find(' '))] = line;
    }
    return f;
  }();
  return *file;
}

TEST(GoldenFileTest, HeaderNamesTheCommitItWasGeneratedFrom) {
  const GoldenFile& g = Golden();
  ASSERT_FALSE(g.lines.empty()) << "cannot read " << TD_GOLDEN_FILE;
  bool named = false;
  for (const std::string& h : g.header) {
    named |= std::regex_search(h, std::regex("at git [0-9a-f]{12,40}\\."));
  }
  EXPECT_TRUE(named);
}

TEST(GoldenFileTest, EveryCellIsPinned) {
  const std::vector<golden::Cell> cells = golden::Cells();
  EXPECT_EQ(cells.size(), Golden().lines.size());
  for (const golden::Cell& cell : cells) {
    EXPECT_EQ(Golden().lines.count(cell.name), 1u) << cell.name;
  }
}

TEST_P(CoreStrategyTest, MatchesGoldenFile) {
  const std::string prefix = std::string(StrategyName(GetParam())) + "/";
  size_t checked = 0;
  for (const golden::Cell& cell : golden::Cells()) {
    if (cell.name.rfind(prefix, 0) != 0) continue;
    auto it = Golden().lines.find(cell.name);
    ASSERT_NE(it, Golden().lines.end()) << cell.name;
    EXPECT_EQ(golden::Render(cell), it->second);
    ++checked;
  }
  // 12 registry kinds x 3 seeds + query set + dynamics + link layer.
  EXPECT_EQ(checked, 39u);
}

// -------------------------------------------------------- epoch deltas --

// Replaying cached self state for unchanged readings must not change
// anything relative to a full recompute. The one-query-set path carries no
// SelfSynopsisKey, so it recomputes every node every epoch; the lowered
// Aggregate(kind) path replays.
TEST_P(CoreStrategyTest, EpochDeltaReplayMatchesFullRecompute) {
  for (AggregateKind kind : {AggregateKind::kSum, AggregateKind::kAvg,
                             AggregateKind::kQuantileQd}) {
    SCOPED_TRACE(AggregateKindName(kind));
    RunResult replayed = BaseBuilder(GetParam(), kind)
                             .Reading(SparselyChangingReading)
                             .Run();
    RunResult recomputed = Experiment::Builder()
                               .Synthetic(/*seed=*/7, /*num_sensors=*/300)
                               .AddQuery(golden::QueryOf(kind))
                               .Reading(SparselyChangingReading)
                               .Strategy(GetParam())
                               .GlobalLossRate(0.2)
                               .NetworkSeed(11)
                               .Warmup(4)
                               .Epochs(12)
                               .Run();
    ExpectBitIdentical(replayed, recomputed);
    ASSERT_EQ(replayed.queries.size(), 1u);
    ASSERT_EQ(recomputed.queries.size(), 1u);
    EXPECT_EQ(replayed.queries[0].estimates, recomputed.queries[0].estimates);
    EXPECT_LT(replayed.nodes_reprocessed_per_epoch,
              recomputed.nodes_reprocessed_per_epoch);
  }
}

TEST(CoreDeltaTest, ConstantReadingsReplayEverything) {
  RunResult r = BaseBuilder(Strategy::kSynopsisDiffusion, AggregateKind::kSum)
                    .Reading(ConstantReading)
                    .Run();
  // Every node's self bank was cached during warmup; measured epochs replay.
  EXPECT_EQ(r.nodes_reprocessed_per_epoch, 0.0);
}

TEST(CoreDeltaTest, SparseChangesReprocessOnlyTouchedNodes) {
  RunResult r = BaseBuilder(Strategy::kSynopsisDiffusion, AggregateKind::kSum)
                    .Reading(SparselyChangingReading)
                    .Run();
  // ~2/13 of nodes change per epoch (this epoch's perturbed set plus last
  // epoch's reverting back); everyone else replays.
  EXPECT_GT(r.nodes_reprocessed_per_epoch, 0.0);
  EXPECT_LT(r.nodes_reprocessed_per_epoch, 300.0 * 0.25);

  RunResult churn = BaseBuilder(Strategy::kSynopsisDiffusion,
                                AggregateKind::kSum)
                        .Reading(IdReading)  // changes every epoch
                        .Run();
  EXPECT_GT(churn.nodes_reprocessed_per_epoch,
            r.nodes_reprocessed_per_epoch);
}

TEST(CoreApiTest, EngineCountsReprocessedNodes) {
  Experiment exp = BaseBuilder(Strategy::kTag, AggregateKind::kCount).Build();
  EXPECT_EQ(exp.engine().nodes_reprocessed(), 0u);
  exp.StepEpoch(0);
  EXPECT_GT(exp.engine().nodes_reprocessed(), 0u);
}

// ------------------------------------------- frequent-items replay --

// Frequent items key a node's self state by its ItemSource version: the
// collection is fixed across epochs, so it is computed once and replayed,
// and a mutation recomputes exactly the mutated node.
class FreqReplayTest : public testing::TestWithParam<td::Strategy> {
 protected:
  FreqReplayTest() { FillLabItemStreams(&items_, 120); }

  Experiment Build(const ItemSource* items) const {
    MultipathFreqParams params;
    params.eps = 0.01;
    params.item_bitmaps = 16;
    return Experiment::Builder()
        .Scenario(&scenario_)
        .Aggregate(AggregateKind::kFrequentItems)
        .Items(items)
        .FreqParams(params)
        .Strategy(GetParam())
        .GlobalLossRate(0.2)
        // No TD mode switch in these few epochs: a node entering a mode
        // for the first time fills that mode's cache.
        .AdaptPeriod(1000)
        .NetworkSeed(5)
        .Epochs(1)
        .Build();
  }

  size_t LiveSensors() const {
    if (GetParam() == Strategy::kSynopsisDiffusion) {
      size_t n = 0;
      for (int l = 1; l <= scenario_.rings.max_level(); ++l) {
        n += scenario_.rings.NodesAtLevel(l).size();
      }
      return n;
    }
    return scenario_.tree.num_in_tree() - 1;
  }

  Scenario scenario_ = MakeLabScenario(36);
  ItemSource items_{scenario_.deployment.size()};
};

INSTANTIATE_TEST_SUITE_P(TagSdTd, FreqReplayTest,
                         testing::Values(Strategy::kTag,
                                         Strategy::kSynopsisDiffusion,
                                         Strategy::kTributaryDelta),
                         [](const auto& info) {
                           return std::string(StrategyName(info.param));
                         });

TEST_P(FreqReplayTest, FirstEpochComputesLaterEpochsReplay) {
  Experiment exp = Build(&items_);
  exp.StepEpoch(0);
  EXPECT_EQ(exp.engine().nodes_reprocessed(), LiveSensors());
  for (uint32_t e = 1; e < 6; ++e) {
    const uint64_t before = exp.engine().nodes_reprocessed();
    exp.StepEpoch(e);
    EXPECT_EQ(exp.engine().nodes_reprocessed(), before) << "epoch " << e;
  }
}

TEST_P(FreqReplayTest, AddRecomputesExactlyThatNode) {
  Experiment exp = Build(&items_);
  for (uint32_t e = 0; e < 3; ++e) exp.StepEpoch(e);
  const uint64_t before = exp.engine().nodes_reprocessed();
  ItemSource unchanged = items_;
  // A base-station neighbor: its item has the fewest hops to lose.
  const NodeId v = scenario_.rings.NodesAtLevel(1).front();
  const Item fresh_item = 999;  // LabData items are 7-bit bins
  ASSERT_TRUE(scenario_.tree.InTree(v));
  items_.Add(v, fresh_item, 500);
  EpochResult replayed = exp.StepEpoch(3);
  EXPECT_EQ(exp.engine().nodes_reprocessed(), before + 1);
  if (GetParam() != Strategy::kSynopsisDiffusion) return;

  // SD's delivery draws do not depend on synopsis content, so an engine
  // built on the mutated source from scratch reaches the same answer.
  auto answer_at = [this](const ItemSource* items, uint32_t epoch) {
    Experiment fresh = Build(items);
    EpochResult r;
    for (uint32_t e = 0; e <= epoch; ++e) r = fresh.StepEpoch(e);
    return r;
  };
  EpochResult rebuilt = answer_at(&items_, 3);
  EXPECT_EQ(replayed.freq.total, rebuilt.freq.total);
  EXPECT_EQ(replayed.freq.counts, rebuilt.freq.counts);
  EXPECT_EQ(replayed.value, rebuilt.value);
  // ...and the mutation shows in it: nothing stale was replayed.
  EXPECT_EQ(replayed.freq.counts.count(fresh_item), 1u);
  EXPECT_EQ(answer_at(&unchanged, 3).freq.counts.count(fresh_item), 0u);
}

// -------------------------------------------------------- determinism --

TEST(CoreTrialsTest, RunTrialsDeterministicAcrossThreadCountsOnSoa) {
  auto sweep = [&](unsigned threads) {
    return BaseBuilder(Strategy::kTributaryDelta, AggregateKind::kCount)
        .Trials(6)
        .Threads(threads)
        .RunTrials();
  };
  SweepResult one = sweep(1);
  SweepResult eight = sweep(8);
  ASSERT_EQ(one.trials.size(), eight.trials.size());
  for (size_t t = 0; t < one.trials.size(); ++t) {
    ExpectBitIdentical(one.trials[t], eight.trials[t]);
  }
  EXPECT_EQ(one.rms.mean(), eight.rms.mean());
  EXPECT_EQ(one.estimates.mean(), eight.estimates.mean());
  EXPECT_EQ(one.estimates.stddev(), eight.estimates.stddev());
}

}  // namespace
}  // namespace td
