// Tests for windowed streaming aggregation (src/window/).
//
// The load-bearing contracts:
//   * SlidingWindow / HoppingWindow bit-match brute-force re-merging of the
//     last W per-epoch root states for every registry aggregate and every
//     side combination (tree partial only, synopsis only, both), the sides
//     coming from the pushed states themselves;
//   * a width-1 sliding window is bit-identical to the instantaneous
//     series for every strategy (tree / multi-path / TD evaluation forms);
//   * a windowed query adds ZERO radio bytes: byte and energy tallies are
//     bit-identical with and without windows;
//   * Threads(1) == Threads(8) RunTrials determinism holds for windowed
//     query sets;
//   * kEwma is a registry aggregate (radio-side an average) whose windowed
//     series is the EWMA over the invertible sum/count components;
//   * malformed window specs die fast with descriptive messages.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "agg/aggregates.h"
#include "agg/query_set.h"
#include "api/experiment.h"
#include "util/hash.h"
#include "window/sliding_window.h"
#include "window/window.h"
#include "window/window_truth.h"
#include "workload/scenario.h"

namespace td {
namespace {

uint64_t LightReading(NodeId node, uint32_t epoch) {
  return node * 3 + epoch % 5;
}

double RealLight(NodeId node, uint32_t epoch) {
  return static_cast<double>(LightReading(node, epoch));
}

// Epoch-independent reading: every epoch observes the same values, so
// pooled windowed truths collapse to the single-epoch truth.
uint64_t StaticReading(NodeId node, uint32_t /*epoch*/) { return node * 5; }

// ------------------------------------------------- typed property tests

/// Simulated per-epoch root states: each epoch folds a pseudo-random ~75%
/// subset of nodes into one partial and one synopsis, the way a lossy
/// epoch leaves the base station with a subset of the field.
template <Aggregate A>
struct EpochStates {
  std::vector<typename A::TreePartial> partials;
  std::vector<typename A::Synopsis> synopses;
};

template <Aggregate A>
EpochStates<A> MakeStates(const A& agg, uint32_t epochs, NodeId nodes) {
  EpochStates<A> out;
  for (uint32_t e = 0; e < epochs; ++e) {
    typename A::TreePartial p = agg.EmptyTreePartial();
    typename A::Synopsis s = agg.EmptySynopsis();
    for (NodeId v = 1; v <= nodes; ++v) {
      if (Hash64(v, e * 1000003ull) % 4 == 0) continue;  // "lost" node
      agg.MergeTree(&p, agg.MakeTreePartial(v, e));
      agg.Fuse(&s, agg.MakeSynopsis(v, e));
    }
    agg.FinalizeTreePartial(&p, 0);
    out.partials.push_back(std::move(p));
    out.synopses.push_back(std::move(s));
  }
  return out;
}

/// Which sides of each epoch's root state a test pushes; an absent side is
/// pushed as null.
struct SideCombo {
  bool tree = false;
  bool synopsis = false;
};

template <Aggregate A>
RootState EpochRoot(const EpochStates<A>& st, SideCombo sides, size_t e) {
  return RootState{sides.tree ? &st.partials[e] : nullptr,
                   sides.synopsis ? &st.synopses[e] : nullptr};
}

/// The reference: re-merge epochs [lo, hi) oldest-to-newest from scratch.
template <Aggregate A>
double BruteForce(const A& agg, const EpochStates<A>& st, SideCombo sides,
                  size_t lo, size_t hi) {
  typename A::TreePartial p = agg.EmptyTreePartial();
  typename A::Synopsis s = agg.EmptySynopsis();
  for (size_t e = lo; e < hi; ++e) {
    if (sides.tree) agg.MergeTree(&p, st.partials[e]);
    if (sides.synopsis) agg.Fuse(&s, st.synopses[e]);
  }
  if (sides.tree && sides.synopsis) {
    return static_cast<double>(agg.EvaluateCombined(p, s));
  }
  if (sides.tree) return static_cast<double>(agg.EvaluateTree(p));
  return static_cast<double>(agg.EvaluateSynopsis(s));
}

constexpr SideCombo kSideCombos[] = {
    {.tree = true, .synopsis = false},
    {.tree = false, .synopsis = true},
    {.tree = true, .synopsis = true},
};

template <Aggregate A>
void CheckSlidingBitMatch(const char* label, const A& agg) {
  SCOPED_TRACE(label);
  constexpr uint32_t kEpochs = 40;
  EpochStates<A> st = MakeStates(agg, kEpochs, /*nodes=*/25);
  const QueryOpsImpl<A> ops(agg);
  for (SideCombo sides : kSideCombos) {
    for (uint32_t w : {1u, 2u, 3u, 7u, 16u, 40u, 64u}) {
      SCOPED_TRACE("tree=" + std::to_string(sides.tree) +
                   " syn=" + std::to_string(sides.synopsis) +
                   " W=" + std::to_string(w));
      SlidingWindow win(&ops, w);
      for (uint32_t e = 0; e < kEpochs; ++e) {
        win.Push(EpochRoot(st, sides, e));
        size_t lo = e + 1 >= w ? e + 1 - w : 0;
        EXPECT_EQ(static_cast<double>(win.Evaluate()),
                  BruteForce(agg, st, sides, lo, e + 1))
            << "epoch " << e;
      }
      // The two-stacks bound: each state is merged at most twice.
      EXPECT_LE(win.merges(), 2u * kEpochs);
    }
  }
}

TEST(SlidingWindowTest, BitMatchesBruteForceForEveryRegistryAggregate) {
  CheckSlidingBitMatch("Count", CountAggregate());
  CheckSlidingBitMatch("Sum", SumAggregate(LightReading));
  CheckSlidingBitMatch("Avg", AverageAggregate(LightReading));
  CheckSlidingBitMatch(
      "Max", ExtremumAggregate(ExtremumAggregate::Kind::kMax, RealLight));
  CheckSlidingBitMatch(
      "Min", ExtremumAggregate(ExtremumAggregate::Kind::kMin, RealLight));
  CheckSlidingBitMatch("UniqueCount", UniqueCountAggregate(LightReading));
  CheckSlidingBitMatch("Quantile", QuantileAggregate(RealLight, 0.9));
}

template <Aggregate A>
void CheckHoppingBitMatch(const char* label, const A& agg, uint32_t w,
                          uint32_t hop) {
  SCOPED_TRACE(std::string(label) + " W=" + std::to_string(w) +
               " hop=" + std::to_string(hop));
  constexpr uint32_t kEpochs = 30;
  EpochStates<A> st = MakeStates(agg, kEpochs, /*nodes=*/20);
  const SideCombo sides{.tree = true, .synopsis = true};
  const QueryOpsImpl<A> ops(agg);
  HoppingWindow win(&ops, w, hop);
  for (uint32_t e = 0; e < kEpochs; ++e) {
    win.Push(EpochRoot(st, sides, e));
    size_t lo;
    size_t hi;
    if (e + 1 >= w) {
      // Most recently completed window [close - w + 1, close].
      uint32_t close = e - (e - (w - 1)) % hop;
      lo = close + 1 - w;
      hi = close + 1;
    } else {
      lo = 0;  // ramp: the running first window
      hi = e + 1;
    }
    EXPECT_EQ(static_cast<double>(win.Evaluate()),
              BruteForce(agg, st, sides, lo, hi))
        << "epoch " << e;
  }
}

TEST(HoppingWindowTest, BitMatchesBruteForceClosedWindows) {
  CountAggregate count;
  SumAggregate sum(LightReading);
  QuantileAggregate quant(RealLight, 0.5);
  CheckHoppingBitMatch("Count tumbling", count, 5, 5);
  CheckHoppingBitMatch("Count hopping", count, 6, 2);
  CheckHoppingBitMatch("Sum width1", sum, 1, 1);
  CheckHoppingBitMatch("Quantile hopping", quant, 8, 3);
}

// -------------------------------------------------------- facade contracts

class WindowStrategyTest : public ::testing::TestWithParam<Strategy> {};
INSTANTIATE_TEST_SUITE_P(AllStrategies, WindowStrategyTest,
                         ::testing::ValuesIn(kAllStrategies),
                         [](const auto& info) {
                           std::string n = StrategyName(info.param);
                           if (n == "TAG+retx") return std::string("TAGretx");
                           if (n == "TD-Coarse") return std::string("TDCoarse");
                           return n;
                         });

Experiment::Builder WindowedDashboard(const Scenario& sc, Strategy strategy,
                                      WindowSpec window) {
  Experiment::Builder b;
  b.Scenario(&sc)
      .AddQuery(Query{.kind = AggregateKind::kCount, .window = window})
      .AddQuery(Query{.kind = AggregateKind::kMax, .window = window})
      .AddQuery(Query{.kind = AggregateKind::kAvg, .window = window})
      .AddQuery(Query{.kind = AggregateKind::kQuantile,
                      .quantile_p = 0.9,
                      .window = window})
      .Reading(LightReading)
      .Strategy(strategy)
      .GlobalLossRate(0.2)
      .NetworkSeed(91)
      .AdaptPeriod(5)
      .Epochs(16);
  return b;
}

/// A width-1 sliding window re-merges exactly one root state, evaluated
/// through the same EvaluateTree/EvaluateSynopsis/EvaluateCombined form
/// the engine used -- so it must reproduce the instantaneous series
/// bit-for-bit, for every strategy and evaluation form.
TEST_P(WindowStrategyTest, WidthOneSlidingEqualsInstantaneousSeries) {
  Scenario sc = MakeSyntheticScenario(61, 150);
  RunResult r =
      WindowedDashboard(sc, GetParam(), WindowSpec::Sliding(1)).Run();
  ASSERT_EQ(r.queries.size(), 4u);
  for (const QuerySeries& q : r.queries) {
    SCOPED_TRACE(q.name);
    ASSERT_EQ(q.windowed_estimates.size(), q.estimates.size());
    EXPECT_EQ(q.windowed_estimates, q.estimates);
  }
}

/// Windowing is pure base-station post-processing: the radio schedule,
/// byte tallies and instantaneous answers of a windowed run are
/// bit-identical to the same run without windows.
TEST_P(WindowStrategyTest, WindowsAddZeroRadioBytes) {
  Scenario sc = MakeSyntheticScenario(62, 150);
  RunResult plain = WindowedDashboard(sc, GetParam(), WindowSpec{}).Run();
  RunResult windowed =
      WindowedDashboard(sc, GetParam(), WindowSpec::Sliding(8)).Run();

  EXPECT_EQ(windowed.bytes_per_epoch, plain.bytes_per_epoch);
  EXPECT_EQ(windowed.energy.bytes, plain.energy.bytes);
  EXPECT_EQ(windowed.energy.transmissions, plain.energy.transmissions);
  EXPECT_EQ(windowed.energy.packets, plain.energy.packets);
  ASSERT_EQ(windowed.queries.size(), plain.queries.size());
  for (size_t i = 0; i < plain.queries.size(); ++i) {
    EXPECT_EQ(windowed.queries[i].estimates, plain.queries[i].estimates);
    EXPECT_TRUE(plain.queries[i].windowed_estimates.empty());
    EXPECT_EQ(windowed.queries[i].windowed_estimates.size(),
              windowed.queries[i].estimates.size());
  }
}

/// Max's merge is Pick, so the windowed series must equal the rolling max
/// of the instantaneous series -- an independent brute-force check of the
/// facade path (root capture, slicing, two-stacks) on every strategy.
TEST_P(WindowStrategyTest, SlidingMaxEqualsRollingMaxOfInstantaneous) {
  Scenario sc = MakeSyntheticScenario(63, 150);
  constexpr uint32_t kW = 6;
  RunResult r = Experiment::Builder()
                    .Scenario(&sc)
                    .AddQuery(Query{.kind = AggregateKind::kMax,
                                    .window = WindowSpec::Sliding(kW)})
                    .Reading(LightReading)
                    .Strategy(GetParam())
                    .GlobalLossRate(0.25)
                    .NetworkSeed(17)
                    .AdaptPeriod(5)
                    .Epochs(20)
                    .Run();
  const std::vector<double>& inst = r.queries[0].estimates;
  const std::vector<double>& win = r.queries[0].windowed_estimates;
  ASSERT_EQ(win.size(), inst.size());
  for (size_t i = 0; i < inst.size(); ++i) {
    size_t lo = i + 1 >= kW ? i + 1 - kW : 0;
    double expect = inst[lo];
    for (size_t j = lo; j <= i; ++j) expect = std::max(expect, inst[j]);
    EXPECT_EQ(win[i], expect) << "epoch " << i;
  }
}

/// Exact tree aggregation pools duplicates, so a sliding Count window on
/// TAG is the sum of the last W instantaneous counts -- and matches the
/// pooled windowed ground truth wherever delivery was lossless.
TEST(WindowFacadeTest, TreeSlidingCountSumsInstantaneousCounts) {
  constexpr uint32_t kW = 4;
  RunResult r = Experiment::Builder()
                    .Synthetic(64, 120)
                    .AddQuery(Query{.kind = AggregateKind::kCount,
                                    .window = WindowSpec::Sliding(kW)})
                    .Strategy(Strategy::kTag)
                    .GlobalLossRate(0.2)
                    .NetworkSeed(7)
                    .Epochs(15)
                    .Run();
  const std::vector<double>& inst = r.queries[0].estimates;
  const std::vector<double>& win = r.queries[0].windowed_estimates;
  ASSERT_EQ(win.size(), inst.size());
  for (size_t i = 0; i < inst.size(); ++i) {
    size_t lo = i + 1 >= kW ? i + 1 - kW : 0;
    double expect = 0.0;
    for (size_t j = lo; j <= i; ++j) expect += inst[j];
    EXPECT_EQ(win[i], expect) << "epoch " << i;
  }
}

/// On a lossless tree every root state is exact, so the windowed estimates
/// must equal the windowed ground truth (re-aggregated from stored
/// per-epoch truth inputs) for every exact-on-tree aggregate kind.
TEST(WindowFacadeTest, LosslessTreeWindowedEstimatesMatchWindowedTruth) {
  RunResult r =
      Experiment::Builder()
          .Synthetic(65, 100)
          .AddQuery(Query{.kind = AggregateKind::kCount,
                          .window = WindowSpec::Sliding(5)})
          .AddQuery(Query{.kind = AggregateKind::kSum,
                          .window = WindowSpec::Sliding(5)})
          .AddQuery(Query{.kind = AggregateKind::kAvg,
                          .window = WindowSpec::Tumbling(4)})
          .AddQuery(Query{.kind = AggregateKind::kMax,
                          .window = WindowSpec::Hopping(6, 2)})
          .AddQuery(Query{.kind = AggregateKind::kMin,
                          .window = WindowSpec::Sliding(3)})
          .AddQuery(Query{.kind = AggregateKind::kQuantile,
                          .reading = StaticReading,
                          .quantile_p = 0.5,
                          .sample_size = 256,
                          .window = WindowSpec::Sliding(5)})
          .Reading(LightReading)
          .Strategy(Strategy::kTag)
          .Epochs(12)
          .Run();
  for (const QuerySeries& q : r.queries) {
    SCOPED_TRACE(q.name);
    ASSERT_EQ(q.windowed_truths.size(), q.windowed_estimates.size());
    for (size_t i = 0; i < q.windowed_estimates.size(); ++i) {
      EXPECT_DOUBLE_EQ(q.windowed_estimates[i], q.windowed_truths[i])
          << "epoch " << i;
    }
    EXPECT_NEAR(q.windowed_rms, 0.0, 1e-12);
  }
}

/// Tumbling windows report the last completed block and hold it until the
/// next block completes.
TEST(WindowFacadeTest, TumblingHoldsLastCompletedBlock) {
  constexpr uint32_t kW = 4;
  RunResult r = Experiment::Builder()
                    .Synthetic(66, 100)
                    .AddQuery(Query{.kind = AggregateKind::kCount,
                                    .window = WindowSpec::Tumbling(kW)})
                    .Strategy(Strategy::kTag)
                    .GlobalLossRate(0.15)
                    .NetworkSeed(3)
                    .Epochs(13)
                    .Run();
  const std::vector<double>& inst = r.queries[0].estimates;
  const std::vector<double>& win = r.queries[0].windowed_estimates;
  for (size_t i = 0; i < win.size(); ++i) {
    double expect = 0.0;
    if (i + 1 >= kW) {
      size_t close = i - (i - (kW - 1)) % kW;  // last completed block end
      for (size_t j = close + 1 - kW; j <= close; ++j) expect += inst[j];
    } else {
      for (size_t j = 0; j <= i; ++j) expect += inst[j];  // ramp
    }
    EXPECT_EQ(win[i], expect) << "epoch " << i;
  }
}

// --------------------------------------------------------------- kEwma

/// kEwma is radio-side an average; its windowed series is the EWMA over
/// the exact sum/count components on a lossless tree, bit-identical to the
/// recursion run by hand -- and to the windowed ground truth.
TEST(EwmaTest, RegistryEntryMatchesHandComputedRecursion) {
  const size_t sensors = 80;
  RunResult r = Experiment::Builder()
                    .Synthetic(67, sensors)
                    .Aggregate(AggregateKind::kEwma)
                    .Reading(LightReading)
                    .Strategy(Strategy::kTag)
                    .Epochs(10)
                    .Run();
  ASSERT_EQ(r.queries.size(), 1u);
  const QuerySeries& q = r.queries[0];
  EXPECT_EQ(q.name, "Ewma");
  ASSERT_EQ(q.windowed_estimates.size(), 10u);

  // The instantaneous series is the plain average.
  ASSERT_EQ(q.truths.size(), q.estimates.size());
  for (size_t i = 0; i < q.estimates.size(); ++i) {
    EXPECT_DOUBLE_EQ(q.estimates[i], q.truths[i]);
  }

  // Hand-run the decayed recursion over the exact per-epoch components.
  const double population = static_cast<double>(r.epochs[0].true_contributing);
  double num = 0.0;
  double den = 0.0;
  for (size_t i = 0; i < q.windowed_estimates.size(); ++i) {
    double sum = q.truths[i] * population;
    if (i == 0) {
      num = sum;
      den = population;
    } else {
      num = kDefaultEwmaAlpha * sum + (1.0 - kDefaultEwmaAlpha) * num;
      den = kDefaultEwmaAlpha * population + (1.0 - kDefaultEwmaAlpha) * den;
    }
    EXPECT_NEAR(q.windowed_estimates[i], num / den, 1e-9) << "epoch " << i;
    EXPECT_DOUBLE_EQ(q.windowed_estimates[i], q.windowed_truths[i]);
  }
}

/// An explicit Decayed window overrides the kEwma default alpha, and plain
/// invertible kinds accept Decayed windows too.
TEST(EwmaTest, ExplicitDecayedWindowsOnInvertibleKinds) {
  RunResult r =
      Experiment::Builder()
          .Synthetic(68, 100)
          .AddQuery(Query{.kind = AggregateKind::kEwma,
                          .window = WindowSpec::Decayed(1.0)})
          .AddQuery(Query{.kind = AggregateKind::kSum,
                          .window = WindowSpec::Decayed(0.5)})
          .Reading(LightReading)
          .Strategy(Strategy::kTag)
          .Epochs(6)
          .Run();
  // alpha = 1: no smoothing, the EWMA series IS the instantaneous series.
  EXPECT_EQ(r.queries[0].windowed_estimates, r.queries[0].estimates);
  // Sum decays its scalar: hand-run the recursion.
  double ewma = 0.0;
  for (size_t i = 0; i < r.queries[1].estimates.size(); ++i) {
    ewma = i == 0 ? r.queries[1].estimates[i]
                  : 0.5 * r.queries[1].estimates[i] + 0.5 * ewma;
    EXPECT_DOUBLE_EQ(r.queries[1].windowed_estimates[i], ewma);
  }
}

// ----------------------------------------------- determinism + series shape

TEST_P(WindowStrategyTest, RunTrialsDeterministicWithWindowedQuerySets) {
  auto sweep = [&](unsigned threads) {
    return Experiment::Builder()
        .Synthetic(69, 120)
        .AddQuery(Query{.kind = AggregateKind::kCount,
                        .window = WindowSpec::Sliding(4)})
        .AddQuery(Query{.kind = AggregateKind::kAvg,
                        .window = WindowSpec::Decayed(0.3)})
        .AddQuery(Query{.kind = AggregateKind::kQuantile,
                        .window = WindowSpec::Tumbling(6)})
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
  for (size_t t = 0; t < serial.trials.size(); ++t) {
    SCOPED_TRACE("trial " + std::to_string(t));
    const RunResult& a = serial.trials[t];
    const RunResult& b = threaded.trials[t];
    ASSERT_EQ(a.queries.size(), 3u);
    for (size_t i = 0; i < a.queries.size(); ++i) {
      EXPECT_EQ(a.queries[i].windowed_estimates,
                b.queries[i].windowed_estimates);
      EXPECT_EQ(a.queries[i].windowed_truths, b.queries[i].windowed_truths);
      EXPECT_EQ(a.queries[i].windowed_rms, b.queries[i].windowed_rms);
    }
    EXPECT_EQ(a.bytes_per_epoch, b.bytes_per_epoch);
  }
}

/// Windows run through warmup: a standing query's history does not reset
/// when measurement starts, so warmup+measure equals the tail of an
/// unwarmed run over the same epochs.
TEST(WindowFacadeTest, WarmupFeedsWindowHistory) {
  auto run = [](uint32_t warmup, uint32_t epochs) {
    return Experiment::Builder()
        .Synthetic(70, 100)
        .AddQuery(Query{.kind = AggregateKind::kCount,
                        .window = WindowSpec::Sliding(6)})
        .Strategy(Strategy::kTag)
        .GlobalLossRate(0.2)
        .NetworkSeed(5)
        .Warmup(warmup)
        .Epochs(epochs)
        .Run();
  };
  RunResult warmed = run(4, 8);
  RunResult full = run(0, 12);
  ASSERT_EQ(warmed.queries[0].windowed_estimates.size(), 8u);
  ASSERT_EQ(full.queries[0].windowed_estimates.size(), 12u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(warmed.queries[0].windowed_estimates[i],
              full.queries[0].windowed_estimates[i + 4]);
    EXPECT_EQ(warmed.queries[0].windowed_truths[i],
              full.queries[0].windowed_truths[i + 4]);
  }
}

/// Mixed sets: windowless members keep empty windowed series but still
/// report their instantaneous answer in EpochResult.windowed_values.
TEST(WindowFacadeTest, MixedSetSeriesShape) {
  RunResult r = Experiment::Builder()
                    .Synthetic(71, 100)
                    // The fluent setter is equivalent to .window = ...
                    .AddQuery(Query{.kind = AggregateKind::kMax}.Window(
                        WindowSpec::Sliding(4)))
                    .AddQuery(Query{.kind = AggregateKind::kCount})
                    .Reading(LightReading)
                    .Strategy(Strategy::kSynopsisDiffusion)
                    .GlobalLossRate(0.2)
                    .Epochs(5)
                    .Run();
  EXPECT_EQ(r.queries[0].windowed_estimates.size(), 5u);
  EXPECT_GT(r.queries[0].window_merges, 0u);
  EXPECT_TRUE(r.queries[1].windowed_estimates.empty());
  for (const EpochResult& e : r.epochs) {
    ASSERT_EQ(e.windowed_values.size(), 2u);
    EXPECT_EQ(e.windowed_values[1], e.query_values[1]);
  }
}

/// A builder-level Truth() override suppresses the primary query's default
/// windowed truth the same way a per-query truth override does: the
/// kind-derived inputs could contradict the override.
TEST(WindowFacadeTest, BuilderTruthOverrideLeavesWindowedTruthEmpty) {
  auto build = [](bool override_truth) {
    Experiment::Builder b;
    b.Synthetic(77, 100)
        .AddQuery(Query{.kind = AggregateKind::kCount,
                        .window = WindowSpec::Sliding(4)})
        .Strategy(Strategy::kTag)
        .Epochs(5);
    if (override_truth) b.Truth([](uint32_t) { return 42.0; });
    return b.Run();
  };
  RunResult plain = build(false);
  EXPECT_FALSE(plain.queries[0].windowed_truths.empty());
  RunResult overridden = build(true);
  EXPECT_TRUE(overridden.queries[0].windowed_truths.empty());
  EXPECT_EQ(overridden.queries[0].windowed_rms, 0.0);
  // The windowed estimates themselves are unaffected.
  EXPECT_EQ(overridden.queries[0].windowed_estimates,
            plain.queries[0].windowed_estimates);
}

/// An epoch with no sensor up contributes nothing to a pooled windowed
/// extremum (no 0.0 sentinel poisoning a window of positive readings).
TEST(WindowTruthTest, EmptyEpochDoesNotPoisonPooledExtremum) {
  WindowTruth truth(AggregateKind::kMin, WindowSpec::Sliding(3),
                    /*quantile_p=*/0.5, [](uint32_t e) {
                      WindowTruthInputs in;
                      if (e == 1) return in;  // every sensor down
                      in.num = 10.0 + e;
                      in.has_extremum = true;
                      return in;
                    });
  EXPECT_EQ(truth.Observe(0), 10.0);
  EXPECT_EQ(truth.Observe(1), 10.0);  // not min(10, 0)
  EXPECT_EQ(truth.Observe(2), 10.0);
  EXPECT_EQ(truth.Observe(3), 12.0);  // window {empty, 12, 13}
}

// ------------------------------------------------- fail-fast validation

TEST(WindowDeathTest, ZeroWidthSlidingWindowDies) {
  EXPECT_DEATH(Experiment::Builder()
                   .Synthetic(72, 80)
                   .AddQuery(Query{.kind = AggregateKind::kCount,
                                   .window = WindowSpec::Sliding(0)})
                   .Epochs(1)
                   .Build(),
               "window width must be positive");
}

TEST(WindowDeathTest, ZeroHopDies) {
  EXPECT_DEATH(Experiment::Builder()
                   .Synthetic(73, 80)
                   .AddQuery(Query{.kind = AggregateKind::kCount,
                                   .window = WindowSpec::Hopping(4, 0)})
                   .Epochs(1)
                   .Build(),
               "window hop must be positive");
}

TEST(WindowDeathTest, HopExceedingWidthDies) {
  EXPECT_DEATH(Experiment::Builder()
                   .Synthetic(74, 80)
                   .AddQuery(Query{.kind = AggregateKind::kCount,
                                   .window = WindowSpec::Hopping(4, 8)})
                   .Epochs(1)
                   .Build(),
               "hop must not exceed the window width");
}

TEST(WindowDeathTest, EwmaAlphaOutsideUnitIntervalDies) {
  EXPECT_DEATH(Experiment::Builder()
                   .Synthetic(75, 80)
                   .AddQuery(Query{.kind = AggregateKind::kCount,
                                   .window = WindowSpec::Decayed(0.0)})
                   .Epochs(1)
                   .Build(),
               "EWMA alpha must lie in \\(0, 1\\]");
  EXPECT_DEATH(Experiment::Builder()
                   .Synthetic(75, 80)
                   .AddQuery(Query{.kind = AggregateKind::kCount,
                                   .window = WindowSpec::Decayed(1.5)})
                   .Epochs(1)
                   .Build(),
               "EWMA alpha must lie in \\(0, 1\\]");
}

TEST(WindowDeathTest, DecayOnNonInvertibleAggregateDies) {
  EXPECT_DEATH(Experiment::Builder()
                   .Synthetic(76, 80)
                   .AddQuery(Query{.kind = AggregateKind::kMax,
                                   .window = WindowSpec::Decayed(0.5)})
                   .Reading(LightReading)
                   .Epochs(1)
                   .Build(),
               "EWMA windows need an invertible aggregate");
}

}  // namespace
}  // namespace td
