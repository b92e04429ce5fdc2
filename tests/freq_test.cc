// Tests for src/freq: Algorithm 1 summaries and the epsilon-deficiency
// invariant, precision gradients and their load bounds (Lemma 3), GK
// quantile summaries, the multi-path frequent-items algorithm (Algorithm 2)
// and its duplicate insensitivity, and the conversion function.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "freq/freq_aggregate.h"
#include "freq/gk_summary.h"
#include "freq/item_source.h"
#include "freq/multipath_freq.h"
#include "freq/precision_gradient.h"
#include "freq/summary.h"
#include "freq/tree_freq.h"
#include "sketch/rle.h"
#include "topology/domination.h"
#include "util/rng.h"
#include "workload/scenario.h"
#include "workload/synthetic.h"

namespace td {
namespace {

// --------------------------------------------------- PrecisionGradients --

TEST(PrecisionGradientTest, MinMaxLoadShape) {
  MinMaxLoadGradient g(0.1, 5);
  EXPECT_DOUBLE_EQ(g.Epsilon(0), 0.0);
  EXPECT_DOUBLE_EQ(g.Epsilon(5), 0.1);
  EXPECT_DOUBLE_EQ(g.Delta(1), 0.02);
  EXPECT_DOUBLE_EQ(g.Delta(5), 0.02);  // uniform increments
  EXPECT_DOUBLE_EQ(g.Epsilon(9), 0.1);  // clamped above tree height
}

TEST(PrecisionGradientTest, MinTotalLoadShape) {
  MinTotalLoadGradient g(0.1, 4.0);  // t = 1/2
  EXPECT_DOUBLE_EQ(g.Epsilon(0), 0.0);
  EXPECT_NEAR(g.Epsilon(1), 0.05, 1e-12);       // eps*(1-t)
  EXPECT_NEAR(g.Epsilon(2), 0.075, 1e-12);      // eps*(1-t^2)
  EXPECT_NEAR(g.Delta(2), 0.025, 1e-12);        // geometric decrease
  EXPECT_GT(g.Delta(1), g.Delta(2));
  EXPECT_LT(g.Epsilon(50), 0.1 + 1e-12);        // never exceeds eps
}

TEST(PrecisionGradientTest, MonotoneNonDecreasing) {
  MinTotalLoadGradient mt(0.01, 2.25);
  MinMaxLoadGradient mm(0.01, 7);
  HybridGradient hy(0.01, 2.25, 7);
  for (const PrecisionGradient* g :
       {static_cast<const PrecisionGradient*>(&mt),
        static_cast<const PrecisionGradient*>(&mm),
        static_cast<const PrecisionGradient*>(&hy)}) {
    for (int i = 1; i <= 20; ++i) {
      EXPECT_GE(g->Epsilon(i) + 1e-15, g->Epsilon(i - 1)) << g->name();
    }
    EXPECT_LE(g->Epsilon(20), 0.01 + 1e-12) << g->name();
  }
  // Positive increments wherever nodes can exist: MinTotal everywhere,
  // the uniform gradients up to the tree height they were built for.
  for (int i = 1; i <= 20; ++i) EXPECT_GT(mt.Delta(i), 0.0) << i;
  for (int i = 1; i <= 7; ++i) {
    EXPECT_GT(mm.Delta(i), 0.0) << i;
    EXPECT_GT(hy.Delta(i), 0.0) << i;
  }
}

TEST(PrecisionGradientTest, HybridBoundedByParts) {
  // Hybrid's increments are at least each part's eps/2 increments, so its
  // per-node load is within 2x of both optima.
  HybridGradient hy(0.1, 4.0, 5);
  MinTotalLoadGradient mt(0.05, 4.0);
  MinMaxLoadGradient mm(0.05, 5);
  for (int i = 1; i <= 5; ++i) {
    EXPECT_GE(hy.Delta(i) + 1e-15, mt.Delta(i));
    EXPECT_GE(hy.Delta(i) + 1e-15, mm.Delta(i));
  }
}

TEST(PrecisionGradientTest, Lemma3BoundFormula) {
  // (1 + 2/(sqrt(d)-1)) * m / eps.
  EXPECT_NEAR(MinTotalLoadGradient::TotalCommunicationBound(0.1, 4.0, 100),
              (1.0 + 2.0) * 1000.0, 1e-9);
}

// ---------------------------------------------------------- Summary/Alg1 --

ItemCounts MakeCounts(std::initializer_list<std::pair<Item, uint64_t>> xs) {
  ItemCounts c;
  for (auto& [u, n] : xs) c[u] = n;
  return c;
}

TEST(SummaryTest, LocalSummaryExact) {
  Summary s = LocalSummary(MakeCounts({{1, 5}, {2, 3}}));
  EXPECT_EQ(s.n, 8u);
  EXPECT_DOUBLE_EQ(s.eps, 0.0);
  ASSERT_NE(s.Find(1), nullptr);
  EXPECT_DOUBLE_EQ(*s.Find(1), 5.0);
}

TEST(SummaryTest, MergeAddsEstimatesAndCounts) {
  Summary a = LocalSummary(MakeCounts({{1, 5}}));
  Summary b = LocalSummary(MakeCounts({{1, 2}, {2, 7}}));
  MergeSummaries(&a, b);
  EXPECT_EQ(a.n, 14u);
  ASSERT_NE(a.Find(1), nullptr);
  ASSERT_NE(a.Find(2), nullptr);
  EXPECT_DOUBLE_EQ(*a.Find(1), 7.0);
  EXPECT_DOUBLE_EQ(*a.Find(2), 7.0);
}

TEST(SummaryTest, PruneDropsLightItems) {
  Summary s = LocalSummary(MakeCounts({{1, 100}, {2, 1}}));
  MinMaxLoadGradient g(0.1, 2);
  PruneSummary(&s, g, 1);  // eps(1) = 0.05; decrement = 0.05*101 = 5.05
  EXPECT_EQ(s.Find(2), nullptr);
  ASSERT_NE(s.Find(1), nullptr);
  EXPECT_NEAR(*s.Find(1), 100.0 - 5.05, 1e-9);
  EXPECT_NEAR(s.error_mass, 5.05, 1e-9);
}

// The central correctness property of Algorithm 1: epsilon-deficiency at
// every node of a random tree, for every gradient.
class DeficiencyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

INSTANTIATE_TEST_SUITE_P(
    SeedsAndGradients, DeficiencyTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u), ::testing::Values(0, 1, 2)));

std::shared_ptr<PrecisionGradient> MakeGradient(int kind, double eps,
                                                double d, int h) {
  switch (kind) {
    case 0:
      return std::make_shared<MinMaxLoadGradient>(eps, h);
    case 1:
      return std::make_shared<MinTotalLoadGradient>(eps, d);
    default:
      return std::make_shared<HybridGradient>(eps, d, h);
  }
}

TEST_P(DeficiencyTest, EpsilonDeficiencyInvariantHolds) {
  auto [seed, kind] = GetParam();
  Scenario sc = MakeSyntheticScenario(seed, 120);
  ItemSource items(sc.deployment.size());
  Rng rng(seed * 100 + 17);
  FillSharedZipfStreams(&items, 60, 1.1, 150, &rng);
  // Sensors the base station cannot reach never enter the aggregation;
  // ground truth is over in-tree collections.
  for (NodeId v = 1; v < sc.deployment.size(); ++v) {
    if (!sc.tree.InTree(v)) items.Clear(v);
  }

  const double eps = 0.05;
  std::vector<int> heights = sc.tree.ComputeHeights();
  int h = heights[sc.base()];
  auto gradient = MakeGradient(kind, eps, 2.0, h);

  Summary root_summary;
  MeasureTreeFreqLoad(sc.tree, items, *gradient, &root_summary);

  // Ground truth.
  ItemCounts truth = items.GlobalCounts();
  uint64_t n_total = items.TotalOccurrences();
  EXPECT_EQ(root_summary.n, n_total);

  for (const auto& [u, est] : root_summary.items) {
    double c = static_cast<double>(truth.at(u));
    EXPECT_LE(est, c + 1e-6) << "estimate must never exceed truth, u=" << u;
    EXPECT_GE(est, c - eps * static_cast<double>(n_total) - 1e-6);
  }
  // Deficiency also bounds what may be MISSING: absent items must have
  // frequency <= eps * N.
  for (const auto& [u, c] : truth) {
    if (root_summary.Find(u) == nullptr) {
      EXPECT_LE(static_cast<double>(c),
                eps * static_cast<double>(n_total) + 1e-6);
    }
  }
}

TEST_P(DeficiencyTest, NoFalseNegativesAtSupportThreshold) {
  auto [seed, kind] = GetParam();
  Scenario sc = MakeSyntheticScenario(seed + 50, 100);
  ItemSource items(sc.deployment.size());
  Rng rng(seed * 31 + 5);
  FillSharedZipfStreams(&items, 40, 1.3, 200, &rng);
  for (NodeId v = 1; v < sc.deployment.size(); ++v) {
    if (!sc.tree.InTree(v)) items.Clear(v);
  }

  const double eps = 0.02, support = 0.05;
  std::vector<int> heights = sc.tree.ComputeHeights();
  auto gradient = MakeGradient(kind, eps, 2.0, heights[sc.base()]);

  Summary root_summary;
  MeasureTreeFreqLoad(sc.tree, items, *gradient, &root_summary);

  double n = static_cast<double>(items.TotalOccurrences());
  std::map<Item, double> est(root_summary.items.begin(),
                             root_summary.items.end());
  auto reported = ReportFrequent(est, n, support, eps);
  std::set<Item> reported_set(reported.begin(), reported.end());

  for (Item u : items.ItemsAboveFraction(support)) {
    EXPECT_TRUE(reported_set.count(u))
        << "true frequent item " << u << " missing (false negative)";
  }
  // False positives must have frequency >= (s - eps) * N.
  ItemCounts truth = items.GlobalCounts();
  for (Item u : reported) {
    EXPECT_GE(static_cast<double>(truth.at(u)), (support - eps) * n - 1e-6);
  }
}

TEST(SummaryLoadTest, PerNodeLoadRespectsGradientBound) {
  // A height-k node sends at most 1/(eps(k)-eps(k-1)) estimates.
  Scenario sc = MakeSyntheticScenario(33, 150);
  ItemSource items(sc.deployment.size());
  Rng rng(91);
  FillSharedZipfStreams(&items, 500, 0.8, 400, &rng);

  const double eps = 0.02;
  MinTotalLoadGradient gradient(eps, 2.0);
  std::vector<int> heights = sc.tree.ComputeHeights();

  // Re-run Algorithm 1 manually to inspect per-node summaries.
  std::vector<Summary> inbox(sc.tree.num_nodes());
  for (NodeId v : sc.tree.TopologicalChildrenFirst()) {
    Summary s = LocalSummary(items.collection(v));
    MergeSummaries(&s, inbox[v]);
    int h = heights[v] < 1 ? 1 : heights[v];
    PruneSummary(&s, gradient, h);
    if (v == sc.base()) break;
    double bound = 1.0 / gradient.Delta(h);
    EXPECT_LE(static_cast<double>(s.items.size()), bound + 1.0)
        << "node " << v << " height " << h;
    MergeSummaries(&inbox[sc.tree.parent(v)], s);
  }
}

TEST(SummaryLoadTest, Lemma3TotalCommunicationBound) {
  // Total communication (in estimates) stays within the Lemma 3 bound for
  // a d-dominating tree.
  Scenario sc = MakeSyntheticScenario(34, 400);
  double d = DominationFactor(ComputeHeightHistogram(sc.tree));
  if (d <= 1.05) GTEST_SKIP() << "tree not usefully dominating";
  ItemSource items(sc.deployment.size());
  Rng rng(92);
  FillSharedZipfStreams(&items, 1000, 0.5, 100, &rng);

  const double eps = 0.05;
  MinTotalLoadGradient gradient(eps, d);
  LoadReport report = MeasureTreeFreqLoad(sc.tree, items, gradient);
  double bound = MinTotalLoadGradient::TotalCommunicationBound(
      eps, d, sc.tree.num_in_tree() - 1);
  // Words counts include 2 metadata words and 2 words per counter; the
  // bound is in counters, so compare counter totals conservatively.
  EXPECT_LE(static_cast<double>(report.total) / 2.0, bound * 1.5);
}

// ------------------------------------------------------------ GkSummary --

TEST(GkSummaryTest, ExactSummariesAnswerExactly) {
  GkSummary s = GkSummary::FromCounts(MakeCounts({{1, 3}, {5, 2}, {9, 5}}));
  EXPECT_EQ(s.n(), 10u);
  EXPECT_DOUBLE_EQ(s.EstimateRank(1), 3.0);
  EXPECT_DOUBLE_EQ(s.EstimateRank(5), 5.0);
  EXPECT_DOUBLE_EQ(s.EstimateRank(9), 10.0);
  EXPECT_DOUBLE_EQ(s.EstimateCount(5), 2.0);
  EXPECT_DOUBLE_EQ(s.EstimateCount(9), 5.0);
  EXPECT_DOUBLE_EQ(s.EstimateQuantile(0.5), 5.0);
}

TEST(GkSummaryTest, MergeKeepsExactWhenExact) {
  GkSummary a = GkSummary::FromCounts(MakeCounts({{1, 2}, {3, 2}}));
  GkSummary b = GkSummary::FromCounts(MakeCounts({{2, 2}, {3, 1}}));
  a.Merge(b);
  EXPECT_EQ(a.n(), 7u);
  EXPECT_DOUBLE_EQ(a.EstimateRank(1), 2.0);
  EXPECT_DOUBLE_EQ(a.EstimateRank(2), 4.0);
  EXPECT_DOUBLE_EQ(a.EstimateRank(3), 7.0);
  EXPECT_DOUBLE_EQ(a.EstimateCount(3), 3.0);
}

TEST(GkSummaryTest, CompressShrinksWithinBudget) {
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(static_cast<double>(i));
  GkSummary s = GkSummary::FromValues(values);
  EXPECT_EQ(s.num_entries(), 1000u);
  s.Compress(0.01 * 1000);  // 1% of n
  EXPECT_LT(s.num_entries(), 120u);
  // Rank queries stay within ~2x the budget (entry-gap slack).
  for (double v : {100.0, 500.0, 900.0}) {
    EXPECT_NEAR(s.EstimateRank(v), v + 1, 25.0);
  }
}

TEST(GkSummaryTest, MergeOfCompressedStaysBounded) {
  Rng rng(93);
  GkSummary total;
  double n_total = 0;
  for (int part = 0; part < 10; ++part) {
    std::vector<double> values;
    for (int i = 0; i < 500; ++i) values.push_back(rng.Uniform(0, 1000));
    GkSummary s = GkSummary::FromValues(values);
    s.Compress(0.01 * 500);
    total.Merge(s);
    n_total += 500;
  }
  // 10 parts each with 1% (5 ranks) error -> <= 50 ranks + gaps.
  double err = std::abs(total.EstimateRank(500.0) - 0.5 * n_total);
  EXPECT_LT(err, 150.0);
}

TEST(GkSummaryTest, FrequentItemsFromQuantiles) {
  ItemCounts counts;
  counts[7] = 500;   // heavy
  counts[13] = 400;  // heavy
  for (Item u = 100; u < 200; ++u) counts[u] = 1;  // light tail
  GkSummary s = GkSummary::FromCounts(counts);
  s.Compress(0.01 * static_cast<double>(s.n()));
  auto freq = FrequentItemsFromQuantiles(s, 0.2, 0.05);
  EXPECT_TRUE(freq.count(7));
  EXPECT_TRUE(freq.count(13));
  EXPECT_EQ(freq.count(150), 0u);
}

// -------------------------------------------------------- MultipathFreq --

MultipathFreqParams TestParams(double eps = 0.02) {
  MultipathFreqParams p;
  p.eps = eps;
  p.eta = 2.0;
  p.n_upper = 1 << 16;
  p.item_bitmaps = 16;
  p.seed = 4242;
  return p;
}

TEST(MultipathFreqTest, GenerateClassMatchesLog) {
  MultipathFreq mp(TestParams());
  auto bank = mp.Generate(3, MakeCounts({{1, 100}, {2, 30}}));
  ASSERT_EQ(bank.classes.size(), 1u);
  EXPECT_EQ(bank.classes.front().cls, 7);  // floor(log2(130)) = 7
}

TEST(MultipathFreqTest, EmptyCollectionGivesEmptyBank) {
  MultipathFreq mp(TestParams());
  EXPECT_TRUE(mp.Generate(1, {}).Empty());
}

TEST(MultipathFreqTest, EvaluateRecoversLocalCounts) {
  MultipathFreq mp(TestParams());
  auto bank = mp.Generate(1, MakeCounts({{10, 1000}, {20, 500}}));
  auto ev = mp.Evaluate(bank);
  EXPECT_NEAR(ev.counts.at(10), 1000.0, 450.0);
  EXPECT_NEAR(ev.counts.at(20), 500.0, 250.0);
  EXPECT_NEAR(ev.total, 1500.0, 500.0);
}

TEST(MultipathFreqTest, FuseIsDuplicateInsensitive) {
  MultipathFreq mp(TestParams());
  auto a = mp.Generate(1, MakeCounts({{10, 300}, {20, 200}}));
  auto b = mp.Generate(2, MakeCounts({{10, 100}, {30, 400}}));

  auto once = mp.EmptyBank();
  mp.Fuse(&once, a);
  mp.Fuse(&once, b);
  auto twice = mp.EmptyBank();
  mp.Fuse(&twice, a);
  mp.Fuse(&twice, b);
  mp.Fuse(&twice, b);  // duplicate delivery along a second ring path
  mp.Fuse(&twice, a);

  auto e1 = mp.Evaluate(once);
  auto e2 = mp.Evaluate(twice);
  EXPECT_DOUBLE_EQ(e1.total, e2.total);
  ASSERT_EQ(e1.counts.size(), e2.counts.size());
  for (const auto& [u, c] : e1.counts) {
    EXPECT_DOUBLE_EQ(c, e2.counts.at(u)) << "item " << u;
  }
}

TEST(MultipathFreqTest, FusionAccumulatesAcrossManyNodes) {
  MultipathFreq mp(TestParams(0.05));
  auto bank = mp.EmptyBank();
  const uint64_t per_node = 200;
  for (NodeId v = 1; v <= 60; ++v) {
    // Every node sees item 1 heavily and a unique light item.
    mp.Fuse(&bank,
            mp.Generate(v, MakeCounts({{1, per_node}, {100 + v, 3}})));
  }
  auto ev = mp.Evaluate(bank);
  double truth = 60.0 * per_node;
  EXPECT_NEAR(ev.counts.at(1), truth, 0.5 * truth);
  EXPECT_NEAR(ev.total, truth + 180.0, 0.5 * truth);
}

TEST(MultipathFreqTest, RisingThresholdPrunesLightItems) {
  // With many nodes each holding a distinct light item plus one shared
  // heavy item, fusion must keep the heavy item and prune most light ones.
  MultipathFreqParams params = TestParams(0.1);
  MultipathFreq mp(params);
  auto bank = mp.EmptyBank();
  for (NodeId v = 1; v <= 128; ++v) {
    mp.Fuse(&bank, mp.Generate(v, MakeCounts({{1, 500}, {1000 + v, 1}})));
  }
  size_t kept = 0;
  for (const FreqClassSynopsis& syn : bank.classes) kept += syn.items.size();
  EXPECT_LT(kept, 40u);  // light items culled
  auto ev = mp.Evaluate(bank);
  EXPECT_TRUE(ev.counts.count(1));  // heavy survives
}

TEST(MultipathFreqTest, ClassPromotionBoundsSynopsisCount) {
  MultipathFreq mp(TestParams());
  auto bank = mp.EmptyBank();
  Rng rng(94);
  for (NodeId v = 1; v <= 200; ++v) {
    mp.Fuse(&bank, mp.Generate(v, MakeCounts({{rng.NextBounded(50), 100}})));
  }
  // At most logN+1 classes may coexist.
  EXPECT_LE(bank.classes.size(),
            static_cast<size_t>(mp.params().LogN() + 1));
}

// Every carried size of `bank` that is set equals BankRleBytes of its bank;
// counts the set and unset ones into `sized` / `unsized`.
void ExpectCarriedSizesMatch(const MultipathFreq& mp,
                             const FreqSynopsisBank& bank, size_t* sized,
                             size_t* unsized) {
  const size_t w = static_cast<size_t>(mp.params().item_bitmaps);
  for (const FreqClassSynopsis& syn : bank.classes) {
    ASSERT_EQ(syn.counter_bytes.size(), syn.items.size());
    if (syn.n_sketch_bytes != 0) {
      EXPECT_EQ(syn.n_sketch_bytes, BankRleBytes(syn.n_sketch));
    }
    for (size_t k = 0; k < syn.items.size(); ++k) {
      if (syn.counter_bytes[k] == 0) {
        ++*unsized;
        continue;
      }
      ++*sized;
      EXPECT_EQ(syn.counter_bytes[k],
                BankRleBytes(syn.counters.data() + k * w, w))
          << "class " << syn.cls << " item " << syn.items[k];
    }
  }
}

// EncodedBytes from scratch: every bank sized afresh.
size_t RecountBytes(const MultipathFreq& mp, const FreqSynopsisBank& bank) {
  const size_t w = static_cast<size_t>(mp.params().item_bitmaps);
  size_t bytes = 0;
  for (const FreqClassSynopsis& syn : bank.classes) {
    bytes += 1 + BankRleBytes(syn.n_sketch);
    for (size_t k = 0; k < syn.items.size(); ++k) {
      bytes += sizeof(uint32_t) + BankRleBytes(syn.counters.data() + k * w, w);
    }
  }
  return bytes;
}

TEST(FreqTest, CarriedCounterSizesMatchRecount) {
  // Seeded random Generate / ConvertSummary / Fuse sequences over a few
  // banks, including repeated deliveries and bank-to-bank fuses. Classes
  // promote and the rising threshold drops items; through all of it every
  // carried size must stay equal to BankRleBytes of its bank, and
  // EncodedBytes to a from-scratch recount. (EncodedBytes checks the same
  // with a TD_DCHECK, which Release builds compile out.)
  size_t sized = 0, unsized = 0, promotions = 0, drops = 0;
  for (int item_bitmaps : {8, 32, 40}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      MultipathFreqParams params = TestParams(0.05);
      params.item_bitmaps = item_bitmaps;
      params.seed = seed;
      MultipathFreq mp(params);
      Rng rng(900 + seed);
      std::vector<FreqSynopsisBank> banks(3, mp.EmptyBank());
      int max_generated_class = 0;
      std::set<Item> inserted;
      for (int step = 0; step < 150; ++step) {
        const NodeId node = static_cast<NodeId>(1 + rng.NextBounded(40));
        ItemCounts counts;
        // A few heavy items every node shares, plus light ones of its own.
        for (int h = 0; h < 3; ++h) {
          counts[static_cast<Item>(h + 1)] += 20 + rng.NextBounded(200);
        }
        for (int l = 0; l < 4; ++l) {
          counts[static_cast<Item>(100 + rng.NextBounded(400))] +=
              1 + rng.NextBounded(3);
        }
        for (const auto& [u, c] : counts) inserted.insert(u);
        FreqSynopsisBank fresh;
        if (rng.NextBounded(2) == 0) {
          fresh = mp.Generate(node, counts);
        } else {
          Summary summary = LocalSummary(counts);
          fresh = mp.ConvertSummary(node, summary);
        }
        for (const FreqClassSynopsis& syn : fresh.classes) {
          max_generated_class = std::max(max_generated_class, syn.cls);
          for (uint16_t b : syn.counter_bytes) EXPECT_NE(b, 0u);
          EXPECT_NE(syn.n_sketch_bytes, 0u);
        }
        FreqSynopsisBank& into = banks[rng.NextBounded(banks.size())];
        mp.Fuse(&into, fresh);
        if (rng.NextBounded(4) == 0) mp.Fuse(&into, fresh);  // second path
        if (rng.NextBounded(5) == 0) {
          // A copy: Fuse's source must not alias its target.
          const FreqSynopsisBank from = banks[rng.NextBounded(banks.size())];
          mp.Fuse(&banks[rng.NextBounded(banks.size())], from);
        }
        for (const FreqSynopsisBank& bank : banks) {
          ASSERT_NO_FATAL_FAILURE(
              ExpectCarriedSizesMatch(mp, bank, &sized, &unsized));
        }
        if (step % 7 == 0) {
          // Sizing fills every zero; the filled sizes must be right too.
          FreqSynopsisBank& bank = banks[rng.NextBounded(banks.size())];
          EXPECT_EQ(mp.EncodedBytes(bank), RecountBytes(mp, bank));
          size_t after_unsized = 0, after_sized = 0;
          ASSERT_NO_FATAL_FAILURE(
              ExpectCarriedSizesMatch(mp, bank, &after_sized, &after_unsized));
          EXPECT_EQ(after_unsized, 0u);
          EXPECT_EQ(mp.EncodedBytes(bank), RecountBytes(mp, bank));
        }
      }
      for (const FreqSynopsisBank& bank : banks) {
        EXPECT_EQ(mp.EncodedBytes(bank), RecountBytes(mp, bank));
        size_t kept = 0;
        for (const FreqClassSynopsis& syn : bank.classes) {
          if (syn.cls > max_generated_class) ++promotions;
          kept += syn.items.size();
        }
        if (kept < inserted.size()) ++drops;
      }
    }
  }
  // The sequences exercised what they are for: promoted classes, dropped
  // items, and both carried and cleared sizes.
  EXPECT_GT(promotions, 0u);
  EXPECT_GT(drops, 0u);
  EXPECT_GT(sized, 0u);
  EXPECT_GT(unsized, 0u);
}

// ------------------------------------------------- Conversion (Sec 6.3) --

TEST(ConversionTest, SummaryConversionPreservesEstimates) {
  MultipathFreq mp(TestParams());
  Summary s;
  s.n = 1000;
  s.eps = 0.01;
  s.items = {{5, 600.0}, {6, 300.0}};
  auto bank = mp.ConvertSummary(42, s);
  auto ev = mp.Evaluate(bank);
  EXPECT_NEAR(ev.counts.at(5), 600.0, 300.0);
  EXPECT_NEAR(ev.counts.at(6), 300.0, 150.0);
  EXPECT_NEAR(ev.total, 1000.0, 350.0);
}

TEST(ConversionTest, ConvertedSynopsisIsDuplicateInsensitive) {
  MultipathFreq mp(TestParams());
  Summary s;
  s.n = 500;
  s.items = {{5, 400.0}};
  auto converted = mp.ConvertSummary(7, s);
  auto once = mp.EmptyBank();
  mp.Fuse(&once, converted);
  auto twice = once;
  mp.Fuse(&twice, converted);
  auto e1 = mp.Evaluate(once);
  auto e2 = mp.Evaluate(twice);
  EXPECT_DOUBLE_EQ(e1.counts.at(5), e2.counts.at(5));
  EXPECT_DOUBLE_EQ(e1.total, e2.total);
}

TEST(ConversionTest, ConvertedFusesWithNativeSynopses) {
  MultipathFreq mp(TestParams(0.05));
  Summary s;
  s.n = 800;
  s.items = {{5, 700.0}};
  auto bank = mp.ConvertSummary(3, s);
  mp.Fuse(&bank, mp.Generate(9, MakeCounts({{5, 900}})));
  auto ev = mp.Evaluate(bank);
  EXPECT_NEAR(ev.counts.at(5), 1600.0, 800.0);
}

// --------------------------------------------- FrequentItemsAggregate ----

TEST(FreqAggregateTest, TreeOnlyPipelineMatchesAlgorithm1) {
  Scenario sc = MakeSyntheticScenario(61, 80);
  ItemSource items(sc.deployment.size());
  Rng rng(95);
  FillSharedZipfStreams(&items, 30, 1.2, 100, &rng);

  std::vector<int> heights = sc.tree.ComputeHeights();
  auto gradient =
      std::make_shared<MinTotalLoadGradient>(0.05, 2.0);
  FrequentItemsAggregate agg(&items, &sc.tree, gradient, TestParams(0.05));

  // Merge everything up the tree via the aggregate interface.
  std::vector<FreqTreePartial> inbox(sc.tree.num_nodes());
  for (auto& p : inbox) p = agg.EmptyTreePartial();
  FreqResult result;
  for (NodeId v : sc.tree.TopologicalChildrenFirst()) {
    auto p = agg.MakeTreePartial(v, 0);
    agg.MergeTree(&p, inbox[v]);
    agg.FinalizeTreePartial(&p, v);
    if (v == sc.base()) {
      result = agg.EvaluateTree(p);
      break;
    }
    agg.MergeTree(&inbox[sc.tree.parent(v)], p);
  }

  Summary expected;
  MeasureTreeFreqLoad(sc.tree, items, *gradient, &expected);
  EXPECT_EQ(result.total, static_cast<double>(expected.n));
  EXPECT_EQ(result.counts.size(), expected.items.size());
}

TEST(FreqAggregateTest, ReportFrequentThresholds) {
  std::map<Item, double> counts{{1, 90.0}, {2, 49.0}, {3, 10.0}};
  auto out = ReportFrequent(counts, 1000.0, 0.06, 0.01);
  // bar = (0.06 - 0.01) * 1000 ~= 50; only item 1 clears it.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 1u);
}

}  // namespace
}  // namespace td
