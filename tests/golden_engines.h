// The engine golden cells: one deterministic experiment per cell, rendered
// as one line of text. tests/golden/engines.txt holds the rendering of
// every cell as the (since deleted) per-node-object engines produced it;
// core_test renders the same cells on the live engines and demands the
// same line, so every answer bit and every radio byte stays pinned to the
// reference implementation. golden_dump (tests/golden_dump.cc) prints the
// file; regenerate it only for a deliberate change of the random stream,
// and say so in CHANGES.md.
//
// Cells: every Strategy x every registry AggregateKind x network seeds
// 1..3 at 20% loss, plus per strategy one query-set cell (window and
// group-by), one Dynamics() cell and one LinkLayer() cell.
//
// A line: `<cell> values=<bits,...> bytes=<n,...> energy=<tx>/<packets>/
// <bytes> stats=<expansions>/<shrinks>/<decisions>/<delta> extra=<fnv>
// freq=<fnv|->`. `values` holds the IEEE-754 bits of every epoch's answer
// and `bytes` every epoch's radio byte tally; `extra` digests the
// contributor counts, the per-query, windowed and grouped series, and
// `freq` the frequent-items counts.
#ifndef TD_TESTS_GOLDEN_ENGINES_H_
#define TD_TESTS_GOLDEN_ENGINES_H_

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "freq/item_source.h"
#include "link/fault_injector.h"
#include "workload/labdata.h"
#include "workload/scenario.h"

namespace td::golden {

inline constexpr uint32_t kEpochs = 24;

/// Most nodes keep yesterday's reading and a rotating 1/13 changes, so the
/// cells exercise both the recompute and the replay side of every engine.
inline uint64_t CellReading(NodeId node, uint32_t epoch) {
  if (node % 13 == epoch % 13) return node + epoch * 7 + 1;
  return node % 23 + 1;
}

inline Query QueryOf(AggregateKind kind) {
  Query q;
  q.kind = kind;
  return q;
}

struct Cell {
  std::string name;
  /// Builds the cell's experiment; kEpochs epochs are stepped from 0.
  std::function<Experiment()> build;
};

class Fnv {
 public:
  void Add(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(double x) { Add(Bits(x)); }
  uint64_t value() const { return h_; }

  static uint64_t Bits(double x) {
    uint64_t b;
    std::memcpy(&b, &x, sizeof b);
    return b;
  }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

inline std::string Hex(uint64_t x) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, x);
  return buf;
}

inline Experiment::Builder SyntheticBuilder(Strategy strategy,
                                            uint64_t network_seed) {
  Experiment::Builder b;
  b.Synthetic(/*seed=*/7, /*num_sensors=*/200)
      .Reading(CellReading)
      .Strategy(strategy)
      .GlobalLossRate(0.2)
      .AdaptPeriod(3)
      .NetworkSeed(network_seed)
      .Epochs(kEpochs);
  return b;
}

/// The shared frequent-items fixture: LabData motes with short item
/// streams, built once (cells only read it).
struct FreqFixture {
  Scenario scenario = MakeLabScenario(36);
  ItemSource items{scenario.deployment.size()};
  FreqFixture() { FillLabItemStreams(&items, 120); }
};

inline const FreqFixture& Freq() {
  static const FreqFixture* f = new FreqFixture();
  return *f;
}

inline const Scenario& LinkScenario() {
  static const Scenario* sc = new Scenario(MakeSyntheticScenario(7, 200));
  return *sc;
}

inline std::vector<Cell> Cells() {
  const AggregateKind kinds[] = {
      AggregateKind::kCount,        AggregateKind::kSum,
      AggregateKind::kAvg,          AggregateKind::kMin,
      AggregateKind::kMax,          AggregateKind::kUniqueCount,
      AggregateKind::kQuantile,     AggregateKind::kEwma,
      AggregateKind::kQuantileQd,   AggregateKind::kHistogramQd,
      AggregateKind::kRangeCountQd, AggregateKind::kFrequentItems};
  std::vector<Cell> cells;
  for (Strategy s : kAllStrategies) {
    const std::string strategy = StrategyName(s);
    for (AggregateKind kind : kinds) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        Cell c;
        c.name = strategy + "/" + AggregateKindName(kind) + "/seed" +
                 std::to_string(seed);
        if (kind == AggregateKind::kFrequentItems) {
          c.build = [s, seed] {
            MultipathFreqParams params;
            params.eps = 0.01;
            params.item_bitmaps = 16;
            return Experiment::Builder()
                .Scenario(&Freq().scenario)
                .Aggregate(AggregateKind::kFrequentItems)
                .Items(&Freq().items)
                .FreqParams(params)
                .Strategy(s)
                .GlobalLossRate(0.2)
                .AdaptPeriod(3)
                .NetworkSeed(seed)
                .Epochs(kEpochs)
                .Build();
          };
        } else {
          c.build = [s, kind, seed] {
            return SyntheticBuilder(s, seed).Aggregate(kind).Build();
          };
        }
        cells.push_back(std::move(c));
      }
    }
    cells.push_back({strategy + "/queryset", [s] {
                       Query sum = QueryOf(AggregateKind::kSum);
                       sum.window = WindowSpec::Sliding(4);
                       Query qd = QueryOf(AggregateKind::kQuantileQd);
                       return SyntheticBuilder(s, 4)
                           .AddQuery(QueryOf(AggregateKind::kCount))
                           .AddQuery(sum)
                           .AddQuery(qd.GroupBy(RegionSpec::Grid(2, 2)))
                           .AddQuery(QueryOf(AggregateKind::kAvg))
                           .PrimaryQuery(1)
                           .Build();
                     }});
    cells.push_back({strategy + "/dynamics", [s] {
                       DynamicsConfig config;
                       config.churn = ChurnConfig{.fail_rate = 0.03,
                                                  .mean_downtime = 6.0,
                                                  .max_dead_fraction = 0.3};
                       // Loss clears halfway so TD also shrinks its delta.
                       config.loss_schedule = {{0, 0.2}, {kEpochs / 2, 0.0}};
                       return SyntheticBuilder(s, 5)
                           .Aggregate(AggregateKind::kSum)
                           .Dynamics(config)
                           .Build();
                     }});
    cells.push_back({strategy + "/linklayer", [s] {
                       const Scenario& sc = LinkScenario();
                       LinkLayerConfig ll;
                       ll.etx_parents = true;
                       ll.retry.max_attempts = 3;
                       ll.aging = RouteAgingConfig{};
                       ll.faults = ReferenceFaultSchedule(sc.deployment,
                                                          kEpochs);
                       return Experiment::Builder()
                           .Scenario(&sc)
                           .Aggregate(AggregateKind::kCount)
                           .Reading(CellReading)
                           .Strategy(s)
                           .LinkLayer(ll)
                           .AdaptPeriod(3)
                           .NetworkSeed(6)
                           .Epochs(kEpochs)
                           .Build();
                     }});
  }
  return cells;
}

/// Steps the cell's kEpochs epochs and renders the line described at the
/// top of this file.
inline std::string Render(const Cell& cell) {
  Experiment exp = cell.build();
  std::string values;
  std::string bytes;
  Fnv extra;
  Fnv freq;
  bool has_freq = false;
  uint64_t bytes_before = exp.network().total_energy().bytes;
  for (uint32_t e = 0; e < kEpochs; ++e) {
    const EpochResult r = exp.StepEpoch(e);
    const uint64_t now = exp.network().total_energy().bytes;
    if (e > 0) {
      values += ',';
      bytes += ',';
    }
    values += Hex(Fnv::Bits(r.value));
    bytes += std::to_string(now - bytes_before);
    bytes_before = now;
    extra.Add(static_cast<uint64_t>(r.true_contributing));
    extra.Add(r.reported_contributing);
    for (double v : r.query_values) extra.Add(v);
    for (double v : r.windowed_values) extra.Add(v);
    for (const std::vector<double>& g : r.group_values) {
      extra.Add(static_cast<uint64_t>(g.size()));
      for (double v : g) extra.Add(v);
    }
    if (!r.freq.counts.empty()) has_freq = true;
    freq.Add(static_cast<uint64_t>(r.freq.counts.size()));
    for (const auto& [item, count] : r.freq.counts) {
      freq.Add(static_cast<uint64_t>(item));
      freq.Add(count);
    }
    freq.Add(r.freq.total);
  }
  const EnergyStats energy = exp.network().total_energy();
  const EngineStats stats = exp.engine().stats();
  return cell.name + " values=" + values + " bytes=" + bytes +
         " energy=" + std::to_string(energy.transmissions) + "/" +
         std::to_string(energy.packets) + "/" + std::to_string(energy.bytes) +
         " stats=" + std::to_string(stats.expansions) + "/" +
         std::to_string(stats.shrinks) + "/" +
         std::to_string(stats.decisions) + "/" +
         std::to_string(exp.engine().delta_size()) +
         " extra=" + Hex(extra.value()) +
         " freq=" + (has_freq ? Hex(freq.value()) : std::string("-"));
}

}  // namespace td::golden

#endif  // TD_TESTS_GOLDEN_ENGINES_H_
