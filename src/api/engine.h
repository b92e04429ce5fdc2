// The type-erased aggregation engine: one runtime interface over the one
// kernel class template of src/core/ (SoaTributaryDeltaAggregator) so
// benches, examples and sweeps can select a Strategy by value without
// re-wiring template plumbing per scheme. The strategy picks the kernel's
// labelling: all-T for TAG and TAG+retx, all-M for synopsis diffusion,
// adaptive for TD and TD-Coarse.
//
// The one concrete impl wraps the kernel without touching its hot loop;
// type erasure costs one virtual dispatch per epoch (thousands of message
// simulations), which is noise. Results come back as EpochResult, a
// strategy- and aggregate-agnostic currency: numeric aggregates fill
// `value`, frequent items additionally fill `freq`.
#ifndef TD_API_ENGINE_H_
#define TD_API_ENGINE_H_

#include <memory>
#include <utility>
#include <vector>

#include "agg/aggregate.h"
#include "agg/epoch_outcome.h"
#include "agg/query_set.h"
#include "api/strategy.h"
#include "core/soa_td.h"
#include "freq/freq_aggregate.h"
#include "net/network.h"
#include "td/adaptation.h"
#include "util/check.h"
#include "workload/scenario.h"

namespace td {

/// Type-erased outcome of one aggregation epoch.
struct EpochResult {
  uint32_t epoch = 0;

  /// The numeric answer (for FrequentItems: the estimated total N).
  double value = 0.0;

  /// Ground truth count of sensors accounted for in `value`.
  size_t true_contributing = 0;

  /// What the base station believes contributed (exact tree counts plus an
  /// FM estimate for delta regions).
  double reported_contributing = 0.0;

  /// Full frequent-items evaluation; empty for every other aggregate.
  FreqResult freq;

  /// Multi-query engines (QuerySetAggregate): every member query's answer,
  /// index-aligned with the query list; `value` repeats the primary
  /// query's entry. Empty for single-aggregate engines.
  std::vector<double> query_values;

  /// Filled by Experiment::StepEpoch (not by engines) when any query in
  /// the experiment carries a window: one entry per query, index-aligned
  /// with the query list -- the windowed value for windowed queries, the
  /// instantaneous answer for windowless ones (a windowless query behaves
  /// like a width-1 window). Empty when no query is windowed.
  std::vector<double> windowed_values;

  /// Filled by Experiment::StepEpoch (not by engines) when any query
  /// carries a spatial group-by (Query::GroupBy): group_values[i][g] is
  /// query i's estimate for group g, sliced from the root state.
  /// Ungrouped queries keep an empty inner vector. Empty when no query is
  /// grouped.
  std::vector<std::vector<double>> group_values;
};

/// Knobs shared by every strategy; fields a strategy does not use are
/// ignored (e.g. `adaptation` under kTag).
struct EngineOptions {
  /// Extra per-message tree retransmissions; -1 picks the strategy default
  /// (2 for kTagRetx, 0 otherwise).
  int tree_extra_retransmissions = -1;

  /// Base-station adaptation config (kTributaryDelta / kTdCoarse).
  AdaptationConfig adaptation;
};

/// The facade every bench, example and integration test runs against.
/// Concrete instances come from MakeEngine (any Aggregate) or from
/// Experiment::Builder (the AggregateKind registry).
class Engine {
 public:
  virtual ~Engine() = default;

  /// Runs one aggregation epoch (plus, for adaptive strategies, one
  /// adaptation decision when the damper allows).
  virtual EpochResult RunEpoch(uint32_t epoch) = 0;

  /// Runs epochs [first, first + n): byte-identical to n sequential
  /// RunEpoch calls. All size-n inbox state is scratch reused across the
  /// batch -- see scratch_stats().
  std::vector<EpochResult> RunEpochs(uint32_t first, uint32_t n) {
    std::vector<EpochResult> out;
    out.reserve(n);
    for (uint32_t e = 0; e < n; ++e) out.push_back(RunEpoch(first + e));
    return out;
  }

  virtual Strategy strategy() const = 0;
  virtual Network& network() const = 0;

  /// Always EngineCore::kSoa. Kept only for bench/suite/main.cc, which
  /// reads it; goes with the next change to the benchmark suite.
  EngineCore core() const { return EngineCore::kSoa; }

  /// Cumulative count of nodes whose self synopsis/partial was recomputed
  /// rather than replayed from the epoch-delta cache; grows by at most one
  /// per in-sweep node per epoch.
  virtual uint64_t nodes_reprocessed() const = 0;

  /// Notification that the scenario's tree and rings were repaired in
  /// place (dynamic scenarios, after churn, or route aging): engines drop
  /// their cached schedules and CSR adjacency, and adaptive engines also
  /// re-derive their cached tree state and resync the region.
  virtual void OnTopologyChanged() = 0;

  /// The base station's root aggregate state after the last RunEpoch
  /// (all-null before the first): the exact tree partial and/or the fused
  /// synopsis, as opaque pointers to the engine aggregate's A::TreePartial
  /// / A::Synopsis (QuerySetTreePartial / QuerySetSynopsis for query-set
  /// engines; SliceQueryRoot picks one query). The sides that reached the
  /// base are the ones set: the partial for tree strategies, the fused
  /// synopsis for synopsis diffusion, both for Tributary-Delta. Keeping it
  /// costs one move of the base partial per epoch and no radio bytes. The
  /// pointers alias engine-owned state valid until the next RunEpoch.
  ///
  /// Two consumers re-merge root states downstream of the engines:
  /// windowed aggregation (window/) merges one engine's states ACROSS
  /// epochs, and the federation tier (src/fed/) merges many gateway
  /// engines' states WITHIN an epoch into a global estimate. Both lean on
  /// the same contract: every registry aggregate's MergeTree / Fuse is
  /// commutative and associative over exactly-representable state
  /// (integer counters, bitwise-OR sketch banks, canonical min-wise
  /// samples, min / max), so re-merging in any grouping or order
  /// reproduces the in-network fold bit-for-bit. The root partial contains
  /// no base-station reading (the base holds none), which is what lets a
  /// coordinator merge G gateways' roots without double-counting anything.
  /// See DESIGN.md "Hierarchical federation".
  virtual RootState root_state() const = 0;

  /// Adaptation counters (zeros when !IsAdaptive(strategy())).
  virtual EngineStats stats() const { return {}; }

  /// Inbox-scratch reuse counters of the wrapped engine.
  virtual ScratchStats scratch_stats() const = 0;

  /// Tributary/delta region, or nullptr for non-adaptive strategies.
  virtual const RegionState* region() const { return nullptr; }
  virtual RegionState* mutable_region() { return nullptr; }

  /// Delta size (1 == base station only); 0 when there is no region.
  size_t delta_size() const {
    const RegionState* r = region();
    return r ? r->delta_size() : 0;
  }
};

namespace api_internal {

inline void AssignResult(EpochResult* r, double v) { r->value = v; }
inline void AssignResult(EpochResult* r, const FreqResult& f) {
  r->value = f.total;
  r->freq = f;
}
inline void AssignResult(EpochResult* r, const QuerySetResult& q) {
  r->query_values = q.values;
  r->value = q.values.empty() ? 0.0 : q.values[q.primary];
}

template <typename Outcome>
EpochResult ToEpochResult(uint32_t epoch, const Outcome& o) {
  EpochResult r;
  r.epoch = epoch;
  AssignResult(&r, o.result);
  r.true_contributing = o.true_contributing;
  r.reported_contributing = o.reported_contributing;
  return r;
}

/// Extra tree retransmissions per unicast: the explicit option, else the
/// strategy default (2 for kTagRetx, 0 otherwise).
inline int TreeRetransmissions(const EngineOptions& options,
                               Strategy strategy) {
  if (options.tree_extra_retransmissions >= 0) {
    return options.tree_extra_retransmissions;
  }
  return strategy == Strategy::kTagRetx ? 2 : 0;
}

/// Every strategy on the one kernel: TAG and TAG+retx pin the labelling
/// all-T, synopsis diffusion pins it all-M, TD and TD-Coarse adapt it.
template <Aggregate A>
class SoaTributaryDeltaEngine final : public Engine {
 public:
  using Kernel = SoaTributaryDeltaAggregator<A>;

  SoaTributaryDeltaEngine(const Scenario* sc, std::shared_ptr<Network> network,
                          const A* aggregate, Strategy strategy,
                          const EngineOptions& options)
      : network_(std::move(network)),
        strategy_(strategy),
        inner_(MakeKernel(sc, network_.get(), aggregate, strategy, options)) {}

  EpochResult RunEpoch(uint32_t epoch) override {
    return ToEpochResult(epoch, inner_.RunEpoch(epoch));
  }
  Strategy strategy() const override { return strategy_; }
  Network& network() const override { return *network_; }
  uint64_t nodes_reprocessed() const override {
    return inner_.nodes_reprocessed();
  }
  void OnTopologyChanged() override { inner_.OnTopologyChanged(); }
  RootState root_state() const override {
    return RootState{inner_.root_partial(), inner_.root_synopsis()};
  }
  EngineStats stats() const override { return inner_.stats(); }
  ScratchStats scratch_stats() const override {
    return inner_.scratch_stats();
  }
  const RegionState* region() const override {
    return IsAdaptive(strategy_) ? &inner_.region() : nullptr;
  }
  RegionState* mutable_region() override {
    return IsAdaptive(strategy_) ? &inner_.region() : nullptr;
  }

 private:
  static Kernel MakeKernel(const Scenario* sc, Network* network,
                           const A* aggregate, Strategy strategy,
                           const EngineOptions& options) {
    const typename Kernel::Options kernel_options{
        .adaptation = options.adaptation,
        .tree_extra_retransmissions = TreeRetransmissions(options, strategy)};
    switch (strategy) {
      case Strategy::kTag:
      case Strategy::kTagRetx:
        return Kernel(&sc->tree, &sc->rings, network, aggregate, Mode::kTree,
                      kernel_options);
      case Strategy::kSynopsisDiffusion:
        return Kernel(&sc->tree, &sc->rings, network, aggregate,
                      Mode::kMultipath, kernel_options);
      case Strategy::kTdCoarse:
        return Kernel(&sc->tree, &sc->rings, network, aggregate,
                      std::make_unique<TdCoarsePolicy>(), kernel_options);
      case Strategy::kTributaryDelta:
        return Kernel(&sc->tree, &sc->rings, network, aggregate,
                      std::make_unique<TdFinePolicy>(), kernel_options);
    }
    TD_CHECK_MSG(false, "unknown Strategy value");
  }

  std::shared_ptr<Network> network_;
  Strategy strategy_;
  Kernel inner_;
};

}  // namespace api_internal

/// Builds a type-erased engine running `strategy` over `aggregate`. The
/// scenario and aggregate must outlive the engine; the network is shared
/// so several engines can ride one radio environment (and its RNG
/// sequence).
template <Aggregate A>
std::unique_ptr<Engine> MakeEngine(Strategy strategy, const Scenario& scenario,
                                   std::shared_ptr<Network> network,
                                   const A* aggregate,
                                   EngineOptions options = {}) {
  TD_CHECK(network != nullptr);
  TD_CHECK(aggregate != nullptr);
  return std::make_unique<api_internal::SoaTributaryDeltaEngine<A>>(
      &scenario, std::move(network), aggregate, strategy, options);
}

}  // namespace td

#endif  // TD_API_ENGINE_H_
