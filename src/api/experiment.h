// The Experiment builder: declarative construction of a full simulation --
// scenario, aggregate, strategy, loss model, epochs -- returning either a
// stepping facade (Build) or batch results (Run).
//
//   RunResult r = Experiment::Builder()
//                     .Synthetic(/*seed=*/42)
//                     .Aggregate(AggregateKind::kCount)
//                     .Strategy(Strategy::kTributaryDelta)
//                     .GlobalLossRate(0.2)
//                     .Warmup(150)
//                     .Epochs(60)
//                     .Run();
//
// This is the one entry point benches, examples and integration tests use;
// the class templates underneath stay available for aggregate-generic code
// (see api/engine.h's MakeEngine).
#ifndef TD_API_EXPERIMENT_H_
#define TD_API_EXPERIMENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "agg/aggregates.h"
#include "api/engine.h"
#include "api/gateway.h"
#include "api/query.h"
#include "freq/item_source.h"
#include "freq/multipath_freq.h"
#include "freq/precision_gradient.h"
#include "link/link_layer.h"
#include "link/route_aging.h"
#include "net/loss_model.h"
#include "obs/telemetry.h"
#include "util/stats.h"
#include "window/query_window.h"
#include "window/window_truth.h"
#include "workload/dynamics.h"
#include "workload/scenario.h"

namespace td {

/// Per-query series of a run: one entry of RunResult.queries for every
/// query in the set (single-aggregate runs get exactly one).
struct QuerySeries {
  std::string name;

  /// Per measured epoch: the query's estimate and (when derivable) exact
  /// ground truth.
  std::vector<double> estimates;
  std::vector<double> truths;

  /// Relative RMS error of `estimates` vs `truths` (0 when no truth).
  double rms = 0.0;

  /// Windowed queries only (Query::window): the per-measured-epoch value
  /// of the window (base-station re-merge of per-epoch root states; zero
  /// radio bytes), the exact windowed ground truth re-aggregated from the
  /// stored per-epoch truth inputs (empty when the query's truth was
  /// overridden), and their relative RMS error. Windows run over warmup
  /// epochs too -- a standing query's history does not reset when
  /// measurement starts.
  std::vector<double> windowed_estimates;
  std::vector<double> windowed_truths;
  double windowed_rms = 0.0;

  /// Windowed queries only: state-maintenance merges the window performed
  /// over the whole run (warmup included). Sliding windows stay <= 2 per
  /// epoch, the two-stacks amortized bound (gated by bench_windows).
  size_t window_merges = 0;

  /// Grouped queries only (Query::GroupBy): one entry per region, sliced
  /// from the root state at zero extra radio bytes.
  /// group_estimates[g][e] is group g's estimate at measured epoch e;
  /// group_truths/group_rms mirror the global truth machinery per group
  /// (empty when the query's truth was overridden by the caller).
  std::vector<std::string> group_names;
  std::vector<std::vector<double>> group_estimates;
  std::vector<std::vector<double>> group_truths;
  std::vector<double> group_rms;
};

/// Batch outcome of Experiment::Run: the measured epochs plus the derived
/// series every paper figure reports.
struct RunResult {
  /// One entry per measured epoch (warmup epochs are discarded).
  std::vector<EpochResult> epochs;

  /// Average self-state recomputes per measured epoch: how many nodes the
  /// epoch-delta cache could NOT replay. With constant readings this drops
  /// to ~0 after the first epoch, and it equals the in-sweep node count
  /// when every reading changes each epoch.
  double nodes_reprocessed_per_epoch = 0.0;

  /// Per-epoch ground truth of the PRIMARY query; empty when no truth is
  /// known (FrequentItems without an explicit Truth function).
  std::vector<double> truths;

  /// Relative RMS error of the primary estimates vs `truths` (0 when no
  /// truth).
  double rms = 0.0;

  /// One series per query, index-aligned with the builder's query list.
  /// Empty only for FrequentItems (no scalar series).
  std::vector<QuerySeries> queries;

  /// Ground-truth contributing fraction per measured epoch.
  std::vector<double> contributing;

  /// Energy totals over the measured epochs (counters are reset after
  /// warmup when warmup > 0).
  EnergyStats energy;
  double bytes_per_epoch = 0.0;

  /// Split of bytes_per_epoch into the fixed per-message headers (charged
  /// once per physical transmission, shared by every query in a set) and
  /// everything riding in the payload. Multi-query amortization shows up
  /// here: header bytes stay flat as the query set widens.
  double header_bytes_per_epoch = 0.0;
  double payload_bytes_per_epoch = 0.0;

  /// Delta size after the last epoch (0 for strategies with no region).
  size_t final_delta_size = 0;

  /// Adaptation counters over the whole run, warmup included.
  EngineStats stats;

  /// Dynamic scenarios only: topology repair passes over the whole run
  /// (warmup included); 0 for static runs.
  size_t topology_repairs = 0;

  /// Link-layer unicast accounting over the measured epochs (all zero when
  /// the strategy sends no unicasts, e.g. pure synopsis diffusion).
  /// Fraction of logical unicasts whose data reached the receiver within
  /// the attempt budget.
  double delivery_ratio = 0.0;
  /// Physical data transmissions (first sends + retransmissions) per
  /// measured epoch.
  double attempts_per_epoch = 0.0;
  /// retry_histogram[k]: unicasts that used exactly k + 1 data
  /// transmissions (RetryStats::by_attempts).
  std::vector<uint64_t> retry_histogram;

  /// Route aging only: nodes re-parented away from blacklisted links over
  /// the whole run (warmup included); 0 without LinkLayer aging.
  size_t route_reroutes = 0;

  /// Telemetry (Builder::Telemetry only; `telemetry.enabled` says whether
  /// it ran): the drained metrics registry, flight-recorder events and
  /// phase profile of the run. Telemetry observes without consuming RNG
  /// draws, so every other field is bit-identical to a telemetry-off run.
  obs::TelemetrySummary telemetry;

  /// Per-node energy totals over the measured epochs (Builder::Telemetry
  /// only; empty otherwise -- at SoA scale a million-entry copy should be
  /// opt-in). Indexed by NodeId; the base station is included.
  std::vector<EnergyStats> node_energy;

  /// The k highest-energy nodes by radio bytes (ties: lower id first),
  /// from `node_energy`. The time-to-first-death input the ROADMAP's
  /// energy-lifetime item needs. Empty when telemetry was off.
  std::vector<std::pair<NodeId, EnergyStats>> top_energy_nodes(
      size_t k) const;

  /// The per-epoch numeric estimates, extracted from `epochs`.
  std::vector<double> estimates() const;
};

/// Outcome of a Monte Carlo sweep (Experiment::Builder::RunTrials): one
/// RunResult per trial plus cross-trial summary statistics. Trial t is
/// seeded deterministically from (base network seed, t), and the summaries
/// are merged in trial order, so a SweepResult is bit-identical for any
/// thread count or schedule.
struct SweepResult {
  /// Per-trial results, indexed by trial id.
  std::vector<RunResult> trials;

  /// Cross-trial distribution of the per-trial relative RMS error.
  RunningStat rms;

  /// Cross-trial distribution of the per-trial bytes/epoch.
  RunningStat bytes_per_epoch;

  /// All measured per-epoch estimates pooled across trials (per-trial
  /// accumulators combined with the parallel-Welford RunningStat::Merge).
  RunningStat estimates;

  /// Per-trial telemetry shards merged in trial order (counters add by
  /// name, phases slot-wise; see TelemetrySummary::Merge), so the merged
  /// series is bit-identical for any thread count. Per-trial events stay
  /// on trials[t].telemetry.
  obs::TelemetrySummary telemetry;
};

/// A fully wired simulation: owns (or references) the scenario, network,
/// aggregate and engine, keeping every lifetime straight so call sites
/// don't have to.
class Experiment {
 public:
  class Builder;

  Experiment(Experiment&&) = default;
  Experiment& operator=(Experiment&&) = default;

  /// The stepping interface for epoch-by-epoch call sites (timelines,
  /// region-map dumps, engines sharing one network).
  Engine& engine() { return gateway_.engine(); }
  const Scenario& scenario() const { return gateway_.scenario(); }
  Network& network() { return gateway_.network(); }

  /// The dynamic-scenario driver, or nullptr for static experiments.
  DynamicScenario* dynamics() { return gateway_.dynamics(); }

  /// The link-quality map, or nullptr without LinkLayer().
  const LinkQualityMap* link_quality() const {
    return gateway_.link_quality();
  }

  /// The route ager, or nullptr without LinkLayer aging.
  RouteAger* route_ager() { return gateway_.route_ager(); }

  /// The telemetry sink, or nullptr without Builder::Telemetry().
  obs::TelemetrySink* telemetry() { return telemetry_.get(); }

  /// Runs one epoch through the facade: the gateway step (dynamics,
  /// aggregation, route aging), then the base-station windows and groups.
  /// Stepping call sites must visit epochs in increasing order.
  EpochResult StepEpoch(uint32_t epoch);

  /// Runs warmup then measured epochs and derives the summary series.
  /// Energy counters reset after warmup (shared-network users beware).
  RunResult Run();

 private:
  Experiment() = default;

  // The one base station: a single engine is the one-gateway federation.
  Gateway gateway_;
  std::shared_ptr<obs::TelemetrySink> telemetry_;
  uint32_t warmup_ = 0;
  uint32_t epochs_ = 0;
  std::function<double(uint32_t)> truth_;  // primary query's truth
  double population_ = 0.0;
  // Per-query metadata for RunResult.queries (empty for FrequentItems).
  std::vector<std::string> query_names_;
  std::vector<std::function<double(uint32_t)>> query_truths_;
  size_t primary_ = 0;

  // Windowed aggregation (window/): one slot per query when any query
  // carries a window. StepEpoch feeds every windowed query its slice of
  // the engine's root state and accumulates the windowed truth
  // series; Run slices the measured tail into QuerySeries.
  struct QueryWindowState {
    std::unique_ptr<td::QueryWindow> window;  // null for windowless queries
    std::unique_ptr<td::WindowTruth> truth;   // null when inputs unknown
    std::vector<double> truths;               // one entry per StepEpoch
  };
  std::vector<QueryWindowState> window_states_;
  bool any_window_ = false;
  // True when the engine runs a QuerySetAggregate (root state is one
  // payload per query); false for a lowered single aggregate.
  bool query_set_engine_ = false;

  // Spatial group-by (quant/): one slot per query when any query carries a
  // GroupBy. StepEpoch slices per-group estimates out of the engine's root
  // state; Run assembles per-group series and truths.
  struct QueryGroupState {
    std::unique_ptr<api_internal::GroupEval> eval;  // null when ungrouped
    std::vector<std::string> names;
    // Per-group exact truths; empty when the query's truth was overridden.
    std::vector<std::function<double(uint32_t)>> truths;
  };
  std::vector<QueryGroupState> group_states_;
  bool any_group_ = false;
};

/// Scenario, readings, telemetry, seeding and run length come from
/// RunBuilder (api/gateway.h), shared with the federation builder.
class Experiment::Builder : public RunBuilder<Experiment::Builder> {
 public:
  Builder() = default;

  // ----------------------------------------------------------- aggregate
  /// Runs a single aggregate of `kind`: sugar for a one-query set (and
  /// bit-identical to it -- see DESIGN.md "Multi-query execution").
  /// Mutually exclusive with AddQuery.
  Builder& Aggregate(AggregateKind kind) {
    kind_ = kind;
    kind_set_ = true;
    return *this;
  }
  /// Appends one standing query to the experiment's query set; repeatable.
  /// All queries in the set are computed in a single engine pass per
  /// epoch, sharing message headers (and the multi-path piggyback) so the
  /// per-query byte cost drops as the set widens. Every kind except
  /// kFrequentItems may join. Results come back per query in
  /// RunResult.queries[] (and EpochResult.query_values).
  Builder& AddQuery(td::Query query);
  /// Item collections (FrequentItems; must outlive the Experiment).
  Builder& Items(const ItemSource* items) {
    items_ = items;
    return *this;
  }
  /// Tree-side precision gradient (FrequentItems). Defaults to
  /// MinTotalLoadGradient(FreqParams().eps, measured domination factor).
  Builder& Gradient(std::shared_ptr<PrecisionGradient> gradient) {
    gradient_ = std::move(gradient);
    return *this;
  }
  /// Multi-path parameters (FrequentItems).
  Builder& FreqParams(MultipathFreqParams params) {
    freq_params_ = params;
    return *this;
  }

  // ------------------------------------------------------------ strategy
  Builder& Strategy(td::Strategy strategy) {
    strategy_ = strategy;
    return *this;
  }
  /// No-op: every strategy runs on the one engine core. Kept only for
  /// bench/suite/workloads.cc, which calls it; goes with the next change
  /// to the benchmark suite.
  Builder& Core(td::EngineCore) { return *this; }
  Builder& Options(EngineOptions options) {
    options_ = options;
    return *this;
  }
  Builder& Adaptation(AdaptationConfig config) {
    options_.adaptation = config;
    return *this;
  }
  Builder& AdaptPeriod(uint32_t period) {
    options_.adaptation.period = period;
    return *this;
  }
  Builder& Threshold(double threshold) {
    options_.adaptation.threshold = threshold;
    return *this;
  }
  Builder& Damping(bool on) {
    options_.adaptation.damping = on;
    return *this;
  }
  /// Extra tree retransmissions (overrides the strategy default).
  Builder& TreeRetries(int extra) {
    options_.tree_extra_retransmissions = extra;
    return *this;
  }

  // ------------------------------------------------------------- dynamics
  /// Evolves the scenario across epochs (churn, bursty loss, duty cycles,
  /// loss sweeps -- see workload/dynamics.h). The scenario is cloned per
  /// experiment (and per trial) because repairs mutate it; the event
  /// stream is seeded from the trial's network seed, so RunTrials sweeps
  /// stay bit-identical for any thread count. Incompatible with Network()
  /// sharing and with kFrequentItems. A zero config.horizon is filled in
  /// with Warmup() + Epochs().
  Builder& Dynamics(DynamicsConfig config) {
    dynamics_ = std::move(config);
    return *this;
  }

  // ------------------------------------------------------------ link layer
  /// Realistic link layer (src/link/): a persistent per-link quality map
  /// becomes the network's loss model, optionally steering parent
  /// selection (ETX routing, PRR ring floor), bounding retransmissions
  /// (RetryPolicy), aging persistently failing routes, and replaying a
  /// scripted fault schedule. The quality map is seeded from
  /// config.seed -- persistent across Monte Carlo trials -- while delivery
  /// draws keep the per-trial network seed. Supplies the loss model, so it
  /// excludes LossModel()/GlobalLossRate() and shared Network(); aging is
  /// additionally incompatible with Dynamics().
  Builder& LinkLayer(LinkLayerConfig config) {
    link_layer_ = std::move(config);
    return *this;
  }

  // -------------------------------------------------------------- network
  Builder& LossModel(std::shared_ptr<td::LossModel> model) {
    loss_ = std::move(model);
    return *this;
  }
  /// Loss model built against the resolved scenario (for RegionalLoss-style
  /// models that need the deployment).
  Builder& LossModel(
      std::function<std::shared_ptr<td::LossModel>(const td::Scenario&)>
          factory) {
    loss_factory_ = std::move(factory);
    return *this;
  }
  Builder& GlobalLossRate(double p) {
    loss_ = std::make_shared<GlobalLoss>(p);
    return *this;
  }
  /// Shares an existing network (and its RNG / energy accounting) instead
  /// of building one; excludes LossModel / NetworkSeed.
  Builder& Network(std::shared_ptr<td::Network> network) {
    shared_network_ = std::move(network);
    return *this;
  }

  // ----------------------------------------------------------------- run
  /// Ground truth per epoch; defaults are derived from the aggregate kind
  /// and reading function (none for FrequentItems).
  Builder& Truth(std::function<double(uint32_t)> truth) {
    truth_ = std::move(truth);
    return *this;
  }

  /// Wires everything and returns the stepping facade.
  Experiment Build();
  /// Build() + Run() for one-shot batch call sites.
  RunResult Run();
  /// Runs Trials() independent trials across Threads() workers. The
  /// scenario and loss model are resolved once and shared read-only;
  /// caller-supplied Reading/Truth functions must be pure (they are called
  /// concurrently). Incompatible with Network() sharing.
  SweepResult RunTrials();

 private:
  AggregateKind kind_ = AggregateKind::kCount;
  bool kind_set_ = false;
  const ItemSource* items_ = nullptr;
  std::shared_ptr<PrecisionGradient> gradient_;
  MultipathFreqParams freq_params_;

  td::Strategy strategy_ = td::Strategy::kTag;
  EngineOptions options_;
  std::optional<DynamicsConfig> dynamics_;
  std::optional<LinkLayerConfig> link_layer_;

  std::shared_ptr<td::LossModel> loss_;
  std::function<std::shared_ptr<td::LossModel>(const td::Scenario&)>
      loss_factory_;
  std::shared_ptr<td::Network> shared_network_;
  std::function<double(uint32_t)> truth_;
};

}  // namespace td

#endif  // TD_API_EXPERIMENT_H_
