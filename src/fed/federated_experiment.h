// The federation facade: a multi-gateway deployment behind one builder.
//
//   sensor --radio--> gateway Engine --root state--> Coordinator
//                                                        |
//                                 SubscriptionBroker  <--+
//                                  |        |
//                              subscriber subscriber ...
//
// One GLOBAL deployment is carved into per-gateway shards (fed/sharding.h);
// each gateway runs its own td::Engine -- own tree/ring topology, strategy,
// loss model and dynamics over its shard, in the same Gateway runtime an
// Experiment runs (api/gateway.h) -- and exports its per-epoch root state.
// The Coordinator merges those roots into global per-query estimates, and
// the SubscriptionBroker fans them out to standing subscriptions with
// shared computation (fed/broker.h).
//
//   FederatedResult r = FederatedExperiment::Builder()
//                           .Synthetic(42)
//                           .Gateways(4, Strategy::kTag)
//                           .AddQuery({.kind = AggregateKind::kQuantile,
//                                      .quantile_p = 0.9})
//                           .Subscribe({.window = WindowSpec::Sliding(24)})
//                           .Epochs(60)
//                           .Run();
//
// Losslessness: with lossless tree gateways, the global estimates are
// bit-identical to a single-engine run over the whole deployment -- the
// coordinator merge is the same algebra over the same inputs, regrouped by
// gateway (see the merge-order-invariance contract in DESIGN.md
// "Hierarchical federation"; pinned by fed_test).
#ifndef TD_FED_FEDERATED_EXPERIMENT_H_
#define TD_FED_FEDERATED_EXPERIMENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "api/experiment.h"
#include "fed/broker.h"
#include "fed/coordinator.h"
#include "fed/sharding.h"

namespace td {

/// One gateway of the federation: which strategy it runs, over which shard,
/// under which radio conditions.
struct GatewayConfig {
  td::Strategy strategy = td::Strategy::kTag;

  /// Global sensor ids of this gateway's shard. Leave empty on EVERY
  /// gateway to let the builder plan shards (PlanSubtreeShards); explicit
  /// shards must be given for every gateway and form a partition
  /// (ValidateShardPlan).
  std::vector<NodeId> shard;

  /// Loss model of this gateway's radio neighborhood; null means lossless.
  std::shared_ptr<td::LossModel> loss;

  /// Per-gateway dynamics (churn, duty cycles, ...). The config's scope is
  /// forced to the gateway's shard so churn and topology repair stay
  /// confined to it; a zero horizon is filled with warmup + epochs.
  std::optional<DynamicsConfig> dynamics;

  EngineOptions options;
};

/// One federated epoch: the coordinator's merged global answers plus every
/// gateway's shard-local answers, each index-aligned with the query list.
struct FedEpochResult {
  uint32_t epoch = 0;
  std::vector<double> global_values;
  std::vector<std::vector<double>> gateway_values;  // [gateway][query]
};

/// Batch outcome of FederatedExperiment::Run.
struct FederatedResult {
  /// Global (coordinator-merged) series per query: estimates over the
  /// measured epochs, exact ground truth over the union of up sensors, and
  /// their relative RMS error.
  std::vector<QuerySeries> global;

  /// Shard-scoped series per gateway per query, each against the shard's
  /// own ground truth ([gateway][query]).
  std::vector<std::vector<QuerySeries>> per_gateway;

  /// Broker computation groups at run end, values sliced to the measured
  /// epochs.
  std::vector<SubscriptionBroker::GroupInfo> groups;

  /// Coordinator-tier work over the whole run (warmup included): payload
  /// merges, payload bytes merged, and the broker's scope merge chains per
  /// epoch -- the quantity that scales with computation groups, not
  /// subscribers.
  size_t coordinator_merges = 0;
  size_t coordinator_merged_bytes = 0;
  size_t merge_chains_per_epoch = 0;

  /// Serving-layer tallies: groups / live window instances / subscribers
  /// at run end, and subscriber-deliveries over the whole run.
  size_t num_groups = 0;
  size_t num_subscribers = 0;
  size_t window_instances = 0;
  size_t total_deliveries = 0;

  /// Radio bytes per measured epoch, summed over every gateway's network
  /// (the coordinator and broker add zero radio bytes by construction).
  double bytes_per_epoch = 0.0;

  /// Flight-recorder summary (Builder::Telemetry). One shared sink spans
  /// all gateways, so metric totals cover the whole federation, and the
  /// series are the ones a single engine reports (api/gateway.h).
  obs::TelemetrySummary telemetry;
};

/// Outcome of a federated Monte Carlo sweep (Builder::RunTrials). Trials
/// are seeded from (NetworkSeed, trial) and summaries merge in trial
/// order, so the result is bit-identical for any thread count.
struct FederatedSweepResult {
  std::vector<FederatedResult> trials;

  /// Cross-trial distribution of the primary query's global RMS error.
  RunningStat rms;

  /// Cross-trial distribution of per-trial radio bytes/epoch.
  RunningStat bytes_per_epoch;

  /// Telemetry shards merged in trial order (deterministic for any thread
  /// count); per-trial events live in trials[t].telemetry.events.
  obs::TelemetrySummary telemetry;
};

/// A fully wired federation: per-gateway scenarios, networks and engines,
/// the coordinator, and the broker, with every lifetime kept straight.
class FederatedExperiment {
 public:
  class Builder;

  FederatedExperiment(FederatedExperiment&&) = default;
  FederatedExperiment& operator=(FederatedExperiment&&) = default;

  size_t num_gateways() const { return gateways_.size(); }
  size_t num_queries() const { return coordinator_->num_queries(); }
  const std::vector<std::vector<NodeId>>& shards() const { return shards_; }

  /// Stepping access for tests and dashboards.
  Engine& gateway_engine(size_t g) { return gateways_[g].engine(); }
  DynamicScenario* gateway_dynamics(size_t g) {
    return gateways_[g].dynamics();
  }
  Coordinator& coordinator() { return *coordinator_; }
  SubscriptionBroker& broker() { return *broker_; }
  obs::TelemetrySink* telemetry() { return telemetry_.get(); }

  /// Runs one epoch across the whole federation: per-gateway dynamics and
  /// aggregation, coordinator merge, broker fan-out. Visit epochs in
  /// increasing order.
  FedEpochResult StepEpoch(uint32_t epoch);

  /// Runs warmup then measured epochs and derives the summary series.
  FederatedResult Run();

 private:
  friend class Builder;
  FederatedExperiment() = default;

  std::vector<std::vector<NodeId>> shards_;
  std::vector<Gateway> gateways_;
  std::unique_ptr<Coordinator> coordinator_;
  std::unique_ptr<SubscriptionBroker> broker_;
  std::shared_ptr<obs::TelemetrySink> telemetry_;
  // Previous cumulative coordinator tallies, so StepEpoch can emit deltas.
  size_t obs_prev_merges_ = 0;
  size_t obs_prev_merged_bytes_ = 0;
  uint32_t warmup_ = 0;
  uint32_t epochs_ = 0;
  std::vector<std::string> query_names_;
  // Ground truths: [query] over the global union of up sensors, and
  // [gateway][query] over each shard's up sensors.
  std::vector<std::function<double(uint32_t)>> global_truths_;
  std::vector<std::vector<std::function<double(uint32_t)>>> gateway_truths_;
};

/// Scenario (the ONE global deployment the gateways shard), readings,
/// telemetry, seeding and run length come from RunBuilder
/// (api/gateway.h), shared with Experiment::Builder.
class FederatedExperiment::Builder
    : public RunBuilder<FederatedExperiment::Builder> {
 public:
  Builder() = default;

  // ------------------------------------------------------------ gateways
  /// `count` gateways all running `strategy`, shards planner-assigned.
  Builder& Gateways(size_t count, td::Strategy strategy) {
    for (size_t g = 0; g < count; ++g) {
      GatewayConfig config;
      config.strategy = strategy;
      gateways_.push_back(std::move(config));
    }
    return *this;
  }
  /// Appends one explicitly configured gateway; repeatable. Mixed use with
  /// Gateways() is fine -- shards must still be all-explicit or all-planned.
  Builder& AddGateway(GatewayConfig config) {
    gateways_.push_back(std::move(config));
    return *this;
  }

  // ------------------------------------------------------------- queries
  /// Appends one standing query (every gateway computes the whole set;
  /// defaults to a single Count query when none is added).
  Builder& AddQuery(td::Query query);

  // ------------------------------------------------------- subscriptions
  /// Registers `count` identical subscriptions at build time; repeatable.
  /// More can be added mid-run through broker().
  Builder& Subscribe(Subscription subscription, size_t count = 1);
  /// Shared-computation dedup (default on); off is the honest
  /// per-subscriber-recomputation baseline bench_federation measures
  /// against.
  Builder& DedupSubscriptions(bool dedup) {
    dedup_ = dedup;
    return *this;
  }

  /// Wires the whole federation and returns the stepping facade.
  FederatedExperiment Build();
  /// Build() + Run() for one-shot call sites.
  FederatedResult Run();
  /// Runs Trials() independent federations across Threads() workers;
  /// bit-identical for any thread count.
  FederatedSweepResult RunTrials();

 private:
  std::vector<GatewayConfig> gateways_;
  std::vector<std::pair<Subscription, size_t>> subscriptions_;
  bool dedup_ = true;
};

}  // namespace td

#endif  // TD_FED_FEDERATED_EXPERIMENT_H_
