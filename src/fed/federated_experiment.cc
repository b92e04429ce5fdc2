#include "fed/federated_experiment.h"

#include <algorithm>

#include "util/check.h"
#include "util/hash.h"
#include "util/stats.h"

namespace td {

// ----------------------------------------------------------------- Builder

FederatedExperiment::Builder& FederatedExperiment::Builder::AddQuery(
    td::Query query) {
  TD_CHECK_MSG(query.kind != AggregateKind::kFrequentItems,
               "kFrequentItems cannot join a federation's query set: its "
               "result is not a scalar");
  queries_.push_back(std::move(query));
  return *this;
}

FederatedExperiment::Builder& FederatedExperiment::Builder::Subscribe(
    Subscription subscription, size_t count) {
  TD_CHECK_GT(count, size_t{0});
  subscriptions_.emplace_back(std::move(subscription), count);
  return *this;
}

FederatedExperiment FederatedExperiment::Builder::Build() {
  TD_CHECK_MSG(!gateways_.empty(),
               "a federation needs at least one gateway; use the plain "
               "Experiment facade for the zero-gateway case");

  FederatedExperiment exp;

  // The global scenario only seeds the shard scenarios, which are copies.
  std::unique_ptr<td::Scenario> owned_global;
  const td::Scenario& global = *scenario_.Resolve(&owned_global);

  // Shards: all planner-assigned or all explicit, never a mix (a partial
  // plan could silently drop sensors from the federation).
  size_t explicit_shards = 0;
  for (const GatewayConfig& g : gateways_) {
    if (!g.shard.empty()) ++explicit_shards;
  }
  TD_CHECK_MSG(explicit_shards == 0 || explicit_shards == gateways_.size(),
               "gateway shards must be either all explicit or all "
               "planner-assigned; a mix would leave the planner guessing "
               "which sensors remain");
  ShardPlan plan;
  if (explicit_shards == 0) {
    plan = PlanSubtreeShards(global, gateways_.size());
  } else {
    for (const GatewayConfig& g : gateways_) plan.shards.push_back(g.shard);
    for (std::vector<NodeId>& s : plan.shards) std::sort(s.begin(), s.end());
  }
  ValidateShardPlan(global, plan);
  exp.shards_ = plan.shards;

  // Queries (defaulting to a single Count, the paper's headline aggregate).
  const std::vector<td::Query> queries =
      ResolveQueries(queries_.empty() ? std::vector<td::Query>{td::Query{}}
                                      : queries_);
  for (const td::Query& q : queries) exp.query_names_.push_back(q.name);

  // Coordinator: one QueryOps per query, same constructors the gateways
  // use, so merged payloads and coordinator payloads share every seed.
  exp.coordinator_ =
      std::make_unique<Coordinator>(api_internal::MakeQueryOps(queries));

  // Gateways: each gets its own shard scenario, network, query-set engine
  // and (optionally) dynamics, all seeded from (network seed, gateway id)
  // so RunTrials stays bit-identical for any thread count. Gateway g runs
  // exactly what an Experiment with NetworkSeed(Hash64(seed, g)) runs.
  for (size_t g = 0; g < gateways_.size(); ++g) {
    const GatewayConfig& config = gateways_[g];
    GatewaySpec spec;
    spec.owned_scenario = std::make_unique<td::Scenario>(
        MakeShardScenario(global, plan.shards[g]));
    spec.loss = config.loss;
    spec.network_seed = Hash64(network_seed_, g);
    spec.dynamics = config.dynamics;
    // Scope the dynamics to the shard: churn, duty cycling and -- via the
    // scoped repair -- ring/tree rebuilds never touch another gateway's
    // sensors (workload/dynamics.h DynamicsConfig::scope).
    if (spec.dynamics) spec.dynamics->scope = plan.shards[g];
    spec.run_epochs = warmup_ + epochs_;
    Gateway& gw = exp.gateways_.emplace_back(std::move(spec));

    // Always the query-set engine, even for one query: every gateway root
    // state is then a QuerySetTreePartial / QuerySetSynopsis with one
    // payload per query, which is the layout the coordinator slices.
    gw.Install(std::make_shared<QuerySetAggregate>(
                   api_internal::MakeQueryOps(queries), primary_),
               config.strategy, config.options);
  }

  // Ground truths: per gateway over the shard's up sensors, and globally
  // over the union, in global id order -- a single-engine run's sensor
  // order. A sensor is up when its owning gateway's dynamics say so.
  std::vector<NodeId> sensors;
  for (size_t g = 0; g < exp.gateways_.size(); ++g) {
    sensors.insert(sensors.end(), plan.shards[g].begin(),
                   plan.shards[g].end());
    const api_internal::SensorListFn sensors_at = UpSensors(
        plan.shards[g], std::span<const Gateway>(&exp.gateways_[g], 1));
    exp.gateway_truths_.emplace_back();
    for (const td::Query& q : queries) {
      exp.gateway_truths_[g].push_back(
          api_internal::MakeDefaultQueryTruth(q, sensors_at));
    }
  }
  std::sort(sensors.begin(), sensors.end());
  const api_internal::SensorListFn global_sensors_at =
      UpSensors(std::move(sensors), exp.gateways_);
  for (const td::Query& q : queries) {
    exp.global_truths_.push_back(
        api_internal::MakeDefaultQueryTruth(q, global_sensors_at));
  }

  // The serving layer, preloaded with the builder-time subscriptions.
  exp.broker_ = std::make_unique<SubscriptionBroker>(
      exp.coordinator_.get(), queries, exp.gateways_.size(),
      SubscriptionBroker::Options{.dedup = dedup_});
  for (const auto& [sub, count] : subscriptions_) {
    for (size_t i = 0; i < count; ++i) exp.broker_->Subscribe(sub);
  }

  // Flight recorder: ONE sink shared by every gateway so totals span the
  // federation. Shards keep global node ids and are disjoint, so each
  // gateway's rings attribute its own radio's bytes exactly.
  if (telemetry_) {
    exp.telemetry_ = std::make_shared<obs::TelemetrySink>(*telemetry_);
    for (size_t g = 0; g < exp.gateways_.size(); ++g) {
      exp.gateways_[g].AttachTelemetry(exp.telemetry_.get(),
                                       static_cast<int64_t>(g));
    }
  }

  exp.warmup_ = warmup_;
  exp.epochs_ = epochs_;
  return exp;
}

FederatedResult FederatedExperiment::Builder::Run() { return Build().Run(); }

FederatedSweepResult FederatedExperiment::Builder::RunTrials() {
  // Resolve the global scenario once; it is immutable during aggregation
  // (gateways clone their shard scenarios), so all trials share it
  // read-only and each trial builds its own federation from a copy.
  Builder proto = *this;
  std::unique_ptr<td::Scenario> owned_scenario;
  proto.scenario_.Pin(&owned_scenario);
  std::vector<FederatedResult> results =
      RunTrialsInOrder(trials_, threads_, network_seed_, [&](uint64_t seed) {
        Builder b = proto;
        b.NetworkSeed(seed);
        return b.Run();
      });

  FederatedSweepResult out;
  for (const FederatedResult& r : results) {
    out.rms.Add(r.global[primary_].rms);
    out.bytes_per_epoch.Add(r.bytes_per_epoch);
    if (r.telemetry.enabled) out.telemetry.Merge(r.telemetry);
  }
  out.trials = std::move(results);
  return out;
}

// ---------------------------------------------------- FederatedExperiment

FedEpochResult FederatedExperiment::StepEpoch(uint32_t epoch) {
  const size_t num_gw = gateways_.size();
  const size_t nq = coordinator_->num_queries();

  // The TLS sink makes the broker/window/coordinator hooks live for this
  // epoch; a null sink keeps every hook on its no-op fast path.
  obs::ScopedSink obs_scope(telemetry_.get());
  if (telemetry_) telemetry_->BeginEpoch(epoch);

  FedEpochResult r;
  r.epoch = epoch;
  r.gateway_values.resize(num_gw);

  // Tier 1+2: every gateway aggregates its shard over its own radio.
  std::vector<RootState> roots(num_gw);
  for (size_t g = 0; g < num_gw; ++g) {
    r.gateway_values[g] = gateways_[g].Step(epoch).query_values;
    roots[g] = gateways_[g].engine().root_state();
  }

  // Tier 3: the coordinator merges every gateway into the global answers,
  // slicing each query out of each gateway's root (SliceQueryRoot).
  FedState st = coordinator_->MakeState();
  for (const RootState& root : roots) coordinator_->Merge(&st, root);
  r.global_values.reserve(nq);
  for (const QueryRootState& q : st) r.global_values.push_back(q.Evaluate());

  // Tier 4: fan the epoch out to the standing subscriptions.
  broker_->DeliverEpoch(epoch, roots);

  // Coordinator-tier deltas for this epoch (global merge + broker chains).
  if (telemetry_) {
    const size_t merges = coordinator_->merges();
    const size_t merged_bytes = coordinator_->merged_bytes();
    telemetry_->Count("fed.merges", merges - obs_prev_merges_);
    telemetry_->Count("fed.merged_bytes", merged_bytes - obs_prev_merged_bytes_);
    telemetry_->Event(obs::EventKind::kCoordinatorMerge, -1,
                      static_cast<int64_t>(merges - obs_prev_merges_),
                      static_cast<int64_t>(merged_bytes - obs_prev_merged_bytes_));
    obs_prev_merges_ = merges;
    obs_prev_merged_bytes_ = merged_bytes;
    telemetry_->Count("broker.merge_chains",
                      broker_->last_epoch_merge_chains());
  }
  return r;
}

FederatedResult FederatedExperiment::Run() {
  RunWarmup(warmup_, epochs_, gateways_, telemetry_.get(),
            [this](uint32_t e) { StepEpoch(e); });

  std::vector<FedEpochResult> measured;
  measured.reserve(epochs_);
  for (uint32_t e = warmup_; e < warmup_ + epochs_; ++e) {
    measured.push_back(StepEpoch(e));
  }

  FederatedResult out;
  const size_t nq = coordinator_->num_queries();

  // One query's series over the measured epochs against its exact truth.
  auto series = [&](size_t i, const std::function<double(uint32_t)>& truth,
                    auto estimate) {
    QuerySeries s;
    s.name = query_names_[i];
    for (const FedEpochResult& e : measured) {
      s.estimates.push_back(estimate(e));
      s.truths.push_back(truth(e.epoch));
    }
    s.rms = RelativeRmsError(s.estimates, s.truths);
    return s;
  };
  for (size_t i = 0; i < nq; ++i) {
    out.global.push_back(series(i, global_truths_[i], [i](const auto& e) {
      return e.global_values[i];
    }));
  }
  out.per_gateway.resize(gateways_.size());
  for (size_t g = 0; g < gateways_.size(); ++g) {
    for (size_t i = 0; i < nq; ++i) {
      out.per_gateway[g].push_back(
          series(i, gateway_truths_[g][i],
                 [g, i](const auto& e) { return e.gateway_values[g][i]; }));
    }
  }

  // Serving-layer accounting; group value streams sliced to the measured
  // tail (groups also served warmup epochs, whose values are discarded
  // like warmup epochs everywhere else).
  out.groups = broker_->groups();
  for (SubscriptionBroker::GroupInfo& info : out.groups) {
    if (info.values.size() > measured.size()) {
      info.values.erase(info.values.begin(),
                        info.values.end() - measured.size());
    }
  }
  out.coordinator_merges = coordinator_->merges();
  out.coordinator_merged_bytes = coordinator_->merged_bytes();
  out.merge_chains_per_epoch = broker_->last_epoch_merge_chains();
  out.num_groups = broker_->num_groups();
  out.num_subscribers = broker_->num_subscribers();
  out.window_instances = broker_->window_instances();
  out.total_deliveries = broker_->total_deliveries();

  out.bytes_per_epoch =
      MeasuredRadio(gateways_, epochs_, telemetry_.get()).bytes_per_epoch;
  if (telemetry_) out.telemetry = telemetry_->Summarize();
  return out;
}

}  // namespace td
