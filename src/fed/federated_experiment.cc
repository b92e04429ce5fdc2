#include "fed/federated_experiment.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "util/check.h"
#include "util/hash.h"
#include "util/stats.h"
#include "window/query_window.h"

namespace td {

// ----------------------------------------------------------------- Builder

FederatedExperiment::Builder& FederatedExperiment::Builder::Scenario(
    const td::Scenario* scenario) {
  TD_CHECK(scenario != nullptr);
  scenario_source_ = ScenarioSource::kExternal;
  external_scenario_ = scenario;
  return *this;
}

FederatedExperiment::Builder& FederatedExperiment::Builder::Synthetic(
    uint64_t seed, size_t num_sensors) {
  scenario_source_ = ScenarioSource::kSynthetic;
  scenario_seed_ = seed;
  num_sensors_ = num_sensors;
  return *this;
}

FederatedExperiment::Builder& FederatedExperiment::Builder::Lab(
    uint64_t seed) {
  scenario_source_ = ScenarioSource::kLab;
  scenario_seed_ = seed;
  return *this;
}

FederatedExperiment::Builder& FederatedExperiment::Builder::Gateways(
    size_t count, td::Strategy strategy) {
  for (size_t g = 0; g < count; ++g) {
    GatewayConfig config;
    config.strategy = strategy;
    gateways_.push_back(std::move(config));
  }
  return *this;
}

FederatedExperiment::Builder& FederatedExperiment::Builder::AddGateway(
    GatewayConfig config) {
  gateways_.push_back(std::move(config));
  return *this;
}

FederatedExperiment::Builder& FederatedExperiment::Builder::AddQuery(
    td::Query query) {
  TD_CHECK_MSG(query.kind != AggregateKind::kFrequentItems,
               "kFrequentItems cannot join a federation's query set: its "
               "result is not a scalar");
  queries_.push_back(std::move(query));
  return *this;
}

FederatedExperiment::Builder& FederatedExperiment::Builder::PrimaryQuery(
    size_t index) {
  primary_ = index;
  return *this;
}

FederatedExperiment::Builder& FederatedExperiment::Builder::Reading(
    UintReadingFn reading) {
  reading_ = std::move(reading);
  return *this;
}

FederatedExperiment::Builder& FederatedExperiment::Builder::RealReading(
    RealReadingFn reading) {
  real_reading_ = std::move(reading);
  return *this;
}

FederatedExperiment::Builder& FederatedExperiment::Builder::SketchBitmaps(
    int bitmaps) {
  sketch_bitmaps_ = bitmaps;
  return *this;
}

FederatedExperiment::Builder& FederatedExperiment::Builder::Subscribe(
    Subscription subscription, size_t count) {
  TD_CHECK_GT(count, size_t{0});
  subscriptions_.emplace_back(std::move(subscription), count);
  return *this;
}

FederatedExperiment::Builder& FederatedExperiment::Builder::
    DedupSubscriptions(bool dedup) {
  dedup_ = dedup;
  return *this;
}

FederatedExperiment::Builder& FederatedExperiment::Builder::Telemetry(
    obs::TelemetryConfig config) {
  telemetry_ = config;
  return *this;
}

FederatedExperiment::Builder& FederatedExperiment::Builder::NetworkSeed(
    uint64_t seed) {
  network_seed_ = seed;
  return *this;
}

FederatedExperiment::Builder& FederatedExperiment::Builder::Warmup(
    uint32_t epochs) {
  warmup_ = epochs;
  return *this;
}

FederatedExperiment::Builder& FederatedExperiment::Builder::Epochs(
    uint32_t epochs) {
  epochs_ = epochs;
  return *this;
}

FederatedExperiment::Builder& FederatedExperiment::Builder::Trials(
    uint32_t trials) {
  trials_ = trials;
  return *this;
}

FederatedExperiment::Builder& FederatedExperiment::Builder::Threads(
    unsigned threads) {
  threads_ = threads;
  return *this;
}

FederatedExperiment FederatedExperiment::Builder::Build() {
  TD_CHECK_MSG(!gateways_.empty(),
               "a federation needs at least one gateway; use the plain "
               "Experiment facade for the zero-gateway case");

  FederatedExperiment exp;

  // Global scenario.
  TD_CHECK_MSG(scenario_source_ != ScenarioSource::kNone,
               "no scenario: call Synthetic(seed), Lab(seed) or "
               "Scenario(&scenario) before Build()");
  switch (scenario_source_) {
    case ScenarioSource::kExternal:
      exp.global_ = external_scenario_;
      break;
    case ScenarioSource::kSynthetic:
      exp.owned_global_ = std::make_unique<td::Scenario>(
          MakeSyntheticScenario(scenario_seed_, num_sensors_));
      exp.global_ = exp.owned_global_.get();
      break;
    case ScenarioSource::kLab:
      exp.owned_global_ =
          std::make_unique<td::Scenario>(MakeLabScenario(scenario_seed_));
      exp.global_ = exp.owned_global_.get();
      break;
    case ScenarioSource::kNone:
      break;
  }
  const td::Scenario& global = *exp.global_;

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
  std::vector<td::Query> queries = queries_;
  if (queries.empty()) queries.push_back(td::Query{});
  for (td::Query& q : queries) {
    q = api_internal::ResolveQuery(std::move(q), reading_, real_reading_,
                                   sketch_bitmaps_);
  }
  TD_CHECK_MSG(primary_ < queries.size(),
               "PrimaryQuery(index) is out of range of the AddQuery list");
  exp.primary_ = primary_;
  for (const td::Query& q : queries) exp.query_names_.push_back(q.name);

  // Coordinator: one QueryOps per query, same constructors the gateways
  // use, so merged payloads and coordinator payloads share every seed.
  {
    std::vector<std::unique_ptr<QueryOps>> ops;
    ops.reserve(queries.size());
    for (const td::Query& q : queries) {
      ops.push_back(api_internal::MakeQueryOps(q));
    }
    exp.coordinator_ = std::make_unique<Coordinator>(std::move(ops));
  }

  // Gateways: each gets its own shard scenario, network, query-set engine
  // and (optionally) dynamics, all seeded from (network seed, gateway id)
  // so RunTrials stays bit-identical for any thread count.
  std::vector<WindowSides> sides;
  sides.reserve(gateways_.size());
  for (size_t g = 0; g < gateways_.size(); ++g) {
    const GatewayConfig& config = gateways_[g];
    const uint64_t gateway_seed = Hash64(network_seed_, g);

    Gateway gw;
    gw.scenario = std::make_unique<td::Scenario>(
        MakeShardScenario(global, plan.shards[g]));
    gw.sides = RootStateSides(config.strategy);

    if (config.dynamics) {
      DynamicsConfig dyn = *config.dynamics;
      // Scope the dynamics to the shard: churn, duty cycling and -- via the
      // scoped repair -- ring/tree rebuilds never touch another gateway's
      // sensors (workload/dynamics.h DynamicsConfig::scope).
      dyn.scope = plan.shards[g];
      if (dyn.horizon == 0) dyn.horizon = warmup_ + epochs_;
      gw.dynamics = std::make_shared<DynamicScenario>(
          gw.scenario.get(), dyn, Hash64(gateway_seed, dyn.seed));
    }

    std::shared_ptr<td::LossModel> loss = config.loss;
    if (loss == nullptr) loss = std::make_shared<GlobalLoss>(0.0);
    if (config.dynamics && config.dynamics->bursty) {
      loss = std::make_shared<MaxLoss>(
          loss, std::make_shared<GilbertElliottLoss>(
                    *config.dynamics->bursty,
                    Hash64(gateway_seed, 0x6e11b0acULL)));
    }
    if (gw.dynamics) gw.dynamics->SetBaseLoss(loss);
    gw.network = std::make_shared<td::Network>(&gw.scenario->deployment,
                                               &gw.scenario->connectivity,
                                               std::move(loss), gateway_seed);

    // Always the query-set engine, even for one query: every gateway root
    // state is then a QuerySetTreePartial / QuerySetSynopsis with one
    // payload per query, which is the layout the coordinator slices.
    std::vector<std::unique_ptr<QueryOps>> ops;
    ops.reserve(queries.size());
    for (const td::Query& q : queries) {
      ops.push_back(api_internal::MakeQueryOps(q));
    }
    gw.aggregate =
        std::make_shared<QuerySetAggregate>(std::move(ops), primary_);
    // The coordinator lives off every gateway's root state, so capture is
    // switched on through the engine options rather than by reaching into
    // the engine after construction.
    EngineOptions gw_options = config.options;
    gw_options.capture_root_state = true;
    gw.engine = MakeEngine(config.strategy, *gw.scenario, gw.network,
                           gw.aggregate.get(), gw_options);

    sides.push_back(gw.sides);
    exp.gateways_.push_back(std::move(gw));
  }

  // Ground truths. Per gateway: the shard's sensors that are up at each
  // epoch. Global: the union over gateways, each sensor filtered by its
  // OWNING gateway's dynamics (IsNodeUp is a pure function of the
  // precomputed event stream, safe after the run and across threads).
  using SensorList = std::shared_ptr<const std::vector<NodeId>>;
  bool any_dynamics = false;
  for (const Gateway& gw : exp.gateways_) {
    if (gw.dynamics != nullptr) any_dynamics = true;
  }
  std::vector<api_internal::SensorListFn> gateway_sensors_at;
  for (size_t g = 0; g < exp.gateways_.size(); ++g) {
    if (exp.gateways_[g].dynamics) {
      std::shared_ptr<DynamicScenario> dyn = exp.gateways_[g].dynamics;
      std::vector<NodeId> shard = plan.shards[g];
      gateway_sensors_at.push_back([dyn, shard](uint32_t e) {
        auto up = std::make_shared<std::vector<NodeId>>();
        up->reserve(shard.size());
        for (NodeId v : shard) {
          if (dyn->IsNodeUp(v, e)) up->push_back(v);
        }
        return SensorList(std::move(up));
      });
    } else {
      SensorList fixed =
          std::make_shared<const std::vector<NodeId>>(plan.shards[g]);
      gateway_sensors_at.push_back([fixed](uint32_t) { return fixed; });
    }
  }
  // (sensor, owning gateway) in global id order, so the union list is
  // deterministic and identical to a single-engine run's sensor order.
  std::vector<std::pair<NodeId, size_t>> owned;
  for (size_t g = 0; g < plan.shards.size(); ++g) {
    for (NodeId v : plan.shards[g]) owned.emplace_back(v, g);
  }
  std::sort(owned.begin(), owned.end());
  api_internal::SensorListFn global_sensors_at;
  if (any_dynamics) {
    std::vector<std::shared_ptr<DynamicScenario>> dyns;
    for (const Gateway& gw : exp.gateways_) dyns.push_back(gw.dynamics);
    global_sensors_at = [owned, dyns](uint32_t e) {
      auto up = std::make_shared<std::vector<NodeId>>();
      up->reserve(owned.size());
      for (const auto& [v, g] : owned) {
        if (dyns[g] == nullptr || dyns[g]->IsNodeUp(v, e)) up->push_back(v);
      }
      return SensorList(std::move(up));
    };
  } else {
    auto all = std::make_shared<std::vector<NodeId>>();
    all->reserve(owned.size());
    for (const auto& [v, g] : owned) all->push_back(v);
    SensorList fixed = std::move(all);
    global_sensors_at = [fixed](uint32_t) { return fixed; };
  }
  for (const td::Query& q : queries) {
    exp.global_truths_.push_back(
        api_internal::MakeDefaultQueryTruth(q, global_sensors_at));
  }
  exp.gateway_truths_.resize(exp.gateways_.size());
  for (size_t g = 0; g < exp.gateways_.size(); ++g) {
    for (const td::Query& q : queries) {
      exp.gateway_truths_[g].push_back(
          api_internal::MakeDefaultQueryTruth(q, gateway_sensors_at[g]));
    }
  }

  // The serving layer, preloaded with the builder-time subscriptions.
  exp.broker_ = std::make_unique<SubscriptionBroker>(
      exp.coordinator_.get(), queries, std::move(sides),
      SubscriptionBroker::Options{.dedup = dedup_});
  for (const auto& [sub, count] : subscriptions_) {
    for (size_t i = 0; i < count; ++i) exp.broker_->Subscribe(sub);
  }

  // Flight recorder: ONE sink shared by every gateway radio so totals span
  // the federation. No ring binding -- shard-local ids overlap across
  // gateways, so per-ring attribution would lie; totals stay exact.
  if (telemetry_) {
    exp.telemetry_ = std::make_shared<obs::TelemetrySink>(*telemetry_);
    for (Gateway& gw : exp.gateways_) {
      gw.network->SetTelemetry(exp.telemetry_.get());
    }
  }

  exp.warmup_ = warmup_;
  exp.epochs_ = epochs_;
  return exp;
}

FederatedResult FederatedExperiment::Builder::Run() { return Build().Run(); }

FederatedSweepResult FederatedExperiment::Builder::RunTrials() {
  TD_CHECK_GT(trials_, 0u);

  // Resolve the global scenario once; it is immutable during aggregation
  // (gateways clone their shard scenarios), so all trials share it
  // read-only and each trial builds its own federation from a copy.
  Builder proto = *this;
  std::unique_ptr<td::Scenario> owned_scenario;
  if (scenario_source_ == ScenarioSource::kSynthetic) {
    owned_scenario = std::make_unique<td::Scenario>(
        MakeSyntheticScenario(scenario_seed_, num_sensors_));
    proto.Scenario(owned_scenario.get());
  } else if (scenario_source_ == ScenarioSource::kLab) {
    owned_scenario =
        std::make_unique<td::Scenario>(MakeLabScenario(scenario_seed_));
    proto.Scenario(owned_scenario.get());
  }

  const uint32_t trials = trials_;
  const uint64_t base_seed = network_seed_;
  unsigned workers =
      threads_ != 0 ? threads_
                    : std::max(1u, std::thread::hardware_concurrency());
  if (workers > trials) workers = trials;

  std::vector<FederatedResult> results(trials);
  std::atomic<uint32_t> next{0};
  auto run_trials = [&]() {
    for (;;) {
      const uint32_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= trials) return;
      Builder b = proto;
      // Deterministic per-trial seed: a pure function of (base seed, t),
      // independent of which worker picks the trial up.
      b.NetworkSeed(Hash64(t, base_seed));
      results[t] = b.Run();
    }
  };

  if (workers <= 1) {
    run_trials();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) pool.emplace_back(run_trials);
    for (std::thread& th : pool) th.join();
  }

  // Summaries merge in trial order after the barrier: bit-identical for
  // any thread count or completion schedule.
  FederatedSweepResult out;
  for (uint32_t t = 0; t < trials; ++t) {
    out.rms.Add(results[t].global[proto.primary_].rms);
    out.bytes_per_epoch.Add(results[t].bytes_per_epoch);
    if (results[t].telemetry.enabled) {
      out.telemetry.Merge(results[t].telemetry);
    }
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
  if (telemetry_) telemetry_->set_epoch(epoch);

  FedEpochResult r;
  r.epoch = epoch;
  r.gateway_values.resize(num_gw);

  // Tier 1+2: every gateway aggregates its shard over its own radio.
  std::vector<FedRootState> roots(num_gw);
  for (size_t g = 0; g < num_gw; ++g) {
    Gateway& gw = gateways_[g];
    if (gw.dynamics) {
      EpochDynamics d = gw.dynamics->Advance(epoch, gw.network.get());
      if (d.topology_changed) {
        gw.engine->OnTopologyChanged();
        if (telemetry_) {
          telemetry_->Count("dynamics.repairs");
          telemetry_->Event(obs::EventKind::kTreeRepair,
                            static_cast<int32_t>(g),
                            static_cast<int64_t>(gw.dynamics->repairs()));
        }
      }
    }
    EpochResult er = gw.engine->RunEpoch(epoch);
    r.gateway_values[g] = std::move(er.query_values);
    const RootState rs = gw.engine->root_state();
    roots[g] = FedRootState{
        static_cast<const QuerySetTreePartial*>(rs.tree_partial),
        static_cast<const QuerySetSynopsis*>(rs.synopsis)};
  }

  // Tier 3: the coordinator merges every gateway into the global answers.
  FedState st = coordinator_->MakeState();
  for (const FedRootState& root : roots) coordinator_->Merge(&st, root);
  r.global_values.reserve(nq);
  for (size_t i = 0; i < nq; ++i) {
    r.global_values.push_back(coordinator_->Evaluate(st, i));
  }

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
  TD_CHECK_GT(epochs_, 0u);
  for (uint32_t e = 0; e < warmup_; ++e) StepEpoch(e);
  if (warmup_ > 0) {
    for (Gateway& gw : gateways_) gw.network->ResetEnergy();
    // Registry/trace reset mirrors the energy reset so telemetry totals
    // cross-check bitwise against the measured-epoch legacy counters.
    if (telemetry_) telemetry_->Reset();
  }

  std::vector<FedEpochResult> measured;
  measured.reserve(epochs_);
  for (uint32_t e = warmup_; e < warmup_ + epochs_; ++e) {
    measured.push_back(StepEpoch(e));
  }

  FederatedResult out;
  const size_t nq = coordinator_->num_queries();
  const size_t num_gw = gateways_.size();

  out.global.resize(nq);
  for (size_t i = 0; i < nq; ++i) {
    QuerySeries& series = out.global[i];
    series.name = query_names_[i];
    series.estimates.reserve(measured.size());
    series.truths.reserve(measured.size());
    for (const FedEpochResult& e : measured) {
      series.estimates.push_back(e.global_values[i]);
      series.truths.push_back(global_truths_[i](e.epoch));
    }
    series.rms = RelativeRmsError(series.estimates, series.truths);
  }

  out.per_gateway.resize(num_gw);
  for (size_t g = 0; g < num_gw; ++g) {
    out.per_gateway[g].resize(nq);
    for (size_t i = 0; i < nq; ++i) {
      QuerySeries& series = out.per_gateway[g][i];
      series.name = query_names_[i];
      series.estimates.reserve(measured.size());
      series.truths.reserve(measured.size());
      for (const FedEpochResult& e : measured) {
        series.estimates.push_back(e.gateway_values[g][i]);
        series.truths.push_back(gateway_truths_[g][i](e.epoch));
      }
      series.rms = RelativeRmsError(series.estimates, series.truths);
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

  uint64_t bytes = 0;
  for (Gateway& gw : gateways_) bytes += gw.network->total_energy().bytes;
  out.bytes_per_epoch =
      static_cast<double>(bytes) / static_cast<double>(epochs_);

  if (telemetry_) {
    telemetry_->metrics().GetGauge("run.bytes_per_epoch")
        ->Set(out.bytes_per_epoch);
    out.telemetry = telemetry_->Summarize();
  }
  return out;
}

}  // namespace td
