#include "api/experiment.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <type_traits>
#include <utility>

#include "agg/aggregates.h"
#include "topology/domination.h"
#include "topology/tree_builder.h"
#include "util/check.h"
#include "util/hash.h"
#include "util/stats.h"

namespace td {

std::vector<double> RunResult::estimates() const {
  std::vector<double> out;
  out.reserve(epochs.size());
  for (const EpochResult& e : epochs) out.push_back(e.value);
  return out;
}

std::vector<std::pair<NodeId, EnergyStats>> RunResult::top_energy_nodes(
    size_t k) const {
  std::vector<std::pair<NodeId, EnergyStats>> out;
  out.reserve(node_energy.size());
  for (NodeId v = 0; v < node_energy.size(); ++v) {
    out.emplace_back(v, node_energy[v]);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second.bytes != b.second.bytes) return a.second.bytes > b.second.bytes;
    return a.first < b.first;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

// ----------------------------------------------------------------- Builder

Experiment::Builder& Experiment::Builder::Scenario(
    const td::Scenario* scenario) {
  TD_CHECK(scenario != nullptr);
  scenario_source_ = ScenarioSource::kExternal;
  external_scenario_ = scenario;
  return *this;
}

Experiment::Builder& Experiment::Builder::Synthetic(uint64_t seed,
                                                    size_t num_sensors) {
  scenario_source_ = ScenarioSource::kSynthetic;
  scenario_seed_ = seed;
  num_sensors_ = num_sensors;
  return *this;
}

Experiment::Builder& Experiment::Builder::Lab(uint64_t seed) {
  scenario_source_ = ScenarioSource::kLab;
  scenario_seed_ = seed;
  return *this;
}

Experiment::Builder& Experiment::Builder::Aggregate(AggregateKind kind) {
  kind_ = kind;
  kind_set_ = true;
  return *this;
}

Experiment::Builder& Experiment::Builder::AddQuery(td::Query query) {
  TD_CHECK_MSG(query.kind != AggregateKind::kFrequentItems,
               "kFrequentItems cannot join a query set: its result is not a "
               "scalar; run it via Aggregate(kFrequentItems)");
  queries_.push_back(std::move(query));
  return *this;
}

Experiment::Builder& Experiment::Builder::PrimaryQuery(size_t index) {
  primary_ = index;
  return *this;
}

Experiment::Builder& Experiment::Builder::Reading(UintReadingFn reading) {
  reading_ = std::move(reading);
  return *this;
}

Experiment::Builder& Experiment::Builder::RealReading(RealReadingFn reading) {
  real_reading_ = std::move(reading);
  return *this;
}

Experiment::Builder& Experiment::Builder::Items(const ItemSource* items) {
  items_ = items;
  return *this;
}

Experiment::Builder& Experiment::Builder::Gradient(
    std::shared_ptr<PrecisionGradient> gradient) {
  gradient_ = std::move(gradient);
  return *this;
}

Experiment::Builder& Experiment::Builder::FreqParams(
    MultipathFreqParams params) {
  freq_params_ = params;
  return *this;
}

Experiment::Builder& Experiment::Builder::SketchBitmaps(int bitmaps) {
  sketch_bitmaps_ = bitmaps;
  return *this;
}

Experiment::Builder& Experiment::Builder::Strategy(td::Strategy strategy) {
  strategy_ = strategy;
  return *this;
}

Experiment::Builder& Experiment::Builder::CaptureRootState(bool capture) {
  capture_root_state_ = capture;
  return *this;
}

Experiment::Builder& Experiment::Builder::Options(EngineOptions options) {
  options_ = options;
  return *this;
}

Experiment::Builder& Experiment::Builder::Adaptation(AdaptationConfig config) {
  options_.adaptation = config;
  return *this;
}

Experiment::Builder& Experiment::Builder::AdaptPeriod(uint32_t period) {
  options_.adaptation.period = period;
  return *this;
}

Experiment::Builder& Experiment::Builder::Threshold(double threshold) {
  options_.adaptation.threshold = threshold;
  return *this;
}

Experiment::Builder& Experiment::Builder::Damping(bool on) {
  options_.adaptation.damping = on;
  return *this;
}

Experiment::Builder& Experiment::Builder::TreeRetries(int extra) {
  options_.tree_extra_retransmissions = extra;
  return *this;
}

Experiment::Builder& Experiment::Builder::Dynamics(DynamicsConfig config) {
  dynamics_ = std::move(config);
  return *this;
}

Experiment::Builder& Experiment::Builder::LinkLayer(LinkLayerConfig config) {
  link_layer_ = std::move(config);
  return *this;
}

Experiment::Builder& Experiment::Builder::Telemetry(
    obs::TelemetryConfig config) {
  telemetry_ = config;
  return *this;
}

Experiment::Builder& Experiment::Builder::LossModel(
    std::shared_ptr<td::LossModel> model) {
  loss_ = std::move(model);
  return *this;
}

Experiment::Builder& Experiment::Builder::LossModel(
    std::function<std::shared_ptr<td::LossModel>(const td::Scenario&)>
        factory) {
  loss_factory_ = std::move(factory);
  return *this;
}

Experiment::Builder& Experiment::Builder::GlobalLossRate(double p) {
  loss_ = std::make_shared<GlobalLoss>(p);
  return *this;
}

Experiment::Builder& Experiment::Builder::NetworkSeed(uint64_t seed) {
  network_seed_ = seed;
  network_seed_set_ = true;
  return *this;
}

Experiment::Builder& Experiment::Builder::Network(
    std::shared_ptr<td::Network> network) {
  shared_network_ = std::move(network);
  return *this;
}

Experiment::Builder& Experiment::Builder::Warmup(uint32_t epochs) {
  warmup_ = epochs;
  return *this;
}

Experiment::Builder& Experiment::Builder::Epochs(uint32_t epochs) {
  epochs_ = epochs;
  return *this;
}

Experiment::Builder& Experiment::Builder::Truth(
    std::function<double(uint32_t)> truth) {
  truth_ = std::move(truth);
  return *this;
}

Experiment::Builder& Experiment::Builder::Trials(uint32_t trials) {
  trials_ = trials;
  return *this;
}

Experiment::Builder& Experiment::Builder::Threads(unsigned threads) {
  threads_ = threads;
  return *this;
}

Experiment Experiment::Builder::Build() {
  Experiment exp;

  // Fail fast on incompatible combinations, with diagnostics that say what
  // to change -- a silently misbehaving simulation is worse than an abort.
  TD_CHECK_MSG(!(kind_set_ && !queries_.empty()),
               "Aggregate(kind) and AddQuery(...) are mutually exclusive: "
               "Aggregate is sugar for a one-query set, so fold it into the "
               "AddQuery list instead");
  TD_CHECK_MSG(!(dynamics_ && shared_network_),
               "Dynamics() is incompatible with a shared Network(): dynamic "
               "repairs mutate the experiment's own scenario and node "
               "activity state");
  TD_CHECK_MSG(!(dynamics_ && queries_.empty() &&
                 kind_ == AggregateKind::kFrequentItems),
               "Dynamics() does not support kFrequentItems: its item "
               "streams and precision gradient assume a static tree");
  TD_CHECK_MSG(!(telemetry_ && shared_network_),
               "Telemetry() is incompatible with a shared Network(): the "
               "sink would tally the other users' traffic into this "
               "experiment's series");
  if (shared_network_) {
    TD_CHECK_MSG(loss_ == nullptr && !loss_factory_,
                 "LossModel()/GlobalLossRate() is incompatible with a "
                 "shared Network(): the shared network already owns its "
                 "loss model");
    TD_CHECK_MSG(!network_seed_set_,
                 "NetworkSeed() is incompatible with a shared Network(): "
                 "the shared network already owns its RNG stream");
  }
  if (link_layer_) {
    link_layer_->Validate();
    TD_CHECK_MSG(loss_ == nullptr && !loss_factory_,
                 "LinkLayer() supplies the loss model (the quality map's "
                 "per-link PRR); remove LossModel()/GlobalLossRate() and "
                 "compose extra degradation via LinkLayerConfig.faults");
    TD_CHECK_MSG(shared_network_ == nullptr,
                 "LinkLayer() is incompatible with a shared Network(): the "
                 "retry policy, unicast observer and loss model belong to "
                 "the experiment's own network");
    TD_CHECK_MSG(!(link_layer_->aging && dynamics_),
                 "LinkLayer route aging is incompatible with Dynamics(): "
                 "churn repair and aging would both rewire the same tree");
  }

  // Scenario.
  TD_CHECK_MSG(scenario_source_ != ScenarioSource::kNone,
               "no scenario: call Synthetic(seed), Lab(seed) or "
               "Scenario(&scenario) before Build()");
  switch (scenario_source_) {
    case ScenarioSource::kExternal:
      exp.scenario_ = external_scenario_;
      break;
    case ScenarioSource::kSynthetic:
      exp.owned_scenario_ = std::make_unique<td::Scenario>(
          MakeSyntheticScenario(scenario_seed_, num_sensors_));
      exp.scenario_ = exp.owned_scenario_.get();
      break;
    case ScenarioSource::kLab:
      exp.owned_scenario_ =
          std::make_unique<td::Scenario>(MakeLabScenario(scenario_seed_));
      exp.scenario_ = exp.owned_scenario_.get();
      break;
    case ScenarioSource::kNone:
      break;
  }

  // Link layer: quality-aware topology mutates rings and tree, so the
  // experiment needs its own scenario copy (cloned before dynamics so both
  // drive the same copy). The quality map is built against the copy's
  // deployment and seeded from the config seed alone -- link quality is a
  // property of the deployment, persistent across Monte Carlo trials.
  if (link_layer_) {
    if (exp.owned_scenario_ == nullptr) {
      exp.owned_scenario_ = std::make_unique<td::Scenario>(*exp.scenario_);
      exp.scenario_ = exp.owned_scenario_.get();
    }
    td::Scenario& mut = *exp.owned_scenario_;
    const LinkLayerConfig& ll = *link_layer_;
    exp.link_quality_ = std::make_shared<const LinkQualityMap>(
        &mut.deployment, &mut.connectivity, ll.quality, ll.seed);
    const LinkQualityMap& qm = *exp.link_quality_;
    if (ll.min_ring_prr > 0.0) {
      mut.rings = Rings::Build(
          mut.connectivity, mut.deployment.base(),
          std::vector<bool>(mut.connectivity.num_nodes(), true),
          [&qm, &ll](NodeId from, NodeId to) {
            return qm.Prr(from, to) >= ll.min_ring_prr;
          });
    }
    if (ll.etx_parents) {
      mut.tree = BuildEtxTree(mut.connectivity, mut.rings,
                              [&qm](NodeId child, NodeId parent) {
                                return qm.LinkEtx(child, parent);
                              });
    } else if (ll.min_ring_prr > 0.0) {
      // Rings changed under hop-count routing too: rebuild the optimized
      // tree over them so both sweep arms route over the same rings.
      Rng rng(Hash64(ll.seed, 0x7ee5eedULL));
      mut.tree = BuildOptimizedTree(mut.connectivity, mut.rings, &rng);
    }
  }

  // Dynamics: repairs mutate the scenario, so the experiment needs its own
  // copy (shared external scenarios stay pristine; RunTrials hands every
  // trial the same resolved scenario and each trial clones it here).
  if (dynamics_) {
    if (exp.owned_scenario_ == nullptr) {
      exp.owned_scenario_ = std::make_unique<td::Scenario>(*exp.scenario_);
      exp.scenario_ = exp.owned_scenario_.get();
    }
    DynamicsConfig config = *dynamics_;
    if (config.horizon == 0) config.horizon = warmup_ + epochs_;
    // Stream seed from the per-trial network seed: bit-identical for any
    // RunTrials thread count, different per trial.
    exp.dynamics_ = std::make_shared<DynamicScenario>(
        exp.owned_scenario_.get(), config, Hash64(network_seed_, config.seed));
  }
  const td::Scenario& sc = *exp.scenario_;

  // Network.
  if (shared_network_) {
    exp.network_ = shared_network_;
  } else {
    std::shared_ptr<td::LossModel> loss = loss_;
    if (loss_factory_) {
      TD_CHECK(loss == nullptr);
      loss = loss_factory_(sc);
    }
    if (link_layer_) {
      // The quality map's PRR is the loss model; scripted faults overlay
      // it the same way every other degradation composes: MaxLoss.
      loss = std::make_shared<LinkQualityLoss>(exp.link_quality_);
      if (!link_layer_->faults.empty()) {
        loss = std::make_shared<MaxLoss>(
            std::move(loss), std::make_shared<LinkFaultInjector>(
                                 &sc.deployment, link_layer_->faults));
      }
    }
    if (loss == nullptr) loss = std::make_shared<GlobalLoss>(0.0);
    if (dynamics_ && dynamics_->bursty) {
      // Gilbert-Elliott bursts overlay the static model; per-trial seed so
      // burst patterns differ across trials yet stay schedule-independent.
      loss = std::make_shared<MaxLoss>(
          std::move(loss),
          std::make_shared<GilbertElliottLoss>(
              *dynamics_->bursty, Hash64(network_seed_, 0x6e11b0acULL)));
    }
    if (exp.dynamics_) exp.dynamics_->SetBaseLoss(loss);
    exp.network_ = std::make_shared<td::Network>(
        &sc.deployment, &sc.connectivity, std::move(loss), network_seed_);
  }
  if (link_layer_) {
    // Install the retry policy only when it changes anything: a 1-attempt,
    // ack-free policy leaves DeliverWithRetries on its legacy per-call
    // budget, keeping the experiment draw-for-draw identical to one
    // without LinkLayer() (the bit-identity pin in tests/link_test.cc).
    const RetryPolicy& rp = link_layer_->retry;
    if (rp.max_attempts > 1 || rp.ack_loss) exp.network_->SetRetryPolicy(rp);
    if (link_layer_->aging) {
      exp.route_ager_ = std::make_unique<RouteAger>(
          *link_layer_->aging, exp.owned_scenario_.get());
      exp.network_->SetLinkObserver(exp.route_ager_.get());
    }
  }

  // Telemetry: the sink hangs off this experiment's own network (hot
  // hooks) and binds node -> ring level for the per-ring series; repairs
  // rebind in StepEpoch.
  if (telemetry_) {
    exp.telemetry_ = std::make_shared<obs::TelemetrySink>(*telemetry_);
    std::vector<int32_t> levels(sc.rings.num_nodes());
    for (size_t v = 0; v < levels.size(); ++v) {
      levels[v] = sc.rings.level(static_cast<NodeId>(v));
    }
    exp.telemetry_->BindTopology(std::move(levels));
    exp.network_->SetTelemetry(exp.telemetry_.get());
  }

  // The sensors every default ground truth ranges over.
  std::vector<NodeId> sensors;
  for (NodeId v = 0; v < sc.deployment.size(); ++v) {
    if (sc.tree.InTree(v) && v != sc.base()) sensors.push_back(v);
  }
  exp.population_ = static_cast<double>(sensors.size());
  TD_CHECK_GT(sensors.size(), 0u);

  // Root capture resolves at the facade: an explicit CaptureRootState()
  // request or any windowed query flips the engine option, and MakeEngine
  // enables capture at construction -- nobody pokes the engine afterwards.
  EngineOptions engine_options = options_;
  if (capture_root_state_) engine_options.capture_root_state = true;

  auto install = [&]<typename A>(std::shared_ptr<A> aggregate) {
    exp.engine_ = MakeEngine(strategy_, sc, exp.network_, aggregate.get(),
                             engine_options);
    exp.aggregate_ = std::move(aggregate);
  };

  exp.truth_ = truth_;
  // Sensors the default ground truths range over at epoch e. Static runs
  // use the fixed in-tree set; under dynamics only the sensors that are up
  // (alive and awake) at e count -- a powered-down node produces no
  // reading, so it belongs in neither the answer nor the truth. IsNodeUp
  // is a pure function of the precomputed event stream, safe to evaluate
  // after the run and from RunTrials workers.
  using SensorList = std::shared_ptr<const std::vector<NodeId>>;
  std::function<SensorList(uint32_t)> sensors_at;
  if (exp.dynamics_) {
    std::shared_ptr<DynamicScenario> dyn = exp.dynamics_;
    sensors_at = [dyn, sensors](uint32_t e) {
      auto up = std::make_shared<std::vector<NodeId>>();
      up->reserve(sensors.size());
      for (NodeId v : sensors) {
        if (dyn->IsNodeUp(v, e)) up->push_back(v);
      }
      return SensorList(std::move(up));
    };
  } else {
    // The static set never changes: hand out the same list every epoch.
    SensorList fixed = std::make_shared<const std::vector<NodeId>>(sensors);
    sensors_at = [fixed](uint32_t) { return fixed; };
  }
  if (queries_.empty() && kind_ == AggregateKind::kFrequentItems) {
    TD_CHECK_MSG(items_ != nullptr,
                 "Aggregate(kFrequentItems) needs the per-node item "
                 "collections: call Items(&item_source) before Build()");
    std::shared_ptr<PrecisionGradient> gradient = gradient_;
    if (gradient == nullptr) {
      double d = DominationFactor(ComputeHeightHistogram(sc.tree));
      if (d <= 1.05) d = 1.1;  // the Lemma 3 constant needs d > 1
      gradient = std::make_shared<MinTotalLoadGradient>(freq_params_.eps, d);
    }
    auto agg = std::make_shared<FrequentItemsAggregate>(
        items_, &sc.tree, gradient, freq_params_);
    install(std::move(agg));
    // No scalar ground truth (and no per-query series) unless the caller
    // provides one.
  } else {
    // Resolve the query set; Aggregate(kind) is sugar for a one-query set.
    std::vector<td::Query> queries = queries_;
    const bool lowered_single = queries.empty();
    if (lowered_single) {
      td::Query q;
      q.kind = kind_;
      queries.push_back(std::move(q));
    }
    for (td::Query& q : queries) {
      q = api_internal::ResolveQuery(std::move(q), reading_, real_reading_,
                                     sketch_bitmaps_);
      // Spatial group-by resolves against the scenario (deployment
      // bounding box, hop rings): the resolved partition rides on the
      // query so VisitQueryAggregate wraps its aggregate per group.
      if (q.group_by.active()) {
        q.resolved_groups = std::make_shared<const RegionGrid>(
            q.group_by, sc.deployment, sc.rings, sensors);
        exp.any_group_ = true;
      }
    }
    TD_CHECK_MSG(primary_ < queries.size(),
                 "PrimaryQuery(index) is out of range of the AddQuery list");

    exp.primary_ = primary_;
    for (const td::Query& q : queries) {
      exp.query_names_.push_back(q.name);
      // A grouped query's global truth ranges over the sensors its
      // partition covers (grid/ring partitions cover every sensor;
      // explicit cohorts may not), matching what the grouped payloads
      // aggregate.
      api_internal::SensorListFn truth_sensors =
          q.resolved_groups != nullptr
              ? api_internal::FilterSensorsByGroup(sensors_at,
                                                   q.resolved_groups, -1)
              : sensors_at;
      exp.query_truths_.push_back(
          api_internal::MakeDefaultQueryTruth(q, truth_sensors));
    }
    // Builder-level Truth() overrides the primary query's default.
    if (truth_) exp.query_truths_[primary_] = truth_;
    exp.truth_ = exp.query_truths_[primary_];

    // Windowed and grouped queries imply root capture; decided before the
    // engine is built so MakeEngine can enable it at construction.
    for (const td::Query& q : queries) {
      if (q.window.windowed()) exp.any_window_ = true;
    }
    if (exp.any_window_ || exp.any_group_) {
      engine_options.capture_root_state = true;
      exp.query_set_engine_ = !lowered_single;
    }

    if (lowered_single) {
      // A one-query set lowers to the dedicated single-aggregate engine:
      // bit-identical to the QuerySetAggregate path (pinned by
      // queryset_test) without its per-operation type-erasure hop, and
      // with the engines' FM-bank arena and epoch-delta replay, which a
      // query set cannot use (no FmSketch synopsis, no SelfSynopsisKey).
      // At 10k sensors the query-set path is 1.04-1.92x slower per epoch
      // (TAG Count 0.57 vs 1.01 ms, TD Count 2.2 vs 3.9 ms, SD Sum 79 vs
      // 82 ms; DESIGN.md "Multi-query execution"), so the path stays. The
      // same VisitQueryAggregate dispatch builds both, so the two paths
      // cannot drift apart.
      api_internal::VisitQueryAggregate(queries.front(), [&](auto agg) {
        install(std::make_shared<std::decay_t<decltype(agg)>>(
            std::move(agg)));
      });
    } else {
      std::vector<std::unique_ptr<QueryOps>> ops;
      ops.reserve(queries.size());
      for (const td::Query& q : queries) {
        ops.push_back(api_internal::MakeQueryOps(q));
      }
      install(
          std::make_shared<QuerySetAggregate>(std::move(ops), primary_));
    }

    // Windowed queries: base-station windows over the engine's per-epoch
    // root state, plus exact windowed-truth re-aggregators. Which root
    // sides exist is a strategy property: tree engines surface the exact
    // partial, synopsis diffusion the fused synopsis, Tributary-Delta
    // both. Capture stays off entirely for windowless experiments.
    if (exp.any_window_) {
      const WindowSides sides = RootStateSides(strategy_);
      exp.window_states_.resize(queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        const td::Query& q = queries[i];
        if (!q.window.windowed()) continue;
        Experiment::QueryWindowState& ws = exp.window_states_[i];
        // A fresh QueryOps instance: every operation a window uses is a
        // pure function of the resolved query's parameters, so it behaves
        // bit-identically to the engine's own aggregate.
        ws.window = std::make_unique<QueryWindow>(
            api_internal::MakeQueryOps(q), q.window, sides);
        // A builder-level Truth() overrides the primary query's truth the
        // same way a per-query truth does: the default kind-derived inputs
        // could contradict it, so its windowed truth series stays empty.
        if (i == primary_ && truth_) continue;
        WindowTruthInputFn inputs =
            api_internal::MakeWindowTruthInputs(q, sensors_at);
        if (inputs) {
          ws.truth = std::make_unique<WindowTruth>(
              q.kind, q.window, q.quantile_p, std::move(inputs));
        }
      }
    }

    // Grouped queries: a per-group evaluator over the same captured root
    // state the windows read, plus one exact default truth per region.
    // The evaluator's aggregate comes from the same VisitQueryAggregate
    // dispatch as the engine's, so the opaque payloads line up exactly.
    if (exp.any_group_) {
      exp.group_states_.resize(queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        const td::Query& q = queries[i];
        if (q.resolved_groups == nullptr) continue;
        Experiment::QueryGroupState& gs = exp.group_states_[i];
        gs.eval = api_internal::MakeGroupEval(q);
        gs.names = q.resolved_groups->names();
        // A caller-supplied truth (per-query or builder-level on the
        // primary) says nothing about the regions, so the per-group truth
        // series stays empty -- mirroring the windowed-truth rule.
        if (q.truth) continue;
        if (i == primary_ && truth_) continue;
        gs.truths.reserve(q.resolved_groups->num_groups());
        for (int g = 0; g < q.resolved_groups->num_groups(); ++g) {
          gs.truths.push_back(api_internal::MakeDefaultQueryTruth(
              q, api_internal::FilterSensorsByGroup(sensors_at,
                                                    q.resolved_groups, g)));
        }
      }
    }
  }

  exp.warmup_ = warmup_;
  exp.epochs_ = epochs_;
  return exp;
}

RunResult Experiment::Builder::Run() { return Build().Run(); }

SweepResult Experiment::Builder::RunTrials() {
  TD_CHECK_GT(trials_, 0u);
  TD_CHECK_MSG(shared_network_ == nullptr,
               "RunTrials() is incompatible with a shared Network(): each "
               "trial needs its own RNG stream to stay reproducible");

  // Resolve the scenario and loss model once; both are immutable during
  // aggregation, so all trials share them read-only. Every trial then
  // builds its own aggregate, engine and network from a Builder copy.
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
  if (loss_factory_) {
    TD_CHECK(proto.external_scenario_ != nullptr);
    proto.loss_factory_ = nullptr;
    proto.loss_ = loss_factory_(*proto.external_scenario_);
  }

  const uint32_t trials = trials_;
  const uint64_t base_seed = network_seed_;
  unsigned workers =
      threads_ != 0 ? threads_
                    : std::max(1u, std::thread::hardware_concurrency());
  if (workers > trials) workers = trials;

  std::vector<RunResult> results(trials);
  std::vector<RunningStat> per_trial_estimates(trials);
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
      for (const EpochResult& e : results[t].epochs) {
        per_trial_estimates[t].Add(e.value);
      }
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

  // Summaries merge in trial order after the barrier, so the result is
  // bit-identical for any thread count or completion schedule.
  SweepResult out;
  for (uint32_t t = 0; t < trials; ++t) {
    out.rms.Add(results[t].rms);
    out.bytes_per_epoch.Add(results[t].bytes_per_epoch);
    out.estimates.Merge(per_trial_estimates[t]);
    // Per-trial sinks are the telemetry "shards": merged here, in trial
    // order, so the merged series matches for any thread count.
    if (results[t].telemetry.enabled) {
      out.telemetry.Merge(results[t].telemetry);
    }
  }
  out.trials = std::move(results);
  return out;
}

// -------------------------------------------------------------- Experiment

EpochResult Experiment::StepEpoch(uint32_t epoch) {
  // Installed even when null (it restores on exit): TD_PROFILE_SCOPE and
  // CountEvent in the layers below read this thread-local.
  obs::ScopedSink obs_scope(telemetry_.get());
  if (telemetry_) telemetry_->set_epoch(epoch);
  if (dynamics_) {
    EpochDynamics d = dynamics_->Advance(epoch, network_.get());
    if (d.topology_changed) {
      engine_->OnTopologyChanged();
      if (telemetry_) {
        telemetry_->Count("dynamics.repairs");
        telemetry_->Event(obs::EventKind::kTreeRepair, -1,
                          static_cast<int64_t>(dynamics_->repairs()));
        // Repairs can re-level the rings: rebind so per-ring series keep
        // tracking the repaired topology.
        std::vector<int32_t> levels(scenario_->rings.num_nodes());
        for (size_t v = 0; v < levels.size(); ++v) {
          levels[v] = scenario_->rings.level(static_cast<NodeId>(v));
        }
        telemetry_->BindTopology(std::move(levels));
      }
    }
  }
  EpochResult r = engine_->RunEpoch(epoch);
  if (telemetry_) {
    // Engine-adjacent observation: per-epoch deltas of the engines'
    // cumulative counters, so the engines themselves stay telemetry-blind.
    const EngineStats st = engine_->stats();
    if (st.decisions > obs_prev_stats_.decisions) {
      telemetry_->Count("td.decisions",
                        st.decisions - obs_prev_stats_.decisions);
    }
    if (st.expansions > obs_prev_stats_.expansions) {
      const uint64_t d = st.expansions - obs_prev_stats_.expansions;
      telemetry_->Count("td.expansions", d);
      telemetry_->Event(obs::EventKind::kModeSwitch, -1,
                        static_cast<int64_t>(d));
    }
    if (st.shrinks > obs_prev_stats_.shrinks) {
      const uint64_t d = st.shrinks - obs_prev_stats_.shrinks;
      telemetry_->Count("td.shrinks", d);
      telemetry_->Event(obs::EventKind::kModeSwitch, -1,
                        -static_cast<int64_t>(d));
    }
    obs_prev_stats_ = st;
    const uint64_t reproc = engine_->nodes_reprocessed();
    if (reproc > obs_prev_reprocessed_) {
      telemetry_->Count("soa.nodes_reprocessed",
                        reproc - obs_prev_reprocessed_);
      obs_prev_reprocessed_ = reproc;
    }
  }
  if (route_ager_ != nullptr) {
    const size_t rerouted = route_ager_->EndEpoch(epoch);
    if (rerouted > 0) {
      // Re-parenting control traffic, charged to the base station exactly
      // like the dynamics tier charges its churn repairs.
      network_->CountTransmission(scenario_->base(), 8 + 2 * rerouted);
      engine_->OnTopologyChanged();
      if (telemetry_) {
        telemetry_->Count("link.reroutes", rerouted);
        telemetry_->Event(obs::EventKind::kReroute,
                          static_cast<int32_t>(scenario_->base()),
                          static_cast<int64_t>(rerouted));
      }
    }
  }
  if (any_window_ || any_group_) {
    // Both consumers read the same captured root state: fetched once.
    const RootState rs = engine_->root_state();
    // Query-set engines hold one payload per member query; this slices
    // query i's sides out (either may be null, a strategy property).
    auto query_sides = [&](size_t i) {
      const void* p = rs.tree_partial;
      const void* s = rs.synopsis;
      if (query_set_engine_) {
        p = p == nullptr
                ? nullptr
                : static_cast<const QuerySetTreePartial*>(p)->q[i].get();
        s = s == nullptr
                ? nullptr
                : static_cast<const QuerySetSynopsis*>(s)->q[i].get();
      }
      return std::pair<const void*, const void*>(p, s);
    };
    if (any_window_) {
      // Feed every windowed query its slice of the captured root state;
      // one window tick per StepEpoch call (warmup included -- standing
      // queries don't reset their history when measurement starts).
      const size_t nq = window_states_.size();
      r.windowed_values.resize(nq);
      for (size_t i = 0; i < nq; ++i) {
        QueryWindowState& ws = window_states_[i];
        if (ws.window == nullptr) {
          // A windowless query behaves like a width-1 window: report the
          // instantaneous answer.
          r.windowed_values[i] =
              r.query_values.size() == nq ? r.query_values[i] : r.value;
          continue;
        }
        auto [p, s] = query_sides(i);
        r.windowed_values[i] = ws.window->Observe(p, s);
        if (ws.truth != nullptr) ws.truths.push_back(ws.truth->Observe(epoch));
      }
    }
    if (any_group_) {
      // Slice per-group estimates out of each grouped query's payloads;
      // ungrouped queries keep an empty inner vector.
      const size_t nq = group_states_.size();
      r.group_values.resize(nq);
      for (size_t i = 0; i < nq; ++i) {
        QueryGroupState& gs = group_states_[i];
        if (gs.eval == nullptr) continue;
        auto [p, s] = query_sides(i);
        gs.eval->Evaluate(p, s, &r.group_values[i]);
      }
    }
  }
  if (telemetry_ && telemetry_->config().node_energy_series) {
    // One per-node radio-bytes row per epoch (delta of the cumulative
    // node_energy tally), the time-to-first-death input.
    const size_t n = network_->size();
    if (obs_node_bytes_prev_.size() != n) obs_node_bytes_prev_.assign(n, 0);
    std::vector<uint64_t> row(n);
    for (size_t v = 0; v < n; ++v) {
      const uint64_t b = network_->node_energy(static_cast<NodeId>(v)).bytes;
      row[v] = b - obs_node_bytes_prev_[v];
      obs_node_bytes_prev_[v] = b;
    }
    telemetry_->AppendNodeEnergy(std::move(row));
  }
  return r;
}

RunResult Experiment::Run() {
  TD_CHECK_GT(epochs_, 0u);
  // Warmup results are discarded one by one (no batch accumulation).
  for (uint32_t e = 0; e < warmup_; ++e) StepEpoch(e);
  if (warmup_ > 0) {
    network_->ResetEnergy();
    if (telemetry_) {
      // Measured telemetry starts bitwise-aligned with the reset legacy
      // counters (warmup traffic belongs to neither).
      telemetry_->Reset();
      std::fill(obs_node_bytes_prev_.begin(), obs_node_bytes_prev_.end(), 0);
    }
  }
  const uint64_t reprocessed_before = engine_->nodes_reprocessed();

  RunResult out;
  out.epochs.reserve(epochs_);
  for (uint32_t e = warmup_; e < warmup_ + epochs_; ++e) {
    out.epochs.push_back(StepEpoch(e));
  }
  out.nodes_reprocessed_per_epoch =
      static_cast<double>(engine_->nodes_reprocessed() - reprocessed_before) /
      static_cast<double>(epochs_);
  out.contributing.reserve(out.epochs.size());
  for (const EpochResult& e : out.epochs) {
    out.contributing.push_back(static_cast<double>(e.true_contributing) /
                               population_);
  }

  // Per-query series. Query-set engines report every member's answer in
  // EpochResult.query_values; lowered one-query sets report through
  // EpochResult.value only.
  const size_t nq = query_names_.size();
  if (nq > 0) {
    out.queries.resize(nq);
    for (size_t i = 0; i < nq; ++i) out.queries[i].name = query_names_[i];
    for (const EpochResult& e : out.epochs) {
      // Lowered one-query sets leave query_values empty; any other size
      // mismatch would be an engine bug, not a case to paper over.
      TD_DCHECK(e.query_values.empty() || e.query_values.size() == nq);
      for (size_t i = 0; i < nq; ++i) {
        out.queries[i].estimates.push_back(
            e.query_values.size() == nq ? e.query_values[i] : e.value);
      }
    }
    for (size_t i = 0; i < nq; ++i) {
      if (!query_truths_[i]) continue;
      QuerySeries& series = out.queries[i];
      series.truths.reserve(out.epochs.size());
      for (const EpochResult& e : out.epochs) {
        series.truths.push_back(query_truths_[i](e.epoch));
      }
      series.rms = RelativeRmsError(series.estimates, series.truths);
    }
    // Windowed series: the measured tail of each window's value stream
    // (windows also ran during warmup; those values are discarded along
    // with the warmup epochs, but the window state they built carries in).
    for (size_t i = 0; i < window_states_.size(); ++i) {
      QueryWindowState& ws = window_states_[i];
      if (ws.window == nullptr) continue;
      QuerySeries& series = out.queries[i];
      series.windowed_estimates.reserve(out.epochs.size());
      for (const EpochResult& e : out.epochs) {
        TD_DCHECK(e.windowed_values.size() == nq);
        series.windowed_estimates.push_back(e.windowed_values[i]);
      }
      series.window_merges = ws.window->merges();
      if (ws.truth != nullptr) {
        TD_DCHECK(ws.truths.size() >= out.epochs.size());
        series.windowed_truths.assign(ws.truths.end() - out.epochs.size(),
                                      ws.truths.end());
        series.windowed_rms = RelativeRmsError(series.windowed_estimates,
                                               series.windowed_truths);
      }
    }
    // Grouped series: per-region estimate streams sliced by StepEpoch,
    // with per-region exact truths when no caller override suppressed
    // them (group_estimates[g][e] indexing: region-major for plotting).
    for (size_t i = 0; i < group_states_.size(); ++i) {
      QueryGroupState& gs = group_states_[i];
      if (gs.eval == nullptr) continue;
      QuerySeries& series = out.queries[i];
      const size_t ng = gs.eval->num_groups();
      series.group_names = gs.names;
      series.group_estimates.assign(ng, {});
      for (size_t g = 0; g < ng; ++g) {
        series.group_estimates[g].reserve(out.epochs.size());
      }
      for (const EpochResult& e : out.epochs) {
        TD_DCHECK(e.group_values.size() == nq &&
                  e.group_values[i].size() == ng);
        for (size_t g = 0; g < ng; ++g) {
          series.group_estimates[g].push_back(e.group_values[i][g]);
        }
      }
      if (gs.truths.empty()) continue;
      TD_DCHECK(gs.truths.size() == ng);
      series.group_truths.assign(ng, {});
      series.group_rms.resize(ng);
      for (size_t g = 0; g < ng; ++g) {
        series.group_truths[g].reserve(out.epochs.size());
        for (const EpochResult& e : out.epochs) {
          series.group_truths[g].push_back(gs.truths[g](e.epoch));
        }
        series.group_rms[g] = RelativeRmsError(series.group_estimates[g],
                                               series.group_truths[g]);
      }
    }
    // truth_ aliases the primary query's truth, so the top-level series
    // is a copy, not a second evaluation pass.
    out.truths = out.queries[primary_].truths;
    out.rms = out.queries[primary_].rms;
  } else if (truth_) {
    // FrequentItems with a caller-supplied scalar truth.
    out.truths.reserve(out.epochs.size());
    for (const EpochResult& e : out.epochs) {
      out.truths.push_back(truth_(e.epoch));
    }
    out.rms = RelativeRmsError(out.estimates(), out.truths);
  }

  out.energy = network_->total_energy();
  out.bytes_per_epoch =
      static_cast<double>(out.energy.bytes) / static_cast<double>(epochs_);
  // Every physical transmission (retransmissions included) carries one
  // fixed header; the rest of the byte tally is payload. With a query set
  // the header side stays flat as queries are added -- the amortization the
  // multi-query API exists to exploit.
  out.header_bytes_per_epoch =
      static_cast<double>(out.energy.transmissions * kMessageHeaderBytes) /
      static_cast<double>(epochs_);
  out.payload_bytes_per_epoch =
      out.bytes_per_epoch - out.header_bytes_per_epoch;
  out.final_delta_size = engine_->delta_size();
  out.stats = engine_->stats();
  if (dynamics_) out.topology_repairs = dynamics_->repairs();
  const RetryStats& rs = network_->retry_stats();
  out.delivery_ratio = rs.delivery_ratio();
  out.attempts_per_epoch =
      static_cast<double>(rs.attempts) / static_cast<double>(epochs_);
  out.retry_histogram = rs.by_attempts;
  if (route_ager_) out.route_reroutes = route_ager_->total_reroutes();
  if (telemetry_) {
    // Derived per-run gauges land next to the raw series, then the sink is
    // drained into the result.
    obs::MetricRegistry& reg = telemetry_->metrics();
    reg.GetGauge("run.bytes_per_epoch")->Set(out.bytes_per_epoch);
    reg.GetGauge("run.header_bytes_per_epoch")
        ->Set(out.header_bytes_per_epoch);
    reg.GetGauge("run.payload_bytes_per_epoch")
        ->Set(out.payload_bytes_per_epoch);
    out.telemetry = telemetry_->Summarize();
    out.node_energy.reserve(network_->size());
    for (size_t v = 0; v < network_->size(); ++v) {
      out.node_energy.push_back(network_->node_energy(static_cast<NodeId>(v)));
    }
  }
  return out;
}

}  // namespace td
