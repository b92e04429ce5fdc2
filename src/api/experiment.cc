#include "api/experiment.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "agg/aggregates.h"
#include "topology/domination.h"
#include "util/check.h"
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

Experiment::Builder& Experiment::Builder::AddQuery(td::Query query) {
  TD_CHECK_MSG(query.kind != AggregateKind::kFrequentItems,
               "kFrequentItems cannot join a query set: its result is not a "
               "scalar; run it via Aggregate(kFrequentItems)");
  queries_.push_back(std::move(query));
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

  // The base station: scenario copy, link layer, dynamics, loss model and
  // network (api/gateway.h).
  GatewaySpec spec;
  spec.scenario = scenario_.Resolve(&spec.owned_scenario);
  spec.shared_network = shared_network_;
  spec.loss = loss_factory_ ? loss_factory_(*spec.scenario) : loss_;
  spec.network_seed = network_seed_;
  spec.dynamics = dynamics_;
  spec.link_layer = link_layer_;
  spec.run_epochs = warmup_ + epochs_;
  exp.gateway_ = Gateway(std::move(spec));
  const td::Scenario& sc = exp.gateway_.scenario();

  // The sensors every default ground truth ranges over.
  std::vector<NodeId> sensors;
  for (NodeId v = 0; v < sc.deployment.size(); ++v) {
    if (sc.tree.InTree(v) && v != sc.base()) sensors.push_back(v);
  }
  exp.population_ = static_cast<double>(sensors.size());
  TD_CHECK_GT(sensors.size(), 0u);

  auto install = [&]<typename A>(std::shared_ptr<A> aggregate) {
    exp.gateway_.Install(std::move(aggregate), strategy_, options_);
  };

  exp.truth_ = truth_;
  const api_internal::SensorListFn sensors_at =
      UpSensors(sensors, std::span<const Gateway>(&exp.gateway_, 1));
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
    const bool lowered_single = queries_.empty();
    std::vector<td::Query> queries = queries_;
    if (lowered_single) queries.emplace_back().kind = kind_;
    queries = ResolveQueries(std::move(queries));
    for (td::Query& q : queries) {
      // Spatial group-by resolves against the scenario (deployment
      // bounding box, hop rings): the resolved partition rides on the
      // query so VisitQueryAggregate wraps its aggregate per group.
      if (q.group_by.active()) {
        q.resolved_groups = std::make_shared<const RegionGrid>(
            q.group_by, sc.deployment, sc.rings, sensors);
        exp.any_group_ = true;
      }
    }

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

    for (const td::Query& q : queries) {
      if (q.window.windowed()) exp.any_window_ = true;
    }
    exp.query_set_engine_ = !lowered_single;

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
      install(std::make_shared<QuerySetAggregate>(
          api_internal::MakeQueryOps(queries), primary_));
    }

    // Windowed queries: base-station windows over the engine's per-epoch
    // root state, plus exact windowed-truth re-aggregators.
    if (exp.any_window_) {
      exp.window_states_.resize(queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        const td::Query& q = queries[i];
        if (!q.window.windowed()) continue;
        Experiment::QueryWindowState& ws = exp.window_states_[i];
        // A fresh QueryOps instance: every operation a window uses is a
        // pure function of the resolved query's parameters, so it behaves
        // bit-identically to the engine's own aggregate.
        ws.window = std::make_unique<QueryWindow>(
            api_internal::MakeQueryOps(q), q.window);
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

    // Grouped queries: a per-group evaluator over the same root state the
    // windows read, plus one exact default truth per region.
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
        for (size_t g = 0; g < q.resolved_groups->num_groups(); ++g) {
          gs.truths.push_back(api_internal::MakeDefaultQueryTruth(
              q, api_internal::FilterSensorsByGroup(
                     sensors_at, q.resolved_groups, static_cast<int>(g))));
        }
      }
    }
  }

  // Telemetry: the gateway derives the radio series from its own network.
  if (telemetry_) {
    exp.telemetry_ = std::make_shared<obs::TelemetrySink>(*telemetry_);
    exp.gateway_.AttachTelemetry(exp.telemetry_.get(), 0);
  }

  exp.warmup_ = warmup_;
  exp.epochs_ = epochs_;
  return exp;
}

RunResult Experiment::Builder::Run() { return Build().Run(); }

SweepResult Experiment::Builder::RunTrials() {
  TD_CHECK_MSG(shared_network_ == nullptr,
               "RunTrials() is incompatible with a shared Network(): each "
               "trial needs its own RNG stream to stay reproducible");

  // Resolve the scenario and loss model once; both are immutable during
  // aggregation, so all trials share them read-only. Every trial then
  // builds its own aggregate, engine and network from a Builder copy.
  Builder proto = *this;
  std::unique_ptr<td::Scenario> owned_scenario;
  const td::Scenario* scenario = proto.scenario_.Pin(&owned_scenario);
  if (loss_factory_) {
    proto.loss_factory_ = nullptr;
    proto.loss_ = loss_factory_(*scenario);
  }
  std::vector<RunResult> results =
      RunTrialsInOrder(trials_, threads_, network_seed_, [&](uint64_t seed) {
        Builder b = proto;
        b.NetworkSeed(seed);
        return b.Run();
      });

  SweepResult out;
  for (const RunResult& r : results) {
    out.rms.Add(r.rms);
    out.bytes_per_epoch.Add(r.bytes_per_epoch);
    RunningStat estimates;
    for (const EpochResult& e : r.epochs) estimates.Add(e.value);
    out.estimates.Merge(estimates);
    // Per-trial sinks are the telemetry "shards", merged in trial order.
    if (r.telemetry.enabled) out.telemetry.Merge(r.telemetry);
  }
  out.trials = std::move(results);
  return out;
}

// -------------------------------------------------------------- Experiment

EpochResult Experiment::StepEpoch(uint32_t epoch) {
  // Installed even when null (it restores on exit): TD_PROFILE_SCOPE and
  // CountEvent in the layers below read this thread-local.
  obs::ScopedSink obs_scope(telemetry_.get());
  if (telemetry_) telemetry_->BeginEpoch(epoch);
  EpochResult r = gateway_.Step(epoch);
  if (any_window_ || any_group_) {
    // Both consumers read the same root state: fetched once, and sliced
    // per query.
    const RootState rs = gateway_.engine().root_state();
    if (any_window_) {
      // Feed every windowed query its slice of the root state;
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
        r.windowed_values[i] =
            ws.window->Observe(SliceQueryRoot(rs, i, query_set_engine_));
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
        gs.eval->Evaluate(SliceQueryRoot(rs, i, query_set_engine_),
                          &r.group_values[i]);
      }
    }
  }
  return r;
}

RunResult Experiment::Run() {
  const std::span<Gateway> gateways(&gateway_, 1);
  // Warmup results are discarded one by one (no batch accumulation).
  RunWarmup(warmup_, epochs_, gateways, telemetry_.get(),
            [this](uint32_t e) { StepEpoch(e); });
  Engine& engine = gateway_.engine();
  const uint64_t reprocessed_before = engine.nodes_reprocessed();

  RunResult out;
  out.epochs.reserve(epochs_);
  for (uint32_t e = warmup_; e < warmup_ + epochs_; ++e) {
    out.epochs.push_back(StepEpoch(e));
  }
  out.nodes_reprocessed_per_epoch =
      static_cast<double>(engine.nodes_reprocessed() - reprocessed_before) /
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

  const RadioBill bill = MeasuredRadio(gateways, epochs_, telemetry_.get());
  out.energy = bill.energy;
  out.bytes_per_epoch = bill.bytes_per_epoch;
  out.header_bytes_per_epoch = bill.header_bytes_per_epoch;
  out.payload_bytes_per_epoch = bill.payload_bytes_per_epoch;
  out.final_delta_size = engine.delta_size();
  out.stats = engine.stats();
  if (dynamics()) out.topology_repairs = dynamics()->repairs();
  const Network& net = gateway_.network();
  const RetryStats& rs = net.retry_stats();
  out.delivery_ratio = rs.delivery_ratio();
  out.attempts_per_epoch =
      static_cast<double>(rs.attempts) / static_cast<double>(epochs_);
  out.retry_histogram = rs.by_attempts;
  if (route_ager()) out.route_reroutes = route_ager()->total_reroutes();
  if (telemetry_) {
    out.telemetry = telemetry_->Summarize();
    out.node_energy.reserve(net.size());
    for (size_t v = 0; v < net.size(); ++v) {
      out.node_energy.push_back(net.node_energy(static_cast<NodeId>(v)));
    }
  }
  return out;
}

}  // namespace td
