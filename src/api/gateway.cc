#include "api/gateway.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "agg/aggregate.h"
#include "topology/tree_builder.h"
#include "util/check.h"

namespace td {

// ---------------------------------------------------------- ScenarioSource

void ScenarioSource::Borrow(const Scenario* scenario) {
  TD_CHECK(scenario != nullptr);
  kind_ = Kind::kBorrowed;
  borrowed_ = scenario;
}

void ScenarioSource::Synthetic(uint64_t seed, size_t num_sensors) {
  kind_ = Kind::kSynthetic;
  seed_ = seed;
  num_sensors_ = num_sensors;
}

void ScenarioSource::Lab(uint64_t seed) {
  kind_ = Kind::kLab;
  seed_ = seed;
}

const Scenario* ScenarioSource::Resolve(
    std::unique_ptr<Scenario>* owned) const {
  switch (kind_) {
    case Kind::kBorrowed:
      return borrowed_;
    case Kind::kSynthetic:
      *owned = std::make_unique<Scenario>(
          MakeSyntheticScenario(seed_, num_sensors_));
      return owned->get();
    case Kind::kLab:
      *owned = std::make_unique<Scenario>(MakeLabScenario(seed_));
      return owned->get();
    case Kind::kNone:
      break;
  }
  TD_CHECK_MSG(false,
               "no scenario: call Synthetic(seed), Lab(seed) or "
               "Scenario(&scenario) before Build()");
}

const Scenario* ScenarioSource::Pin(std::unique_ptr<Scenario>* owned) {
  const Scenario* scenario = Resolve(owned);
  Borrow(scenario);
  return scenario;
}

// ----------------------------------------------------------------- Gateway

Gateway::Gateway(GatewaySpec spec)
    : owned_scenario_(std::move(spec.owned_scenario)),
      scenario_(owned_scenario_ ? owned_scenario_.get() : spec.scenario) {
  TD_CHECK(scenario_ != nullptr);
  // Link layers and dynamics rewire rings and tree in place, so they need
  // a private copy (borrowed scenarios stay pristine; every RunTrials trial
  // clones the one shared scenario here). Cloned once, before both, so
  // they drive the same copy.
  if ((spec.link_layer || spec.dynamics) && owned_scenario_ == nullptr) {
    owned_scenario_ = std::make_unique<Scenario>(*scenario_);
    scenario_ = owned_scenario_.get();
  }

  // Link layer: the quality map is built against the copy's deployment and
  // seeded from the config seed alone -- link quality is a property of the
  // deployment, persistent across Monte Carlo trials.
  if (spec.link_layer) {
    Scenario& mut = *owned_scenario_;
    const LinkLayerConfig& ll = *spec.link_layer;
    link_quality_ = std::make_shared<const LinkQualityMap>(
        &mut.deployment, &mut.connectivity, ll.quality, ll.seed);
    const LinkQualityMap& qm = *link_quality_;
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

  if (spec.dynamics) {
    DynamicsConfig config = *spec.dynamics;
    if (config.horizon == 0) config.horizon = spec.run_epochs;
    dynamics_ = std::make_shared<DynamicScenario>(
        owned_scenario_.get(), config,
        Hash64(spec.network_seed, config.seed));
  }

  if (spec.shared_network) {
    network_ = std::move(spec.shared_network);
  } else {
    std::shared_ptr<LossModel> loss = std::move(spec.loss);
    if (spec.link_layer) {
      // The quality map's PRR is the loss model; scripted faults overlay
      // it the same way every other degradation composes: MaxLoss.
      loss = std::make_shared<LinkQualityLoss>(link_quality_);
      if (!spec.link_layer->faults.empty()) {
        loss = std::make_shared<MaxLoss>(
            std::move(loss),
            std::make_shared<LinkFaultInjector>(&scenario_->deployment,
                                                spec.link_layer->faults));
      }
    }
    if (loss == nullptr) loss = std::make_shared<GlobalLoss>(0.0);
    if (spec.dynamics && spec.dynamics->bursty) {
      // Gilbert-Elliott bursts overlay the static model, seeded per trial
      // and gateway so burst patterns differ yet stay schedule-independent.
      loss = std::make_shared<MaxLoss>(
          std::move(loss), std::make_shared<GilbertElliottLoss>(
                               *spec.dynamics->bursty,
                               Hash64(spec.network_seed, 0x6e11b0acULL)));
    }
    if (dynamics_) dynamics_->SetBaseLoss(loss);
    network_ = std::make_shared<Network>(&scenario_->deployment,
                                         &scenario_->connectivity,
                                         std::move(loss), spec.network_seed);
  }

  if (spec.link_layer) {
    // Install the retry policy only when it changes anything: a 1-attempt,
    // ack-free policy leaves DeliverWithRetries on its legacy per-call
    // budget, keeping the run draw-for-draw identical to one without a
    // link layer (the bit-identity pin in tests/link_test.cc).
    const RetryPolicy& rp = spec.link_layer->retry;
    if (rp.max_attempts > 1 || rp.ack_loss) network_->SetRetryPolicy(rp);
    if (spec.link_layer->aging) {
      route_ager_ = std::make_unique<RouteAger>(*spec.link_layer->aging,
                                                owned_scenario_.get());
      network_->SetLinkObserver(route_ager_.get());
    }
  }
}

namespace {

// Node -> ring level over every gateway of a facade. A sensor joins only
// its own gateway's rings (level -1 elsewhere) and the base is level 0 in
// all of them, so the maximum over gateways is the owner's level.
void BindRingUnion(obs::TelemetrySink* sink,
                   const std::vector<const Rings*>& rings) {
  std::vector<int32_t> levels(rings.front()->num_nodes(), -1);
  for (const Rings* r : rings) {
    for (size_t v = 0; v < levels.size(); ++v) {
      levels[v] = std::max(levels[v], r->level(static_cast<NodeId>(v)));
    }
  }
  sink->BindTopology(std::move(levels));
}

}  // namespace

EpochResult Gateway::Step(uint32_t epoch) {
  if (dynamics_) {
    const EpochDynamics d = dynamics_->Advance(epoch, network_.get());
    if (d.topology_changed) {
      engine_->OnTopologyChanged();
      if (sink_) {
        sink_->Count("dynamics.repairs");
        sink_->Event(obs::EventKind::kTreeRepair, -1,
                     static_cast<int64_t>(dynamics_->repairs()), index_);
        // Repairs can re-level the rings: rebind so per-ring series keep
        // tracking the repaired topology.
        BindRingUnion(sink_, *facade_rings_);
      }
    }
  }
  EpochResult r = engine_->RunEpoch(epoch);
  if (sink_) {
    const EngineStats st = engine_->stats();
    if (st.decisions > obs_prev_stats_.decisions) {
      sink_->Count("td.decisions", st.decisions - obs_prev_stats_.decisions);
    }
    if (st.expansions > obs_prev_stats_.expansions) {
      const uint64_t d = st.expansions - obs_prev_stats_.expansions;
      sink_->Count("td.expansions", d);
      sink_->Event(obs::EventKind::kModeSwitch, -1, static_cast<int64_t>(d),
                   index_);
    }
    if (st.shrinks > obs_prev_stats_.shrinks) {
      const uint64_t d = st.shrinks - obs_prev_stats_.shrinks;
      sink_->Count("td.shrinks", d);
      sink_->Event(obs::EventKind::kModeSwitch, -1, -static_cast<int64_t>(d),
                   index_);
    }
    obs_prev_stats_ = st;
    const uint64_t reproc = engine_->nodes_reprocessed();
    if (reproc > obs_prev_reprocessed_) {
      sink_->Count("soa.nodes_reprocessed", reproc - obs_prev_reprocessed_);
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
      if (sink_) {
        sink_->Count("link.reroutes", rerouted);
        sink_->Event(obs::EventKind::kReroute,
                     static_cast<int32_t>(scenario_->base()),
                     static_cast<int64_t>(rerouted));
      }
    }
  }
  return r;
}

void AttachTelemetry(std::span<Gateway> gateways, obs::TelemetrySink* sink) {
  if (sink == nullptr) return;
  auto rings = std::make_shared<std::vector<const Rings*>>();
  for (const Gateway& gw : gateways) rings->push_back(&gw.scenario_->rings);
  for (size_t g = 0; g < gateways.size(); ++g) {
    Gateway& gw = gateways[g];
    gw.sink_ = sink;
    gw.index_ = static_cast<int64_t>(g);
    gw.facade_rings_ = rings;
    gw.network_->SetTelemetry(sink);
  }
  BindRingUnion(sink, *rings);
}

// ------------------------------------------------------ shared run plumbing

api_internal::SensorListFn UpSensors(std::vector<NodeId> sensors,
                                     std::span<const Gateway> gateways) {
  using SensorList = std::shared_ptr<const std::vector<NodeId>>;
  std::vector<std::shared_ptr<const DynamicScenario>> drivers;
  for (const Gateway& gw : gateways) {
    if (gw.dynamics_) drivers.push_back(gw.dynamics_);
  }
  if (drivers.empty()) {
    SensorList fixed =
        std::make_shared<const std::vector<NodeId>>(std::move(sensors));
    return [fixed](uint32_t) { return fixed; };
  }
  return [sensors = std::move(sensors),
          drivers = std::move(drivers)](uint32_t e) {
    auto up = std::make_shared<std::vector<NodeId>>();
    up->reserve(sensors.size());
    for (NodeId v : sensors) {
      bool is_up = true;
      for (const auto& d : drivers) is_up = is_up && d->IsNodeUp(v, e);
      if (is_up) up->push_back(v);
    }
    return SensorList(std::move(up));
  };
}

void ForEachTrial(uint32_t trials, unsigned threads,
                  const std::function<void(uint32_t)>& body) {
  TD_CHECK_MSG(trials > 0,
               "Trials(0): a sweep needs at least one trial; call "
               "Trials(n) with n > 0 before RunTrials()");
  unsigned workers = threads != 0
                         ? threads
                         : std::max(1u, std::thread::hardware_concurrency());
  workers = std::min(workers, trials);
  std::atomic<uint32_t> next{0};
  auto work = [&]() {
    for (;;) {
      const uint32_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= trials) return;
      body(t);
    }
  };
  if (workers <= 1) {
    work();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(work);
  for (std::thread& th : pool) th.join();
}

void RunWarmup(uint32_t warmup, uint32_t epochs, std::span<Gateway> gateways,
               obs::TelemetrySink* sink,
               const std::function<void(uint32_t)>& step) {
  TD_CHECK_MSG(epochs > 0,
               "Epochs(0): a run needs at least one measured epoch; call "
               "Epochs(n) with n > 0 before Run()");
  for (uint32_t e = 0; e < warmup; ++e) step(e);
  if (warmup == 0) return;
  for (Gateway& gw : gateways) gw.network().ResetEnergy();
  // Measured telemetry starts bitwise-aligned with the reset radio
  // counters (warmup traffic belongs to neither).
  if (sink) sink->Reset();
}

RadioBill MeasuredRadio(std::span<const Gateway> gateways, uint32_t epochs,
                        obs::TelemetrySink* sink) {
  RadioBill bill;
  for (const Gateway& gw : gateways) bill.energy += gw.network().total_energy();
  const double n = static_cast<double>(epochs);
  bill.bytes_per_epoch = static_cast<double>(bill.energy.bytes) / n;
  bill.header_bytes_per_epoch =
      static_cast<double>(bill.energy.transmissions * kMessageHeaderBytes) / n;
  bill.payload_bytes_per_epoch =
      bill.bytes_per_epoch - bill.header_bytes_per_epoch;
  if (sink) {
    obs::MetricRegistry& reg = sink->metrics();
    reg.GetGauge("run.bytes_per_epoch")->Set(bill.bytes_per_epoch);
    reg.GetGauge("run.header_bytes_per_epoch")
        ->Set(bill.header_bytes_per_epoch);
    reg.GetGauge("run.payload_bytes_per_epoch")
        ->Set(bill.payload_bytes_per_epoch);
  }
  return bill;
}

}  // namespace td
