#include "api/gateway.h"

#include <algorithm>
#include <atomic>
#include <string>
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

// -------------------------------------------------------- GatewayTelemetry

// A gateway's telemetry: the engine-counter and radio-ledger snapshots
// Step diffs into per-epoch series, and the network's link observer, which
// forwards every unicast to the route ager and books the contested ones
// (retries or failure) on the sender's ring and in the trace.
class GatewayTelemetry final : public LinkObserver {
 public:
  GatewayTelemetry(obs::TelemetrySink* sink, int64_t index,
                   const Rings* rings, RouteAger* ager, const Network& net)
      : sink_(sink),
        index_(index),
        rings_(rings),
        ager_(ager) {
    BindRings();
    Rebase(net);
  }
  // The network holds this observer's address.
  GatewayTelemetry(const GatewayTelemetry&) = delete;
  GatewayTelemetry& operator=(const GatewayTelemetry&) = delete;

  void OnUnicast(NodeId src, NodeId dst, uint32_t epoch, int attempts,
                 bool delivered) override {
    if (ager_ != nullptr) {
      ager_->OnUnicast(src, dst, epoch, attempts, delivered);
    }
    if (attempts == 1 && delivered) return;
    const int ring = rings_->level(src);
    if (sink_->config().metrics && ring >= 0) {
      RingSeries& series = ring_series_[static_cast<size_t>(ring)];
      series.retries->Add(static_cast<uint64_t>(attempts - 1));
      if (!delivered) series.failures->Add();
    }
    sink_->Record({epoch, obs::EventKind::kRetry, static_cast<int32_t>(src),
                   ring, attempts, delivered ? 1 : 0});
  }

  // Registers net.ring<k>.* for every level of the gateway's rings; called
  // again after each repair, which can add levels.
  void BindRings() {
    if (!sink_->config().metrics) return;
    obs::MetricRegistry& reg = sink_->metrics();
    for (size_t k = ring_series_.size();
         k <= static_cast<size_t>(rings_->max_level()); ++k) {
      const std::string ring = "net.ring" + std::to_string(k);
      ring_series_.push_back({reg.GetCounter(ring + ".bytes"),
                              reg.GetCounter(ring + ".transmissions"),
                              reg.GetCounter(ring + ".retries"),
                              reg.GetCounter(ring + ".failures")});
    }
  }

  // Makes the radio's current counters the baseline of the next deltas.
  void Rebase(const Network& net) {
    prev_total_ = net.total_energy();
    prev_retry_ = net.retry_stats();
    prev_node_.resize(net.size());
    for (NodeId v = 0; v < net.size(); ++v) prev_node_[v] = net.node_energy(v);
  }

  void OnRepair(size_t repairs) {
    sink_->Count("dynamics.repairs");
    sink_->Event(obs::EventKind::kTreeRepair, -1,
                 static_cast<int64_t>(repairs), index_);
    BindRings();
  }

  // The engine counters' per-epoch deltas, so engines stay telemetry-blind.
  void OnEngineEpoch(const Engine& engine) {
    const EngineStats st = engine.stats();
    if (st.decisions > prev_stats_.decisions) {
      sink_->Count("td.decisions", st.decisions - prev_stats_.decisions);
    }
    if (st.expansions > prev_stats_.expansions) {
      const uint64_t d = st.expansions - prev_stats_.expansions;
      sink_->Count("td.expansions", d);
      sink_->Event(obs::EventKind::kModeSwitch, -1, static_cast<int64_t>(d),
                   index_);
    }
    if (st.shrinks > prev_stats_.shrinks) {
      const uint64_t d = st.shrinks - prev_stats_.shrinks;
      sink_->Count("td.shrinks", d);
      sink_->Event(obs::EventKind::kModeSwitch, -1, -static_cast<int64_t>(d),
                   index_);
    }
    prev_stats_ = st;
    const uint64_t reproc = engine.nodes_reprocessed();
    if (reproc > prev_reprocessed_) {
      sink_->Count("soa.nodes_reprocessed", reproc - prev_reprocessed_);
      prev_reprocessed_ = reproc;
    }
  }

  void OnReroute(uint32_t epoch, NodeId base, size_t rerouted) {
    sink_->Count("link.reroutes", rerouted);
    sink_->Record({epoch, obs::EventKind::kReroute, static_cast<int32_t>(base),
                   rings_->level(base), static_cast<int64_t>(rerouted), 0});
  }

  // The epoch's radio series: deltas of the network's ledger since the
  // last call. Every charge lands on the rings the epoch ran over: repairs
  // re-level before RunEpoch, and charges outside the sweep go to the
  // base, which is ring 0 at every level assignment.
  void OnRadioEpoch(const Network& net) {
    const EnergyStats& e = net.total_energy();
    sink_->Count("net.tx.transmissions",
                 e.transmissions - prev_total_.transmissions);
    sink_->Count("net.tx.packets", e.packets - prev_total_.packets);
    sink_->Count("net.tx.bytes", e.bytes - prev_total_.bytes);
    const RetryStats& rs = net.retry_stats();
    sink_->Count("net.unicast.count", rs.unicasts - prev_retry_.unicasts);
    sink_->Count("net.unicast.delivered", rs.delivered - prev_retry_.delivered);
    sink_->Count("net.unicast.attempts", rs.attempts - prev_retry_.attempts);
    const bool metrics = sink_->config().metrics;
    if (metrics) {
      obs::Histogram* hist =
          sink_->metrics().GetHistogram("net.unicast.attempts_hist");
      for (size_t k = 0; k < rs.by_attempts.size(); ++k) {
        const uint64_t before = k < prev_retry_.by_attempts.size()
                                    ? prev_retry_.by_attempts[k]
                                    : 0;
        hist->Observe(k + 1, rs.by_attempts[k] - before);
      }
    }
    std::vector<uint64_t>* row = sink_->node_energy_row();
    if (row != nullptr && row->size() < net.size()) row->resize(net.size());
    for (NodeId v = 0; v < net.size(); ++v) {
      const EnergyStats& now = net.node_energy(v);
      EnergyStats& prev = prev_node_[v];
      if (now.transmissions == prev.transmissions) continue;
      const uint64_t bytes = now.bytes - prev.bytes;
      if (row != nullptr) (*row)[v] += bytes;
      const int ring = rings_->level(v);
      if (metrics && ring >= 0) {
        RingSeries& series = ring_series_[static_cast<size_t>(ring)];
        series.bytes->Add(bytes);
        series.transmissions->Add(now.transmissions - prev.transmissions);
      }
      prev = now;
    }
    prev_total_ = e;
    prev_retry_ = rs;
  }

 private:
  struct RingSeries {
    obs::Counter* bytes = nullptr;
    obs::Counter* transmissions = nullptr;
    obs::Counter* retries = nullptr;   // physical attempts beyond the first
    obs::Counter* failures = nullptr;  // unicasts that never got through
  };

  obs::TelemetrySink* sink_;
  int64_t index_;          // tags this gateway's trace events
  const Rings* rings_;     // the gateway scenario's rings, repaired in place
  RouteAger* ager_;        // null without route aging
  std::vector<RingSeries> ring_series_;
  // Last-seen cumulative counters.
  EngineStats prev_stats_;
  uint64_t prev_reprocessed_ = 0;
  EnergyStats prev_total_;
  RetryStats prev_retry_;
  std::vector<EnergyStats> prev_node_;
};

// ----------------------------------------------------------------- Gateway

Gateway::Gateway() = default;
Gateway::Gateway(Gateway&&) noexcept = default;
Gateway& Gateway::operator=(Gateway&&) noexcept = default;
Gateway::~Gateway() = default;

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

EpochResult Gateway::Step(uint32_t epoch) {
  if (dynamics_) {
    const EpochDynamics d = dynamics_->Advance(epoch, network_.get());
    if (d.topology_changed) {
      engine_->OnTopologyChanged();
      if (telemetry_) telemetry_->OnRepair(dynamics_->repairs());
    }
  }
  EpochResult r = engine_->RunEpoch(epoch);
  if (telemetry_) telemetry_->OnEngineEpoch(*engine_);
  if (route_ager_ != nullptr) {
    const size_t rerouted = route_ager_->EndEpoch(epoch);
    if (rerouted > 0) {
      // Re-parenting control traffic, charged to the base station exactly
      // like the dynamics tier charges its churn repairs.
      network_->CountTransmission(scenario_->base(), 8 + 2 * rerouted);
      engine_->OnTopologyChanged();
      if (telemetry_) telemetry_->OnReroute(epoch, scenario_->base(), rerouted);
    }
  }
  if (telemetry_) telemetry_->OnRadioEpoch(*network_);
  return r;
}

void Gateway::AttachTelemetry(obs::TelemetrySink* sink, int64_t index) {
  TD_CHECK(sink != nullptr);
  telemetry_ = std::make_unique<GatewayTelemetry>(
      sink, index, &scenario_->rings, route_ager_.get(), *network_);
  network_->SetLinkObserver(telemetry_.get());
}

void Gateway::ResetEnergy() {
  network_->ResetEnergy();
  if (telemetry_) telemetry_->Rebase(*network_);
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
  for (Gateway& gw : gateways) gw.ResetEnergy();
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
