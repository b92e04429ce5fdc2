// The per-gateway runtime both facades run: everything one base station
// needs, from its scenario copy to its engine, and the one epoch step that
// drives it. Experiment holds one Gateway and FederatedExperiment holds one
// per shard, so a single engine is literally the one-gateway federation.
//
//   Gateway::Step(epoch):
//     dynamics Advance -> OnTopologyChanged -> RunEpoch
//       -> engine-stat telemetry deltas -> route aging
//       -> net.* telemetry deltas of the radio ledger
//
// The rest of this header is the builder plumbing the two facades share:
// the common settings (RunBuilder), where the scenario comes from
// (ScenarioSource), which sensors a default ground truth ranges over
// (UpSensors), the ordered Monte Carlo trial runner (RunTrialsInOrder),
// and the warmup/reset/run-gauge tail of Run (RunWarmup, MeasuredRadio).
#ifndef TD_API_GATEWAY_H_
#define TD_API_GATEWAY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "api/query.h"
#include "link/link_layer.h"
#include "link/route_aging.h"
#include "net/loss_model.h"
#include "obs/telemetry.h"
#include "util/hash.h"
#include "workload/dynamics.h"
#include "workload/scenario.h"

namespace td {

/// Where a builder's scenario comes from: borrowed (Builder::Scenario) or
/// built on demand from a seed (Builder::Synthetic / Builder::Lab).
class ScenarioSource {
 public:
  void Borrow(const Scenario* scenario);
  void Synthetic(uint64_t seed, size_t num_sensors);
  void Lab(uint64_t seed);

  /// The scenario to run over: the borrowed one, or a freshly built one
  /// parked in *owned. Dies naming the builder calls when none was set.
  const Scenario* Resolve(std::unique_ptr<Scenario>* owned) const;

  /// Resolves once and borrows the result from then on, so every trial of
  /// a sweep shares one read-only scenario (owned by *owned when built).
  const Scenario* Pin(std::unique_ptr<Scenario>* owned);

 private:
  enum class Kind { kNone, kBorrowed, kSynthetic, kLab };
  Kind kind_ = Kind::kNone;
  const Scenario* borrowed_ = nullptr;
  uint64_t seed_ = 0;
  size_t num_sensors_ = 600;
};

/// The settings both facades' builders share, each setter returning the
/// concrete builder so calls chain.
template <typename Builder>
class RunBuilder {
 public:
  // ------------------------------------------------------------ scenario
  /// Uses an externally owned scenario (must outlive the experiment).
  Builder& Scenario(const td::Scenario* scenario) {
    scenario_.Borrow(scenario);
    return Self();
  }
  /// Builds and owns the paper's Synthetic scenario.
  Builder& Synthetic(uint64_t seed, size_t num_sensors = 600) {
    scenario_.Synthetic(seed, num_sensors);
    return Self();
  }
  /// Builds and owns the LabData scenario.
  Builder& Lab(uint64_t seed) {
    scenario_.Lab(seed);
    return Self();
  }

  // ------------------------------------------------------------- queries
  /// Index (into AddQuery order) of the primary query: the one whose
  /// answer fills EpochResult.value, whose truth drives the RMS summaries,
  /// and which stands for the set wherever one scalar is reported.
  /// Default 0.
  Builder& PrimaryQuery(size_t index) {
    primary_ = index;
    return Self();
  }
  /// Integer reading (Sum / Avg / UniqueCount; also Min/Max via cast).
  Builder& Reading(UintReadingFn reading) {
    reading_ = std::move(reading);
    return Self();
  }
  /// Real-valued reading (Min / Max); overrides Reading for those kinds.
  Builder& RealReading(RealReadingFn reading) {
    real_reading_ = std::move(reading);
    return Self();
  }
  /// FM sketch bitmaps for Count/Sum/Avg/UniqueCount synopses.
  Builder& SketchBitmaps(int bitmaps) {
    sketch_bitmaps_ = bitmaps;
    return Self();
  }

  // ----------------------------------------------------------------- run
  /// Attaches a telemetry sink (src/obs/): named metric series (radio
  /// totals and per-ring series derived from each network's own counters at
  /// epoch end, engine and serving-layer counters), a bounded
  /// flight-recorder event ring (retry outcomes, repairs, TD mode
  /// switches, reroutes), and a TD_PROFILE_SCOPE phase profile. Telemetry
  /// only observes -- results stay bit-identical to a telemetry-off run --
  /// and off adds nothing to the radio's per-packet path. An Experiment
  /// also fills RunResult.node_energy and rejects a shared Network() (the
  /// sink would tally foreign traffic); a federation shares one sink
  /// across its gateways and reports the same series.
  Builder& Telemetry(obs::TelemetryConfig config = {}) {
    telemetry_ = config;
    return Self();
  }
  Builder& NetworkSeed(uint64_t seed) {
    network_seed_ = seed;
    network_seed_set_ = true;
    return Self();
  }
  Builder& Warmup(uint32_t epochs) {
    warmup_ = epochs;
    return Self();
  }
  Builder& Epochs(uint32_t epochs) {
    epochs_ = epochs;
    return Self();
  }
  /// Number of Monte Carlo trials RunTrials runs. Each trial builds its
  /// own engines, networks and RNG streams, seeded from (NetworkSeed,
  /// trial).
  Builder& Trials(uint32_t trials) {
    trials_ = trials;
    return Self();
  }
  /// Worker threads for RunTrials; 0 (the default) means
  /// std::thread::hardware_concurrency(). Results are independent of the
  /// thread count: trials never share mutable state and summaries merge in
  /// trial order.
  Builder& Threads(unsigned threads) {
    threads_ = threads;
    return Self();
  }

 protected:
  Builder& Self() { return static_cast<Builder&>(*this); }

  /// `queries` with every unset field filled from the builder-level
  /// defaults (api_internal::ResolveQuery); dies when PrimaryQuery() is
  /// out of range.
  std::vector<Query> ResolveQueries(std::vector<Query> queries) const {
    for (Query& q : queries) {
      q = api_internal::ResolveQuery(std::move(q), reading_, real_reading_,
                                     sketch_bitmaps_);
    }
    TD_CHECK_MSG(primary_ < queries.size(),
                 "PrimaryQuery(index) is out of range of the AddQuery list");
    return queries;
  }

  ScenarioSource scenario_;
  std::vector<Query> queries_;
  size_t primary_ = 0;
  UintReadingFn reading_;
  RealReadingFn real_reading_;
  int sketch_bitmaps_ = 0;  // 0: aggregate default
  std::optional<obs::TelemetryConfig> telemetry_;
  uint64_t network_seed_ = 1;
  bool network_seed_set_ = false;
  uint32_t warmup_ = 0;
  uint32_t epochs_ = 0;
  uint32_t trials_ = 1;
  unsigned threads_ = 0;  // 0: hardware_concurrency
};

/// What one gateway is built from, resolved by the facade's builder.
struct GatewaySpec {
  /// The scenario: `owned_scenario` when set, else the borrowed `scenario`
  /// (which must outlive the gateway). Link layers and dynamics mutate
  /// topology, so they run on a private copy of a borrowed scenario.
  const Scenario* scenario = nullptr;
  std::unique_ptr<Scenario> owned_scenario;

  /// The radio: a shared network, or the gateway's own with this loss
  /// model (null: lossless) and seed. The seed also keys the dynamics and
  /// Gilbert-Elliott streams, so trials stay schedule-independent.
  std::shared_ptr<Network> shared_network;
  std::shared_ptr<LossModel> loss;
  uint64_t network_seed = 1;

  std::optional<DynamicsConfig> dynamics;
  std::optional<LinkLayerConfig> link_layer;

  /// Warmup + measured epochs: fills a zero dynamics horizon.
  uint32_t run_epochs = 0;
};

class GatewayTelemetry;

/// One base station: its scenario, radio, dynamics driver, link layer and
/// engine, with every lifetime kept straight.
class Gateway {
 public:
  Gateway();
  explicit Gateway(GatewaySpec spec);
  Gateway(Gateway&&) noexcept;
  Gateway& operator=(Gateway&&) noexcept;
  ~Gateway();

  /// Builds the engine running `strategy` over `aggregate`, which the
  /// gateway keeps alive for the engine.
  template <Aggregate A>
  void Install(std::shared_ptr<A> aggregate, Strategy strategy,
               const EngineOptions& options) {
    engine_ = MakeEngine(strategy, *scenario_, network_, aggregate.get(),
                         options);
    aggregate_ = std::move(aggregate);
  }

  /// One epoch: applies the epoch's dynamic events (repairs notify the
  /// engine), aggregates, and ages routes. With a sink attached it then
  /// emits the per-epoch deltas of the engine counters and of the radio
  /// ledger. Visit epochs in increasing order; the root state of the epoch
  /// is then engine().root_state().
  EpochResult Step(uint32_t epoch);

  /// Hooks this gateway to `sink` (not null; it must outlive the gateway).
  /// `index` tags the gateway's trace events. From then on Step derives
  /// the net.* series from this gateway's radio: net.tx.* from its total
  /// energy, net.unicast.* from its retry stats, and net.ring<k>.* from
  /// its per-node energy bucketed by this gateway's rings. Contested
  /// unicasts reach the sink through the network's LinkObserver hook.
  void AttachTelemetry(obs::TelemetrySink* sink, int64_t index);

  /// Zeroes the radio's counters (Network::ResetEnergy) and the telemetry
  /// snapshot they are diffed against, so both restart together.
  void ResetEnergy();

  const Scenario& scenario() const { return *scenario_; }
  Network& network() const { return *network_; }
  Engine& engine() const { return *engine_; }
  /// The dynamics driver, or null for a static gateway.
  DynamicScenario* dynamics() const { return dynamics_.get(); }
  const LinkQualityMap* link_quality() const { return link_quality_.get(); }
  RouteAger* route_ager() const { return route_ager_.get(); }

 private:
  friend api_internal::SensorListFn UpSensors(
      std::vector<NodeId> sensors, std::span<const Gateway> gateways);

  std::unique_ptr<Scenario> owned_scenario_;
  const Scenario* scenario_ = nullptr;
  std::shared_ptr<const LinkQualityMap> link_quality_;
  std::shared_ptr<DynamicScenario> dynamics_;
  std::shared_ptr<Network> network_;
  std::unique_ptr<RouteAger> route_ager_;
  std::shared_ptr<void> aggregate_;  // keep-alive for the engine's aggregate
  std::unique_ptr<Engine> engine_;
  // Null until AttachTelemetry. Heap-owned: it is the network's link
  // observer, so its address must survive moves of the gateway.
  std::unique_ptr<GatewayTelemetry> telemetry_;
};

/// The sensors a default ground truth ranges over at each epoch: `sensors`
/// restricted to those the gateways' dynamics report up (alive and awake)
/// -- a powered-down node produces no reading, so it belongs in neither the
/// answer nor the truth. A driver never touches sensors outside its scope.
/// Static gateways hand out one fixed list every epoch. IsNodeUp is a pure
/// function of the precomputed event stream, safe after the run and from
/// trial workers.
api_internal::SensorListFn UpSensors(std::vector<NodeId> sensors,
                                     std::span<const Gateway> gateways);

/// The worker pool behind RunTrialsInOrder: calls body(t) once for every
/// trial t in [0, trials) across `threads` workers (0: one per hardware
/// thread). Dies naming Trials() when there are no trials.
void ForEachTrial(uint32_t trials, unsigned threads,
                  const std::function<void(uint32_t)>& body);

/// Runs `trials` Monte Carlo trials; trial t runs run(Hash64(t, base_seed)),
/// a seed independent of which worker picks it up, and the results come
/// back in trial order, so any fold over them is bit-identical for every
/// thread count.
template <typename Run>
auto RunTrialsInOrder(uint32_t trials, unsigned threads, uint64_t base_seed,
                      Run run) {
  std::vector<std::invoke_result_t<Run&, uint64_t>> results(trials);
  ForEachTrial(trials, threads, [&](uint32_t t) {
    results[t] = run(Hash64(t, base_seed));
  });
  return results;
}

/// The warmup half of both facades' Run: checks that Epochs() asked for a
/// measured epoch, steps the warmup epochs, then zeroes every gateway's
/// radio counters (Gateway::ResetEnergy) and the sink, so measured totals
/// exclude warmup.
void RunWarmup(uint32_t warmup, uint32_t epochs, std::span<Gateway> gateways,
               obs::TelemetrySink* sink,
               const std::function<void(uint32_t)>& step);

/// Radio cost of the measured epochs, summed over a facade's gateways.
/// Every physical transmission carries one fixed header; the rest is
/// payload, so with a query set the header side stays flat as queries are
/// added -- the amortization the multi-query API exists to exploit.
struct RadioBill {
  EnergyStats energy;
  double bytes_per_epoch = 0.0;
  double header_bytes_per_epoch = 0.0;
  double payload_bytes_per_epoch = 0.0;
};

/// Totals the gateways' radios over `epochs` measured epochs and records
/// the run.* gauges on the sink (when there is one).
RadioBill MeasuredRadio(std::span<const Gateway> gateways, uint32_t epochs,
                        obs::TelemetrySink* sink);

}  // namespace td

#endif  // TD_API_GATEWAY_H_
