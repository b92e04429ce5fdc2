// The five workloads of the benchmark suite. Each builds its systems only
// through Experiment::Builder / FederatedExperiment::Builder, and checks
// every epoch against a reference it computes itself from the inputs it
// generated. See README.md for why each workload exists.
#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "freq/precision_gradient.h"
#include "link/fault_injector.h"
#include "suite.h"
#include "util/stats.h"
#include "workload/labdata.h"
#include "workload/synthetic.h"

namespace td::suite {
namespace {

bool Finite(double v) { return std::isfinite(v); }

/// The sensors every default ground truth ranges over: in the aggregation
/// tree, base station excluded.
std::vector<NodeId> InTreeSensors(const Scenario& sc) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < sc.deployment.size(); ++v) {
    if (v != sc.base() && sc.tree.InTree(v)) out.push_back(v);
  }
  return out;
}

// The site -- deployment, aggregation tree and sensor readings -- is the
// same under every --seed, as in a fielded network; the seed varies what
// differs between runs on it: radio loss draws, link retries and churn. A
// new deployment per seed moved bytes_per_epoch and rel_error by up to 14%
// between seeds, against at most 5% with the site fixed.
const uint64_t kSiteSeed = SeedFor(1, 1);
constexpr uint64_t kReadingSalt = 0x5e45ed;

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// ---------------------------------------------------------------------------
// paper_count: Figure 5's setting. Synthetic 600, Count, Global(0.2), the
// four schemes stepped in lockstep on the default core.
class PaperCount final : public Workload {
 public:
  explicit PaperCount(uint64_t seed) : seed_(seed) {}

  uint32_t warmup() const override { return 20; }
  uint32_t recorded() const override { return 2000; }
  size_t sensors() const override { return 600; }

  SetupTimes Setup(std::optional<obs::TelemetryConfig> telemetry) override {
    steppers_.clear();
    scenario_.reset();
    SetupTimes t;
    const uint64_t start = NowNs();
    scenario_ = std::make_unique<Scenario>(
        MakeSyntheticScenario(kSiteSeed, 600));
    t.scenario_s = SecondsSince(start);
    const uint64_t build_start = NowNs();
    const std::pair<const char*, Strategy> schemes[] = {
        {"tag", Strategy::kTag},
        {"sd", Strategy::kSynopsisDiffusion},
        {"tdc", Strategy::kTdCoarse},
        {"td", Strategy::kTributaryDelta}};
    uint64_t salt = 10;
    for (const auto& [label, strategy] : schemes) {
      Experiment::Builder b;
      b.Scenario(scenario_.get())
          .Aggregate(AggregateKind::kCount)
          .Strategy(strategy)
          .GlobalLossRate(0.2)
          .NetworkSeed(SeedFor(seed_, salt++));
      if (telemetry) b.Telemetry(*telemetry);
      steppers_.push_back({label, std::make_unique<Experiment>(b.Build())});
    }
    t.build_s = SecondsSince(build_start);
    truth_ = static_cast<double>(InTreeSensors(*scenario_).size());
    estimates_.assign(steppers_.size(), {});
    return t;
  }

  bool Check(uint32_t, bool record, Digest* digest) override {
    bool ok = true;
    for (size_t i = 0; i < steppers_.size(); ++i) {
      const double v = steppers_[i].last.value;
      ok = ok && Finite(v);
      if (record) {
        estimates_[i].push_back(v);
        digest->Add(v);
        digest->Add(steppers_[i].exp->network().total_energy().bytes);
      }
    }
    // Tree loss only removes subtrees, so TAG's exact count cannot exceed
    // the number of sensors in the tree.
    return ok && steppers_[0].last.value <= truth_;
  }

  double RelError() const override {
    double sum = 0.0;
    for (const std::vector<double>& e : estimates_) sum += SchemeError(e);
    return sum / static_cast<double>(estimates_.size());
  }

  void RunChecks(std::vector<std::string>* failures) const override {
    // Figure 5's ordering at 20% loss: TD is at least as accurate as TAG.
    if (SchemeError(estimates_[3]) > SchemeError(estimates_[0])) {
      failures->push_back("paper_count: TD rel_error exceeds TAG's");
    }
  }

 private:
  double SchemeError(const std::vector<double>& est) const {
    return RelativeRmsError(est, truth_);
  }

  uint64_t seed_;
  std::unique_ptr<Scenario> scenario_;
  double truth_ = 0.0;
  std::vector<std::vector<double>> estimates_;  // [scheme][recorded epoch]
};

// ---------------------------------------------------------------------------
// lab_freq: Section 7's frequent-items workload on LabData with the
// bench_fig9 parameters (s = 1%, eps = 0.1%) at Global(0.2); TAG, SD and TD
// in lockstep.
class LabFreq final : public Workload {
 public:
  static constexpr double kSupport = 0.01;
  static constexpr double kEps = 0.001;

  explicit LabFreq(uint64_t seed)
      : seed_(seed), items_(MakeLabDeployment().size()) {
    FillLabItemStreams(&items_, /*epochs_per_node=*/5000);
    std::map<Item, uint64_t> global;
    for (NodeId v = 0; v < items_.num_nodes(); ++v) {
      for (const auto& [u, c] : items_.collection(v)) {
        global[u] += c;
        total_ += c;
      }
    }
    for (const auto& [u, c] : global) {
      if (static_cast<double>(c) > kSupport * static_cast<double>(total_)) {
        frequent_.push_back(u);
      }
    }
  }

  uint32_t warmup() const override { return 20; }
  uint32_t recorded() const override { return 240; }
  size_t sensors() const override { return kLabSensors; }

  SetupTimes Setup(std::optional<obs::TelemetryConfig> telemetry) override {
    steppers_.clear();
    scenario_.reset();
    SetupTimes t;
    const uint64_t start = NowNs();
    scenario_ = std::make_unique<Scenario>(MakeLabScenario(kSiteSeed));
    t.scenario_s = SecondsSince(start);
    const uint64_t build_start = NowNs();
    // TAG and SD spend the whole error budget; TD splits it between its
    // tree and multi-path parts (Section 6.3), as bench_fig9 does.
    const std::tuple<const char*, Strategy, double> schemes[] = {
        {"tag", Strategy::kTag, kEps},
        {"sd", Strategy::kSynopsisDiffusion, kEps},
        {"td", Strategy::kTributaryDelta, kEps / 2}};
    uint64_t salt = 10;
    for (const auto& [label, strategy, eps] : schemes) {
      MultipathFreqParams params;
      params.eps = eps;
      params.eta = 2.0;
      params.n_upper = total_ * 2;
      params.item_bitmaps = 32;
      params.seed = 777;
      Experiment::Builder b;
      b.Scenario(scenario_.get())
          .Aggregate(AggregateKind::kFrequentItems)
          .Items(&items_)
          .Gradient(std::make_shared<MinTotalLoadGradient>(eps, 2.25))
          .FreqParams(params)
          .Strategy(strategy)
          .GlobalLossRate(0.2)
          .NetworkSeed(SeedFor(seed_, salt++));
      if (strategy == Strategy::kTributaryDelta) b.AdaptPeriod(3);
      if (telemetry) b.Telemetry(*telemetry);
      steppers_.push_back({label, std::make_unique<Experiment>(b.Build())});
    }
    t.build_s = SecondsSince(build_start);
    false_negatives_.assign(steppers_.size(), {});
    return t;
  }

  bool Check(uint32_t, bool record, Digest* digest) override {
    bool ok = true;
    for (size_t i = 0; i < steppers_.size(); ++i) {
      const FreqResult& r = steppers_[i].last.freq;
      ok = ok && Finite(r.total);
      for (const auto& [u, c] : r.counts) ok = ok && Finite(c);
      if (!record) continue;
      false_negatives_[i].push_back(FalseNegativeRate(r));
      digest->Add(r.total);
      for (const auto& [u, c] : r.counts) {
        digest->Add(u);
        digest->Add(c);
      }
      digest->Add(steppers_[i].exp->network().total_energy().bytes);
    }
    // TAG's total is an exact sum over the subtrees that got through.
    return ok &&
           steppers_[0].last.freq.total <= static_cast<double>(total_);
  }

  double RelError() const override {
    double sum = 0.0;
    for (const std::vector<double>& fn : false_negatives_) sum += Mean(fn);
    return sum / static_cast<double>(false_negatives_.size());
  }

  void RunChecks(std::vector<std::string>* failures) const override {
    if (Mean(false_negatives_[2]) > Mean(false_negatives_[0])) {
      failures->push_back("lab_freq: TD misses more frequent items than TAG");
    }
  }

 private:
  /// Share of the truly frequent items the report rule of Section 6
  /// (estimated count above (s - eps) * estimated total) leaves out.
  double FalseNegativeRate(const FreqResult& r) const {
    size_t missed = 0;
    for (Item u : frequent_) {
      auto it = r.counts.find(u);
      if (it == r.counts.end() || it->second <= (kSupport - kEps) * r.total) {
        ++missed;
      }
    }
    return static_cast<double>(missed) / static_cast<double>(frequent_.size());
  }

  uint64_t seed_;
  ItemSource items_;
  uint64_t total_ = 0;
  std::vector<Item> frequent_;
  std::unique_ptr<Scenario> scenario_;
  std::vector<std::vector<double>> false_negatives_;  // [scheme][epoch]
};

// ---------------------------------------------------------------------------
// scale_40k: synopsis diffusion Sum over 40k sensors at the paper's density
// on the SoA core, where arenas, epoch-delta replay and network draws do
// the work over a working set larger than cache.
class Scale40k final : public Workload {
 public:
  static constexpr size_t kSensors = 40'000;

  explicit Scale40k(uint64_t seed) : seed_(seed) {}

  uint32_t warmup() const override { return 2; }
  uint32_t recorded() const override { return 30; }
  size_t sensors() const override { return kSensors; }

  /// A sensor's reading holds for 8 epochs, with per-node phases, so each
  /// epoch about 1/8 of the sensors change: both replay and recompute run.
  static uint64_t Reading(NodeId v, uint32_t e) {
    const uint64_t phase = SeedFor(kReadingSalt, v) % 8;
    return 1 + SeedFor(kReadingSalt ^ v, (e + phase) / 8) % 1000;
  }

  SetupTimes Setup(std::optional<obs::TelemetryConfig> telemetry) override {
    steppers_.clear();
    scenario_.reset();
    SetupTimes t;
    const uint64_t start = NowNs();
    const double width =
        20.0 * std::sqrt(static_cast<double>(kSensors) / 600.0);
    scenario_ = std::make_unique<Scenario>(MakeSyntheticScenario(
        kSiteSeed, kSensors, width, width, kSyntheticRadioRange));
    t.scenario_s = SecondsSince(start);
    const uint64_t build_start = NowNs();
    Experiment::Builder b;
    b.Scenario(scenario_.get())
        .Aggregate(AggregateKind::kSum)
        .Reading(Reading)
        .Strategy(Strategy::kSynopsisDiffusion)
        .Core(EngineCore::kSoa)
        .GlobalLossRate(0.2)
        .NetworkSeed(SeedFor(seed_, 10));
    if (telemetry) b.Telemetry(*telemetry);
    steppers_.push_back({"sd", std::make_unique<Experiment>(b.Build())});
    t.build_s = SecondsSince(build_start);
    in_tree_ = InTreeSensors(*scenario_);
    estimates_.clear();
    truths_.clear();
    return t;
  }

  bool Check(uint32_t epoch, bool record, Digest* digest) override {
    const double v = steppers_[0].last.value;
    if (record) {
      double truth = 0.0;
      for (NodeId n : in_tree_) {
        truth += static_cast<double>(Reading(n, epoch));
      }
      estimates_.push_back(v);
      truths_.push_back(truth);
      digest->Add(v);
      digest->Add(steppers_[0].exp->network().total_energy().bytes);
    }
    return Finite(v) && v > 0.0;
  }

  double RelError() const override {
    return RelativeRmsError(estimates_, truths_);
  }

  void RunChecks(std::vector<std::string>* failures) const override {
    // 40 FM bitmaps give ~12% per-epoch error; diffusion keeps loss small.
    if (RelError() > 0.5) {
      failures->push_back("scale_40k: SD Sum is off by more than 50%");
    }
  }

 private:
  uint64_t seed_;
  std::unique_ptr<Scenario> scenario_;
  std::vector<NodeId> in_tree_;
  std::vector<double> estimates_;
  std::vector<double> truths_;
};

// ---------------------------------------------------------------------------
// dashboard: one TD experiment answering a six-query set over a link layer
// with ETX parents, retries, route aging and the reference fault schedule.
class Dashboard final : public Workload {
 public:
  // The reference fault schedule repeats every kFaultCycle epochs, so every
  // timing block sees the same mix of calm and faulted epochs however fast
  // the machine is; epochs past the last cycle run fault-free.
  static constexpr uint32_t kFaultCycle = 120;
  static constexpr uint32_t kFaultCycles = 15;
  enum QueryIndex : size_t {
    kCount,
    kAvg,
    kMax,
    kP90,
    kUnique,
    kEwma,
    kQueries
  };

  explicit Dashboard(uint64_t seed) : seed_(seed) {}

  // Under this link layer TD's delta grows over the whole field within
  // about 60 epochs, and stays there; measurement starts once it has.
  uint32_t warmup() const override { return 60; }
  uint32_t recorded() const override { return 200; }
  size_t sensors() const override { return 600; }

  /// 12-bit light level that changes every epoch, so replay never hits.
  static uint64_t Light(NodeId v, uint32_t e) {
    return (SeedFor(kReadingSalt, v) + 7ull * e +
            SeedFor(kReadingSalt ^ v, e) % 64) %
           4096;
  }

  SetupTimes Setup(std::optional<obs::TelemetryConfig> telemetry) override {
    steppers_.clear();
    scenario_.reset();
    SetupTimes t;
    const uint64_t start = NowNs();
    scenario_ = std::make_unique<Scenario>(
        MakeSyntheticScenario(kSiteSeed, 600));
    t.scenario_s = SecondsSince(start);
    const uint64_t build_start = NowNs();
    LinkLayerConfig link;
    link.etx_parents = true;
    link.retry.max_attempts = 3;
    link.aging = RouteAgingConfig{};
    const std::vector<LinkFault> cycle =
        ReferenceFaultSchedule(scenario_->deployment, kFaultCycle);
    for (uint32_t c = 0; c < kFaultCycles; ++c) {
      for (LinkFault f : cycle) {
        f.start_epoch += c * kFaultCycle;
        f.end_epoch += c * kFaultCycle;
        link.faults.push_back(f);
      }
    }
    link.seed = SeedFor(seed_, 3);
    Experiment::Builder b;
    b.Scenario(scenario_.get())
        .AddQuery({.kind = AggregateKind::kCount})
        .AddQuery({.kind = AggregateKind::kAvg})
        .AddQuery({.kind = AggregateKind::kMax})
        .AddQuery(Query{.kind = AggregateKind::kQuantileQd,
                        .name = "p90",
                        .quantile_p = 0.9,
                        .digest_bits = 12,
                        .digest_k = 64}
                      .GroupBy(RegionSpec::Grid(4, 4)))
        .AddQuery(Query{.kind = AggregateKind::kUniqueCount}.Window(
            WindowSpec::Sliding(24)))
        .AddQuery({.kind = AggregateKind::kEwma})
        .Reading(Light)
        .Strategy(Strategy::kTributaryDelta)
        .LinkLayer(link)
        .NetworkSeed(SeedFor(seed_, 10));
    if (telemetry) b.Telemetry(*telemetry);
    steppers_.push_back({"td", std::make_unique<Experiment>(b.Build())});
    t.build_s = SecondsSince(build_start);
    // The link layer rebuilds the tree on the experiment's own copy.
    in_tree_ = InTreeSensors(steppers_[0].exp->scenario());
    estimates_.assign(kQueries - 1, {});
    truths_.assign(kQueries - 1, {});
    return t;
  }

  bool Check(uint32_t epoch, bool record, Digest* digest) override {
    const EpochResult& r = steppers_[0].last;
    bool ok = r.query_values.size() == kQueries &&
              r.group_values.size() == kQueries &&
              r.group_values[kP90].size() == 16;
    if (!ok) return false;
    for (double v : r.query_values) ok = ok && Finite(v);
    for (double v : r.group_values[kP90]) ok = ok && Finite(v);

    std::vector<double> light;
    light.reserve(in_tree_.size());
    for (NodeId v : in_tree_) {
      light.push_back(static_cast<double>(Light(v, epoch)));
    }
    const double max = *std::max_element(light.begin(), light.end());
    // A missed reading can only lower the maximum.
    ok = ok && r.query_values[kMax] <= max;
    if (!record) return ok;

    const std::set<double> levels(light.begin(), light.end());
    const double distinct = static_cast<double>(levels.size());
    const double truth[] = {static_cast<double>(light.size()), Mean(light),
                            max, Quantile(light, 0.9), distinct};
    for (size_t q = 0; q < kEwma; ++q) {
      estimates_[q].push_back(r.query_values[q]);
      truths_[q].push_back(truth[q]);
    }
    for (double v : r.query_values) digest->Add(v);
    for (double v : r.windowed_values) digest->Add(v);
    for (double v : r.group_values[kP90]) digest->Add(v);
    digest->Add(steppers_[0].exp->network().total_energy().bytes);
    return ok;
  }

  double RelError() const override {
    double sum = 0.0;
    for (size_t q = 0; q < estimates_.size(); ++q) {
      sum += RelativeRmsError(estimates_[q], truths_[q]);
    }
    return sum / static_cast<double>(estimates_.size());
  }

  void RunChecks(std::vector<std::string>*) const override {}

 private:
  uint64_t seed_;
  std::unique_ptr<Scenario> scenario_;
  std::vector<NodeId> in_tree_;
  std::vector<std::vector<double>> estimates_;  // [query][epoch], no EWMA
  std::vector<std::vector<double>> truths_;
};

// ---------------------------------------------------------------------------
// federation: 600 sensors over four mixed-strategy gateways with churn, a
// coordinator and a broker serving 2,454 subscribers in 135 groups.
class Federation final : public Workload {
 public:
  // Epochs the churn stream covers; later epochs keep the last topology.
  static constexpr uint32_t kChurnEpochs = 8000;
  static constexpr size_t kGroups = 135;
  static constexpr size_t kScopes = 15;
  static constexpr size_t kSubscribers = 2454;
  enum QueryIndex : size_t { kP90, kUnique, kSum };

  explicit Federation(uint64_t seed) : seed_(seed) {}

  uint32_t warmup() const override { return 20; }
  uint32_t recorded() const override { return 1500; }
  size_t sensors() const override { return 600; }

  static uint64_t Light(NodeId v, uint32_t e) {
    return 1 + (SeedFor(kReadingSalt, v) + 7ull * e) % 64;
  }

  SetupTimes Setup(std::optional<obs::TelemetryConfig> telemetry) override {
    steppers_.clear();
    scenario_.reset();
    SetupTimes t;
    const uint64_t start = NowNs();
    scenario_ = std::make_unique<Scenario>(
        MakeSyntheticScenario(kSiteSeed, 600));
    t.scenario_s = SecondsSince(start);
    const uint64_t build_start = NowNs();
    DynamicsConfig churn;
    churn.churn = ChurnConfig{};
    churn.seed = SeedFor(seed_, 4);
    churn.horizon = kChurnEpochs;
    const std::pair<Strategy, double> gateways[] = {
        {Strategy::kTributaryDelta, 0.10},
        {Strategy::kTag, 0.05},
        {Strategy::kSynopsisDiffusion, 0.15},
        {Strategy::kTdCoarse, 0.10}};
    FederatedExperiment::Builder b;
    b.Scenario(scenario_.get());
    for (const auto& [strategy, loss] : gateways) {
      b.AddGateway({.strategy = strategy,
                    .loss = std::make_shared<GlobalLoss>(loss),
                    .dynamics = churn});
    }
    b.AddQuery({.kind = AggregateKind::kQuantile, .name = "p90",
                .quantile_p = 0.9})
        .AddQuery({.kind = AggregateKind::kUniqueCount, .name = "distinct"})
        .AddQuery({.kind = AggregateKind::kSum, .name = "sum"})
        .Reading(Light)
        .NetworkSeed(SeedFor(seed_, 10));
    // Every query x window x non-empty gateway subset: 3 x 3 x 15 groups.
    const WindowSpec windows[] = {WindowSpec{}, WindowSpec::Sliding(24),
                                  WindowSpec::Tumbling(10)};
    for (size_t q = 0; q < 3; ++q) {
      for (const WindowSpec& w : windows) {
        for (unsigned mask = 1; mask < 16; ++mask) {
          Subscription sub{.query = q, .window = w};
          for (size_t g = 0; g < 4; ++g) {
            if (mask & (1u << g)) sub.gateways.push_back(g);
          }
          b.Subscribe(sub, 10);
        }
      }
    }
    // Dashboards, city-wide sums and district counts join existing groups.
    b.Subscribe({.query = kP90, .window = WindowSpec::Sliding(24)}, 1000);
    b.Subscribe({.query = kSum}, 100);
    for (size_t g = 0; g < 4; ++g) {
      b.Subscribe({.query = kUnique, .gateways = {g}});
    }
    if (telemetry) b.Telemetry(*telemetry);
    steppers_.push_back(
        {"fed", nullptr, std::make_unique<FederatedExperiment>(b.Build())});
    t.build_s = SecondsSince(build_start);
    sums_.clear();
    truths_.clear();
    return t;
  }

  bool Check(uint32_t epoch, bool record, Digest* digest) override {
    FederatedExperiment& fed = *steppers_[0].fed;
    const FedEpochResult& r = steppers_[0].last_fed;
    bool ok = r.global_values.size() == 3 &&
              fed.broker().num_groups() == kGroups &&
              fed.broker().last_epoch_merge_chains() == kScopes;
    for (double v : r.global_values) ok = ok && Finite(v);
    if (!ok || !record) return ok;
    double truth = 0.0;
    for (size_t g = 0; g < fed.num_gateways(); ++g) {
      const DynamicScenario* dyn = fed.gateway_dynamics(g);
      for (NodeId v : fed.shards()[g]) {
        if (dyn->IsNodeUp(v, epoch)) {
          truth += static_cast<double>(Light(v, epoch));
        }
      }
    }
    sums_.push_back(r.global_values[kSum]);
    truths_.push_back(truth);
    for (double v : r.global_values) digest->Add(v);
    for (const std::vector<double>& gv : r.gateway_values) {
      for (double v : gv) digest->Add(v);
    }
    for (size_t g = 0; g < fed.num_gateways(); ++g) {
      digest->Add(fed.gateway_engine(g).network().total_energy().bytes);
    }
    return ok;
  }

  double RelError() const override { return RelativeRmsError(sums_, truths_); }

  void RunChecks(std::vector<std::string>* failures) const override {
    if (steppers_[0].fed->broker().num_subscribers() != kSubscribers) {
      failures->push_back("federation: broker lost subscribers");
    }
  }

 private:
  uint64_t seed_;
  std::unique_ptr<Scenario> scenario_;
  std::vector<double> sums_;
  std::vector<double> truths_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "paper_count") return std::make_unique<PaperCount>(seed);
  if (name == "lab_freq") return std::make_unique<LabFreq>(seed);
  if (name == "scale_40k") return std::make_unique<Scale40k>(seed);
  if (name == "dashboard") return std::make_unique<Dashboard>(seed);
  if (name == "federation") return std::make_unique<Federation>(seed);
  return nullptr;
}

}  // namespace td::suite
