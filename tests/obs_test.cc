// Unit + integration tests for src/obs: the metrics registry, the epoch
// tracer (flight recorder), the phase profiler, and the telemetry wiring
// through Experiment and FederatedExperiment.
//
// The load-bearing contracts pinned here:
//  - registry totals equal the legacy EnergyStats / RetryStats /
//    bytes_per_epoch counters bitwise, and the per-ring series partition
//    them (bytes, transmissions, retries, failures),
//  - telemetry-off and telemetry-on runs produce bit-identical RunResults
//    for every strategy and under a retrying, route-aging link layer
//    (telemetry observes, never consumes RNG draws),
//  - RunTrials telemetry shards merge in trial order: Threads(1) ==
//    Threads(8) for every metric row,
//  - the ring buffer overwrites oldest, counts drops, and drains in order,
//  - a storm-preset trace replays the epoch timeline (repairs, retries,
//    TD mode switches).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "fed/federated_experiment.h"
#include "link/fault_injector.h"
#include "link/link_layer.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "workload/dynamics.h"

namespace td {
namespace {

using obs::EventKind;
using obs::TraceEvent;

// --------------------------------------------------------- MetricRegistry --

TEST(MetricsTest, CounterGaugeBasics) {
  obs::MetricRegistry reg;
  obs::Counter* c = reg.GetCounter("a.count");
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->value(), 42u);
  // Lookups by name return the same series.
  EXPECT_EQ(reg.GetCounter("a.count"), c);

  obs::Gauge* g = reg.GetGauge("a.gauge");
  g->Set(2.5);
  g->Set(3.5);
  EXPECT_DOUBLE_EQ(g->value(), 3.5);
}

TEST(MetricsTest, HistogramLog2Buckets) {
  obs::MetricRegistry reg;
  obs::Histogram* h = reg.GetHistogram("h");
  h->Observe(0);    // bucket 0
  h->Observe(1);    // bucket 1
  h->Observe(2);    // bucket 2
  h->Observe(3);    // bucket 2
  h->Observe(4);    // bucket 3
  h->Observe(255);  // bucket 8
  EXPECT_EQ(h->total(), 6u);
  EXPECT_EQ(h->bucket(0), 1u);
  EXPECT_EQ(h->bucket(1), 1u);
  EXPECT_EQ(h->bucket(2), 2u);
  EXPECT_EQ(h->bucket(3), 1u);
  EXPECT_EQ(h->bucket(8), 1u);
  EXPECT_EQ(h->sum(), 0u + 1 + 2 + 3 + 4 + 255);
}

TEST(MetricsTest, RowsAreNameSorted) {
  obs::MetricRegistry reg;
  reg.GetCounter("z.last")->Add(1);
  reg.GetGauge("m.middle")->Set(2.0);
  reg.GetCounter("a.first")->Add(3);
  std::vector<obs::MetricRow> rows = reg.Rows();
  ASSERT_GE(rows.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      rows.begin(), rows.end(),
      [](const obs::MetricRow& a, const obs::MetricRow& b) {
        return a.name < b.name;
      }));
  EXPECT_EQ(rows.front().name, "a.first");
  EXPECT_DOUBLE_EQ(rows.front().value, 3.0);
}

TEST(MetricsTest, ResetKeepsRegistrationsAndPointers) {
  obs::MetricRegistry reg;
  obs::Counter* c = reg.GetCounter("x");
  c->Add(7);
  reg.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(reg.GetCounter("x"), c);  // same stable pointer after Reset
}

TEST(MetricsTest, RegistryMergeAddsByName) {
  obs::MetricRegistry a;
  obs::MetricRegistry b;
  a.GetCounter("shared")->Add(2);
  b.GetCounter("shared")->Add(3);
  b.GetCounter("only_b")->Add(5);
  a.Merge(b);
  EXPECT_EQ(a.GetCounter("shared")->value(), 5u);
  EXPECT_EQ(a.GetCounter("only_b")->value(), 5u);
}

// ------------------------------------------------------------ EpochTracer --

TEST(TracerTest, RecordsInOrderBelowCapacity) {
  obs::EpochTracer tr(8);
  for (uint32_t e = 0; e < 5; ++e) {
    tr.Record({e, EventKind::kRetry, static_cast<int32_t>(e), -1, 2, 1});
  }
  EXPECT_EQ(tr.size(), 5u);
  EXPECT_EQ(tr.recorded(), 5u);
  EXPECT_EQ(tr.dropped(), 0u);
  std::vector<TraceEvent> ev = tr.Snapshot();
  ASSERT_EQ(ev.size(), 5u);
  for (uint32_t e = 0; e < 5; ++e) EXPECT_EQ(ev[e].epoch, e);
}

TEST(TracerTest, OverflowOverwritesOldestAndCountsDropped) {
  obs::EpochTracer tr(4);
  for (uint32_t e = 0; e < 10; ++e) {
    tr.Record({e, EventKind::kRetry, -1, -1, 0, 0});
  }
  EXPECT_EQ(tr.size(), 4u);
  EXPECT_EQ(tr.recorded(), 10u);
  EXPECT_EQ(tr.dropped(), 6u);
  std::vector<TraceEvent> ev = tr.Drain();
  ASSERT_EQ(ev.size(), 4u);
  // The four NEWEST events, oldest first.
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(ev[i].epoch, 6u + i);
}

TEST(TracerTest, DrainClearsRingButKeepsTotals) {
  obs::EpochTracer tr(4);
  tr.Record({1, EventKind::kTreeRepair, -1, -1, 0, 0});
  std::vector<TraceEvent> first = tr.Drain();
  EXPECT_EQ(first.size(), 1u);
  EXPECT_EQ(tr.size(), 0u);
  EXPECT_EQ(tr.recorded(), 1u);
  EXPECT_TRUE(tr.Drain().empty());
  // Recording keeps working after a drain.
  tr.Record({2, EventKind::kTreeRepair, -1, -1, 0, 0});
  EXPECT_EQ(tr.recorded(), 2u);
  EXPECT_EQ(tr.Drain().size(), 1u);
}

TEST(TracerTest, JsonlSchema) {
  std::vector<TraceEvent> ev = {
      {3, EventKind::kModeSwitch, 17, 2, -4, 0},
  };
  const std::string jsonl = obs::ToJsonl(ev);
  EXPECT_EQ(jsonl,
            "{\"epoch\":3,\"kind\":\"mode_switch\",\"node\":17,\"ring\":2,"
            "\"a\":-4,\"b\":0}\n");
}

// ---------------------------------------------------- TLS sink + profiler --

TEST(SinkTest, ScopedSinkInstallsAndRestores) {
  EXPECT_EQ(obs::Current(), nullptr);
  obs::TelemetrySink sink{obs::TelemetryConfig{}};
  {
    obs::ScopedSink outer(&sink);
    EXPECT_EQ(obs::Current(), &sink);
    {
      obs::ScopedSink inner(nullptr);
      EXPECT_EQ(obs::Current(), nullptr);
      obs::CountEvent("never.lands");  // no-op against the null sink
    }
    EXPECT_EQ(obs::Current(), &sink);
    obs::CountEvent("obs_test.ticks", 2);
    obs::Emit(EventKind::kGroupCreated, -1, 9);
  }
  EXPECT_EQ(obs::Current(), nullptr);
  EXPECT_EQ(sink.metrics().GetCounter("obs_test.ticks")->value(), 2u);
  EXPECT_EQ(sink.metrics().GetCounter("never.lands")->value(), 0u);
  std::vector<TraceEvent> ev = sink.tracer().Drain();
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].kind, EventKind::kGroupCreated);
  EXPECT_EQ(ev[0].a, 9);
}

TEST(SinkTest, ProfileScopeCountsCallsOnlyWithSink) {
  obs::TelemetrySink sink{obs::TelemetryConfig{}};
  { TD_PROFILE_SCOPE(obs::Phase::kSweep); }  // no sink installed: no-op
  EXPECT_EQ(sink.profiler().stat(obs::Phase::kSweep).calls, 0u);
  {
    obs::ScopedSink scope(&sink);
    TD_PROFILE_SCOPE(obs::Phase::kSweep);
  }
  EXPECT_EQ(sink.profiler().stat(obs::Phase::kSweep).calls, 1u);
}

// ------------------------------------------------------ Experiment wiring --

Experiment::Builder BaseBuilder(Strategy s) {
  return std::move(Experiment::Builder()
                       .Synthetic(7, 200)
                       .Aggregate(AggregateKind::kCount)
                       .Strategy(s)
                       .GlobalLossRate(0.2)
                       .NetworkSeed(11)
                       .Warmup(6)
                       .Epochs(24));
}

// Everything a RunResult reports except the telemetry block itself.
void ExpectRunsBitIdentical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_EQ(a.epochs[i].value, b.epochs[i].value);
    EXPECT_EQ(a.epochs[i].true_contributing, b.epochs[i].true_contributing);
    EXPECT_EQ(a.epochs[i].reported_contributing,
              b.epochs[i].reported_contributing);
  }
  EXPECT_EQ(a.rms, b.rms);
  EXPECT_EQ(a.energy.transmissions, b.energy.transmissions);
  EXPECT_EQ(a.energy.packets, b.energy.packets);
  EXPECT_EQ(a.energy.bytes, b.energy.bytes);
  EXPECT_EQ(a.bytes_per_epoch, b.bytes_per_epoch);
  EXPECT_EQ(a.header_bytes_per_epoch, b.header_bytes_per_epoch);
  EXPECT_EQ(a.payload_bytes_per_epoch, b.payload_bytes_per_epoch);
  EXPECT_EQ(a.final_delta_size, b.final_delta_size);
  EXPECT_EQ(a.stats.decisions, b.stats.decisions);
  EXPECT_EQ(a.stats.expansions, b.stats.expansions);
  EXPECT_EQ(a.stats.shrinks, b.stats.shrinks);
  EXPECT_EQ(a.delivery_ratio, b.delivery_ratio);
  EXPECT_EQ(a.attempts_per_epoch, b.attempts_per_epoch);
  EXPECT_EQ(a.retry_histogram, b.retry_histogram);
  EXPECT_EQ(a.topology_repairs, b.topology_repairs);
  EXPECT_EQ(a.route_reroutes, b.route_reroutes);
}

constexpr Strategy kAllStrategies[] = {
    Strategy::kTag, Strategy::kTagRetx, Strategy::kSynopsisDiffusion,
    Strategy::kTributaryDelta, Strategy::kTdCoarse};

// Telemetry observes without consuming RNG draws: switching it on must not
// move a single bit of the result, for any strategy.
TEST(TelemetryTest, OffOnBitIdentityAcrossStrategies) {
  for (Strategy s : kAllStrategies) {
    SCOPED_TRACE(static_cast<int>(s));
    RunResult off = BaseBuilder(s).Run();
    RunResult on = BaseBuilder(s).Telemetry().Run();
    EXPECT_FALSE(off.telemetry.enabled);
    EXPECT_TRUE(on.telemetry.enabled);
    ExpectRunsBitIdentical(off, on);
  }
}

// Sum of every net.ring<k><suffix> row.
double SumRingSeries(const obs::TelemetrySummary& t,
                     const std::string& suffix) {
  double sum = 0.0;
  for (const obs::MetricRow& row : t.metrics) {
    const std::string& n = row.name;
    if (n.rfind("net.ring", 0) == 0 && n.size() > suffix.size() &&
        n.compare(n.size() - suffix.size(), suffix.size(), suffix) == 0) {
      sum += row.value;
    }
  }
  return sum;
}

// A link layer that retries, loses acks and ages routes over the reference
// fault schedule: contested unicasts and reroutes on every run.
LinkLayerConfig RetryingLinkLayer(const Scenario& sc) {
  LinkLayerConfig ll;
  ll.etx_parents = true;
  ll.retry.max_attempts = 3;
  ll.retry.ack_loss = true;
  ll.aging = RouteAgingConfig{};
  ll.faults = ReferenceFaultSchedule(sc.deployment, 48);
  return ll;
}

// Route aging and the trace share the network's one link observer; with
// telemetry on, the gateway's observer forwards every unicast to the ager,
// so aged routes (and everything downstream) must not move.
TEST(TelemetryTest, OffOnBitIdentityUnderRetryingAgingLinkLayer) {
  const Scenario sc = MakeSyntheticScenario(9, 120);
  for (Strategy s : {Strategy::kTag, Strategy::kTributaryDelta}) {
    SCOPED_TRACE(static_cast<int>(s));
    auto run = [&](bool telemetry) {
      Experiment::Builder b;
      b.Scenario(&sc)
          .Aggregate(AggregateKind::kCount)
          .Strategy(s)
          .LinkLayer(RetryingLinkLayer(sc))
          .NetworkSeed(5)
          .Warmup(4)
          .Epochs(40);
      if (telemetry) b.Telemetry();
      return b.Run();
    };
    const RunResult off = run(false);
    const RunResult on = run(true);
    ExpectRunsBitIdentical(off, on);
    EXPECT_GT(off.route_reroutes, 0u);
    EXPECT_GT(off.retry_histogram.size(), 1u);
    EXPECT_EQ(on.telemetry.metric("link.reroutes"),
              static_cast<double>(on.route_reroutes));
  }
}

// Contested unicasts land on the sender's ring: the per-ring retry and
// failure series partition the unicast totals, for one engine over a
// retrying link layer and for a federation of retransmitting gateways.
TEST(TelemetryTest, PerRingUnicastSeriesPartitionTotals) {
  const Scenario sc = MakeSyntheticScenario(9, 120);
  const RunResult single = Experiment::Builder()
                               .Scenario(&sc)
                               .Aggregate(AggregateKind::kCount)
                               .Strategy(Strategy::kTagRetx)
                               .LinkLayer(RetryingLinkLayer(sc))
                               .NetworkSeed(5)
                               .Warmup(4)
                               .Epochs(40)
                               .Telemetry()
                               .Run();
  GatewayConfig gateway;
  gateway.strategy = Strategy::kTagRetx;
  gateway.loss = std::make_shared<GlobalLoss>(0.3);
  FederatedExperiment::Builder fb;
  fb.Synthetic(5, 200).AddGateway(gateway).AddGateway(gateway);
  const FederatedResult fed =
      fb.NetworkSeed(7).Warmup(3).Epochs(20).Telemetry().Run();
  for (const obs::TelemetrySummary* t : {&single.telemetry, &fed.telemetry}) {
    const double count = t->metric("net.unicast.count");
    const double attempts = t->metric("net.unicast.attempts");
    const double delivered = t->metric("net.unicast.delivered");
    EXPECT_GT(attempts, count);
    EXPECT_GT(count, delivered);
    EXPECT_EQ(SumRingSeries(*t, ".retries"), attempts - count);
    EXPECT_EQ(SumRingSeries(*t, ".failures"), count - delivered);
  }
}

// The registry is a *mirror*, not a second measurement: its totals equal
// the legacy counters bitwise over the measured epochs.
TEST(TelemetryTest, RegistryTotalsMatchLegacyCounters) {
  RunResult r = BaseBuilder(Strategy::kTributaryDelta).Telemetry().Run();
  const obs::TelemetrySummary& t = r.telemetry;

  // EnergyStats.
  EXPECT_EQ(t.metric("net.tx.transmissions"),
            static_cast<double>(r.energy.transmissions));
  EXPECT_EQ(t.metric("net.tx.packets"), static_cast<double>(r.energy.packets));
  EXPECT_EQ(t.metric("net.tx.bytes"), static_cast<double>(r.energy.bytes));

  // RetryStats via the RunResult surface.
  uint64_t unicasts = 0;
  uint64_t attempts = 0;
  for (size_t k = 0; k < r.retry_histogram.size(); ++k) {
    unicasts += r.retry_histogram[k];
    attempts += r.retry_histogram[k] * (k + 1);
  }
  EXPECT_EQ(t.metric("net.unicast.count"), static_cast<double>(unicasts));
  EXPECT_EQ(t.metric("net.unicast.attempts"), static_cast<double>(attempts));
  EXPECT_EQ(t.metric("net.unicast.attempts_hist.count"),
            static_cast<double>(unicasts));
  ASSERT_GT(unicasts, 0u);
  EXPECT_DOUBLE_EQ(
      t.metric("net.unicast.delivered") / static_cast<double>(unicasts),
      r.delivery_ratio);

  // Derived gauges.
  EXPECT_EQ(t.metric("run.bytes_per_epoch"), r.bytes_per_epoch);
  EXPECT_EQ(t.metric("run.header_bytes_per_epoch"), r.header_bytes_per_epoch);
  EXPECT_EQ(t.metric("run.payload_bytes_per_epoch"),
            r.payload_bytes_per_epoch);

  // Per-ring series partition the totals (static topology: every node has
  // a ring level).
  double ring_bytes = 0.0;
  double ring_tx = 0.0;
  for (const obs::MetricRow& row : t.metrics) {
    if (row.name.rfind("net.ring", 0) != 0) continue;
    if (row.name.size() > 6 &&
        row.name.compare(row.name.size() - 6, 6, ".bytes") == 0) {
      ring_bytes += row.value;
    }
    if (row.name.size() > 14 &&
        row.name.compare(row.name.size() - 14, 14, ".transmissions") == 0) {
      ring_tx += row.value;
    }
  }
  EXPECT_EQ(ring_bytes, static_cast<double>(r.energy.bytes));
  EXPECT_EQ(ring_tx, static_cast<double>(r.energy.transmissions));

  // TD adaptation counters (whole-run, warmup included -- the engine
  // counters are cumulative and the registry reset only clears radio
  // series... both count from the same StepEpoch deltas, so compare the
  // measured-epoch tally against the event stream instead of r.stats).
  int64_t switches = 0;
  for (const TraceEvent& e : t.events) {
    if (e.kind == EventKind::kModeSwitch) switches += std::abs(e.a);
  }
  EXPECT_EQ(static_cast<double>(switches),
            t.metric("td.expansions") + t.metric("td.shrinks"));

  // The phase profile covers the hot loops this run exercised.
  ASSERT_EQ(t.phases.size(), obs::kNumPhases);
  EXPECT_EQ(t.phases[0].name, "sweep");
  EXPECT_GT(t.phases[0].calls, 0u);
}

// The epoch-delta replay counter reaches telemetry unchanged.
TEST(TelemetryTest, SoaCoreMirrorsReplayCounter) {
  auto build = [](bool telemetry) {
    Experiment::Builder b = Experiment::Builder()
                                .Synthetic(7, 200)
                                .Aggregate(AggregateKind::kCount)
                                .Strategy(Strategy::kTributaryDelta)
                                .GlobalLossRate(0.2)
                                .NetworkSeed(11)
                                .Warmup(0)
                                .Epochs(16);
    if (telemetry) b.Telemetry();
    return b.Run();
  };
  RunResult off = build(false);
  RunResult on = build(true);
  ExpectRunsBitIdentical(off, on);
  EXPECT_EQ(on.telemetry.metric("soa.nodes_reprocessed"),
            on.nodes_reprocessed_per_epoch * 16.0);
}

// Per-trial sinks are shards; RunTrials merges them in trial order, so the
// merged series is bit-identical for any thread count.
TEST(TelemetryTest, TrialShardsMergeDeterministically) {
  auto sweep = [](unsigned threads) {
    return BaseBuilder(Strategy::kTributaryDelta)
        .Telemetry()
        .Trials(6)
        .Threads(threads)
        .RunTrials();
  };
  SweepResult a = sweep(1);
  SweepResult b = sweep(8);
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (size_t t = 0; t < a.trials.size(); ++t) {
    ExpectRunsBitIdentical(a.trials[t], b.trials[t]);
    EXPECT_EQ(a.trials[t].telemetry.metrics, b.trials[t].telemetry.metrics);
  }
  // Merged registry rows match exactly (phase wall times are explicitly
  // NOT compared: time is not part of the bit-identity contract).
  EXPECT_TRUE(a.telemetry.enabled);
  EXPECT_EQ(a.telemetry.metrics, b.telemetry.metrics);
  EXPECT_EQ(a.telemetry.trace_recorded, b.telemetry.trace_recorded);
  EXPECT_EQ(a.telemetry.trace_dropped, b.telemetry.trace_dropped);
}

// Satellite: per-node energy attribution and the top-k surface.
TEST(TelemetryTest, NodeEnergySeriesAndTopEnergyNodes) {
  obs::TelemetryConfig config;
  config.node_energy_series = true;
  RunResult r =
      BaseBuilder(Strategy::kTributaryDelta).Telemetry(config).Run();

  ASSERT_FALSE(r.node_energy.empty());
  uint64_t node_sum = 0;
  for (const EnergyStats& e : r.node_energy) node_sum += e.bytes;
  EXPECT_EQ(node_sum, r.energy.bytes);

  std::vector<std::pair<NodeId, EnergyStats>> top = r.top_energy_nodes(5);
  ASSERT_EQ(top.size(), 5u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].second.bytes, top[i].second.bytes);
  }
  uint64_t max_bytes = 0;
  for (const EnergyStats& e : r.node_energy) {
    max_bytes = std::max(max_bytes, e.bytes);
  }
  EXPECT_EQ(top[0].second.bytes, max_bytes);

  // The epoch x node matrix sums to the same measured total.
  ASSERT_EQ(r.telemetry.node_energy_series.size(), size_t{24});
  uint64_t series_sum = 0;
  for (const auto& row : r.telemetry.node_energy_series) {
    for (uint64_t v : row) series_sum += v;
  }
  EXPECT_EQ(series_sum, r.energy.bytes);

  // Telemetry-off leaves the opt-in surfaces empty.
  RunResult off = BaseBuilder(Strategy::kTributaryDelta).Run();
  EXPECT_TRUE(off.node_energy.empty());
  EXPECT_TRUE(off.top_energy_nodes(5).empty());
}

// Window layer: the state-merge counter mirrors QuerySeries.window_merges.
TEST(TelemetryTest, WindowMergeCounterMirrorsSeries) {
  td::Query q;
  q.window = WindowSpec::Sliding(8);
  RunResult r = Experiment::Builder()
                    .Synthetic(7, 150)
                    .AddQuery(q)
                    .Strategy(Strategy::kTag)
                    .GlobalLossRate(0.1)
                    .NetworkSeed(3)
                    .Warmup(0)
                    .Epochs(20)
                    .Telemetry()
                    .Run();
  ASSERT_EQ(r.queries.size(), 1u);
  EXPECT_GT(r.queries[0].window_merges, 0u);
  EXPECT_EQ(r.telemetry.metric("window.state_merges"),
            static_cast<double>(r.queries[0].window_merges));
}

// Link layer: reroute/blacklist counters mirror the route ager.
TEST(TelemetryTest, LinkLayerRerouteCountersMirrorAger) {
  Scenario sc = MakeSyntheticScenario(9, 120);
  LinkLayerConfig ll;
  ll.etx_parents = true;
  ll.retry.max_attempts = 3;
  ll.aging = RouteAgingConfig{};
  ll.faults = ReferenceFaultSchedule(sc.deployment, 48);
  RunResult r = Experiment::Builder()
                    .Scenario(&sc)
                    .Aggregate(AggregateKind::kCount)
                    .Strategy(Strategy::kTag)
                    .LinkLayer(ll)
                    .NetworkSeed(5)
                    .Warmup(0)
                    .Epochs(40)
                    .Telemetry()
                    .Run();
  EXPECT_EQ(r.telemetry.metric("link.reroutes"),
            static_cast<double>(r.route_reroutes));
  // Every reroute pass was provoked by at least one blacklist commit.
  if (r.route_reroutes > 0) {
    EXPECT_GT(r.telemetry.metric("link.blacklisted"), 0.0);
  }
}

// Acceptance: under the storm dynamics preset the drained trace replays
// the epoch timeline -- repairs, retry outcomes, and TD mode switches.
TEST(TelemetryTest, StormTraceReplaysEpochTimeline) {
  const DynamicsPreset* storm = FindDynamicsPreset("storm");
  ASSERT_NE(storm, nullptr);
  obs::TelemetryConfig config;
  config.trace_capacity = 1u << 16;
  RunResult r = Experiment::Builder()
                    .Synthetic(7, 300)
                    .Aggregate(AggregateKind::kCount)
                    .Strategy(Strategy::kTributaryDelta)
                    .GlobalLossRate(storm->base_loss)
                    .Dynamics(storm->config)
                    .NetworkSeed(13)
                    .Warmup(0)
                    .Epochs(48)
                    .Telemetry(config)
                    .Run();
  const obs::TelemetrySummary& t = r.telemetry;
  ASSERT_FALSE(t.events.empty());
  EXPECT_EQ(t.trace_recorded - t.trace_dropped, t.events.size());

  // The trace is an epoch-ordered timeline.
  for (size_t i = 1; i < t.events.size(); ++i) {
    EXPECT_GE(t.events[i].epoch, t.events[i - 1].epoch);
    EXPECT_LT(t.events[i].epoch, 48u);
  }

  size_t repairs = 0;
  size_t retries = 0;
  int64_t switches = 0;
  for (const TraceEvent& e : t.events) {
    switch (e.kind) {
      case EventKind::kTreeRepair:
        ++repairs;
        break;
      case EventKind::kRetry:
        ++retries;
        // Only contested unicasts are recorded: retransmissions or a
        // delivery failure.
        EXPECT_TRUE(e.a > 1 || e.b == 0);
        break;
      case EventKind::kModeSwitch:
        switches += std::abs(e.a);
        break;
      default:
        break;
    }
  }
  // Storm churn forces topology repairs; storm loss forces contested
  // unicasts; the loss wave forces the TD region to move.
  EXPECT_GT(r.topology_repairs, 0u);
  EXPECT_EQ(repairs, r.topology_repairs);
  EXPECT_EQ(static_cast<double>(repairs), t.metric("dynamics.repairs"));
  EXPECT_GT(retries, 0u);
  EXPECT_GT(switches, 0);
  EXPECT_EQ(static_cast<double>(switches),
            t.metric("td.expansions") + t.metric("td.shrinks"));
}

// ------------------------------------------------------ federation wiring --

TEST(FedTelemetryTest, FederationTotalsMirrorCoordinatorAndRadios) {
  auto build = [](bool telemetry) {
    FederatedExperiment::Builder b;
    b.Synthetic(5, 200)
        .Gateways(2, Strategy::kTag)
        .Subscribe({.window = WindowSpec::Sliding(4)})
        .NetworkSeed(7)
        .Epochs(8);
    if (telemetry) b.Telemetry();
    return b.Run();
  };
  FederatedResult off = build(false);
  FederatedResult fr = build(true);

  // Telemetry never moves the federation's results either.
  ASSERT_EQ(off.global.size(), fr.global.size());
  EXPECT_EQ(off.global[0].rms, fr.global[0].rms);
  EXPECT_EQ(off.bytes_per_epoch, fr.bytes_per_epoch);
  EXPECT_FALSE(off.telemetry.enabled);
  ASSERT_TRUE(fr.telemetry.enabled);

  const obs::TelemetrySummary& t = fr.telemetry;
  EXPECT_EQ(t.metric("fed.merges"),
            static_cast<double>(fr.coordinator_merges));
  EXPECT_EQ(t.metric("fed.merged_bytes"),
            static_cast<double>(fr.coordinator_merged_bytes));
  EXPECT_EQ(t.metric("net.tx.bytes"), fr.bytes_per_epoch * 8.0);
  EXPECT_EQ(t.metric("run.bytes_per_epoch"), fr.bytes_per_epoch);
  // One broker merge chain per epoch for the single windowed group.
  EXPECT_EQ(t.metric("broker.merge_chains"),
            static_cast<double>(fr.merge_chains_per_epoch) * 8.0);
  EXPECT_EQ(t.metric("window.state_merges"),
            static_cast<double>(fr.groups.at(0).window_merges));

  // One coordinator-merge event per epoch, stamped in order.
  size_t merges = 0;
  for (const TraceEvent& e : t.events) {
    if (e.kind == EventKind::kCoordinatorMerge) ++merges;
  }
  EXPECT_EQ(merges, 8u);
}

// Every gateway adds its radio's per-node bytes into the epoch's one row,
// so the federation's matrix sums to its measured radio total.
TEST(FedTelemetryTest, NodeEnergySeriesSumsEveryGateway) {
  obs::TelemetryConfig config;
  config.node_energy_series = true;
  const FederatedResult fr = FederatedExperiment::Builder()
                                 .Synthetic(5, 200)
                                 .Gateways(2, Strategy::kTag)
                                 .NetworkSeed(7)
                                 .Warmup(2)
                                 .Epochs(8)
                                 .Telemetry(config)
                                 .Run();
  const obs::TelemetrySummary& t = fr.telemetry;
  ASSERT_EQ(t.node_energy_series.size(), size_t{8});
  uint64_t series_sum = 0;
  for (const auto& row : t.node_energy_series) {
    for (uint64_t v : row) series_sum += v;
  }
  EXPECT_EQ(static_cast<double>(series_sum), t.metric("net.tx.bytes"));
  EXPECT_EQ(static_cast<double>(series_sum), fr.bytes_per_epoch * 8.0);
}

TEST(FedTelemetryTest, BrokerChurnEventsUnderScopedSink) {
  FederatedExperiment fexp = FederatedExperiment::Builder()
                                 .Synthetic(5, 120)
                                 .Gateways(2, Strategy::kTag)
                                 .Epochs(4)
                                 .Telemetry()
                                 .Build();
  ASSERT_NE(fexp.telemetry(), nullptr);
  SubscriberId id;
  {
    obs::ScopedSink scope(fexp.telemetry());
    id = fexp.broker().Subscribe({.window = WindowSpec::Sliding(3)});
    fexp.broker().Unsubscribe(id);
  }
  obs::MetricRegistry& reg = fexp.telemetry()->metrics();
  EXPECT_EQ(reg.GetCounter("broker.groups_created")->value(), 1u);
  EXPECT_EQ(reg.GetCounter("broker.groups_retired")->value(), 1u);
  std::vector<TraceEvent> ev = fexp.telemetry()->tracer().Drain();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].kind, EventKind::kGroupCreated);
  EXPECT_EQ(ev[1].kind, EventKind::kGroupRetired);
  EXPECT_EQ(ev[0].a, ev[1].a);  // same group id created then retired
}

// ----------------------------------------------------- TelemetrySummary --

TEST(SummaryTest, MergeIsASortedJoinAndMetricLookupWorks) {
  obs::TelemetrySummary a;
  a.enabled = true;
  a.metrics = {{"alpha", 1.0}, {"both", 2.0}};
  a.trace_recorded = 3;
  obs::TelemetrySummary b;
  b.enabled = true;
  b.metrics = {{"both", 5.0}, {"zeta", 7.0}};
  b.trace_dropped = 2;
  a.Merge(b);
  ASSERT_EQ(a.metrics.size(), 3u);
  EXPECT_EQ(a.metric("alpha"), 1.0);
  EXPECT_EQ(a.metric("both"), 7.0);
  EXPECT_EQ(a.metric("zeta"), 7.0);
  EXPECT_EQ(a.metric("missing"), 0.0);
  EXPECT_EQ(a.trace_recorded, 3u);
  EXPECT_EQ(a.trace_dropped, 2u);
}

}  // namespace
}  // namespace td
