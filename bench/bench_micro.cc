// Microbenchmarks (google-benchmark) for the core primitives: sketch
// operations, summary merging, GK compression, topology construction and a
// full simulated epoch. These bound the simulator's throughput, not any
// paper figure.
//
// main() additionally times the headline hot paths with plain chrono and
// writes them to BENCH_micro.json so the perf trajectory is tracked across
// PRs (bench/baselines/ keeps the committed reference points).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>

#include "api/experiment.h"
#include "bench_util.h"
#include "freq/gk_summary.h"
#include "freq/item_source.h"
#include "freq/precision_gradient.h"
#include "freq/summary.h"
#include "net/network.h"
#include "sketch/fm_sketch.h"
#include "sketch/kmv_sketch.h"
#include "sketch/rle.h"
#include "workload/labdata.h"
#include "workload/scenario.h"

namespace td {
namespace {

void BM_FmAddKey(benchmark::State& state) {
  FmSketch s(40, 1);
  uint64_t k = 0;
  for (auto _ : state) {
    s.AddKey(k++);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_FmAddKey);

void BM_FmAddValue(benchmark::State& state) {
  FmSketch s(40, 1);
  uint64_t k = 0;
  for (auto _ : state) {
    s.AddValue(k++, static_cast<uint64_t>(state.range(0)));
  }
}
BENCHMARK(BM_FmAddValue)->Arg(10)->Arg(1000)->Arg(100000);

void BM_FmMerge(benchmark::State& state) {
  FmSketch a(40, 1), b(40, 1);
  for (uint64_t k = 0; k < 1000; ++k) b.AddKey(k);
  for (auto _ : state) {
    a.Merge(b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FmMerge);

void BM_FmEstimate(benchmark::State& state) {
  FmSketch s(40, 1);
  for (uint64_t k = 0; k < 1000; ++k) s.AddKey(k);
  for (auto _ : state) benchmark::DoNotOptimize(s.Estimate());
}
BENCHMARK(BM_FmEstimate);

void BM_BankRleEncode(benchmark::State& state) {
  FmSketch s(40, 1);
  for (uint64_t k = 0; k < 1000; ++k) s.AddKey(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeBankRle(s.bitmaps()));
  }
}
BENCHMARK(BM_BankRleEncode);

void BM_BankRleBytes(benchmark::State& state) {
  // The size-only path: the per-message cost unit of every simulated
  // broadcast (SynopsisBytes + contrib EncodedBytes).
  FmSketch s(40, 1);
  for (uint64_t k = 0; k < 1000; ++k) s.AddKey(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BankRleBytes(s.bitmaps()));
  }
}
BENCHMARK(BM_BankRleBytes);

void BM_BankRleBytesSparse(benchmark::State& state) {
  // The sparse end of the bank mix: the median bank the Figure 5 setting
  // sizes holds about 8 set bits.
  FmSketch s(40, 1);
  for (uint64_t k = 0; k < 8; ++k) s.AddKey(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BankRleBytes(s.bitmaps()));
  }
}
BENCHMARK(BM_BankRleBytesSparse);

void BM_FmFuseAndSize(benchmark::State& state) {
  // One simulated relay hop: fuse a received synopsis, then size the
  // outgoing message.
  FmSketch a(40, 1), b(40, 1);
  for (uint64_t k = 0; k < 500; ++k) a.AddKey(k);
  for (uint64_t k = 400; k < 900; ++k) b.AddKey(k);
  for (auto _ : state) {
    a.Merge(b);
    benchmark::DoNotOptimize(a.EncodedBytes());
  }
}
BENCHMARK(BM_FmFuseAndSize);

void BM_FmAddValueMemoized(benchmark::State& state) {
  // The leaf-synopsis path with an unchanged reading: after the first
  // epoch the memo replays the cached bank instead of re-simulating.
  FmValueMemo memo(40, 1);
  FmSketch s(40, 1);
  for (auto _ : state) {
    s.Clear();
    for (uint64_t node = 0; node < 64; ++node) {
      memo.AddValue(&s, node, 1000 + node);
    }
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_FmAddValueMemoized);

void BM_KmvAddKey(benchmark::State& state) {
  KmvSketch s(static_cast<size_t>(state.range(0)), 1);
  uint64_t k = 0;
  for (auto _ : state) s.AddKey(k++);
}
BENCHMARK(BM_KmvAddKey)->Arg(64)->Arg(1024);

void BM_SummaryMergePrune(benchmark::State& state) {
  ItemCounts a, b;
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    a[rng.NextBounded(500)] += 1 + rng.NextBounded(20);
    b[rng.NextBounded(500)] += 1 + rng.NextBounded(20);
  }
  Summary sb = LocalSummary(b);
  MinTotalLoadGradient g(0.01, 2.25);
  for (auto _ : state) {
    Summary s = LocalSummary(a);
    MergeSummaries(&s, sb);
    PruneSummary(&s, g, 3);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_SummaryMergePrune);

void BM_GkMergeCompress(benchmark::State& state) {
  Rng rng(2);
  std::vector<double> va, vb;
  for (int i = 0; i < 1000; ++i) {
    va.push_back(rng.Uniform(0, 1000));
    vb.push_back(rng.Uniform(0, 1000));
  }
  GkSummary b = GkSummary::FromValues(vb);
  b.Compress(10.0);
  for (auto _ : state) {
    GkSummary s = GkSummary::FromValues(va);
    s.Compress(10.0);
    s.Merge(b);
    s.Compress(10.0);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_GkMergeCompress);

void BM_TopologyBuild(benchmark::State& state) {
  for (auto _ : state) {
    Scenario sc = MakeSyntheticScenario(7, static_cast<size_t>(state.range(0)));
    benchmark::DoNotOptimize(sc);
  }
}
BENCHMARK(BM_TopologyBuild)->Arg(150)->Arg(600);

Experiment MakeEpochExperiment(Strategy strategy) {
  return Experiment::Builder()
      .Synthetic(7, 600)
      .Aggregate(AggregateKind::kCount)
      .Strategy(strategy)
      .GlobalLossRate(0.2)
      .NetworkSeed(1)
      .Epochs(1)  // stepped manually by the benchmark loop
      .Build();
}

void BM_TreeEpoch(benchmark::State& state) {
  Experiment exp = MakeEpochExperiment(Strategy::kTag);
  uint32_t e = 0;
  for (auto _ : state) benchmark::DoNotOptimize(exp.engine().RunEpoch(e++));
}
BENCHMARK(BM_TreeEpoch);

void BM_MultipathEpoch(benchmark::State& state) {
  Experiment exp = MakeEpochExperiment(Strategy::kSynopsisDiffusion);
  uint32_t e = 0;
  for (auto _ : state) benchmark::DoNotOptimize(exp.engine().RunEpoch(e++));
}
BENCHMARK(BM_MultipathEpoch);

void BM_TributaryDeltaEpoch(benchmark::State& state) {
  Experiment exp = MakeEpochExperiment(Strategy::kTributaryDelta);
  uint32_t e = 0;
  for (auto _ : state) benchmark::DoNotOptimize(exp.engine().RunEpoch(e++));
}
BENCHMARK(BM_TributaryDeltaEpoch);

void BM_TributaryDeltaBatch(benchmark::State& state) {
  // RunEpochs over the reusable inbox scratch: the batch-sweep hot path.
  Experiment exp = MakeEpochExperiment(Strategy::kTributaryDelta);
  uint32_t e = 0;
  const uint32_t kBatch = 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exp.engine().RunEpochs(e, kBatch));
    e += kBatch;
  }
}
BENCHMARK(BM_TributaryDeltaBatch);

void BM_SumEpochLabStyle(benchmark::State& state) {
  // Sum over slowly-changing readings: the memoized AddValue workload.
  Experiment exp = Experiment::Builder()
                       .Synthetic(7, 600)
                       .Aggregate(AggregateKind::kSum)
                       .Reading([](NodeId v, uint32_t e) -> uint64_t {
                         return 500 + v + e / 50;  // changes every 50 epochs
                       })
                       .Strategy(Strategy::kSynopsisDiffusion)
                       .GlobalLossRate(0.2)
                       .NetworkSeed(1)
                       .Epochs(1)
                       .Build();
  uint32_t e = 0;
  for (auto _ : state) benchmark::DoNotOptimize(exp.engine().RunEpoch(e++));
}
BENCHMARK(BM_SumEpochLabStyle);

// One workload definition shared by BM_RunTrials and the JSON metrics, so
// both always measure the same sweep.
SweepResult RunTrialsWorkload(unsigned threads) {
  return Experiment::Builder()
      .Synthetic(7, 150)
      .Aggregate(AggregateKind::kCount)
      .Strategy(Strategy::kTributaryDelta)
      .GlobalLossRate(0.2)
      .NetworkSeed(1)
      .Epochs(10)
      .Trials(8)
      .Threads(threads)
      .RunTrials();
}

void BM_RunTrials(benchmark::State& state) {
  // The Monte Carlo sweep entry point, threads=1 vs threads=N.
  const unsigned threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    SweepResult r = RunTrialsWorkload(threads);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RunTrials)->Arg(1)->Arg(0);  // 0 = hardware_concurrency

// ------------------------------------------------------------------------
// Scaling curve (--scaling): epoch cost of the engine core at 10k / 100k /
// 1M sensors, constant deployment density (the paper's 600-in-20x20),
// synopsis diffusion over a Count query at 20% loss. Each size runs twice
// from a fresh experiment to pin per-n determinism. At 10k and 100k the
// run's digest (every timed estimate's bits, then the total radio bytes)
// must equal the one bench/baselines/scaling_object_core.json recorded
// from the per-node-object engine core before it was deleted.

struct ScalingRun {
  double epoch_ms = 0.0;
  std::vector<double> values;  // per timed epoch: the estimate
  uint64_t bytes = 0;          // total radio bytes after the run

  /// FNV-1a over the estimate bits, then the byte total.
  uint64_t Digest() const {
    uint64_t h = 0xcbf29ce484222325ULL;
    auto add = [&h](uint64_t x) {
      for (int i = 0; i < 8; ++i) {
        h ^= (x >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
      }
    };
    for (double v : values) {
      uint64_t b;
      std::memcpy(&b, &v, sizeof b);
      add(b);
    }
    add(bytes);
    return h;
  }
};

ScalingRun RunScalingOnce(const Scenario& sc, uint32_t timed_epochs) {
  Experiment exp = Experiment::Builder()
                       .Scenario(&sc)
                       .Aggregate(AggregateKind::kCount)
                       .Strategy(Strategy::kSynopsisDiffusion)
                       .GlobalLossRate(0.2)
                       .NetworkSeed(1)
                       .Epochs(1)  // stepped manually below
                       .Build();
  // Epoch 0 builds the scratch arenas / inboxes; time the steady state.
  exp.engine().RunEpoch(0);
  ScalingRun out;
  auto start = std::chrono::steady_clock::now();
  for (uint32_t e = 1; e <= timed_epochs; ++e) {
    out.values.push_back(exp.engine().RunEpoch(e).value);
  }
  std::chrono::duration<double> dt = std::chrono::steady_clock::now() - start;
  out.epoch_ms = dt.count() * 1e3 / timed_epochs;
  out.bytes = exp.network().total_energy().bytes;
  return out;
}

/// The recorded digest for size `tag` ("10k", "100k") from the committed
/// baseline, or "" when the file or the key is missing (never a match).
std::string RecordedScalingDigest(const std::string& tag) {
  std::ifstream in(std::string(TD_BASELINES_DIR) +
                   "/scaling_object_core.json");
  const std::string doc((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const std::string key = "\"digest_" + tag + "\"";
  size_t at = doc.find(key);
  if (at != std::string::npos) at = doc.find(':', at + key.size());
  if (at != std::string::npos) at = doc.find('"', at);
  if (at == std::string::npos) return "";
  const size_t end = doc.find('"', at + 1);
  if (end == std::string::npos) return "";
  return doc.substr(at + 1, end - at - 1);
}

void AppendScalingJson(bench::BenchJson* json) {
  struct Spec {
    const char* tag;
    size_t n;
    uint32_t epochs;
    bool recorded;  // a digest from the object core exists for this size
  };
  // Timed epochs shrink with n so the curve stays inside the CI budget.
  const Spec specs[] = {{"10k", 10'000, 4, true},
                        {"100k", 100'000, 2, true},
                        {"1m", 1'000'000, 1, false}};
  std::printf("\nScaling curve (synopsis diffusion, Count, 20%% loss)\n");
  for (const Spec& spec : specs) {
    // Constant density: scale the paper's 600-in-20x20 field with n.
    const double width =
        20.0 * std::sqrt(static_cast<double>(spec.n) / 600.0);
    Scenario sc = MakeSyntheticScenario(7, spec.n, width, width, 3.0);

    ScalingRun soa = RunScalingOnce(sc, spec.epochs);
    ScalingRun soa2 = RunScalingOnce(sc, spec.epochs);
    const bool deterministic =
        soa.values == soa2.values && soa.bytes == soa2.bytes;
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(soa.Digest()));
    json->Entry()
        .Field("metric", std::string("scaling_soa_epoch_ms_") + spec.tag)
        .Field("value", soa.epoch_ms);
    json->Entry()
        .Field("metric",
               std::string("scaling_soa_deterministic_") + spec.tag)
        .Field("value", deterministic ? 1.0 : 0.0);
    std::printf("  n=%-5s soa %10.2f ms/epoch  deterministic=%d  digest=%s",
                spec.tag, soa.epoch_ms, deterministic ? 1 : 0, digest);

    if (spec.recorded) {
      const bool match = RecordedScalingDigest(spec.tag) == digest;
      json->Entry()
          .Field("metric", std::string("scaling_match_") + spec.tag)
          .Field("value", match ? 1.0 : 0.0);
      std::printf("  match=%d", match ? 1 : 0);
    }
    std::printf("\n");
  }
}

double SecondsPerCall(const std::function<void()>& fn, int calls) {
  // One warmup call, then `calls` total invocations split across five
  // timed runs, reporting the median run: the regression gate
  // (tools/check_bench.py) diffs these numbers against a committed
  // baseline, and a median shrugs off the scheduler hiccups that a single
  // run on a shared CI machine picks up. The total call count matches the
  // old single-run scheme on purpose -- stateful workloads (the TD engine
  // adapts its delta as epochs accumulate) must cover the same state range
  // as the baseline or the comparison measures drift, not speed.
  fn();
  constexpr int kRuns = 5;
  const int per_run = calls / kRuns > 0 ? calls / kRuns : 1;
  std::array<double, kRuns> secs;
  for (int r = 0; r < kRuns; ++r) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < per_run; ++i) fn();
    std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start;
    secs[r] = dt.count() / per_run;
  }
  std::sort(secs.begin(), secs.end());
  return secs[kRuns / 2];
}

// ------------------------------------------------------------------------
// Flight-recorder cost (--telemetry): the observability acceptance gates.
// The off arm re-times the exact td_epoch_us workload through
// Experiment::StepEpoch with the default (null) sink, so check_bench can
// hold it against the committed pre-telemetry td_epoch_us baseline (<= 2%
// with bank_rle_bytes_ns machine calibration). The on arm prices the sink
// itself, and two exact-equality flags pin the contracts that matter more
// than the timing: telemetry off is deterministic, and switching it on
// changes no simulation output bit.

Experiment MakeTdEpochExperiment(bool with_telemetry) {
  Experiment::Builder b;
  b.Synthetic(7, 600)
      .Aggregate(AggregateKind::kCount)
      .Strategy(Strategy::kTributaryDelta)
      .GlobalLossRate(0.2)
      .NetworkSeed(1)
      .Epochs(1);  // stepped manually by the timing loop
  if (with_telemetry) b.Telemetry();
  return std::move(b).Build();
}

RunResult RunTelemetryProbe(bool with_telemetry) {
  Experiment::Builder b;
  b.Synthetic(7, 150)
      .Aggregate(AggregateKind::kCount)
      .Strategy(Strategy::kTributaryDelta)
      .GlobalLossRate(0.2)
      .NetworkSeed(1)
      .Warmup(5)
      .Epochs(25);
  if (with_telemetry) b.Telemetry();
  return std::move(b).Run();
}

bool SameSimulation(const RunResult& a, const RunResult& b) {
  return a.estimates() == b.estimates() && a.truths == b.truths &&
         a.rms == b.rms && a.energy.transmissions == b.energy.transmissions &&
         a.energy.packets == b.energy.packets &&
         a.energy.bytes == b.energy.bytes &&
         a.bytes_per_epoch == b.bytes_per_epoch &&
         a.header_bytes_per_epoch == b.header_bytes_per_epoch &&
         a.payload_bytes_per_epoch == b.payload_bytes_per_epoch &&
         a.final_delta_size == b.final_delta_size &&
         a.delivery_ratio == b.delivery_ratio &&
         a.attempts_per_epoch == b.attempts_per_epoch &&
         a.retry_histogram == b.retry_histogram;
}

void AppendTelemetryJson(bench::BenchJson* json) {
  const int kCalls = 200;  // matches the td_epoch_us measurement
  Experiment off = MakeTdEpochExperiment(false);
  uint32_t eo = 0;
  const double off_sec = SecondsPerCall([&] { off.StepEpoch(eo++); }, kCalls);
  Experiment on = MakeTdEpochExperiment(true);
  uint32_t ei = 0;
  const double on_sec = SecondsPerCall([&] { on.StepEpoch(ei++); }, kCalls);
  const double on_overhead_pct = (on_sec / off_sec - 1.0) * 100.0;

  const RunResult off_a = RunTelemetryProbe(false);
  const RunResult off_b = RunTelemetryProbe(false);
  const RunResult on_r = RunTelemetryProbe(true);
  const bool off_deterministic = SameSimulation(off_a, off_b);
  const bool offon_match = SameSimulation(off_a, on_r);

  json->Entry()
      .Field("metric", "telemetry_off_td_epoch_us")
      .Field("value", off_sec * 1e6);
  json->Entry()
      .Field("metric", "telemetry_on_td_epoch_us")
      .Field("value", on_sec * 1e6);
  json->Entry()
      .Field("metric", "telemetry_on_overhead_pct")
      .Field("value", on_overhead_pct);
  json->Entry()
      .Field("metric", "telemetry_off_deterministic")
      .Field("value", off_deterministic ? 1.0 : 0.0);
  json->Entry()
      .Field("metric", "telemetry_offon_match")
      .Field("value", offon_match ? 1.0 : 0.0);

  // Stamp the measured on-vs-off cost into this json's header (the off-
  // vs-baseline overhead needs the committed baseline, so check_bench
  // computes that one).
  bench::TelemetryOverheadPct() = on_overhead_pct;

  std::printf(
      "\ntelemetry: off %.1f us/epoch, on %.1f us/epoch (%+.2f%%), "
      "off-deterministic=%d, off==on bit-identical=%d\n",
      off_sec * 1e6, on_sec * 1e6, on_overhead_pct, off_deterministic ? 1 : 0,
      offon_match ? 1 : 0);
}

// ------------------------------------------------------------------------
// Machine-speed reference for the CI regression gate: a fixed xorshift64
// chain that calls no src/ code, so no engine or codec change can move it
// and calibrating by it rescales only for the machine.

uint64_t CalibSpin(uint64_t seed) {
  uint64_t x = seed | 1;
  for (int i = 0; i < 4096; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

// One synopsis-diffusion frequent-items epoch on LabData with the lab_freq
// suite parameters (s = 1%, eps = 0.1%, 32-bitmap item counters, 20% loss).
struct FreqEpochFixture {
  static constexpr double kEps = 0.001;

  Scenario scenario = MakeLabScenario(42);
  ItemSource items{scenario.deployment.size()};

  FreqEpochFixture() { FillLabItemStreams(&items, 5000); }

  Experiment Build() const {
    MultipathFreqParams params;
    params.eps = kEps;
    params.n_upper = items.TotalOccurrences() * 2;
    params.item_bitmaps = 32;
    params.seed = 777;
    return Experiment::Builder()
        .Scenario(&scenario)
        .Aggregate(AggregateKind::kFrequentItems)
        .Items(&items)
        .Gradient(std::make_shared<MinTotalLoadGradient>(kEps, 2.25))
        .FreqParams(params)
        .Strategy(Strategy::kSynopsisDiffusion)
        .GlobalLossRate(0.2)
        .NetworkSeed(1)
        .Epochs(1)  // stepped manually by the timing loop
        .Build();
  }
};

// ------------------------------------------------------------------------
// BENCH_micro.json: chrono-timed headline numbers for the perf trajectory.

void WriteMicroJson(bool with_scaling, bool with_telemetry) {
  bench::BenchJson json("micro");

  {
    uint64_t seed = 0;
    double sec = SecondsPerCall(
        [&] { benchmark::DoNotOptimize(CalibSpin(seed++)); }, 20000);
    json.Entry().Field("metric", "calib_spin_ns").Field("value", sec * 1e9);
  }

  // The codec counters are stateless and sub-microsecond, so they take
  // 100000 calls: the five timed runs then span long enough that one
  // scheduler burst on a shared machine reaches at most one or two of them.
  constexpr int kCodecCalls = 100000;
  {
    FmSketch s(40, 1);
    for (uint64_t k = 0; k < 1000; ++k) s.AddKey(k);
    double sec =
        SecondsPerCall([&] { BankRleBytes(s.bitmaps()); }, kCodecCalls);
    json.Entry().Field("metric", "bank_rle_bytes_ns").Field("value", sec * 1e9);
    sec = SecondsPerCall([&] { EncodeBankRle(s.bitmaps()); }, kCodecCalls);
    json.Entry()
        .Field("metric", "bank_rle_encode_ns")
        .Field("value", sec * 1e9);
  }
  {
    FmSketch s(40, 1);
    for (uint64_t k = 0; k < 8; ++k) s.AddKey(k);
    double sec =
        SecondsPerCall([&] { BankRleBytes(s.bitmaps()); }, kCodecCalls);
    json.Entry()
        .Field("metric", "bank_rle_bytes_sparse_ns")
        .Field("value", sec * 1e9);
  }

  struct {
    const char* name;
    Strategy strategy;
  } epochs[] = {{"tree_epoch_us", Strategy::kTag},
                {"multipath_epoch_us", Strategy::kSynopsisDiffusion},
                {"td_epoch_us", Strategy::kTributaryDelta}};
  for (const auto& spec : epochs) {
    Experiment exp = MakeEpochExperiment(spec.strategy);
    uint32_t e = 0;
    const int calls = spec.strategy == Strategy::kTag ? 2000 : 200;
    double sec = SecondsPerCall([&] { exp.engine().RunEpoch(e++); }, calls);
    json.Entry().Field("metric", spec.name).Field("value", sec * 1e6);
  }

  {
    const FreqEpochFixture fixture;
    Experiment exp = fixture.Build();
    uint32_t e = 0;
    double sec = SecondsPerCall([&] { exp.engine().RunEpoch(e++); }, 100);
    json.Entry().Field("metric", "freq_epoch_us").Field("value", sec * 1e6);
  }

  for (unsigned threads : {1u, 0u}) {
    double sec = SecondsPerCall([&] { RunTrialsWorkload(threads); }, 5);
    json.Entry()
        .Field("metric", threads == 1 ? "run_trials_t1_ms" : "run_trials_tN_ms")
        .Field("value", sec * 1e3);
  }

  if (with_scaling) AppendScalingJson(&json);
  if (with_telemetry) AppendTelemetryJson(&json);

  json.Write();
}

}  // namespace
}  // namespace td

int main(int argc, char** argv) {
  // Filtered invocations are quick one-off measurements; only a full run
  // should pay for (and overwrite) the BENCH_micro.json trajectory pass.
  // --json_only skips google-benchmark entirely and just writes the
  // chrono-timed BENCH_micro.json (the CI regression-gate pass).
  // --scaling additionally runs the 10k/100k/1M scaling curve and emits
  // its scaling_* rows into the same json (check_bench --scaling gates
  // them).
  // --telemetry additionally measures the flight-recorder cost and
  // bit-identity flags (check_bench --telemetry gates them).
  bool filtered = false;
  bool json_only = false;
  bool scaling = false;
  bool telemetry = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.starts_with("--benchmark_filter")) filtered = true;
    if (arg == "--json_only" || arg == "--scaling" || arg == "--telemetry") {
      if (arg == "--json_only") json_only = true;
      if (arg == "--scaling") scaling = true;
      if (arg == "--telemetry") telemetry = true;
      // Hide the flag from google-benchmark's argument check.
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    }
  }
  if (json_only) {
    td::WriteMicroJson(scaling, telemetry);
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!filtered) td::WriteMicroJson(scaling, telemetry);
  return 0;
}
