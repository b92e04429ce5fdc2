// bench_suite: runs one workload of the benchmark suite and prints its
// metrics, one per line with its unit, then a JSON record as the last line.
// run.py builds it and is the usual way in:
//
//   bench_suite --workload paper_count --seed 1 --seconds 15 --trace 0
//               [--trace-out trace_paper_count.json]
//
// Run model: one caller, one thread, closed loop. Each workload epoch steps
// every system of the workload once, and the next epoch starts as soon as
// the previous one returns. Timed epochs run until --seconds have passed
// and at least Workload::recorded() epochs were measured; timing metrics
// come from the best of ten consecutive blocks of them (see kTimingBlocks).
//
// --trace 0 measures the end-to-end metrics with telemetry off.
// --trace 1 gives the per-layer metrics instead: it spends half of
// --seconds on an untraced run (the baseline of obs.overhead_pct) and half
// on a run with Builder::Telemetry({.trace = false}), whose spans it keeps
// in memory and writes to --trace-out at the end.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "sketch/fm_sketch.h"
#include "sketch/rle.h"
#include "suite.h"

namespace td::suite {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

/// Linear-interpolation percentile (numpy's default) of the samples.
double Percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

// ------------------------------------------------------------------ spans

/// Spans kept in memory during a traced run and written out at its end.
/// Times are ns since the tracer's origin. Children derived from profiler
/// deltas carry a duration only.
class Tracer {
 public:
  explicit Tracer(uint64_t origin_ns) : origin_(origin_ns) {}

  int Begin(std::string name, int parent) {
    const uint64_t now = NowNs();
    return Interval(std::move(name), parent, now, now);
  }
  void End(int id) {
    spans_[static_cast<size_t>(id)].end = NowNs() - origin_;
  }
  int Interval(std::string name, int parent, uint64_t start, uint64_t end) {
    spans_.push_back({std::move(name), parent, start - origin_, end - origin_,
                      /*dur=*/0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Duration(std::string name, int parent, uint64_t ns) {
    spans_.push_back({std::move(name), parent, 0, 0, ns});
  }

  bool Write(const std::string& path, const std::string& workload,
             uint64_t seed) const {
    std::ofstream out(path);
    out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
        << ", \"spans\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"parent\": " << s.parent;
      if (s.dur > 0) {
        out << ", \"dur_ns\": " << s.dur;
      } else {
        out << ", \"start_ns\": " << s.start << ", \"end_ns\": " << s.end;
      }
      out << (i + 1 < spans_.size() ? "},\n" : "}\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    int parent;
    uint64_t start;
    uint64_t end;
    uint64_t dur;
  };
  uint64_t origin_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------- layer counters

// The profiler phases that become children of a step span. kRleEncode is
// left out: it times EncodeBankRle, which no engine calls.
constexpr obs::Phase kChildPhases[] = {
    obs::Phase::kSweep, obs::Phase::kAdapt, obs::Phase::kWindowCombine,
    obs::Phase::kFedMerge};

/// Cumulative counters of every layer the per-layer metrics read, summed
/// over a workload's systems. Diffs of two snapshots give per-run counts.
struct Counters {
  EnergyStats energy;
  uint64_t unicasts = 0;
  uint64_t delivered = 0;
  uint64_t attempts = 0;
  uint64_t decisions = 0;
  uint64_t expansions = 0;
  uint64_t shrinks = 0;
  uint64_t reprocessed = 0;
  uint64_t reroutes = 0;
  uint64_t repairs = 0;
  uint64_t window_merges = 0;
  uint64_t fed_merges = 0;
  uint64_t fed_merged_bytes = 0;
  uint64_t merge_chains = 0;
};

uint64_t CounterValue(obs::TelemetrySink* sink, const char* name) {
  return sink == nullptr ? 0 : sink->metrics().GetCounter(name)->value();
}

Counters Snapshot(Workload& w) {
  Counters c;
  for (Stepper& s : w.steppers()) {
    for (size_t i = 0; i < s.num_engines(); ++i) {
      Engine& engine = s.engine(i);
      const Network& net = engine.network();
      c.energy += net.total_energy();
      c.unicasts += net.retry_stats().unicasts;
      c.delivered += net.retry_stats().delivered;
      c.attempts += net.retry_stats().attempts;
      const EngineStats st = engine.stats();
      c.decisions += st.decisions;
      c.expansions += st.expansions;
      c.shrinks += st.shrinks;
      c.reprocessed += engine.nodes_reprocessed();
    }
    if (s.exp) {
      if (s.exp->route_ager()) {
        c.reroutes += s.exp->route_ager()->total_reroutes();
      }
      if (s.exp->dynamics()) c.repairs += s.exp->dynamics()->repairs();
    } else {
      for (size_t g = 0; g < s.fed->num_gateways(); ++g) {
        if (s.fed->gateway_dynamics(g)) {
          c.repairs += s.fed->gateway_dynamics(g)->repairs();
        }
      }
    }
    obs::TelemetrySink* sink = s.telemetry();
    c.window_merges += CounterValue(sink, "window.state_merges");
    c.fed_merges += CounterValue(sink, "fed.merges");
    c.fed_merged_bytes += CounterValue(sink, "fed.merged_bytes");
    c.merge_chains += CounterValue(sink, "broker.merge_chains");
  }
  return c;
}

/// The process's resident-set high-water mark. VmHWM belongs to the
/// current address space; getrusage's ru_maxrss would also carry the
/// launching process's peak across exec.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------ one phase

/// Everything one set-up + warmup + timed loop produced.
struct Phase {
  std::vector<SetupTimes> setups;
  std::vector<double> epoch_ns;  // per timed epoch: all systems stepped
  double elapsed_s = 0.0;
  uint64_t digest = 0;
  uint64_t failed = 0;  // timed epochs with a failed check
  std::vector<std::string> failures;
  Counters start;     // at the first timed epoch
  Counters recorded;  // after the last recorded epoch
  // Peak RSS after the last recorded epoch: memory that grows with every
  // epoch served (broker value histories) would otherwise make the number
  // depend on how many epochs the machine managed in --seconds.
  double peak_rss_mb = 0.0;
  double rel_error = 0.0;

  // Traced phases only.
  std::map<std::string, double> step_ns;  // per system label
  double phase_ns[obs::kNumPhases] = {};  // indexed by obs::Phase
  uint64_t adapt_calls = 0;
  double delta_size_sum = 0.0;  // over recorded epochs
};

obs::PhaseStat Stat(Stepper& s, obs::Phase p) {
  obs::TelemetrySink* sink = s.telemetry();
  return sink == nullptr ? obs::PhaseStat{} : sink->profiler().stat(p);
}

/// One workload epoch: every system steps once. With a tracer, each step
/// becomes a span whose children are the profiler phases it ran.
void StepAll(Workload& w, uint32_t epoch, Tracer* tracer, int parent,
             Phase* ph) {
  for (Stepper& s : w.steppers()) {
    if (tracer == nullptr) {
      s.Step(epoch);
      continue;
    }
    obs::PhaseStat before[std::size(kChildPhases)];
    for (size_t i = 0; i < std::size(kChildPhases); ++i) {
      before[i] = Stat(s, kChildPhases[i]);
    }
    const uint64_t t0 = NowNs();
    s.Step(epoch);
    const uint64_t t1 = NowNs();
    const int span = tracer->Interval("step." + s.label, parent, t0, t1);
    ph->step_ns[s.label] += static_cast<double>(t1 - t0);
    for (size_t i = 0; i < std::size(kChildPhases); ++i) {
      const obs::Phase p = kChildPhases[i];
      const obs::PhaseStat after = Stat(s, p);
      const uint64_t ns = after.ns - before[i].ns;
      ph->phase_ns[static_cast<size_t>(p)] += static_cast<double>(ns);
      if (p == obs::Phase::kAdapt) {
        ph->adapt_calls += after.calls - before[i].calls;
      }
      if (ns > 0) tracer->Duration(obs::PhaseName(p), span, ns);
    }
  }
}

size_t DeltaSize(Workload& w) {
  size_t n = 0;
  for (Stepper& s : w.steppers()) {
    for (size_t i = 0; i < s.num_engines(); ++i) {
      n += s.engine(i).delta_size();
    }
  }
  return n;
}

/// Fresh constructions timed by a run besides the one it steps: as many as
/// fit in a tenth of the run at the cost of its first set-up, from 4 to 20.
/// They are spread over the timed loop, after the recorded prefix, so that
/// one burst of contention from other tenants cannot move the median
/// set-up time. Set-ups of a few ms vary most (page faults of fresh
/// allocations), and those are the ones that get the most probes.
int SetupProbes(double seconds, const SetupTimes& first) {
  const double cost = first.scenario_s + first.build_s;
  return std::clamp(static_cast<int>(0.1 * seconds / cost), 4, 20);
}

/// Set-up, warmup and timed loop of `w`. `probe` is a second instance of
/// the same workload whose set-ups are only timed.
Phase RunPhase(Workload& w, Workload& probe, double seconds, Tracer* tracer,
               int run_span) {
  Phase ph;
  std::optional<obs::TelemetryConfig> telemetry;
  if (tracer != nullptr) telemetry = obs::TelemetryConfig{.trace = false};
  auto setup = [&](Workload& target) {
    const int span = tracer ? tracer->Begin("setup", run_span) : -1;
    const uint64_t t0 = NowNs();
    const SetupTimes t = target.Setup(telemetry);
    ph.setups.push_back(t);
    if (tracer != nullptr) {
      const uint64_t t1 = t0 + static_cast<uint64_t>(t.scenario_s * 1e9);
      const uint64_t t2 = t1 + static_cast<uint64_t>(t.build_s * 1e9);
      tracer->Interval("scenario", span, t0, t1);
      tracer->Interval("build", span, t1, t2);
      tracer->End(span);
    }
  };
  setup(w);
  const int setup_probes = SetupProbes(seconds, ph.setups[0]);

  Digest digest;
  for (uint32_t e = 0; e < w.warmup(); ++e) {
    StepAll(w, e, nullptr, -1, &ph);
    if (!w.Check(e, true, &digest)) {
      ph.failures.push_back("check failed in warmup epoch " +
                            std::to_string(e));
    }
  }

  ph.start = Snapshot(w);
  const uint64_t loop_start = NowNs();
  const uint64_t budget_ns = static_cast<uint64_t>(seconds * 1e9);
  int probes = 0;
  for (uint32_t n = 0;; ++n) {
    const bool record = n < w.recorded();
    const uint64_t elapsed = NowNs() - loop_start;
    if (!record && elapsed >= budget_ns) break;
    if (!record && probes < setup_probes &&
        elapsed >= budget_ns / (setup_probes + 1) * (probes + 1)) {
      setup(probe);
      ++probes;
    }
    const uint32_t epoch = w.warmup() + n;
    const int span = tracer ? tracer->Begin("epoch", run_span) : -1;
    const uint64_t t0 = NowNs();
    StepAll(w, epoch, tracer, span, &ph);
    ph.epoch_ns.push_back(static_cast<double>(NowNs() - t0));
    if (tracer != nullptr) tracer->End(span);
    if (!w.Check(epoch, record, &digest)) ++ph.failed;
    if (tracer != nullptr && record) {
      ph.delta_size_sum += static_cast<double>(DeltaSize(w));
    }
    if (n + 1 == w.recorded()) {
      ph.recorded = Snapshot(w);
      ph.peak_rss_mb = PeakRssMb();
    }
  }
  for (; probes < setup_probes; ++probes) setup(probe);
  ph.elapsed_s = static_cast<double>(NowNs() - loop_start) * 1e-9;
  ph.digest = digest.value();
  ph.rel_error = w.RelError();
  w.RunChecks(&ph.failures);
  return ph;
}

/// Timed epochs are cut into this many consecutive blocks, and each timing
/// metric is read from its best block. On a shared machine, bursts of
/// contention from other tenants slow whole stretches of a run by 20-50%;
/// the least-disturbed block is what repeats from run to run.
constexpr size_t kTimingBlocks = 10;

/// `stat` of every block's epoch times.
template <typename F>
std::vector<double> PerBlock(const std::vector<double>& epoch_ns, F stat) {
  std::vector<double> out;
  const size_t n = epoch_ns.size();
  for (size_t b = 0; b < kTimingBlocks; ++b) {
    out.push_back(stat(std::vector<double>(
        epoch_ns.begin() + static_cast<long>(n * b / kTimingBlocks),
        epoch_ns.begin() + static_cast<long>(n * (b + 1) / kTimingBlocks))));
  }
  return out;
}

/// The p-th percentile of epoch wall time in ms, from the best block.
double EpochMs(const Phase& ph, double p) {
  const std::vector<double> ms =
      PerBlock(ph.epoch_ns, [p](const std::vector<double>& b) {
        return Percentile(b, p) * 1e-6;
      });
  return *std::min_element(ms.begin(), ms.end());
}

/// Epochs per second of wall time spent in them, from the best block.
double EpochsPerSecond(const Phase& ph) {
  const std::vector<double> rates =
      PerBlock(ph.epoch_ns, [](const std::vector<double>& b) {
        double ns = 0.0;
        for (double x : b) ns += x;
        return static_cast<double>(b.size()) / (ns * 1e-9);
      });
  return *std::max_element(rates.begin(), rates.end());
}

/// ns per call of `fn`: the median of five timed runs of `calls` / 5 calls.
template <typename F>
double NsPerCall(F fn, int calls) {
  fn();
  std::vector<double> runs;
  for (int r = 0; r < 5; ++r) {
    const uint64_t t0 = NowNs();
    for (int i = 0; i < calls / 5; ++i) fn();
    runs.push_back(static_cast<double>(NowNs() - t0) / (calls / 5));
  }
  return Median(runs);
}

// ------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void Report(const Args& args, const std::vector<Metric>& metrics,
            uint64_t attempted, uint64_t failed,
            const std::vector<std::string>& failures, uint64_t digest) {
  const bool correct = failed == 0 && failures.empty();
  std::printf("digest %016" PRIx64 "\n", digest);
  for (const std::string& f : failures) std::printf("FAILED %s\n", f.c_str());
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"trace\": %d, \"seconds\": %.17g, \"digest\": \"%016" PRIx64
              "\", \"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"failures\": [",
              args.workload.c_str(), args.seed, args.trace ? 1 : 0,
              args.seconds, digest, correct ? "true" : "false", attempted,
              failed);
  for (size_t i = 0; i < failures.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", JsonEscape(failures[i]).c_str());
  }
  std::printf("], \"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

std::vector<Metric> EndToEnd(Workload& w, const Phase& ph) {
  std::vector<double> setup_s;
  for (const SetupTimes& t : ph.setups) {
    setup_s.push_back(t.scenario_s + t.build_s);
  }
  const double bytes =
      static_cast<double>(ph.recorded.energy.bytes - ph.start.energy.bytes);
  return {
      {"epoch_ms_p50", EpochMs(ph, 0.5), "ms"},
      {"epoch_ms_p90", EpochMs(ph, 0.9), "ms"},
      {"epochs_per_s", EpochsPerSecond(ph), "1/s"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", ph.peak_rss_mb, "MB"},
      {"bytes_per_epoch", bytes / w.recorded(), "bytes"},
      {"rel_error", ph.rel_error, "ratio"},
  };
}

std::vector<Metric> PerLayer(Workload& w, const Phase& base, const Phase& ph) {
  const double epochs = static_cast<double>(ph.epoch_ns.size());
  const double recorded = w.recorded();
  const Counters& a = ph.start;
  const Counters& b = ph.recorded;
  auto per_epoch_us = [&](double ns) { return ns / epochs * 1e-3; };
  auto per_recorded = [&](uint64_t from, uint64_t to) {
    return static_cast<double>(to - from) / recorded;
  };
  auto phase_ns = [&](obs::Phase p) {
    return ph.phase_ns[static_cast<size_t>(p)];
  };

  std::vector<double> scenario_ms, build_ms;
  for (const SetupTimes& t : ph.setups) {
    scenario_ms.push_back(t.scenario_s * 1e3);
    build_ms.push_back(t.build_s * 1e3);
  }
  double step_ns = 0.0;
  for (const auto& [label, ns] : ph.step_ns) step_ns += ns;
  double child_ns = 0.0;
  for (obs::Phase p : kChildPhases) child_ns += phase_ns(p);
  double epoch_ns = 0.0;
  for (double ns : ph.epoch_ns) epoch_ns += ns;
  auto strategy_us = [&](const char* label) {
    auto it = ph.step_ns.find(label);
    return it == ph.step_ns.end() ? 0.0 : per_epoch_us(it->second);
  };

  // SoA epoch-delta replay: the share of in-sweep nodes replayed.
  double soa_sensors = 0.0;
  for (Stepper& s : w.steppers()) {
    if (s.exp && s.exp->engine().core() == EngineCore::kSoa) {
      soa_sensors += static_cast<double>(s.exp->scenario().num_sensors());
    }
  }
  const double reprocessed = per_recorded(a.reprocessed, b.reprocessed);
  const double replay_ratio =
      soa_sensors > 0.0 ? 1.0 - reprocessed / soa_sensors : 0.0;

  // The sketch/ calls every synopsis broadcast pays, timed from outside on
  // a 40-bitmap bank filled with the workload's sensor count.
  FmSketch bank(FmSketch::kDefaultBitmaps, 1);
  FmSketch other(FmSketch::kDefaultBitmaps, 1);
  for (uint64_t k = 0; k < w.sensors(); ++k) {
    bank.AddKey(k);
    other.AddKey(k + w.sensors() / 2);
  }
  volatile size_t sink = 0;
  const double rle_ns = NsPerCall(
      [&] { sink = sink + BankRleBytes(bank.bitmaps()); }, 50'000);
  const double merge_ns = NsPerCall(
      [&] {
        other.Merge(bank);
        sink = sink + other.bitmaps()[0];
      },
      50'000);

  const double tx =
      per_recorded(a.energy.transmissions, b.energy.transmissions);
  const double header = tx * static_cast<double>(kMessageHeaderBytes);
  const uint64_t unicasts = b.unicasts - a.unicasts;
  size_t groups = 0;
  for (Stepper& s : w.steppers()) {
    if (s.fed) groups += s.fed->broker().num_groups();
  }

  return {
      {"workload.scenario_ms", Median(scenario_ms), "ms"},
      {"api.build_ms", Median(build_ms), "ms"},
      {"api.step_self_us", per_epoch_us(step_ns - child_ns), "us/epoch"},
      {"engine.sweep_us", per_epoch_us(phase_ns(obs::Phase::kSweep)),
       "us/epoch"},
      {"engine.sweep_share", phase_ns(obs::Phase::kSweep) / epoch_ns,
       "ratio"},
      {"strategy.tag.step_us", strategy_us("tag"), "us/epoch"},
      {"strategy.sd.step_us", strategy_us("sd"), "us/epoch"},
      {"strategy.tdc.step_us", strategy_us("tdc"), "us/epoch"},
      {"strategy.td.step_us", strategy_us("td"), "us/epoch"},
      {"td.adapt_us",
       ph.adapt_calls ? phase_ns(obs::Phase::kAdapt) /
                            static_cast<double>(ph.adapt_calls) * 1e-3
                      : 0.0,
       "us/decision"},
      {"td.decisions", static_cast<double>(b.decisions - a.decisions),
       "count"},
      {"td.expansions", static_cast<double>(b.expansions - a.expansions),
       "count"},
      {"td.shrinks", static_cast<double>(b.shrinks - a.shrinks), "count"},
      {"td.delta_size", ph.delta_size_sum / recorded, "count"},
      {"core.nodes_reprocessed_per_epoch", reprocessed, "count/epoch"},
      {"core.replay_ratio", replay_ratio, "ratio"},
      {"sketch.bank_rle_bytes_ns", rle_ns, "ns/call"},
      {"sketch.fm_merge_ns", merge_ns, "ns/call"},
      {"net.transmissions_per_epoch", tx, "count/epoch"},
      {"net.header_bytes_per_epoch", header, "bytes/epoch"},
      {"net.payload_bytes_per_epoch",
       per_recorded(a.energy.bytes, b.energy.bytes) - header, "bytes/epoch"},
      {"link.attempts_per_epoch", per_recorded(a.attempts, b.attempts),
       "count/epoch"},
      {"link.delivery_ratio",
       unicasts > 0 ? static_cast<double>(b.delivered - a.delivered) /
                          static_cast<double>(unicasts)
                    : 0.0,
       "ratio"},
      {"link.reroutes", static_cast<double>(b.reroutes - a.reroutes),
       "count"},
      {"window.combine_us", per_epoch_us(phase_ns(obs::Phase::kWindowCombine)),
       "us/epoch"},
      {"window.merges_per_epoch",
       per_recorded(a.window_merges, b.window_merges), "count/epoch"},
      {"fed.merge_us", per_epoch_us(phase_ns(obs::Phase::kFedMerge)),
       "us/epoch"},
      {"fed.merges_per_epoch", per_recorded(a.fed_merges, b.fed_merges),
       "count/epoch"},
      {"fed.merged_bytes_per_epoch",
       per_recorded(a.fed_merged_bytes, b.fed_merged_bytes), "bytes/epoch"},
      {"fed.merge_chains_per_epoch",
       per_recorded(a.merge_chains, b.merge_chains), "count/epoch"},
      {"fed.groups", static_cast<double>(groups), "count"},
      {"dynamics.repairs", static_cast<double>(b.repairs - a.repairs),
       "count"},
      {"obs.overhead_pct",
       (EpochMs(ph, 0.5) / EpochMs(base, 0.5) - 1.0) * 100.0, "%"},
      {"obs.phase_coverage", child_ns / step_ns, "ratio"},
  };
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_suite --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--trace-out PATH]\n");
    return 2;
  }
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  std::unique_ptr<Workload> probe = MakeWorkload(args.workload, args.seed);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("workload %s  seed %" PRIu64 "  seconds %g  trace %d\n",
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0);

  if (!args.trace) {
    const Phase ph = RunPhase(*w, *probe, args.seconds, nullptr, -1);
    std::printf("measured %zu epochs in %.3f s\n", ph.epoch_ns.size(),
                ph.elapsed_s);
    Report(args, EndToEnd(*w, ph), ph.epoch_ns.size(), ph.failed,
           ph.failures, ph.digest);
    return 0;
  }

  const Phase base = RunPhase(*w, *probe, args.seconds / 2, nullptr, -1);
  Tracer tracer(NowNs());
  const int run = tracer.Begin("run", -1);
  const Phase traced = RunPhase(*w, *probe, args.seconds / 2, &tracer, run);
  tracer.End(run);
  std::printf("measured %zu untraced + %zu traced epochs\n",
              base.epoch_ns.size(), traced.epoch_ns.size());

  std::vector<std::string> failures = base.failures;
  failures.insert(failures.end(), traced.failures.begin(),
                  traced.failures.end());
  if (base.digest != traced.digest) {
    failures.push_back("traced run's digest differs from the untraced run's");
  }
  if (!args.trace_out.empty() &&
      !tracer.Write(args.trace_out, args.workload, args.seed)) {
    failures.push_back("could not write " + args.trace_out);
  }
  Report(args, PerLayer(*w, base, traced),
         base.epoch_ns.size() + traced.epoch_ns.size(),
         base.failed + traced.failed, failures, traced.digest);
  return 0;
}

}  // namespace
}  // namespace td::suite

int main(int argc, char** argv) { return td::suite::Main(argc, argv); }
