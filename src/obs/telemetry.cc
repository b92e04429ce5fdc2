#include "obs/telemetry.h"

#include <algorithm>

#include "util/check.h"

namespace td::obs {

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kSweep:
      return "sweep";
    case Phase::kAdapt:
      return "adapt";
    case Phase::kRleEncode:
      return "rle_encode";
    case Phase::kWindowCombine:
      return "window_combine";
    case Phase::kFedMerge:
      return "fed_merge";
    case Phase::kNumPhases:
      break;
  }
  return "unknown";
}

double TelemetrySummary::metric(std::string_view name) const {
  auto it = std::lower_bound(
      metrics.begin(), metrics.end(), name,
      [](const MetricRow& row, std::string_view n) { return row.name < n; });
  if (it == metrics.end() || it->name != name) return 0.0;
  return it->value;
}

void TelemetrySummary::Merge(const TelemetrySummary& o) {
  enabled = enabled || o.enabled;
  // Merge-join over the two name-sorted row lists.
  std::vector<MetricRow> merged;
  merged.reserve(std::max(metrics.size(), o.metrics.size()));
  size_t i = 0, j = 0;
  while (i < metrics.size() || j < o.metrics.size()) {
    if (j == o.metrics.size() ||
        (i < metrics.size() && metrics[i].name < o.metrics[j].name)) {
      merged.push_back(metrics[i++]);
    } else if (i == metrics.size() || o.metrics[j].name < metrics[i].name) {
      merged.push_back(o.metrics[j++]);
    } else {
      merged.push_back({metrics[i].name, metrics[i].value + o.metrics[j].value});
      ++i;
      ++j;
    }
  }
  metrics = std::move(merged);
  if (phases.empty()) {
    phases = o.phases;
  } else if (!o.phases.empty()) {
    TD_CHECK_EQ(phases.size(), o.phases.size());
    for (size_t p = 0; p < phases.size(); ++p) {
      phases[p].ns += o.phases[p].ns;
      phases[p].calls += o.phases[p].calls;
    }
  }
  trace_recorded += o.trace_recorded;
  trace_dropped += o.trace_dropped;
  if (!o.node_energy_series.empty()) {
    if (node_energy_series.size() < o.node_energy_series.size()) {
      node_energy_series.resize(o.node_energy_series.size());
    }
    for (size_t e = 0; e < o.node_energy_series.size(); ++e) {
      auto& mine = node_energy_series[e];
      const auto& theirs = o.node_energy_series[e];
      if (mine.size() < theirs.size()) mine.resize(theirs.size(), 0);
      for (size_t v = 0; v < theirs.size(); ++v) mine[v] += theirs[v];
    }
  }
}

TelemetrySink::TelemetrySink(const TelemetryConfig& config)
    : config_(config), tracer_(std::max<size_t>(config.trace_capacity, 1)) {}

void TelemetrySink::Reset() {
  metrics_.Reset();
  tracer_.Reset();
  profiler_.Reset();
  node_energy_series_.clear();
}

TelemetrySummary TelemetrySink::Summarize() {
  TelemetrySummary s;
  s.enabled = true;
  s.metrics = metrics_.Rows();
  s.phases.reserve(kNumPhases);
  for (size_t p = 0; p < kNumPhases; ++p) {
    const Phase phase = static_cast<Phase>(p);
    const PhaseStat& st = profiler_.stat(phase);
    s.phases.push_back({PhaseName(phase), st.ns, st.calls});
  }
  s.events = tracer_.Drain();
  s.trace_recorded = tracer_.recorded();
  s.trace_dropped = tracer_.dropped();
  s.node_energy_series = std::move(node_energy_series_);
  node_energy_series_.clear();
  return s;
}

}  // namespace td::obs
