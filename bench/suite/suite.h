// Shared pieces of the benchmark suite: the workload interface main.cc
// drives, the answer digest, and the seed mixer every workload derives its
// inputs from. Workloads reach the program only through its public entry
// points (Experiment::Builder, Experiment::StepEpoch,
// FederatedExperiment::StepEpoch and the sketch/ functions).
#ifndef TD_BENCH_SUITE_SUITE_H_
#define TD_BENCH_SUITE_SUITE_H_

#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "fed/federated_experiment.h"
#include "obs/telemetry.h"
#include "util/hash.h"

namespace td::suite {

/// Sub-seed `salt` of `seed`: every network, dynamics and link seed of a
/// workload comes from --seed through this, so one --seed fixes every input.
inline uint64_t SeedFor(uint64_t seed, uint64_t salt) {
  return Mix64(seed ^ (salt * 0x9e3779b97f4a7c15ULL));
}

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// FNV-1a over the exact bits of every answer and byte counter a run
/// records, so two builds (or a traced and an untraced run) can be
/// compared bit for bit.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// One independently stepped system of a workload: an Experiment (one
/// scheme of a lockstep comparison) or a whole FederatedExperiment.
struct Stepper {
  std::string label;  // "tag", "sd", "tdc", "td" or "fed"
  std::unique_ptr<Experiment> exp;
  std::unique_ptr<FederatedExperiment> fed;
  EpochResult last;  // exp only
  FedEpochResult last_fed;  // fed only

  void Step(uint32_t epoch) {
    if (exp) {
      last = exp->StepEpoch(epoch);
    } else {
      last_fed = fed->StepEpoch(epoch);
    }
  }
  obs::TelemetrySink* telemetry() {
    return exp ? exp->telemetry() : fed->telemetry();
  }
  size_t num_engines() const { return exp ? 1 : fed->num_gateways(); }
  Engine& engine(size_t i) {
    return exp ? exp->engine() : fed->gateway_engine(i);
  }
};

/// Wall time of one fresh construction, split by layer.
struct SetupTimes {
  double scenario_s = 0.0;
  double build_s = 0.0;
};

/// A benchmark workload. main.cc owns the run loop (set-up, warmup, timed
/// epochs, counters); a workload builds its systems, checks every epoch's
/// answers against its own reference, and scores accuracy.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Epochs stepped before measurement starts (digested, not timed).
  virtual uint32_t warmup() const = 0;
  /// Measured epochs whose answers and byte counters feed the digest,
  /// bytes_per_epoch, rel_error and the per-layer counts: a fixed prefix,
  /// so those numbers do not depend on how fast the machine is. The run
  /// always measures at least this many epochs.
  virtual uint32_t recorded() const = 0;
  /// Sensors in the deployment (sizes the sketch/ micro timings).
  virtual size_t sensors() const = 0;

  /// Tears down the previous construction and builds the scenario(s) and
  /// every experiment afresh, with telemetry when `telemetry` is set.
  virtual SetupTimes Setup(std::optional<obs::TelemetryConfig> telemetry) = 0;

  /// Runs after every stepper has stepped `epoch`, outside the timed span.
  /// Checks the epoch's answers and, when `record`, folds them into
  /// `digest` and keeps them for RelError. Returns false on a failed check.
  virtual bool Check(uint32_t epoch, bool record, Digest* digest) = 0;

  /// Accuracy of the recorded epochs against the workload's reference.
  virtual double RelError() const = 0;

  /// Checks over the whole run; appends one line per failure.
  virtual void RunChecks(std::vector<std::string>* failures) const = 0;

  std::vector<Stepper>& steppers() { return steppers_; }

 protected:
  std::vector<Stepper> steppers_;
};

/// The workload registry: name -> instance whose inputs derive from `seed`.
/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace td::suite

#endif  // TD_BENCH_SUITE_SUITE_H_
