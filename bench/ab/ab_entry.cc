// Entry points of a td_ab module: one tree's suite workloads behind a C
// interface, so ab_runner can load two trees' modules into one process
// and step them in turn. An instance is a workload after Setup() and its
// warmup. It steps the same epochs, checks and digest as bench_suite's
// timed loop: once an instance has stepped the workload's recorded prefix,
// td_ab_digest equals the digest bench_suite prints for the same seed.
#include <cstdint>
#include <memory>
#include <optional>

#include "suite.h"

namespace {

struct Instance {
  std::unique_ptr<td::suite::Workload> workload;
  td::suite::Digest digest;
  uint32_t epoch = 0;  // the next epoch to step
  uint64_t failed = 0;
};

/// Steps every system of the workload once; returns the ns spent stepping.
uint64_t StepAndCheck(Instance* inst) {
  td::suite::Workload& w = *inst->workload;
  const uint64_t t0 = td::suite::NowNs();
  for (td::suite::Stepper& s : w.steppers()) s.Step(inst->epoch);
  const uint64_t ns = td::suite::NowNs() - t0;
  const bool record = inst->epoch < w.warmup() + w.recorded();
  if (!w.Check(inst->epoch, record, &inst->digest)) ++inst->failed;
  ++inst->epoch;
  return ns;
}

}  // namespace

#define TD_AB_EXPORT extern "C" __attribute__((visibility("default")))

/// A new instance of workload `name` (set up and warmed up), or null for an
/// unknown name.
TD_AB_EXPORT void* td_ab_open(const char* name, uint64_t seed) {
  auto inst = std::make_unique<Instance>();
  inst->workload = td::suite::MakeWorkload(name, seed);
  if (inst->workload == nullptr) return nullptr;
  inst->workload->Setup(std::nullopt);
  while (inst->epoch < inst->workload->warmup()) StepAndCheck(inst.get());
  return inst.release();
}

/// Steps `epochs` epochs; returns the ns spent inside the steps (checks
/// and digesting run outside the timed span).
TD_AB_EXPORT uint64_t td_ab_step(void* handle, uint32_t epochs) {
  Instance* inst = static_cast<Instance*>(handle);
  uint64_t ns = 0;
  for (uint32_t i = 0; i < epochs; ++i) ns += StepAndCheck(inst);
  return ns;
}

/// Epochs past the warmup that the digest still needs.
TD_AB_EXPORT uint32_t td_ab_unrecorded(void* handle) {
  const Instance* inst = static_cast<const Instance*>(handle);
  const uint32_t end = inst->workload->warmup() + inst->workload->recorded();
  return inst->epoch < end ? end - inst->epoch : 0;
}

TD_AB_EXPORT uint64_t td_ab_digest(void* handle) {
  return static_cast<Instance*>(handle)->digest.value();
}

TD_AB_EXPORT uint64_t td_ab_failed(void* handle) {
  return static_cast<Instance*>(handle)->failed;
}

TD_AB_EXPORT void td_ab_close(void* handle) {
  delete static_cast<Instance*>(handle);
}
