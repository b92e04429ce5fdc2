// Phase profiler: fixed-slot wall-time accounting for the hot loops
// (engine sweeps, RLE encode, window combining, federation merging).
// Phases are a compile-time enum -- no registration, no strings on the
// hot path -- and merge across trial shards by element-wise addition.
// Note that phase nanoseconds are wall time and therefore NOT part of any
// bit-identity contract; only counters/events/results are.
#ifndef TD_OBS_PROFILE_H_
#define TD_OBS_PROFILE_H_

#include <array>
#include <cstdint>

namespace td::obs {

enum class Phase : uint8_t {
  kSweep = 0,      // engine level sweep (tree / ring / TD)
  kAdapt,          // TD shrink/expand decision + switch broadcast
  kRleEncode,      // bank RLE encoding (sketch/rle)
  kWindowCombine,  // two-stacks / hopping window combining at the base
  kFedMerge,       // coordinator root-state merging
  kNumPhases,
};

inline constexpr size_t kNumPhases = static_cast<size_t>(Phase::kNumPhases);

const char* PhaseName(Phase phase);

struct PhaseStat {
  uint64_t ns = 0;
  uint64_t calls = 0;
};

class Profiler {
 public:
  void Add(Phase phase, uint64_t ns) {
    PhaseStat& s = stats_[static_cast<size_t>(phase)];
    s.ns += ns;
    ++s.calls;
  }

  const PhaseStat& stat(Phase phase) const {
    return stats_[static_cast<size_t>(phase)];
  }

  void Merge(const Profiler& o) {
    for (size_t i = 0; i < kNumPhases; ++i) {
      stats_[i].ns += o.stats_[i].ns;
      stats_[i].calls += o.stats_[i].calls;
    }
  }

  void Reset() { stats_.fill(PhaseStat{}); }

 private:
  std::array<PhaseStat, kNumPhases> stats_{};
};

}  // namespace td::obs

#endif  // TD_OBS_PROFILE_H_
