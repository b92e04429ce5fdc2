// ab_runner: paired in-process timing of one suite workload under two
// builds. It loads the base tree's td_ab module twice (from two files, so
// the process holds two copies of its code) and the changed tree's once,
// opens one workload instance in each, and steps them in chunks of epochs:
// every round steps each instance one chunk, the order cycling through all
// six permutations so no build always runs first or last. Each round gives
// a change/base ratio of ms per epoch, and a base-copy/base ratio, the A/A
// control that shows what the harness resolves on this machine. All three
// instances step the same epochs, so their digests must match.
//
//   ab_runner --base base/td_ab.so --base-copy base/td_ab_copy.so
//             --change change/td_ab.so --workload lab_freq
//             [--seed 1] [--seconds 20]
//
// A chunk is kChunkMs of the slower build's epoch, so each timed span is
// long enough for the clock and short enough to give many rounds.
//
// The run lasts --seconds and at least until every instance has stepped
// the workload's recorded prefix, so the digests printed are bench_suite's
// for the same seed. Exit status 1 when the digests differ or a check
// failed. ab.py builds the modules and runs this.
#include <dlfcn.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace {

constexpr double kChunkMs = 20.0;

struct Module {
  std::string label;
  void* lib = nullptr;
  void* (*open)(const char*, uint64_t) = nullptr;
  uint64_t (*step)(void*, uint32_t) = nullptr;
  uint32_t (*unrecorded)(void*) = nullptr;
  uint64_t (*digest)(void*) = nullptr;
  uint64_t (*failed)(void*) = nullptr;
  void (*close)(void*) = nullptr;
  void* instance = nullptr;

  template <typename F>
  bool Bind(F* fn, const char* name) {
    *fn = reinterpret_cast<F>(dlsym(lib, name));
    if (*fn == nullptr) {
      std::fprintf(stderr, "%s: no %s\n", label.c_str(), name);
    }
    return *fn != nullptr;
  }

  bool Load(const std::string& path) {
    lib = dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (lib == nullptr) {
      std::fprintf(stderr, "%s: %s\n", label.c_str(), dlerror());
      return false;
    }
    return Bind(&open, "td_ab_open") && Bind(&step, "td_ab_step") &&
           Bind(&unrecorded, "td_ab_unrecorded") &&
           Bind(&digest, "td_ab_digest") && Bind(&failed, "td_ab_failed") &&
           Bind(&close, "td_ab_close");
  }
};

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolation quantile of the samples.
double Quantile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace

int main(int argc, char** argv) {
  std::string base_path, copy_path, change_path, workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--base") {
      base_path = value;
    } else if (key == "--base-copy") {
      copy_path = value;
    } else if (key == "--change") {
      change_path = value;
    } else if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else {
      std::fprintf(stderr, "unknown option %s\n", key.c_str());
      return 2;
    }
  }
  if (argc % 2 == 0 || base_path.empty() || copy_path.empty() ||
      change_path.empty() || workload.empty() || seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: ab_runner --base SO --base-copy SO --change SO "
                 "--workload NAME [--seed N] [--seconds S]\n");
    return 2;
  }

  // Index 0 is the base, 1 its copy (the A/A control), 2 the change.
  std::array<Module, 3> mods;
  mods[0].label = "base";
  mods[1].label = "base-copy";
  mods[2].label = "change";
  const std::string paths[3] = {base_path, copy_path, change_path};
  for (int m = 0; m < 3; ++m) {
    if (!mods[m].Load(paths[m])) return 2;
    mods[m].instance = mods[m].open(workload.c_str(), seed);
    if (mods[m].instance == nullptr) {
      std::fprintf(stderr, "%s: unknown workload %s\n",
                   mods[m].label.c_str(), workload.c_str());
      return 2;
    }
  }

  // Chunk length: kChunkMs of the slower build's epoch, from three
  // untimed epochs of each (they count toward the digests).
  uint64_t slowest_ns = 1;
  for (Module& m : mods) {
    slowest_ns = std::max(slowest_ns, m.step(m.instance, 3) / 3);
  }
  const uint32_t chunk = static_cast<uint32_t>(
      std::max(1.0, kChunkMs * 1e6 / static_cast<double>(slowest_ns)));

  static constexpr int kOrders[6][3] = {{0, 1, 2}, {2, 1, 0}, {1, 2, 0},
                                        {0, 2, 1}, {2, 0, 1}, {1, 0, 2}};
  std::vector<double> ms[3];
  std::vector<double> change_ratio, control_ratio;
  const double start = NowS();
  for (size_t round = 0;; ++round) {
    bool recorded = true;
    for (Module& m : mods) recorded &= m.unrecorded(m.instance) == 0;
    if (recorded && NowS() - start >= seconds && round >= 6) break;
    double round_ms[3];
    for (int m : kOrders[round % 6]) {
      round_ms[m] = static_cast<double>(mods[m].step(mods[m].instance, chunk)) *
                    1e-6 / chunk;
      ms[m].push_back(round_ms[m]);
    }
    change_ratio.push_back(round_ms[2] / round_ms[0]);
    control_ratio.push_back(round_ms[1] / round_ms[0]);
  }

  uint64_t digests[3];
  uint64_t failed = 0;
  for (int m = 0; m < 3; ++m) {
    digests[m] = mods[m].digest(mods[m].instance);
    failed += mods[m].failed(mods[m].instance);
  }
  const bool digests_match =
      digests[0] == digests[1] && digests[0] == digests[2];

  std::printf("workload %s seed %" PRIu64 ": %zu rounds of %u epochs\n",
              workload.c_str(), seed, change_ratio.size(), chunk);
  for (int m = 0; m < 3; ++m) {
    std::printf("%-10s ms/epoch median %.4f  digest %016" PRIx64 "\n",
                mods[m].label.c_str(), Quantile(ms[m], 0.5), digests[m]);
  }
  std::printf("change/base     median %.4f  quartiles [%.4f, %.4f]\n",
              Quantile(change_ratio, 0.5), Quantile(change_ratio, 0.25),
              Quantile(change_ratio, 0.75));
  std::printf("base-copy/base  median %.4f  quartiles [%.4f, %.4f]  (A/A)\n",
              Quantile(control_ratio, 0.5), Quantile(control_ratio, 0.25),
              Quantile(control_ratio, 0.75));
  std::printf("digests %s, failed checks %" PRIu64 "\n",
              digests_match ? "match" : "DIFFER", failed);
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"rounds\": %zu, "
      "\"chunk_epochs\": %u, \"base_ms\": %.6g, \"change_ms\": %.6g, "
      "\"change_ratio\": %.6g, \"change_ratio_q1\": %.6g, "
      "\"change_ratio_q3\": %.6g, \"control_ratio\": %.6g, "
      "\"control_ratio_q1\": %.6g, \"control_ratio_q3\": %.6g, "
      "\"digest\": \"%016" PRIx64 "\", \"digests_match\": %s, "
      "\"failed\": %" PRIu64 "}\n",
      workload.c_str(), seed, change_ratio.size(), chunk,
      Quantile(ms[0], 0.5), Quantile(ms[2], 0.5), Quantile(change_ratio, 0.5),
      Quantile(change_ratio, 0.25), Quantile(change_ratio, 0.75),
      Quantile(control_ratio, 0.5), Quantile(control_ratio, 0.25),
      Quantile(control_ratio, 0.75), digests[0],
      digests_match ? "true" : "false", failed);

  for (Module& m : mods) m.close(m.instance);
  return digests_match && failed == 0 ? 0 : 1;
}
