// The lossy wireless network: per-transmission Bernoulli delivery draws
// plus energy accounting (transmissions, packets, bytes), mirroring the TAG
// simulator setup the paper evaluates in.
//
// Scheduling semantics: aggregation engines iterate levels from the highest
// toward the base station; each node performs one logical transmission per
// epoch (a broadcast in rings / TD, a unicast in trees). Each receiver of a
// broadcast draws an independent loss trial, matching the synopsis-diffusion
// model [16] where distinct receivers fail independently.
#ifndef TD_NET_NETWORK_H_
#define TD_NET_NETWORK_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "link/retry_policy.h"
#include "net/connectivity.h"
#include "net/deployment.h"
#include "net/loss_model.h"
#include "util/rng.h"

namespace td {

/// TinyDB message payload size used throughout the paper's evaluation.
inline constexpr size_t kPacketBytes = 48;

/// Cumulative energy-relevant counters.
struct EnergyStats {
  uint64_t transmissions = 0;  // physical radio sends (incl. retransmissions)
  uint64_t packets = 0;        // 48-byte packets across all transmissions
  uint64_t bytes = 0;          // payload bytes across all transmissions

  EnergyStats& operator+=(const EnergyStats& o) {
    transmissions += o.transmissions;
    packets += o.packets;
    bytes += o.bytes;
    return *this;
  }
};

/// Per-unicast retry accounting, accumulated by DeliverWithRetries and
/// reset together with the energy counters (so, like EnergyStats, a run's
/// measured tally excludes warmup). Invariants the accounting tests pin:
///   sum(by_attempts) == unicasts,
///   sum_k (k + 1) * by_attempts[k] == attempts,
///   delivered <= unicasts.
struct RetryStats {
  uint64_t unicasts = 0;   // logical unicast messages attempted
  uint64_t delivered = 0;  // unicasts whose data reached the receiver
  uint64_t attempts = 0;   // physical data transmissions across all unicasts
  /// by_attempts[k]: unicasts that used exactly k + 1 data transmissions
  /// (delivered or exhausted).
  std::vector<uint64_t> by_attempts;

  double delivery_ratio() const {
    return unicasts == 0
               ? 0.0
               : static_cast<double>(delivered) / static_cast<double>(unicasts);
  }
};

/// Observer of unicast outcomes: route aging (link/route_aging) blacklists
/// persistently failing tree links, and a gateway with telemetry books
/// contested unicasts. Called once per logical unicast with the physical
/// data transmissions it took and the final delivery outcome, never per
/// attempt.
class LinkObserver {
 public:
  virtual ~LinkObserver() = default;
  virtual void OnUnicast(NodeId src, NodeId dst, uint32_t epoch, int attempts,
                         bool delivered) = 0;
};

class Network {
 public:
  Network(const Deployment* deployment, const Connectivity* connectivity,
          std::shared_ptr<LossModel> loss, uint64_t seed);

  /// One delivery trial for src->dst at `epoch`. Both must be neighbors.
  /// Deterministic given (seed, call sequence). Always fails (without
  /// drawing a loss trial) when either endpoint is inactive.
  bool Deliver(NodeId src, NodeId dst, uint32_t epoch);

  /// Delivery with up to `extra_attempts` retransmissions after a failure
  /// (Figure 9(b): tree nodes retransmit twice => extra_attempts = 2).
  /// Every attempt is counted as a physical transmission against `src`.
  /// `bytes` is the message payload size, charged per attempt.
  ///
  /// When a RetryPolicy is installed (SetRetryPolicy), the policy governs
  /// the attempt budget instead of `extra_attempts` -- its
  /// EffectiveAttempts total, plus optional ack-loss draws on the reverse
  /// link (a delivered packet whose ack is lost is retransmitted and
  /// de-duplicated, so the return value is "data reached dst at least
  /// once"). Without a policy the draw sequence is exactly one Bernoulli
  /// per attempt, unchanged from the pre-link-layer contract.
  bool DeliverWithRetries(NodeId src, NodeId dst, uint32_t epoch,
                          int extra_attempts, size_t bytes);

  /// Charges one physical broadcast/unicast of `bytes` payload to `src`.
  /// Deliver() does not charge energy by itself because one broadcast
  /// reaches many receivers; engines call this once per transmission.
  void CountTransmission(NodeId src, size_t bytes);

  const Deployment& deployment() const { return *deployment_; }
  const Connectivity& connectivity() const { return *connectivity_; }
  const LossModel& loss() const { return *loss_; }

  /// Replaces the loss model (dynamic scenarios assembled incrementally).
  void SetLossModel(std::shared_ptr<LossModel> loss);

  /// Installs a link-layer retransmission policy (validated fail-fast).
  /// From then on DeliverWithRetries budgets attempts from the policy, not
  /// from its extra_attempts argument. ClearRetryPolicy restores the
  /// legacy per-call budget.
  void SetRetryPolicy(const RetryPolicy& policy);
  void ClearRetryPolicy() { retry_policy_.reset(); }
  const std::optional<RetryPolicy>& retry_policy() const {
    return retry_policy_;
  }

  /// Unicast delivery/retry tallies; reset together with ResetEnergy.
  const RetryStats& retry_stats() const { return retry_stats_; }

  /// Subscribes an observer to per-unicast outcomes (nullptr unsubscribes).
  /// The observer must outlive the network or be cleared first.
  void SetLinkObserver(LinkObserver* observer) { observer_ = observer; }

  /// Powers a node down (dead or duty-cycle asleep) or back up. An inactive
  /// node transmits nothing -- its sends fail and charge no energy -- and
  /// hears nothing. All nodes start active; static scenarios never call
  /// this, so their delivery draws (and rng stream) are unchanged.
  void SetNodeActive(NodeId id, bool active);
  bool node_active(NodeId id) const;

  /// Count of currently active nodes (base station included).
  size_t num_active() const;

  const EnergyStats& total_energy() const { return total_energy_; }
  const EnergyStats& node_energy(NodeId id) const;

  /// Zeroes all counters (e.g. after topology warm-up, as in Section 7.1:
  /// "we begin data collection only after the topologies become stable").
  void ResetEnergy();

  size_t size() const { return deployment_->size(); }

 private:
  void RecordUnicast(NodeId src, NodeId dst, uint32_t epoch, int attempts,
                     bool delivered);

  const Deployment* deployment_;      // not owned
  const Connectivity* connectivity_;  // not owned
  std::shared_ptr<LossModel> loss_;
  Rng rng_;
  EnergyStats total_energy_;
  std::vector<EnergyStats> node_energy_;
  std::vector<uint8_t> active_;
  std::optional<RetryPolicy> retry_policy_;
  RetryStats retry_stats_;
  LinkObserver* observer_ = nullptr;  // not owned
};

}  // namespace td

#endif  // TD_NET_NETWORK_H_
