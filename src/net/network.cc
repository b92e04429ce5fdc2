#include "net/network.h"

#include "util/check.h"

namespace td {

Network::Network(const Deployment* deployment,
                 const Connectivity* connectivity,
                 std::shared_ptr<LossModel> loss, uint64_t seed)
    : deployment_(deployment),
      connectivity_(connectivity),
      loss_(std::move(loss)),
      rng_(seed),
      node_energy_(deployment->size()),
      active_(deployment->size(), 1) {
  TD_CHECK(deployment_ != nullptr);
  TD_CHECK(connectivity_ != nullptr);
  TD_CHECK(loss_ != nullptr);
  TD_CHECK_EQ(deployment_->size(), connectivity_->num_nodes());
}

bool Network::Deliver(NodeId src, NodeId dst, uint32_t epoch) {
  TD_DCHECK(connectivity_->AreNeighbors(src, dst));
  if (!(active_[src] & active_[dst])) return false;
  double p = loss_->LossRate(src, dst, epoch);
  return !rng_.Bernoulli(p);
}

bool Network::DeliverWithRetries(NodeId src, NodeId dst, uint32_t epoch,
                                 int extra_attempts, size_t bytes) {
  TD_CHECK_GE(extra_attempts, 0);
  TD_DCHECK(connectivity_->AreNeighbors(src, dst));
  // An installed policy owns the attempt budget; otherwise the caller's
  // extra_attempts keeps the legacy contract (budget = 1 + extras).
  const int budget = retry_policy_ ? retry_policy_->EffectiveAttempts()
                                   : extra_attempts + 1;
  if (!(active_[src] & active_[dst])) {
    // The sender (if up) still burns energy trying; nothing is drawn.
    for (int attempt = 0; attempt < budget; ++attempt) {
      CountTransmission(src, bytes);
    }
    RecordUnicast(src, dst, epoch, budget, false);
    return false;
  }
  // The loss rate is a pure function of (src, dst, epoch): hoist it out of
  // the retry loop so stateless-but-computed models (Gilbert-Elliott's
  // block walk) run once per message, not once per attempt. Draw sequence
  // without a policy is unchanged: one Bernoulli per attempt, as before.
  const double p = loss_->LossRate(src, dst, epoch);
  if (!retry_policy_ || !retry_policy_->ack_loss) {
    for (int attempt = 0; attempt < budget; ++attempt) {
      CountTransmission(src, bytes);
      if (!rng_.Bernoulli(p)) {
        RecordUnicast(src, dst, epoch, attempt + 1, true);
        return true;
      }
    }
    RecordUnicast(src, dst, epoch, budget, false);
    return false;
  }
  // Ack-loss mode: a delivered packet is acked over the reverse link; a
  // lost ack makes the sender retransmit data the receiver already holds
  // (and de-duplicates), so delivery is "data arrived at least once" while
  // attempts and energy keep climbing until an ack lands or the budget
  // runs out. Acks are charged to the receiver.
  const double q = loss_->LossRate(dst, src, epoch);
  bool delivered = false;
  int attempts = 0;
  while (attempts < budget) {
    CountTransmission(src, bytes);
    ++attempts;
    if (rng_.Bernoulli(p)) continue;  // data lost; retry if budget remains
    delivered = true;
    CountTransmission(dst, retry_policy_->ack_bytes);
    if (!rng_.Bernoulli(q)) break;  // ack heard; the sender stops
  }
  RecordUnicast(src, dst, epoch, attempts, delivered);
  return delivered;
}

void Network::RecordUnicast(NodeId src, NodeId dst, uint32_t epoch,
                            int attempts, bool delivered) {
  TD_DCHECK(attempts >= 1);
  ++retry_stats_.unicasts;
  retry_stats_.attempts += static_cast<uint64_t>(attempts);
  if (delivered) ++retry_stats_.delivered;
  if (retry_stats_.by_attempts.size() < static_cast<size_t>(attempts)) {
    retry_stats_.by_attempts.resize(static_cast<size_t>(attempts), 0);
  }
  ++retry_stats_.by_attempts[static_cast<size_t>(attempts) - 1];
  if (observer_ != nullptr) {
    observer_->OnUnicast(src, dst, epoch, attempts, delivered);
  }
}

void Network::CountTransmission(NodeId src, size_t bytes) {
  TD_CHECK_LT(src, node_energy_.size());
  if (!active_[src]) return;  // a powered-down radio transmits nothing
  uint64_t packets = (bytes + kPacketBytes - 1) / kPacketBytes;
  if (packets == 0) packets = 1;  // even an empty message costs a packet
  EnergyStats delta;
  delta.transmissions = 1;
  delta.packets = packets;
  delta.bytes = bytes;
  total_energy_ += delta;
  node_energy_[src] += delta;
}

void Network::SetLossModel(std::shared_ptr<LossModel> loss) {
  TD_CHECK(loss != nullptr);
  loss_ = std::move(loss);
}

void Network::SetRetryPolicy(const RetryPolicy& policy) {
  policy.Validate();
  retry_policy_ = policy;
}

void Network::SetNodeActive(NodeId id, bool active) {
  TD_CHECK_LT(id, active_.size());
  active_[id] = active ? 1 : 0;
}

bool Network::node_active(NodeId id) const {
  TD_CHECK_LT(id, active_.size());
  return active_[id] != 0;
}

size_t Network::num_active() const {
  size_t n = 0;
  for (uint8_t a : active_) n += a;
  return n;
}

const EnergyStats& Network::node_energy(NodeId id) const {
  TD_CHECK_LT(id, node_energy_.size());
  return node_energy_[id];
}

void Network::ResetEnergy() {
  total_energy_ = EnergyStats{};
  for (auto& e : node_energy_) e = EnergyStats{};
  retry_stats_ = RetryStats{};
}

}  // namespace td
