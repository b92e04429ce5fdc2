// Route aging: blacklist persistently failing tree links and re-parent
// around them.
//
// A link whose quality map said "fine" can still go bad at run time -- a
// fault window opens, a burst sets in -- and a child that keeps unicasting
// into it loses every reading it forwards. The RouteAger watches unicast
// outcomes (net/network's LinkObserver hook), counts *consecutive* failures
// per directed tree link, and after `fail_threshold` misses in a row
// blacklists the link for `blacklist_epochs` epochs. At the end of any
// epoch in which a current tree edge is blacklisted, the tree is repaired
// through topology/tree_builder's filtered RepairTree, which steers the
// affected children onto non-blacklisted upstream parents (and, when every
// candidate is blacklisted, keeps the least-bad attachment rather than
// detaching -- a bad parent beats no parent).
//
// Everything here is a deterministic function of the unicast outcome
// stream, which is itself a deterministic function of the trial seed, so
// aged routes stay bit-identical across Monte Carlo thread counts. Route
// aging owns tree repair for its experiment and is therefore incompatible
// with workload/dynamics (whose churn repair would race it on the same
// tree); Experiment::Builder enforces that.
#ifndef TD_LINK_ROUTE_AGING_H_
#define TD_LINK_ROUTE_AGING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/network.h"
#include "workload/scenario.h"

namespace td {

struct RouteAgingConfig {
  /// Consecutive failed unicasts on one directed link before it is
  /// blacklisted. A single delivered packet resets the streak.
  int fail_threshold = 3;

  /// Epochs a blacklisted link stays vetoed, counted from the epoch the
  /// streak completed; after expiry the link may be chosen again.
  uint32_t blacklist_epochs = 50;

  /// Fail-fast validation; called by the RouteAger constructor.
  void Validate() const;
};

/// LinkObserver that ages routes over a mutable scenario tree. Subscribe
/// with Network::SetLinkObserver and call EndEpoch once per epoch after
/// aggregation; the caller forwards a non-zero reroute count to its engine
/// (Engine::OnTopologyChanged) and charges the repair control traffic.
class RouteAger : public LinkObserver {
 public:
  /// `scenario` must outlive the ager; its tree is repaired in place (the
  /// member is assigned, never reseated, so engine pointers stay valid).
  RouteAger(RouteAgingConfig config, Scenario* scenario);

  /// Records one unicast outcome. Only links into the sender's *current*
  /// tree parent feed the failure streak -- delivery on any other link says
  /// nothing about the route being aged.
  void OnUnicast(NodeId src, NodeId dst, uint32_t epoch, int attempts,
                 bool delivered) override;

  /// End-of-epoch pass: expires stale blacklist entries, then -- if any
  /// current tree edge is blacklisted for epoch + 1 -- re-parents the
  /// affected children via the filtered RepairTree. Returns the number of
  /// nodes re-parented this pass (0 almost every epoch).
  size_t EndEpoch(uint32_t epoch);

  /// Whether the directed link from->to is blacklisted at `epoch`.
  bool IsBlacklisted(NodeId from, NodeId to, uint32_t epoch) const;

  /// Nodes re-parented over the ager's lifetime.
  size_t total_reroutes() const { return total_reroutes_; }

  /// Blacklist entries not yet expired (pruned lazily by EndEpoch).
  size_t num_blacklisted() const { return bl_keys_.size(); }

  const RouteAgingConfig& config() const { return config_; }

 private:
  RouteAgingConfig config_;
  Scenario* scenario_;        // not owned; tree repaired in place
  std::vector<bool> alive_;   // aging runs without churn: everyone alive

  // Flat sorted parallel arrays keyed by (from << 32) | to, the same index
  // layout as PerLinkLoss / LinkQualityMap.
  std::vector<uint64_t> fail_keys_;
  std::vector<int> fail_counts_;
  std::vector<uint64_t> bl_keys_;
  std::vector<uint32_t> bl_expiry_;  // blacklisted while epoch < expiry

  size_t total_reroutes_ = 0;
};

}  // namespace td

#endif  // TD_LINK_ROUTE_AGING_H_
