#include "link/route_aging.h"

#include <algorithm>

#include "obs/telemetry.h"
#include "topology/tree_builder.h"
#include "util/check.h"

namespace td {

namespace {

uint64_t PackLink(NodeId from, NodeId to) {
  return (static_cast<uint64_t>(from) << 32) | to;
}

// Index of `key` in the sorted vector, or SIZE_MAX when absent.
size_t FindKey(const std::vector<uint64_t>& keys, uint64_t key) {
  auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return static_cast<size_t>(-1);
  return static_cast<size_t>(it - keys.begin());
}

}  // namespace

void RouteAgingConfig::Validate() const {
  TD_CHECK_MSG(fail_threshold >= 1,
               "RouteAgingConfig.fail_threshold must be >= 1: a link cannot "
               "be blacklisted on zero evidence");
  TD_CHECK_MSG(blacklist_epochs >= 1,
               "RouteAgingConfig.blacklist_epochs must be >= 1: a zero-epoch "
               "blacklist expires before the repair pass can use it");
}

RouteAger::RouteAger(RouteAgingConfig config, Scenario* scenario)
    : config_(config), scenario_(scenario) {
  TD_CHECK(scenario != nullptr);
  config_.Validate();
  alive_.assign(scenario_->deployment.size(), true);
}

void RouteAger::OnUnicast(NodeId src, NodeId dst, uint32_t epoch,
                          int /*attempts*/, bool delivered) {
  // Only the child -> current-parent link feeds the streak; a unicast on
  // any other link (stale caller, future multi-path use) is ignored.
  if (scenario_->tree.parent(src) != dst) return;
  const uint64_t key = PackLink(src, dst);
  const size_t idx = FindKey(fail_keys_, key);
  if (delivered) {
    if (idx != static_cast<size_t>(-1)) {
      fail_keys_.erase(fail_keys_.begin() + static_cast<ptrdiff_t>(idx));
      fail_counts_.erase(fail_counts_.begin() + static_cast<ptrdiff_t>(idx));
    }
    return;
  }
  int count = 1;
  if (idx != static_cast<size_t>(-1)) {
    count = ++fail_counts_[idx];
  } else {
    auto it = std::lower_bound(fail_keys_.begin(), fail_keys_.end(), key);
    const size_t at = static_cast<size_t>(it - fail_keys_.begin());
    fail_keys_.insert(it, key);
    fail_counts_.insert(fail_counts_.begin() + static_cast<ptrdiff_t>(at), 1);
  }
  if (count < config_.fail_threshold) return;
  // Streak complete: blacklist (or refresh) and reset the streak so the
  // link must fail `fail_threshold` more times to extend the sentence.
  const size_t fidx = FindKey(fail_keys_, key);
  fail_keys_.erase(fail_keys_.begin() + static_cast<ptrdiff_t>(fidx));
  fail_counts_.erase(fail_counts_.begin() + static_cast<ptrdiff_t>(fidx));
  const uint32_t expiry = epoch + config_.blacklist_epochs;
  obs::CountEvent("link.blacklisted");
  const size_t bidx = FindKey(bl_keys_, key);
  if (bidx != static_cast<size_t>(-1)) {
    bl_expiry_[bidx] = std::max(bl_expiry_[bidx], expiry);
  } else {
    auto it = std::lower_bound(bl_keys_.begin(), bl_keys_.end(), key);
    const size_t at = static_cast<size_t>(it - bl_keys_.begin());
    bl_keys_.insert(it, key);
    bl_expiry_.insert(bl_expiry_.begin() + static_cast<ptrdiff_t>(at), expiry);
  }
}

bool RouteAger::IsBlacklisted(NodeId from, NodeId to, uint32_t epoch) const {
  const size_t idx = FindKey(bl_keys_, PackLink(from, to));
  return idx != static_cast<size_t>(-1) && epoch < bl_expiry_[idx];
}

size_t RouteAger::EndEpoch(uint32_t epoch) {
  // Prune entries that will have expired by the next epoch, keeping the
  // index small and num_blacklisted() meaningful.
  const uint32_t next = epoch + 1;
  size_t w = 0;
  for (size_t i = 0; i < bl_keys_.size(); ++i) {
    if (next < bl_expiry_[i]) {
      bl_keys_[w] = bl_keys_[i];
      bl_expiry_[w] = bl_expiry_[i];
      ++w;
    }
  }
  bl_keys_.resize(w);
  bl_expiry_.resize(w);
  if (bl_keys_.empty()) return 0;

  // Repair only when a *current* tree edge is blacklisted; blacklisted
  // non-tree links merely stay out of future candidate sets.
  const Tree& tree = scenario_->tree;
  bool edge_hit = false;
  for (NodeId v = 0; v < tree.num_nodes() && !edge_hit; ++v) {
    const NodeId p = tree.parent(v);
    if (p != kNoParent && IsBlacklisted(v, p, next)) edge_hit = true;
  }
  if (!edge_hit) return 0;

  TreeRepairResult repair = RepairTree(
      &scenario_->tree, scenario_->connectivity, scenario_->rings, alive_,
      [this, next](NodeId child, NodeId parent) {
        return !IsBlacklisted(child, parent, next);
      });
  total_reroutes_ += repair.reattached;
  return repair.reattached;
}

}  // namespace td
