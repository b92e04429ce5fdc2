#include "fed/broker.h"

#include <algorithm>
#include <utility>

#include "obs/telemetry.h"
#include "util/check.h"

namespace td {

namespace {

// Canonical scope: sorted, deduplicated, and the explicit all-gateways set
// normalized to the empty ("all") form so `{0,1,2,3}` and `{}` land in the
// same computation group on a 4-gateway federation.
std::vector<size_t> CanonicalScope(std::vector<size_t> gateways,
                                   size_t num_gateways) {
  std::sort(gateways.begin(), gateways.end());
  gateways.erase(std::unique(gateways.begin(), gateways.end()),
                 gateways.end());
  if (gateways.size() == num_gateways) gateways.clear();
  return gateways;
}

}  // namespace

SubscriptionBroker::SubscriptionBroker(Coordinator* coordinator,
                                       std::vector<Query> queries,
                                       size_t num_gateways, Options options)
    : coordinator_(coordinator),
      queries_(std::move(queries)),
      num_gateways_(num_gateways),
      options_(options) {
  TD_CHECK(coordinator_ != nullptr);
  TD_CHECK_EQ(queries_.size(), coordinator_->num_queries());
  TD_CHECK_MSG(num_gateways_ > 0,
               "a federation needs at least one gateway");
}

SubscriberId SubscriptionBroker::Subscribe(const Subscription& subscription) {
  TD_CHECK_MSG(subscription.query < queries_.size(),
               "subscription references an unknown query: the index must "
               "name one of the federation's AddQuery entries");
  for (size_t g : subscription.gateways) {
    TD_CHECK_MSG(g < num_gateways_,
                 "subscription references an unknown gateway: the scope "
                 "filter must name gateways the federation actually has");
  }
  if (subscription.window.windowed()) {
    ValidateWindowSpec(subscription.window,
                       queries_[subscription.query].kind);
  }

  Subscription canonical = subscription;
  canonical.gateways =
      CanonicalScope(std::move(canonical.gateways), num_gateways_);

  uint64_t group_id;
  if (options_.dedup) {
    GroupKey key{canonical.query,
                 static_cast<int>(canonical.window.kind),
                 canonical.window.width,
                 canonical.window.hop,
                 canonical.window.alpha,
                 canonical.gateways};
    auto it = group_index_.find(key);
    if (it != group_index_.end()) {
      group_id = it->second;
    } else {
      group_id = CreateGroup(canonical);
      group_index_.emplace(std::move(key), group_id);
    }
  } else {
    group_id = CreateGroup(canonical);
  }

  ++groups_.at(group_id).subscribers;
  SubscriberId id = next_subscriber_id_++;
  subscriber_to_group_.emplace(id, group_id);
  return id;
}

void SubscriptionBroker::Unsubscribe(SubscriberId id) {
  auto it = subscriber_to_group_.find(id);
  TD_CHECK_MSG(it != subscriber_to_group_.end(),
               "unsubscribing an unknown or already-removed subscriber");
  const uint64_t group_id = it->second;
  subscriber_to_group_.erase(it);

  Group& group = groups_.at(group_id);
  TD_CHECK_GT(group.subscribers, size_t{0});
  if (--group.subscribers > 0) return;

  // Last subscriber left: the group, its window instance, and its share of
  // per-epoch merge work all go away.
  if (options_.dedup) {
    for (auto idx = group_index_.begin(); idx != group_index_.end(); ++idx) {
      if (idx->second == group_id) {
        group_index_.erase(idx);
        break;
      }
    }
  }
  groups_.erase(group_id);
  obs::CountEvent("broker.groups_retired");
  obs::Emit(obs::EventKind::kGroupRetired, -1,
            static_cast<int64_t>(group_id));
}

void SubscriptionBroker::DeliverEpoch(uint32_t /*epoch*/,
                                      const std::vector<RootState>& roots) {
  TD_CHECK_EQ(roots.size(), num_gateways_);
  last_epoch_chains_ = 0;

  // One merged FedState per distinct gateway scope this epoch (dedup mode);
  // the no-dedup baseline pays a fresh chain per group, honestly modeling
  // per-subscriber recomputation.
  std::map<std::vector<size_t>, FedState> scope_cache;

  for (auto& [group_id, group] : groups_) {
    const std::vector<size_t>& scope = group.subscription.gateways;
    const FedState* state = nullptr;
    FedState local;
    auto run_chain = [&]() {
      FedState merged = coordinator_->MakeState();
      if (scope.empty()) {
        for (const RootState& root : roots) coordinator_->Merge(&merged, root);
      } else {
        for (size_t g : scope) coordinator_->Merge(&merged, roots[g]);
      }
      ++last_epoch_chains_;
      return merged;
    };
    if (options_.dedup) {
      auto it = scope_cache.find(scope);
      if (it == scope_cache.end()) {
        it = scope_cache.emplace(scope, run_chain()).first;
      }
      state = &it->second;
    } else {
      local = run_chain();
      state = &local;
    }

    const QueryRootState& root = (*state)[group.subscription.query];
    const double value = group.window != nullptr
                             ? group.window->Observe(root.view())
                             : root.Evaluate();
    group.values.push_back(value);
    group.deliveries += group.subscribers;
    total_deliveries_ += group.subscribers;
  }
}

size_t SubscriptionBroker::window_instances() const {
  size_t n = 0;
  for (const auto& [id, group] : groups_) {
    if (group.window != nullptr) ++n;
  }
  return n;
}

std::vector<SubscriptionBroker::GroupInfo> SubscriptionBroker::groups() const {
  std::vector<GroupInfo> out;
  out.reserve(groups_.size());
  for (const auto& [id, group] : groups_) {
    GroupInfo info;
    info.subscription = group.subscription;
    info.subscribers = group.subscribers;
    info.window_merges = group.window != nullptr ? group.window->merges() : 0;
    info.deliveries = group.deliveries;
    info.values = group.values;
    out.push_back(std::move(info));
  }
  return out;
}

uint64_t SubscriptionBroker::CreateGroup(const Subscription& canonical) {
  Group group;
  group.subscription = canonical;
  if (canonical.window.windowed()) {
    group.window = std::make_unique<QueryWindow>(
        api_internal::MakeQueryOps(queries_[canonical.query]),
        canonical.window);
  }
  const uint64_t id = next_group_id_++;
  groups_.emplace(id, std::move(group));
  obs::CountEvent("broker.groups_created");
  obs::Emit(obs::EventKind::kGroupCreated, -1, static_cast<int64_t>(id));
  return id;
}

}  // namespace td
