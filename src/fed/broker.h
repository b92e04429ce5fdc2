// The pub/sub serving layer of the federation tier: subscribers register
// standing queries (query kind x window spec x optional gateway-subset
// filter) and the broker fans each epoch's merged results out to them.
//
//   gateway roots --> Coordinator --> SubscriptionBroker --> subscribers
//
// The broker's whole point is SHARED COMPUTATION: subscriptions are
// deduplicated into groups keyed by (query, window, gateway scope), so a
// thousand "p90 over the last 24 epochs" dashboards cost exactly one
// SlidingWindow instance and one merge chain per epoch -- delivery is a
// scalar copy per subscriber, not a re-aggregation. Groups with the same
// gateway scope additionally share the per-epoch scope merge itself.
//
// Dedup can be disabled (Options::dedup = false), which gives every
// subscription a private group, window and merge chain. That mode exists
// to be measured against: bench_federation runs both and gates the ratio
// (>= 100x fewer window merges at 1k identical subscribers).
#ifndef TD_FED_BROKER_H_
#define TD_FED_BROKER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "api/query.h"
#include "fed/coordinator.h"
#include "window/query_window.h"
#include "window/window.h"

namespace td {

/// One subscriber's standing request against the federation.
struct Subscription {
  /// Index into the federation's query list.
  size_t query = 0;

  /// Window over the merged global answers; kNone delivers the
  /// instantaneous per-epoch value. Coordinator-tier windows reuse the
  /// window/ combiners over merged roots -- zero extra radio bytes.
  WindowSpec window;

  /// Gateways whose shards the subscriber cares about; empty means all.
  /// A scoped subscription aggregates exactly the chosen shards' sensors
  /// ("distinct readings in gateway 2's district").
  std::vector<size_t> gateways;
};

using SubscriberId = uint64_t;

struct BrokerOptions {
  /// Share computation groups between identical subscriptions. Off only
  /// for the per-subscriber-recomputation baseline bench mode; when off,
  /// the per-epoch scope-merge cache is bypassed too, so every
  /// subscription genuinely pays its own merge chain.
  bool dedup = true;
};

class SubscriptionBroker {
 public:
  using Options = BrokerOptions;

  /// Per-group accounting, snapshot via groups().
  struct GroupInfo {
    Subscription subscription;
    size_t subscribers = 0;
    /// Window state-maintenance merges over the group's lifetime (0 for
    /// instantaneous and decayed groups); the quantity the dedup gate
    /// measures.
    size_t window_merges = 0;
    /// Subscriber-deliveries accumulated (subscribers x epochs served).
    size_t deliveries = 0;
    /// One delivered value per epoch since the group was created.
    std::vector<double> values;
  };

  /// `queries` are the federation's RESOLVED queries (the broker builds a
  /// fresh QueryOps per windowed group from them); `num_gateways` is the
  /// federation's gateway count. The coordinator must outlive the broker.
  SubscriptionBroker(Coordinator* coordinator, std::vector<Query> queries,
                     size_t num_gateways, Options options = {});

  /// Registers a subscription, joining an existing group when an identical
  /// one is live (dedup mode). Fails fast (TD_CHECK_MSG) on a subscription
  /// referencing an unknown query or gateway, or carrying a window spec
  /// invalid for the query's kind.
  SubscriberId Subscribe(const Subscription& subscription);

  /// Drops one subscriber. The group (and its window instance) lives until
  /// its LAST subscriber leaves; group accounting dies with the group.
  void Unsubscribe(SubscriberId id);

  /// Serves one epoch: merges each live group's gateway scope through the
  /// coordinator (groups sharing a scope share one merge chain in dedup
  /// mode), advances windows, and records one delivery per subscriber.
  /// `roots` is one query-set engine root state per gateway, index-aligned
  /// with gateway ids.
  void DeliverEpoch(uint32_t epoch, const std::vector<RootState>& roots);

  size_t num_subscribers() const { return subscriber_to_group_.size(); }
  size_t num_groups() const { return groups_.size(); }

  /// Live window instances (== windowed groups): the dedup headline --
  /// 1000 identical windowed subscriptions hold exactly one.
  size_t window_instances() const;

  /// Scope merge chains run by the last DeliverEpoch; scales with distinct
  /// scopes (dedup) or subscriptions (no dedup), never with subscribers of
  /// a shared group.
  size_t last_epoch_merge_chains() const { return last_epoch_chains_; }

  /// Subscriber-deliveries over the broker's lifetime.
  size_t total_deliveries() const { return total_deliveries_; }

  /// Snapshot of every live group, in creation order.
  std::vector<GroupInfo> groups() const;

 private:
  struct Group {
    Subscription subscription;  // canonical: gateway scope sorted, deduped
    size_t subscribers = 0;
    std::unique_ptr<QueryWindow> window;  // null for instantaneous groups
    size_t deliveries = 0;
    std::vector<double> values;
  };

  // Canonical dedup key: query, window shape, gateway scope.
  struct GroupKey {
    size_t query;
    int window_kind;
    uint32_t width;
    uint32_t hop;
    double alpha;
    std::vector<size_t> gateways;

    auto operator<=>(const GroupKey&) const = default;
  };

  uint64_t CreateGroup(const Subscription& canonical);

  Coordinator* coordinator_;
  std::vector<Query> queries_;
  size_t num_gateways_;
  Options options_;

  // Live groups by creation id (iteration order == creation order, which
  // keeps delivery deterministic and subscribe-order independent of map
  // internals).
  std::map<uint64_t, Group> groups_;
  std::map<GroupKey, uint64_t> group_index_;  // dedup mode only
  std::map<SubscriberId, uint64_t> subscriber_to_group_;
  uint64_t next_group_id_ = 0;
  SubscriberId next_subscriber_id_ = 0;
  size_t last_epoch_chains_ = 0;
  size_t total_deliveries_ = 0;
};

}  // namespace td

#endif  // TD_FED_BROKER_H_
