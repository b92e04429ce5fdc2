// GroupByAggregate<A>: per-region payloads with group-merge semantics.
// Wraps any registry aggregate A so one epoch of radio traffic carries one
// A-payload per region (quant/region_grid.h): a node's self state lands in
// its own group's slot, merges/fuses apply element-wise, and the base
// station can read every group's answer from the root state.
//
// The scalar Result is the GLOBAL answer -- all group payloads merged into
// one A-state and evaluated -- so a grouped query drops into every scalar
// surface (EpochResult.value, windows, federation) unchanged; the
// per-group vector comes out through EvaluateGroups, which the Experiment
// facade reads from the root state (QuerySeries.group_estimates).
//
// Byte model: TreeBytes/SynopsisBytes sum over ALL group slots, empty ones
// included -- the honest cost of shipping a G-wide payload vector every
// hop (see DESIGN.md "Error-bounded quantiles & spatial group-by").
#ifndef TD_QUANT_GROUP_BY_H_
#define TD_QUANT_GROUP_BY_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "agg/aggregate.h"
#include "net/deployment.h"
#include "quant/region_grid.h"
#include "util/check.h"

namespace td {

template <Aggregate A>
  requires std::convertible_to<typename A::Result, double>
class GroupByAggregate {
 public:
  struct TreePartial {
    std::vector<typename A::TreePartial> g;  // one slot per group
  };
  struct Synopsis {
    std::vector<typename A::Synopsis> g;
  };
  using Result = double;

  GroupByAggregate(std::shared_ptr<const RegionGrid> grid, A inner)
      : grid_(std::move(grid)), inner_(std::move(inner)) {
    TD_CHECK(grid_ != nullptr);
    TD_CHECK_MSG(grid_->num_groups() > 0,
                 "GroupBy resolved to an empty partition");
  }

  size_t num_groups() const { return grid_->num_groups(); }
  const RegionGrid& grid() const { return *grid_; }
  const A& inner() const { return inner_; }

  TreePartial MakeTreePartial(NodeId node, uint32_t epoch) const {
    TreePartial out = EmptyTreePartial();
    const int g = grid_->GroupOf(node);
    if (g >= 0) out.g[static_cast<size_t>(g)] = inner_.MakeTreePartial(node, epoch);
    return out;
  }
  TreePartial EmptyTreePartial() const {
    TreePartial out;
    out.g.assign(num_groups(), inner_.EmptyTreePartial());
    return out;
  }
  void MergeTree(TreePartial* into, const TreePartial& from) const {
    for (size_t i = 0; i < into->g.size(); ++i) {
      inner_.MergeTree(&into->g[i], from.g[i]);
    }
  }
  void FinalizeTreePartial(TreePartial* p, NodeId node) const {
    for (auto& slot : p->g) inner_.FinalizeTreePartial(&slot, node);
  }

  Synopsis MakeSynopsis(NodeId node, uint32_t epoch) const {
    Synopsis out = EmptySynopsis();
    const int g = grid_->GroupOf(node);
    if (g >= 0) out.g[static_cast<size_t>(g)] = inner_.MakeSynopsis(node, epoch);
    return out;
  }
  Synopsis EmptySynopsis() const {
    Synopsis out;
    out.g.assign(num_groups(), inner_.EmptySynopsis());
    return out;
  }
  void Fuse(Synopsis* into, const Synopsis& from) const {
    for (size_t i = 0; i < into->g.size(); ++i) {
      inner_.Fuse(&into->g[i], from.g[i]);
    }
  }
  Synopsis Convert(const TreePartial& p) const {
    Synopsis out;
    out.g.reserve(p.g.size());
    for (const auto& slot : p.g) out.g.push_back(inner_.Convert(slot));
    return out;
  }

  Result EvaluateTree(const TreePartial& p) const {
    typename A::TreePartial all = inner_.EmptyTreePartial();
    for (const auto& slot : p.g) inner_.MergeTree(&all, slot);
    return static_cast<double>(inner_.EvaluateTree(all));
  }
  Result EvaluateSynopsis(const Synopsis& s) const {
    typename A::Synopsis all = inner_.EmptySynopsis();
    for (const auto& slot : s.g) inner_.Fuse(&all, slot);
    return static_cast<double>(inner_.EvaluateSynopsis(all));
  }
  Result EvaluateCombined(const TreePartial& p, const Synopsis& s) const {
    typename A::TreePartial ap = inner_.EmptyTreePartial();
    for (const auto& slot : p.g) inner_.MergeTree(&ap, slot);
    typename A::Synopsis as = inner_.EmptySynopsis();
    for (const auto& slot : s.g) inner_.Fuse(&as, slot);
    return static_cast<double>(inner_.EvaluateCombined(ap, as));
  }

  /// Per-group answers from a root state; either side may be null when
  /// it did not reach the base.
  void EvaluateGroups(const TreePartial* p, const Synopsis* s,
                      std::vector<double>* out) const {
    const size_t n = num_groups();
    out->resize(n);
    for (size_t i = 0; i < n; ++i) {
      if (p != nullptr && s != nullptr) {
        (*out)[i] =
            static_cast<double>(inner_.EvaluateCombined(p->g[i], s->g[i]));
      } else if (p != nullptr) {
        (*out)[i] = static_cast<double>(inner_.EvaluateTree(p->g[i]));
      } else if (s != nullptr) {
        (*out)[i] = static_cast<double>(inner_.EvaluateSynopsis(s->g[i]));
      } else {
        (*out)[i] = 0.0;
      }
    }
  }

  size_t TreeBytes(const TreePartial& p) const {
    size_t bytes = 0;
    for (const auto& slot : p.g) bytes += inner_.TreeBytes(slot);
    return bytes;
  }
  size_t SynopsisBytes(const Synopsis& s) const {
    size_t bytes = 0;
    for (const auto& slot : s.g) bytes += inner_.SynopsisBytes(slot);
    return bytes;
  }

  /// Epoch-delta identity passthrough (SoA core): the group assignment is
  /// static per experiment, so the grouped self state stays a pure
  /// function of (node, inner key). Present only when the inner aggregate
  /// declares one.
  uint64_t SelfSynopsisKey(NodeId node, uint32_t epoch) const
    requires requires(const A a) {
      { a.SelfSynopsisKey(node, epoch) } -> std::convertible_to<uint64_t>;
    }
  {
    return inner_.SelfSynopsisKey(node, epoch);
  }

 private:
  std::shared_ptr<const RegionGrid> grid_;
  A inner_;
};

namespace quant_internal {

template <typename T>
struct IsGroupBy : std::false_type {};
template <typename A>
struct IsGroupBy<GroupByAggregate<A>> : std::true_type {};

}  // namespace quant_internal

}  // namespace td

#endif  // TD_QUANT_GROUP_BY_H_
