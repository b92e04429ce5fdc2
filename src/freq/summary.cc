#include "freq/summary.h"

#include <algorithm>

#include "util/check.h"

namespace td {

const double* Summary::Find(Item u) const {
  auto it = std::lower_bound(
      items.begin(), items.end(), u,
      [](const std::pair<Item, double>& e, Item x) { return e.first < x; });
  return it != items.end() && it->first == u ? &it->second : nullptr;
}

Summary LocalSummary(const ItemCounts& counts) {
  Summary s;
  s.items.reserve(counts.size());
  for (const auto& [u, c] : counts) {
    if (c == 0) continue;
    s.n += c;
    s.items.emplace_back(u, static_cast<double>(c));  // `counts` is sorted
  }
  return s;
}

void MergeSummaries(Summary* into, const Summary& from) {
  into->n += from.n;
  into->error_mass += from.error_mass;
  // The merged summary's deficiency is bounded by the worst input until
  // the next prune re-normalizes it.
  into->eps = std::max(into->eps, from.eps);
  // Pointwise sum as a sorted merge. Size the union first, then merge from
  // the back so `into` grows in place: a write never passes a read.
  std::vector<std::pair<Item, double>>& a = into->items;
  const std::vector<std::pair<Item, double>>& b = from.items;
  const size_t na = a.size();
  size_t shared = 0;
  for (size_t i = 0, j = 0; i < na && j < b.size();) {
    if (a[i].first < b[j].first) {
      ++i;
    } else if (b[j].first < a[i].first) {
      ++j;
    } else {
      ++shared, ++i, ++j;
    }
  }
  const size_t n = na + b.size() - shared;
  a.reserve(n);
  a.resize(n);
  size_t i = na, j = b.size(), k = n;
  while (j > 0) {
    --k;
    if (i > 0 && a[i - 1].first > b[j - 1].first) {
      a[k] = a[--i];
    } else if (i > 0 && a[i - 1].first == b[j - 1].first) {
      --i, --j;
      a[k] = {b[j].first, a[i].second + b[j].second};
    } else {
      a[k] = b[--j];
    }
  }
}

void PruneSummary(Summary* s, const PrecisionGradient& gradient, int height) {
  TD_CHECK_GE(height, 1);
  double target_mass = gradient.Epsilon(height) * static_cast<double>(s->n);
  double decrement = target_mass - s->error_mass;
  // eps(k)*n >= sum_j eps_j*n_j because the gradient is non-decreasing and
  // children have height < k; a tiny negative value can only arise from
  // floating-point rounding.
  TD_CHECK_GE(decrement, -1e-9 * (1.0 + target_mass));
  if (decrement > 0.0) {
    size_t kept = 0;
    for (size_t k = 0; k < s->items.size(); ++k) {
      const double est = s->items[k].second - decrement;
      if (est <= 0.0) continue;
      s->items[kept++] = {s->items[k].first, est};
    }
    s->items.resize(kept);
    s->error_mass = target_mass;
  }
  s->eps = gradient.Epsilon(height);
}

Summary GenerateSummary(const ItemCounts& local,
                        const std::vector<Summary>& children,
                        const PrecisionGradient& gradient, int height) {
  Summary s = LocalSummary(local);
  for (const Summary& c : children) MergeSummaries(&s, c);
  PruneSummary(&s, gradient, height);
  return s;
}

}  // namespace td
