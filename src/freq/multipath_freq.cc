#include "freq/multipath_freq.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "sketch/fm_sketch.h"
#include "sketch/rle.h"
#include "util/bits.h"
#include "util/check.h"
#include "util/hash.h"

namespace td {

namespace {

/// dst |= src over `count` words: the FM union every fuse and evaluation
/// of a flat class bank reduces to.
void OrBank(uint32_t* dst, const uint32_t* src, size_t count) {
  for (size_t i = 0; i < count; ++i) dst[i] |= src[i];
}

/// `bytes` as a carried size: 0 ("not sized") when it does not fit.
uint16_t AsCarried(size_t bytes) {
  return bytes <= UINT16_MAX ? static_cast<uint16_t>(bytes) : 0;
}

/// OrBank that carries the size: the result is `dst` when the OR set no new
/// bit, and `src` when dst was a subset of src; any other result is unsized.
void OrSizedBank(uint32_t* dst, uint16_t* dst_bytes, const uint32_t* src,
                 uint16_t src_bytes, size_t count) {
  uint32_t grew = 0;    // bits src adds to dst
  uint32_t beyond = 0;  // bits of dst outside src
  for (size_t i = 0; i < count; ++i) {
    grew |= src[i] & ~dst[i];
    beyond |= dst[i] & ~src[i];
    dst[i] |= src[i];
  }
  if (grew != 0 || *dst_bytes == 0) *dst_bytes = beyond == 0 ? src_bytes : 0;
}

/// The size of a bank, from its carried size when it has one; otherwise
/// sized now and stored.
size_t SizedBytes(uint16_t* carried, const uint32_t* bank, size_t count) {
  if (*carried == 0) {
    const size_t bytes = BankRleBytes(bank, count);
    *carried = AsCarried(bytes);
    return bytes;
  }
  TD_DCHECK(*carried == BankRleBytes(bank, count));
  return *carried;
}

}  // namespace

int MultipathFreqParams::LogN() const {
  int log_n = CeilLog2(n_upper);
  return log_n < 1 ? 1 : log_n;
}

MultipathFreq::MultipathFreq(MultipathFreqParams params) : params_(params) {
  TD_CHECK_GT(params_.eps, 0.0);
  TD_CHECK_GT(params_.eta, 1.0);  // Algorithm 2: "We restrict eta > 1"
  TD_CHECK_GE(params_.n_upper, 2u);
}

template <typename Counts>
FreqSynopsisBank MultipathFreq::SingleClassBank(NodeId key_node, uint64_t n,
                                                const Counts& counts) const {
  FreqSynopsisBank bank;
  if (n == 0) return bank;

  const int cls = FloorLog2(n);
  const double threshold = static_cast<double>(cls) *
                           static_cast<double>(n) * params_.eps /
                           static_cast<double>(params_.LogN());
  const size_t w = ItemWords();

  FreqClassSynopsis& s = bank.classes.emplace_back();
  s.cls = cls;
  s.n_sketch.assign(CountWords(), 0u);
  FmSketch::AddValueBits(key_node, n, params_.seed, s.n_sketch.data(),
                         CountWords());
  s.n_sketch_bytes = AsCarried(BankRleBytes(s.n_sketch.data(), CountWords()));
  for (const auto& [u, c] : counts) {
    const double est = static_cast<double>(c);
    if (est <= threshold) continue;  // pruned by SG
    const uint64_t count = static_cast<uint64_t>(std::floor(est));
    if (count == 0) continue;
    s.items.push_back(u);  // `counts` iterates in ascending item order
    s.counters.resize(s.counters.size() + w, 0u);
    uint32_t* counter = s.counters.data() + s.counters.size() - w;
    FmSketch::AddValueBits(Hash64Pair(u, key_node), count,
                           params_.seed ^ Mix64(u), counter, w);
    s.counter_bytes.push_back(AsCarried(BankRleBytes(counter, w)));
  }
  return bank;
}

FreqSynopsisBank MultipathFreq::Generate(NodeId node,
                                         const ItemCounts& local) const {
  uint64_t n_local = 0;
  for (const auto& [u, c] : local) n_local += c;
  return SingleClassBank(node, n_local, local);
}

FreqSynopsisBank MultipathFreq::ConvertSummary(NodeId origin,
                                               const Summary& summary) const {
  // Keyed by the subtree root: unique under path correctness, so fusing
  // the converted synopsis along several ring paths never double counts.
  return SingleClassBank(origin, summary.n, summary.items);
}

void MultipathFreq::ApplyThreshold(FreqClassSynopsis* s, double n_est) const {
  const double threshold =
      params_.eps * n_est / static_cast<double>(params_.LogN());
  const size_t w = ItemWords();
  size_t kept = 0;
  for (size_t k = 0; k < s->items.size(); ++k) {
    const uint32_t* counter = Counter(*s, k);
    // Algorithm 2 step 3: drop when eps*n~/logN >= eta*c~(u).
    if (threshold >= params_.eta * FmSketch::EstimateBits(counter, w)) {
      continue;
    }
    if (kept != k) {
      s->items[kept] = s->items[k];
      s->counter_bytes[kept] = s->counter_bytes[k];
      std::memcpy(s->counters.data() + kept * w, counter,
                  w * sizeof(uint32_t));
    }
    ++kept;
  }
  s->items.resize(kept);
  s->counter_bytes.resize(kept);
  s->counters.resize(kept * w);
}

void MultipathFreq::Combine(FreqClassSynopsis* a,
                            const FreqClassSynopsis& b) const {
  TD_CHECK_EQ(a->cls, b.cls);
  OrSizedBank(a->n_sketch.data(), &a->n_sketch_bytes, b.n_sketch.data(),
              b.n_sketch_bytes, CountWords());

  // Sorted merge of the two item lists. Size the union first, then merge
  // from the back so `a` grows in place: a write never passes a read.
  const size_t w = ItemWords();
  const size_t na = a->items.size();
  const size_t nb = b.items.size();
  size_t shared = 0;
  for (size_t i = 0, j = 0; i < na && j < nb;) {
    if (a->items[i] < b.items[j]) {
      ++i;
    } else if (b.items[j] < a->items[i]) {
      ++j;
    } else {
      ++shared, ++i, ++j;
    }
  }
  const size_t n = na + nb - shared;
  a->items.reserve(n);  // exact: fused inboxes keep no growth slack
  a->counters.reserve(n * w);
  a->counter_bytes.reserve(n);
  a->items.resize(n);
  a->counters.resize(n * w);
  a->counter_bytes.resize(n);
  uint32_t* out = a->counters.data();
  uint16_t* out_bytes = a->counter_bytes.data();
  size_t i = na, j = nb, k = n;
  while (j > 0) {
    --k;
    const Item bj = b.items[j - 1];
    if (i > 0 && a->items[i - 1] > bj) {
      --i;
      a->items[k] = a->items[i];
      out_bytes[k] = out_bytes[i];
      std::memcpy(out + k * w, out + i * w, w * sizeof(uint32_t));
    } else {
      --j;
      const uint32_t* from = b.counters.data() + j * w;
      if (i > 0 && a->items[i - 1] == bj) {
        --i;
        // The duplicate-insensitive "+": OR the two counters.
        if (k != i) std::memcpy(out + k * w, out + i * w, w * sizeof(uint32_t));
        out_bytes[k] = out_bytes[i];
        OrSizedBank(out + k * w, &out_bytes[k], from, b.counter_bytes[j], w);
      } else {
        std::memcpy(out + k * w, from, w * sizeof(uint32_t));
        out_bytes[k] = b.counter_bytes[j];
      }
      a->items[k] = bj;
    }
  }
  TD_DCHECK(k == i);  // a's remaining prefix is already in place

  const double n_est = FmSketch::EstimateBits(a->n_sketch.data(), CountWords());
  // Promote while the (approximate) represented count exceeds the class
  // capacity; apply the rising-threshold pruning at each promotion.
  while (n_est > std::ldexp(1.0, a->cls + 1)) {
    ++a->cls;
    ApplyThreshold(a, n_est);
  }
}

void MultipathFreq::InsertWithCarry(FreqSynopsisBank* bank,
                                    const FreqClassSynopsis& s) const {
  std::vector<FreqClassSynopsis>& classes = bank->classes;
  auto by_class = [](const FreqClassSynopsis& c, int cls) {
    return c.cls < cls;
  };
  auto it = std::lower_bound(classes.begin(), classes.end(), s.cls, by_class);
  if (it == classes.end() || it->cls != s.cls) {
    classes.insert(it, s);
    return;
  }
  FreqClassSynopsis carry = std::move(*it);
  classes.erase(it);
  Combine(&carry, s);
  for (;;) {
    it = std::lower_bound(classes.begin(), classes.end(), carry.cls, by_class);
    if (it == classes.end() || it->cls != carry.cls) {
      classes.insert(it, std::move(carry));
      return;
    }
    Combine(&carry, *it);
    classes.erase(it);
  }
}

void MultipathFreq::Fuse(FreqSynopsisBank* into,
                         const FreqSynopsisBank& from) const {
  // Smallest class first, as Section 6.2's synopsis fusion prescribes, so
  // carries ripple upward deterministically.
  for (const FreqClassSynopsis& syn : from.classes) InsertWithCarry(into, syn);
}

MultipathFreq::Evaluation MultipathFreq::Evaluate(
    const FreqSynopsisBank& bank) const {
  Evaluation ev;
  const size_t w = ItemWords();
  std::vector<uint32_t> total(CountWords(), 0u);
  // Every (item, counter) of every class, grouped by item below.
  std::vector<std::pair<Item, const uint32_t*>> entries;
  for (const FreqClassSynopsis& syn : bank.classes) {
    OrBank(total.data(), syn.n_sketch.data(), CountWords());
    for (size_t k = 0; k < syn.items.size(); ++k) {
      entries.emplace_back(syn.items[k], Counter(syn, k));
    }
  }
  ev.total = FmSketch::EstimateBits(total.data(), CountWords());
  std::sort(entries.begin(), entries.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  std::vector<uint32_t> counter(w);
  for (size_t k = 0; k < entries.size();) {
    const Item u = entries[k].first;
    std::fill(counter.begin(), counter.end(), 0u);
    // The duplicate-insensitive "+" across classes: sketch union.
    for (; k < entries.size() && entries[k].first == u; ++k) {
      OrBank(counter.data(), entries[k].second, w);
    }
    ev.counts.emplace_hint(ev.counts.end(), u,
                           FmSketch::EstimateBits(counter.data(), w));
  }
  return ev;
}

size_t MultipathFreq::EncodedBytes(const FreqSynopsisBank& bank) const {
  const size_t w = ItemWords();
  size_t bytes = 0;
  for (const FreqClassSynopsis& syn : bank.classes) {
    TD_DCHECK(syn.counter_bytes.size() == syn.items.size());
    bytes += 1;  // class id
    bytes += SizedBytes(&syn.n_sketch_bytes, syn.n_sketch.data(), CountWords());
    for (size_t k = 0; k < syn.items.size(); ++k) {
      bytes += sizeof(uint32_t);  // item id
      bytes += SizedBytes(&syn.counter_bytes[k], Counter(syn, k), w);
    }
  }
  return bytes;
}

std::vector<Item> ReportFrequent(const std::map<Item, double>& counts,
                                 double total, double support, double eps) {
  TD_CHECK_GT(support, eps);
  std::vector<Item> out;
  double bar = (support - eps) * total;
  for (const auto& [u, c] : counts) {
    if (c > bar) out.push_back(u);
  }
  return out;
}

}  // namespace td
