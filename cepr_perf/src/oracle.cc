#include "oracle.h"

#include <algorithm>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <unordered_map>

namespace cepr_perf {
namespace {

/// Keeps the `limit` largest scores per group while scores stream in.
class TopKGroups {
 public:
  explicit TopKGroups(size_t limit) : limit_(limit) {}

  void Add(int query, int64_t window, double score) {
    std::vector<double>& v = groups_[{query, window}];
    v.push_back(score);
    if (v.size() >= 4 * limit_ + 16) Trim(&v);
  }

  ScoreGroups Take() {
    for (auto& [key, v] : groups_) Trim(&v);
    return std::move(groups_);
  }

 private:
  void Trim(std::vector<double>* v) const {
    std::sort(v->begin(), v->end(), std::greater<double>());
    if (v->size() > limit_) v->resize(limit_);
  }

  size_t limit_;
  ScoreGroups groups_;
};

/// Event indices per partition key (attribute 0), in stream order.
std::vector<std::vector<size_t>> Partitions(
    const std::vector<cepr::Event>& events) {
  std::unordered_map<std::string, size_t> slot;
  std::vector<std::vector<size_t>> parts;
  for (size_t i = 0; i < events.size(); ++i) {
    const std::string& key = events[i].value(0).AsString();
    auto [it, fresh] = slot.emplace(key, parts.size());
    if (fresh) parts.emplace_back();
    parts[it->second].push_back(i);
  }
  return parts;
}

/// The `k` smallest subset sums of non-negative `x` (the empty set first),
/// best-first: from the subset whose largest chosen index is i, the next
/// candidates either add x[i+1] or swap x[i] for x[i+1].
std::vector<double> SmallestSubsetSums(std::vector<double> x, size_t k) {
  std::sort(x.begin(), x.end());
  std::vector<double> out{0.0};
  using Entry = std::pair<double, size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> frontier;
  if (!x.empty()) frontier.push({x[0], 0});
  while (out.size() < k && !frontier.empty()) {
    const auto [sum, i] = frontier.top();
    frontier.pop();
    out.push_back(sum);
    if (i + 1 < x.size()) {
      frontier.push({sum + x[i + 1], i + 1});
      frontier.push({sum - x[i] + x[i + 1], i + 1});
    }
  }
  return out;
}

}  // namespace

ScoreGroups FleetOracle(const std::vector<cepr::Event>& events,
                        const std::vector<FleetQuerySpec>& fleet,
                        Timestamp within, size_t limit) {
  std::unordered_multimap<int64_t, int> by_volume;
  for (const FleetQuerySpec& q : fleet) by_volume.emplace(q.volume, q.query);
  TopKGroups top(limit);
  for (const std::vector<size_t>& part : Partitions(events)) {
    for (size_t ai = 0; ai < part.size(); ++ai) {
      const cepr::Event& a = events[part[ai]];
      const auto [first, last] = by_volume.equal_range(a.value(2).AsInt());
      if (first == last) continue;
      const double a_price = a.value(1).AsFloat();
      for (size_t bi = ai + 1; bi < part.size(); ++bi) {
        const cepr::Event& b = events[part[bi]];
        if (b.timestamp() - a.timestamp() > within) break;
        const double b_price = b.value(1).AsFloat();
        if (!(b_price > a_price)) continue;
        for (auto it = first; it != last; ++it) {
          top.Add(it->second, b.timestamp() / within, b_price - a_price);
        }
      }
    }
  }
  return top.Take();
}

ScoreGroups SubsetSumOracle(const std::vector<cepr::Event>& events, int query,
                            Timestamp within, size_t limit) {
  TopKGroups top(limit);
  for (const std::vector<size_t>& part : Partitions(events)) {
    for (size_t ai = 0; ai < part.size(); ++ai) {
      const cepr::Event& a = events[part[ai]];
      if (a.value(1).AsInt() != 1) continue;
      std::vector<double> between;  // non-anchor events after a, before l
      double total = 0.0;
      for (size_t li = ai + 1; li < part.size(); ++li) {
        const cepr::Event& l = events[part[li]];
        if (l.timestamp() - a.timestamp() > within) break;
        if (l.value(1).AsInt() != 0) continue;
        const double price = l.value(2).AsFloat();
        const int64_t window = l.timestamp() / within;
        for (double dropped : SmallestSubsetSums(between, limit)) {
          top.Add(query, window, price + total - dropped);
        }
        between.push_back(price);
        total += price;
      }
    }
  }
  return top.Take();
}

ScoreGroups IncreasingRunOracle(const std::vector<cepr::Event>& events,
                                int query, Timestamp within, size_t limit) {
  TopKGroups top(limit);
  for (const std::vector<size_t>& part : Partitions(events)) {
    for (size_t ai = 0; ai < part.size(); ++ai) {
      const cepr::Event& a = events[part[ai]];
      if (a.value(1).AsInt() != 1) continue;
      // best[j]: the k largest sums of increasing runs ending at candidate
      // j. Adding one price to every run preserves their order, so the k
      // best runs ending at l extend the k best ending at each cheaper j.
      std::vector<double> prices;
      std::vector<std::vector<double>> best;
      for (size_t li = ai + 1; li < part.size(); ++li) {
        const cepr::Event& l = events[part[li]];
        if (l.timestamp() - a.timestamp() > within) break;
        if (l.value(1).AsInt() != 0) continue;
        const double price = l.value(2).AsFloat();
        std::vector<double> sums{price};
        for (size_t j = 0; j < prices.size(); ++j) {
          if (!(price > prices[j])) continue;
          for (double s : best[j]) sums.push_back(s + price);
        }
        std::sort(sums.begin(), sums.end(), std::greater<double>());
        if (sums.size() > limit) sums.resize(limit);
        for (double s : sums) top.Add(query, l.timestamp() / within, s);
        prices.push_back(price);
        best.push_back(std::move(sums));
      }
    }
  }
  return top.Take();
}

}  // namespace cepr_perf
