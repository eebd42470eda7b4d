// Per-owner flat rows: the storage for state one node keeps about each of
// its peers (estimate entries, per-edge delay streams, in-flight probes).
//
// Row `owner` is a std::vector of (peer, value) slots kept sorted by peer id
// and searched linearly, the layout of DynamicGraph's view adjacency: rows
// hold a handful of slots, so a scan over one contiguous row beats hashing a
// composite (owner, peer) key into one big table. Rows grow on demand to the
// largest owner touched; reads of an owner beyond them find nothing.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/common.h"

namespace gcs {

template <class T, class Key = NodeId>
class PeerRows {
 public:
  struct Slot {
    Key peer;
    T value;
  };

  /// The value stored for (owner, peer), or nullptr.
  [[nodiscard]] T* find(NodeId owner, Key peer) {
    return const_cast<T*>(std::as_const(*this).find(owner, peer));
  }
  [[nodiscard]] const T* find(NodeId owner, Key peer) const {
    const auto o = static_cast<std::size_t>(owner);
    if (o >= rows_.size()) return nullptr;
    const auto it = first_not_below(rows_[o], peer);
    return it != rows_[o].end() && it->peer == peer ? &it->value : nullptr;
  }

  /// The value stored for (owner, peer); a value-initialized slot is
  /// inserted in peer order first if there is none.
  T& find_or_insert(NodeId owner, Key peer) {
    const auto o = static_cast<std::size_t>(owner);
    if (o >= rows_.size()) rows_.resize(o + 1);
    Row& r = rows_[o];
    if (r.empty() || r.back().peer < peer) {  // append: ascending keys stay O(1)
      return r.emplace_back(Slot{peer, T{}}).value;
    }
    auto it = first_not_below(r, peer);
    if (it->peer != peer) it = r.insert(it, Slot{peer, T{}});
    return it->value;
  }

  /// find_or_insert with a position hint: rows kept parallel to another
  /// sorted row (a node's view) usually hold `peer` at that row's index.
  /// The hint is checked, so any value is safe; a miss scans.
  T& find_or_insert(NodeId owner, Key peer, std::size_t hint) {
    const auto o = static_cast<std::size_t>(owner);
    if (o < rows_.size() && hint < rows_[o].size() && rows_[o][hint].peer == peer) {
      return rows_[o][hint].value;
    }
    return find_or_insert(owner, peer);
  }

  /// Remove (owner, peer); false if it was absent.
  bool erase(NodeId owner, Key peer) {
    const auto o = static_cast<std::size_t>(owner);
    if (o >= rows_.size()) return false;
    Row& r = rows_[o];
    const auto it = first_not_below(r, peer);
    if (it == r.end() || it->peer != peer) return false;
    r.erase(it);
    return true;
  }

  /// Remove every slot of `owner`'s row for which pred(slot) holds; the
  /// survivors keep their order.
  template <class Pred>
  void erase_if(NodeId owner, Pred pred) {
    if (static_cast<std::size_t>(owner) >= rows_.size()) return;
    std::erase_if(rows_[static_cast<std::size_t>(owner)], pred);
  }

 private:
  using Row = std::vector<Slot>;

  /// Linear lower bound: the first slot whose peer is not below `peer`.
  template <class R>
  static auto first_not_below(R& row, Key peer) {
    auto it = row.begin();
    while (it != row.end() && it->peer < peer) ++it;
    return it;
  }

  std::vector<Row> rows_;
};

}  // namespace gcs
