#include "graph/dynamic_graph.h"

#include <algorithm>
#include <cmath>
#include <deque>

namespace gcs {

namespace {
/// Position of `peer` in a sorted neighbor vector (or where it would go).
std::vector<NeighborView>::const_iterator neighbor_lower_bound(
    const std::vector<NeighborView>& vec, NodeId peer) {
  return std::lower_bound(vec.begin(), vec.end(), peer,
                          [](const NeighborView& nv, NodeId id) { return nv.id < id; });
}
}  // namespace

DynamicGraph::DynamicGraph(Simulator& sim, int n, std::uint64_t seed)
    : sim_(sim), n_(n), rng_(seed) {
  require(n >= 0, "DynamicGraph: negative node count");
  adjacency_.resize(static_cast<std::size_t>(n));
}

Duration DynamicGraph::sample_detection_delay(const EdgeParams& p) {
  switch (delay_mode_) {
    case DetectionDelayMode::kZero: return 0.0;
    case DetectionDelayMode::kUniform: return rng_.uniform(0.0, p.tau);
    case DetectionDelayMode::kMax: return p.tau;
  }
  return 0.0;
}

void DynamicGraph::create_edge(const EdgeKey& e, const EdgeParams& params) {
  params.validate();
  require(e.a >= 0 && e.b < n_, "DynamicGraph: edge endpoint out of range");
  auto [it, inserted] = edges_.try_emplace(e);
  Record& rec = it->second;
  if (inserted) {
    rec.params = params;
  } else {
    require(rec.params.eps == params.eps && rec.params.tau == params.tau &&
                rec.params.msg_delay_max == params.msg_delay_max &&
                rec.params.msg_delay_min == params.msg_delay_min,
            "DynamicGraph: edge params must not change across reinsertions");
    if (rec.target) return;  // already present
  }
  rec.target = true;
  const std::uint64_t gen = ++rec.gen;
  // One endpoint may detect instantly; the other within tau (kMax mode:
  // exactly one delayed so asymmetry is maximal but still <= tau).
  Duration da = delay_mode_ == DetectionDelayMode::kMax ? 0.0 : sample_detection_delay(rec.params);
  Duration db = sample_detection_delay(rec.params);
  schedule_flip(e, e.a, gen, da);
  schedule_flip(e, e.b, gen, db);
}

void DynamicGraph::create_edge_instant(const EdgeKey& e, const EdgeParams& params) {
  params.validate();
  require(e.a >= 0 && e.b < n_, "DynamicGraph: edge endpoint out of range");
  auto [it, inserted] = edges_.try_emplace(e);
  Record& rec = it->second;
  if (inserted) rec.params = params;
  rec.target = true;
  ++rec.gen;  // invalidate any in-flight flips
  set_view(e, rec, e.a, true);
  set_view(e, rec, e.b, true);
}

void DynamicGraph::destroy_edge(const EdgeKey& e) {
  auto it = edges_.find(e);
  if (it == edges_.end() || !it->second.target) return;
  Record& rec = it->second;
  rec.target = false;
  const std::uint64_t gen = ++rec.gen;
  Duration da = delay_mode_ == DetectionDelayMode::kMax ? 0.0 : sample_detection_delay(rec.params);
  Duration db = sample_detection_delay(rec.params);
  schedule_flip(e, e.a, gen, da);
  schedule_flip(e, e.b, gen, db);
}

void DynamicGraph::destroy_edge_instant(const EdgeKey& e) {
  auto it = edges_.find(e);
  if (it == edges_.end() || !it->second.target) return;
  Record& rec = it->second;
  rec.target = false;
  ++rec.gen;  // invalidate any in-flight flips
  set_view(e, rec, e.a, false);
  set_view(e, rec, e.b, false);
}

void DynamicGraph::schedule_flip(const EdgeKey& e, NodeId endpoint,
                                 std::uint64_t gen, Duration delay) {
  if (delay <= 0.0) {
    apply_view(e, endpoint, gen);
    return;
  }
  sim_.schedule_after(delay, [this, e, endpoint, gen] { apply_view(e, endpoint, gen); });
}

void DynamicGraph::apply_view(const EdgeKey& e, NodeId endpoint, std::uint64_t gen) {
  auto it = edges_.find(e);
  if (it == edges_.end()) return;
  Record& rec = it->second;
  if (rec.gen != gen) return;  // superseded by a later adversary transition
  set_view(e, rec, endpoint, rec.target);
}

void DynamicGraph::set_view(const EdgeKey& e, Record& rec, NodeId endpoint,
                            bool present) {
  DirView& view = endpoint == e.a ? rec.view_a : rec.view_b;
  if (view.present == present) return;
  view.present = present;
  const NodeId peer = e.other(endpoint);
  auto& vec = adjacency_[static_cast<std::size_t>(endpoint)];
  const auto pos = neighbor_lower_bound(vec, peer);
  if (present) {
    view.since = sim_.now();
    vec.insert(vec.begin() + (pos - vec.cbegin()),
               NeighborView{peer, view.since, &rec.params});
    if (listener_ != nullptr) listener_->on_edge_discovered(endpoint, peer);
  } else {
    view.since = -kTimeInf;
    vec.erase(vec.begin() + (pos - vec.cbegin()));
    if (listener_ != nullptr) listener_->on_edge_lost(endpoint, peer);
  }
}

const NeighborView* DynamicGraph::find_neighbor(NodeId u, NodeId peer) const {
  if (u < 0 || u >= n_) return nullptr;
  // Linear scan over the sorted view. Degrees range from 2 (lines, rings)
  // to ~30 (the dense geometric graphs of churn sweeps); a delivery pays it
  // once and passes the index on (Delivery::view_slot).
  for (const NeighborView& nv : adjacency_[static_cast<std::size_t>(u)]) {
    if (nv.id >= peer) return nv.id == peer ? &nv : nullptr;
  }
  return nullptr;
}

bool DynamicGraph::view_present(NodeId u, NodeId peer) const {
  return find_neighbor(u, peer) != nullptr;
}

Time DynamicGraph::view_since(NodeId u, NodeId peer) const {
  const NeighborView* nv = find_neighbor(u, peer);
  return nv != nullptr ? nv->since : -kTimeInf;
}

const std::vector<NeighborView>& DynamicGraph::view_neighbors(NodeId u) const {
  require(u >= 0 && u < n_, "DynamicGraph: node out of range");
  return adjacency_[static_cast<std::size_t>(u)];
}

bool DynamicGraph::both_views_present(const EdgeKey& e) const {
  const auto it = edges_.find(e);
  return it != edges_.end() && it->second.view_a.present && it->second.view_b.present;
}

Time DynamicGraph::both_views_since(const EdgeKey& e) const {
  const auto it = edges_.find(e);
  if (it == edges_.end() || !it->second.view_a.present || !it->second.view_b.present) {
    return -kTimeInf;
  }
  return std::max(it->second.view_a.since, it->second.view_b.since);
}

bool DynamicGraph::adversary_present(const EdgeKey& e) const {
  const auto it = edges_.find(e);
  return it != edges_.end() && it->second.target;
}

std::vector<EdgeKey> DynamicGraph::adversary_edges() const {
  std::vector<EdgeKey> out;
  for (const auto& [key, rec] : edges_) {
    if (rec.target) out.push_back(key);
  }
  return out;
}

std::vector<EdgeKey> DynamicGraph::known_edges() const {
  std::vector<EdgeKey> out;
  out.reserve(edges_.size());
  for (const auto& [key, rec] : edges_) out.push_back(key);
  return out;
}

const EdgeParams& DynamicGraph::params(const EdgeKey& e) const {
  const auto it = edges_.find(e);
  // Build the message lazily: this lookup is on the hot path and an eager
  // "unknown edge " + e.str() costs a malloc + int formatting per call.
  if (it == edges_.end()) [[unlikely]] {
    throw std::runtime_error("DynamicGraph: unknown edge " + e.str());
  }
  return it->second.params;
}

bool DynamicGraph::connected_filtered(const EdgeKey* skip) const {
  if (n_ <= 1) return true;
  std::vector<std::vector<NodeId>> adj(static_cast<std::size_t>(n_));
  for (const auto& [key, rec] : edges_) {
    if (!rec.target) continue;
    if (skip != nullptr && key == *skip) continue;
    adj[static_cast<std::size_t>(key.a)].push_back(key.b);
    adj[static_cast<std::size_t>(key.b)].push_back(key.a);
  }
  std::vector<char> seen(static_cast<std::size_t>(n_), 0);
  std::deque<NodeId> frontier{0};
  seen[0] = 1;
  int count = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (NodeId v : adj[static_cast<std::size_t>(u)]) {
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = 1;
        ++count;
        frontier.push_back(v);
      }
    }
  }
  return count == n_;
}

bool DynamicGraph::adversary_connected() const { return connected_filtered(nullptr); }

bool DynamicGraph::connected_without(const EdgeKey& e) const {
  return connected_filtered(&e);
}

}  // namespace gcs
