// AOPT — the paper's optimal dynamic gradient clock synchronization
// algorithm (§4): neighbor-set hierarchy with staged edge insertion
// (Listings 1 and 2), fast/slow mode triggers (Defs. 4.5/4.6), and the
// max-estimate fallback (Def. 4.7 / Listing 3).
//
// Besides the paper's insertion strategy (static eq. 10 and dynamic
// Lemma 7.1 durations), the class implements two ablation policies used by
// the experiments in §5.5: immediate insertion and weight-decay insertion.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/params.h"
#include "core/triggers.h"

namespace gcs {

class AoptNode final : public Algorithm {
 public:
  explicit AoptNode(AlgoParams params) : params_(params) {}

  [[nodiscard]] const char* name() const override { return "AOPT"; }

  void on_edge_discovered(NodeId peer) override;
  void on_edge_lost(NodeId peer) override;
  void on_insert_edge_msg(NodeId from, const InsertEdgeMsg& msg) override;
  void on_estimate_dirty(NodeId peer, std::uint32_t view_slot) override;
  void reevaluate() override;

  [[nodiscard]] bool edge_in_level(NodeId peer, int s) const override;
  [[nodiscard]] double edge_kappa(NodeId peer) const override;

  // ------------------------------------------------------- introspection

  struct PeerInfo {
    bool present = false;
    double t0 = kTimeInf;  ///< T₀ (logical); kTimeInf while not agreed
    double insertion_duration = 0.0;  ///< I_e
    double gtilde = 0.0;              ///< G̃ used for this insertion
    double kappa = 0.0;
    double delta = 0.0;
    /// Level-s insertion time T_s = T₀ + (1 − 2^{1−s})·I (s >= 1).
    [[nodiscard]] double insertion_time(int s) const;
    /// Logical time by which the edge is inserted on all levels.
    [[nodiscard]] double fully_inserted_at() const { return t0 + insertion_duration; }
  };
  [[nodiscard]] std::optional<PeerInfo> peer_info(NodeId peer) const;

  [[nodiscard]] long long mode_switches() const { return mode_switches_; }
  /// How reevaluate() decided: `filtered` scans were answered by the O(1)
  /// beacon-estimate bound (see BeaconBound), `exact` ones staged every peer.
  struct ScanCounts {
    long long filtered = 0;
    long long exact = 0;
  };
  [[nodiscard]] const ScanCounts& scan_counts() const { return scan_counts_; }
  [[nodiscard]] bool last_fast_trigger() const { return last_decision_.fast; }
  [[nodiscard]] bool last_slow_trigger() const { return last_decision_.slow; }
  [[nodiscard]] const TriggerDecision& last_decision() const { return last_decision_; }

  /// True iff a Lemma 5.3 violation (both triggers at once) was ever seen.
  [[nodiscard]] bool saw_trigger_conflict() const { return saw_conflict_; }

 private:
  struct Peer {
    // Hot fields first: reevaluate walks these on every event.
    NodeId id = kNoNode;
    bool present = false;
    // Derived per-edge constants (κ_e, δ_e, ε_e, τ_e).
    double kappa = 0.0;
    double delta = 0.0;
    double eps = 0.0;
    double tau = 0.0;
    // Insertion agreement (Listing 2). T0 == kTimeInf means "⊥".
    double t0 = kTimeInf;
    double insertion_duration = 0.0;
    // ---- cold: handshake bookkeeping ----
    std::uint64_t gen = 0;  ///< bumped on every discovery/loss; guards callbacks
    Time discovered_at = 0.0;
    ClockValue discovered_logical = 0.0;
    double tmsg = 0.0;        ///< T_e (msg_delay_max)
    double gtilde = 0.0;
    double kappa_init = 0.0;  ///< weight-decay start value
  };

  /// Incremental re-evaluation state: a compact mirror of the *present*
  /// peers, parallel to a persistent LevelPeer staging array. reevaluate()
  /// runs after every event touching this node, so instead of re-deriving
  /// every input per scan, each input is refreshed only when its own
  /// invalidation condition fires:
  ///   - membership / handshake state (t0, I, per-edge constants): rebuild
  ///     on hot_dirty_, set by discovery, loss and insertion agreement;
  ///   - level_limit: recomputed only when the own logical clock crosses
  ///     level_next (the exact next T_s threshold), which reproduces the
  ///     full recomputation bit-for-bit because limits are piecewise
  ///     constant in own-logical time;
  ///   - beacon estimate snapshots: re-fetched only after on_estimate_dirty
  ///     (the engine's dirty-peer notification on beacon consumption);
  ///   - κ and the structural trigger aggregates: constant per edge except
  ///     under weight decay, which downgrades to per-scan recomputation.
  /// Oracle and generic estimates are evaluated every scan (they move
  /// continuously with the clocks), through the inline fast paths
  /// (NodeApi::peer_true_logical + OracleEstimateSource::perturb),
  /// reading/drawing exactly what the virtual estimate path would. Beacon
  /// estimates usually skip the staging altogether: see BeaconBound.
  ///
  /// While !hot_dirty_, hot_ lists exactly the node's view row
  /// (DynamicGraph::view_neighbors) in the same order, so a delivery's
  /// view slot indexes it directly (on_estimate_dirty).
  struct HotPeer {
    NodeId id = kNoNode;
    int peer_index = 0;            ///< into peers_ (stable since last rebuild)
    double level_next = kTimeInf;  ///< own-logical threshold to refresh level
    BeaconEstimateSource::Entry entry;  ///< cached beacon snapshot
    bool est_cached = false;       ///< snapshot valid (beacon mode only)
    bool has_entry = false;        ///< snapshot exists (beacon mode only)
  };
  /// level_limit plus the own-logical threshold at which the cached value
  /// must be recomputed (kTimeInf when only structure can change it).
  struct LevelState {
    int limit = 0;
    double next = kTimeInf;
  };
  /// The O(1) filter in front of the beacon-estimate scan. Between two
  /// beacons from peer i its discrepancy is
  ///   est_minus_own_i = base_i + (H_u − recv_hw_i) − L_u = c_i + g,
  /// with a per-peer constant c_i = base_i − recv_hw_i and a term
  /// g = H_u − L_u shared by every peer. So [c_lo, c_hi] ⊇ {c_i} over the
  /// level-(>=1) peers with an estimate bounds max_abs by
  /// max(|c_hi + g|, |c_lo + g|) up to rounding (`mag` scales the
  /// allowance). The bound is reset tight by every exact scan and widened
  /// when a dirty peer's snapshot is refreshed. If it proves the quick
  /// reject of evaluate_triggers, and no level can change (own <
  /// level_next_min) and no rebuild is pending, the scan's decision is
  /// empty without staging a peer. Never used with oracle estimates (each
  /// scan must draw the same perturb stream), weight decay (κ moves with
  /// time) or RTT/generic estimates; clock regression forces a rebuild and
  /// so the exact scan.
  struct BeaconBound {
    double c_hi = -kTimeInf;
    double c_lo = kTimeInf;
    double mag = 0.0;                  ///< max |base_i| + |recv_hw_i|
    double level_next_min = kTimeInf;  ///< min level_next over hot_
    void widen(const BeaconEstimateSource::Entry& e) {
      const double c = e.base - e.recv_hw;
      c_hi = c > c_hi ? c : c_hi;
      c_lo = c < c_lo ? c : c_lo;
      const double m = std::fabs(e.base) + std::fabs(e.recv_hw);
      mag = m > mag ? m : mag;
    }
  };

  [[nodiscard]] bool is_leader_of(NodeId peer) const { return api_->id() < peer; }
  /// The peer record for `id`, or nullptr if never seen. Peers live in a
  /// sorted flat vector: iteration order is then stdlib-independent (an
  /// unordered_map here makes oracle estimate draws — and so whole runs —
  /// depend on hash iteration order), and the per-reevaluate walk touches
  /// contiguous memory.
  [[nodiscard]] const Peer* find_peer(NodeId id) const;
  [[nodiscard]] Peer* find_peer(NodeId id) {
    return const_cast<Peer*>(std::as_const(*this).find_peer(id));
  }
  Peer& peer_slot(NodeId id);  ///< find-or-insert (sorted)
  void leader_check(NodeId peer, std::uint64_t gen);
  void follower_check(NodeId peer, std::uint64_t gen, InsertEdgeMsg msg);
  void compute_insertion_times(Peer& p, ClockValue l_ins, double gtilde);
  [[nodiscard]] LevelState level_state(const Peer& p, ClockValue own_logical) const;
  /// Largest level the peer currently belongs to (0 = discovery set only).
  [[nodiscard]] int level_limit(const Peer& p, ClockValue own_logical) const {
    if (!p.present) return -1;
    return level_state(p, own_logical).limit;
  }
  [[nodiscard]] double current_kappa(const Peer& p, ClockValue own_logical) const;
  /// Rebuild hot_/level_peers_ from the present peers (membership changed).
  void rebuild_hot(ClockValue own);
  /// Refresh the dirty beacon snapshots into bound_, then report whether it
  /// proves an empty decision (see BeaconBound).
  [[nodiscard]] bool beacon_bound_rejects(BeaconEstimateSource& beacon,
                                          ClockValue own, ClockValue own_hw);
  /// Listing 3: the rate multiplier from last_decision_ and the
  /// max-estimate condition.
  void select_mode(ClockValue own);
  /// Debug soundness check of a filtered scan: stage every peer as the
  /// exact scan would and require an empty decision.
  void check_filtered_scan(ClockValue own, ClockValue own_hw);
  /// Lemma 5.3 violation reporting, off the reevaluate hot path (the log
  /// machinery would otherwise bloat its stack frame).
  [[gnu::cold]] [[gnu::noinline]] void report_trigger_conflict();

  AlgoParams params_;
  std::vector<Peer> peers_;  ///< sorted by id; entries persist across edge loss
  std::vector<HotPeer> hot_;         ///< present peers, scan order (= id order)
  std::vector<LevelPeer> level_peers_;  ///< parallel to hot_
  TriggerAggregates agg_;            ///< cached structural fold over level_peers_
  bool hot_dirty_ = true;            ///< membership/handshake changed
  BeaconBound bound_;
  std::vector<std::uint32_t> dirty_hot_;  ///< hot_ indices whose snapshot went stale
  ClockValue last_own_ = -kTimeInf;  ///< guards against logical-clock regression
  TriggerDecision last_decision_;
  long long mode_switches_ = 0;
  ScanCounts scan_counts_;
  bool saw_conflict_ = false;
};

}  // namespace gcs
