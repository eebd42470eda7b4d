// An in-process runtime cluster: N RtNode replicas over a shared transport
// backend (PipeHub rings or per-node UDP loopback sockets) and one wall
// clock, with race-free clock sampling and an offline per-edge skew join.
//
// Sampling works by scheduling a kernel closure on EVERY node at the same
// model-time grid points before the run starts: each node records its own
// (logical, hardware) pair on its own thread at exactly t = k·period, so no
// cross-thread clock read ever happens. After the run the cluster joins the
// per-node series by grid index into per-edge |L_u − L_v| samples — the live
// counterpart of metrics/skew.h, feeding the same TimeSeries recorder.
// Samples taken by a crashed or catching-up node are kept but flagged
// not-live; reports and gates only consider grid points where both
// endpoints were live.
//
// Chaos: the cluster is a ChaosTarget. arm_chaos() installs a script whose
// ops it maps onto the nodes' atomic crash/restart flags and the backend's
// lock-free LinkFault slots; run_lockstep applies due ops at each step
// boundary (deterministic), run_threads polls them from a dedicated thread.
// edge_report_window() then gates re-convergence per quiet phase.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "metrics/recorder.h"
#include "rt/chaos.h"
#include "rt/liveness.h"
#include "rt/rt_node.h"
#include "rt/rt_transport.h"
#include "rt/tcp_transport.h"
#include "rt/time_source.h"

namespace gcs {

/// One self-sampled clock reading (taken by the node's own thread).
struct RtSample {
  Time t = 0.0;
  ClockValue logical = 0.0;
  ClockValue hardware = 0.0;
  bool live = true;  ///< node was up and caught up when it sampled
};

/// Offline per-edge skew summary over the sampled grid.
struct RtEdgeReport {
  EdgeKey edge;
  double eps = 0.0;           ///< estimate layer's ε_e
  double kappa = 0.0;         ///< metric κ_e (eq. 9 with that ε)
  double bound = 0.0;         ///< stable gradient bound for κ-distance κ_e
  double max_abs_skew = 0.0;  ///< max |L_u − L_v| over joined live samples
  double mean_abs_skew = 0.0;
  int samples = 0;
};

enum class RtBackend { kPipe, kUdp, kTcp };

class RtCluster final : public ChaosTarget {
 public:
  /// Builds one replica per node of the resolved topology, all sharing
  /// `clock`. kPipe: one PipeHub carrying `faults`. kUdp / kTcp: one
  /// loopback socket (or listener + outbound connections) per node at
  /// base_port + id (FaultSpec injection does not apply, but its seed
  /// still feeds the chaos and reconnect-jitter streams).
  explicit RtCluster(const ScenarioSpec& spec, TimeSource& clock,
                     const FaultSpec& faults = {},
                     std::size_t ring_capacity = 1024,
                     RtBackend backend = RtBackend::kPipe,
                     std::uint16_t base_port = 39600);

  /// Arm the failure detector on every node. Call before start().
  void enable_detector(const DetectorConfig& config);

  /// Install a chaos script (see rt/chaos.h). Call before running; ops are
  /// applied by run_lockstep / run_threads as the clock passes them.
  void arm_chaos(const ChaosScript& script);

  /// Start every replica (t=0 topology + engine). Call once, before pumping.
  void start();

  /// Schedule clock self-sampling on every node at k·period for
  /// k = 1 .. floor(horizon/period). Call after start(), before running.
  void schedule_samples(Time horizon, Duration period);

  /// Deterministic single-threaded run: crank `vclock` (which must be the
  /// TimeSource the cluster was built on) in `step` increments up to
  /// `horizon`, pumping every node round-robin a fixed number of rounds per
  /// increment so request/response exchanges settle within the step. Due
  /// chaos ops are applied right after each clock advance, before any node
  /// pumps — bit-reproducible for a fixed (spec, faults, script) triple.
  void run_lockstep(VirtualClock& vclock, Time horizon, Duration step);

  /// Real-time run: one thread per node, each pumping until its kernel
  /// reaches `horizon` (model time), sleeping `poll_interval` model seconds
  /// between pumps. An armed chaos script runs on its own polling thread.
  void run_threads(Time horizon, Duration poll_interval = 0.002);

  /// Single-threaded settle pass after a run: pump every node round-robin a
  /// few rounds so frames still sitting in socket buffers at the horizon
  /// are consumed. Makes the ingress counters (rejected() in particular)
  /// account for everything that was actually transmitted.
  void drain(int rounds = 4);

  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] RtNode& node(NodeId u) { return *nodes_[static_cast<std::size_t>(u)]; }
  /// Pipe backend only (throws otherwise).
  [[nodiscard]] PipeHub& hub() {
    require(hub_ != nullptr, "RtCluster: no hub (socket backend)");
    return *hub_;
  }
  /// UDP backend only (throws otherwise).
  [[nodiscard]] UdpTransport& udp(NodeId u) {
    require(backend_ == RtBackend::kUdp, "RtCluster: not the UDP backend");
    return *udp_[static_cast<std::size_t>(u)];
  }
  /// TCP backend only (throws otherwise).
  [[nodiscard]] TcpTransport& tcp(NodeId u) {
    require(backend_ == RtBackend::kTcp, "RtCluster: not the TCP backend");
    return *tcp_[static_cast<std::size_t>(u)];
  }
  [[nodiscard]] RtBackend backend() const { return backend_; }
  /// Cluster-wide transport integrity counters (summed over the distinct
  /// transports): chaos-injected bit flips and rejected ingress frames. With corruption chaos armed, CI asserts the
  /// two agree — every flip caught, none delivered.
  [[nodiscard]] std::uint64_t total_corrupted() const;
  [[nodiscard]] std::uint64_t total_rejected() const;
  [[nodiscard]] const std::vector<EdgeKey>& edges() const { return edges_; }
  [[nodiscard]] const std::vector<std::vector<RtSample>>& samples() const {
    return samples_;
  }

  // ------------------------------------------------------- ChaosTarget
  void chaos_crash(NodeId u) override;
  void chaos_restart(NodeId u) override;
  void chaos_link(NodeId from, NodeId to, const LinkFault& f) override;
  void chaos_conn_reset(NodeId a, NodeId b) override;

  /// |L_u − L_v| per grid point for one edge, as a recorder series (all
  /// grid points joined, live or not).
  [[nodiscard]] TimeSeries edge_skew_series(const EdgeKey& e) const;

  /// Per-edge summary across every topology edge (skips warmup_samples
  /// leading grid points — convergence transient).
  [[nodiscard]] std::vector<RtEdgeReport> edge_report(int warmup_samples = 0);

  /// Per-edge summary restricted to sample times in [begin, end): the
  /// re-convergence gate primitive. Only grid points where both endpoints
  /// were live contribute.
  [[nodiscard]] std::vector<RtEdgeReport> edge_report_window(Time begin, Time end);

  /// Long-format CSV: one row per (grid point, edge) with the skew sample,
  /// the edge's ε/κ/bound columns and a live flag (1 iff both endpoints
  /// were live at that grid point). Throws on I/O failure.
  void write_skew_csv(const std::string& path, int warmup_samples = 0);

 private:
  struct JoinedSample {
    Time t = 0.0;
    double skew = 0.0;
    bool live = true;
  };
  [[nodiscard]] std::vector<JoinedSample> join_edge(const EdgeKey& e) const;
  [[nodiscard]] RtEdgeReport summarize(const EdgeKey& e, Time begin, Time end,
                                       bool live_only);
  [[nodiscard]] RtTransport& transport_of(NodeId u);

  TimeSource& clock_;
  RtBackend backend_;
  std::unique_ptr<PipeHub> hub_;                          ///< kPipe
  std::vector<std::unique_ptr<UdpTransport>> udp_;        ///< kUdp, per node
  std::vector<std::unique_ptr<TcpTransport>> tcp_;        ///< kTcp, per node
  std::vector<RtTransport*> transports_;  ///< the distinct transports above
  std::vector<std::unique_ptr<RtNode>> nodes_;
  std::vector<EdgeKey> edges_;
  std::vector<std::vector<RtSample>> samples_;  ///< [node][grid index]
  std::optional<ChaosScheduler> chaos_;
  bool started_ = false;
};

}  // namespace gcs
