// gcsd: the gradient-clock-synchronization daemon — ONE live node per
// process, talking UDP (default) or TCP on loopback. Launch one instance
// per node:
//
//   port=29200; epoch=$(gcsd --print-epoch)
//   gcsd --node=0 --nodes=2 --epoch=$epoch --seconds=30 --csv=node0.csv &
//   gcsd --node=1 --nodes=2 --epoch=$epoch --seconds=30 --csv=node1.csv &
//   wait
//
// All instances must share --nodes, --base-port, --seed, --epoch and the
// scenario knobs: each process runs a *replica* of the same ScenarioSpec in
// service mode, so equal specs are what keep the topology and drift tables
// consistent across processes. --epoch anchors model t=0 on the machine-wide
// steady clock (MonotonicClock's epoch), which is how separate processes
// share a model timeline; --print-epoch emits a value to pass to all.
//
// Each daemon self-samples its clocks on the model-time grid and writes them
// to --csv; join the per-node CSVs offline for cross-node skew
// (scripts/chaos_report.py interpolates the start-relative grids).
//
// Robustness extras:
//   --transport=udp|tcp  datagram sockets (default) or stream connections
//                        with the full reconnect state machine; under tcp a
//                        chaos conn-reset hard-closes the daemon's outbound
//                        connection and the backoff machinery re-dials
//   --detector           arm the liveness layer (suspect/evict/probe flags)
//   --chaos=SPEC         preset name or inline script (rt/chaos.h grammar);
//                        every daemon runs the SAME script and applies the
//                        ops that involve itself, so one flag value shared
//                        by all daemons yields a coherent fault schedule
//   --chaos-seed=K       preset RNG seed (shared across daemons)
//   --anchor-file=PATH   persist a logical-clock epoch anchor; a restarted
//                        daemon reads it back and rejoins monotonically
//                        (never steps its logical clock backwards)
//   --bounds-csv=PATH    per-edge eps/kappa/gradient-bound table for the
//                        offline gate
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "metrics/skew.h"
#include "rt/chaos.h"
#include "rt/rt_cluster.h"
#include "util/csv.h"
#include "util/flags.h"

using namespace gcs;

namespace {

ScenarioSpec make_spec(const Flags& flags) {
  ScenarioSpec spec;
  spec.name = "gcsd";
  spec.n = flags.get("nodes", 2);
  spec.seed = static_cast<std::uint64_t>(flags.get("seed", 1));
  spec.topology = ComponentSpec(
      flags.get("topology", std::string(spec.n >= 3 ? "ring" : "line")));
  spec.drift = ComponentSpec("osc-const");
  spec.drift.params.set("ppm", flags.get("ppm", std::string("120/-180/60/-90")));
  spec.estimates = ComponentSpec("rtt");
  const double probe = flags.get("probe", 0.25);
  spec.estimates.params.set("probe", probe);
  spec.engine.beacon_period = probe;
  spec.engine.tick_period = probe;
  spec.edge_params.eps = 0.1;
  spec.edge_params.tau = 0.5;
  spec.edge_params.msg_delay_max = flags.get("delay-max", 0.5);
  spec.edge_params.msg_delay_min = 0.0;
  spec.gtilde_auto = true;
  return spec;
}

/// The daemon-side chaos adapter: every daemon replays the same script and
/// keeps the ops that involve itself — its own crash/restart, its own
/// outbound link slots (the socket transports ignore foreign `from`s), and
/// under tcp its own side of a conn-reset (each daemon owns exactly one of
/// the pair's two outbound connections, so resetting it covers the link).
class DaemonChaosTarget final : public ChaosTarget {
 public:
  DaemonChaosTarget(NodeId self, RtNode& node, RtTransport& net,
                    TcpTransport* tcp)
      : self_(self), node_(node), net_(net), tcp_(tcp) {}
  void chaos_crash(NodeId u) override {
    if (u == self_) node_.request_crash();
  }
  void chaos_restart(NodeId u) override {
    if (u == self_) node_.request_restart();
  }
  void chaos_link(NodeId from, NodeId to, const LinkFault& f) override {
    net_.set_link_fault(from, to, f);
  }
  void chaos_conn_reset(NodeId a, NodeId b) override {
    if (tcp_ == nullptr) return;
    if (a == self_) tcp_->request_reset(b);
    if (b == self_) tcp_->request_reset(a);
  }

 private:
  NodeId self_;
  RtNode& node_;
  RtTransport& net_;
  TcpTransport* tcp_;  ///< non-null iff --transport=tcp
};

/// Crash-safe anchor persistence: write-then-rename, so a daemon killed
/// mid-write never leaves a torn anchor behind.
void persist_anchor(const std::string& path, ClockValue anchor) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return;
    out.precision(17);
    out << anchor << "\n";
  }
  std::rename(tmp.c_str(), path.c_str());
}

bool read_anchor(const std::string& path, ClockValue& anchor) {
  std::ifstream in(path);
  return static_cast<bool>(in >> anchor);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  MonotonicClock wall;
  if (flags.get("print-epoch", false)) {
    // A shared anchor slightly in the future, so daemons launched within the
    // grace window all start before model t=0 frames begin to matter.
    std::cout << wall.now() << "\n";
    return 0;
  }
  if (!flags.has("node")) {
    std::cerr << "usage: gcsd --node=U --nodes=N [--epoch=E] [--base-port=P]\n"
                 "            [--transport=udp|tcp]\n"
                 "            [--seconds=S] [--time-scale=K] [--probe=T]\n"
                 "            [--topology=ring] [--ppm=120/-180] [--seed=1]\n"
                 "            [--sample-period=T] [--csv=path]\n"
                 "            [--detector] [--suspect=T] [--evict=T]\n"
                 "            [--chaos=SPEC] [--chaos-seed=K]\n"
                 "            [--anchor-file=path] [--bounds-csv=path]\n"
                 "       gcsd --print-epoch\n";
    return 2;
  }
  const auto self = static_cast<NodeId>(flags.get("node", 0));
  const double scale = flags.get("time-scale", 1.0);
  const double probe = flags.get("probe", 0.25);
  // Default epoch = this process's start: fine for single-process smoke
  // runs; real multi-daemon deployments pass a shared --epoch.
  const Time epoch = flags.get("epoch", wall.now());
  ScaledClock clock(wall, scale, epoch);

  const ScenarioSpec spec = make_spec(flags);
  const auto base_port =
      static_cast<std::uint16_t>(flags.get("base-port", 29200));
  const auto chaos_seed =
      static_cast<std::uint64_t>(flags.get("chaos-seed", 1));
  const std::string transport = flags.get("transport", std::string("udp"));
  std::unique_ptr<UdpTransport> udp;
  std::unique_ptr<TcpTransport> tcp;
  RtTransport* net = nullptr;
  if (transport == "udp") {
    udp = std::make_unique<UdpTransport>(spec.n, self, base_port, &clock,
                                         chaos_seed);
    net = udp.get();
  } else if (transport == "tcp") {
    tcp = std::make_unique<TcpTransport>(spec.n, self, base_port, clock,
                                         chaos_seed);
    net = tcp.get();
  } else {
    std::cerr << "unknown --transport=" << transport << " (udp|tcp)\n";
    return 2;
  }
  RtNode node(spec, self, *net, clock);
  const bool chaotic = flags.has("chaos");
  if (flags.get("detector", false) || chaotic) {
    DetectorConfig detector;
    detector.suspect_after = flags.get("suspect", 3.0 * probe);
    detector.evict_after = flags.get("evict", 8.0 * probe);
    detector.probe_interval = flags.get("probe-interval", 2.0 * probe);
    node.enable_detector(detector);
  }
  node.start();

  const Time start = std::max(clock.now(), 0.0);
  const Time horizon = start + flags.get("seconds", 30.0) * scale;
  const double sample_period = flags.get("sample-period", 0.5);

  // Monotone rejoin: a daemon that died and came back catches its kernel up
  // first (pump), then lifts its logical clock to the persisted anchor so
  // the rejoined node never reads earlier than its previous incarnation.
  const std::string anchor_file = flags.get("anchor-file", std::string());
  if (!anchor_file.empty()) {
    node.pump();
    ClockValue anchor = 0.0;
    if (read_anchor(anchor_file, anchor)) {
      node.recover_logical(anchor);
      std::cout << "gcsd node " << self << ": recovered logical anchor "
                << anchor << "\n";
    }
  }

  std::vector<RtSample> samples;
  const int count =
      static_cast<int>(std::floor((horizon - start) / sample_period + 1e-9));
  for (int k = 1; k <= count; ++k) {
    const Time t = start + static_cast<Time>(k) * sample_period;
    node.at(t, [&node, &samples, t] {
      samples.push_back(
          RtSample{t, node.logical(), node.hardware(), node.sampling_live()});
    });
  }

  DaemonChaosTarget chaos_target(self, node, *net, tcp.get());
  ChaosScript script;
  if (chaotic) {
    // Scripted times are start-relative model seconds, like --seconds.
    script = ChaosScript::from_flag(
        flags.get("chaos", std::string("churn")), spec.n,
        node.scenario().initial_edges(), horizon - start,
        static_cast<std::uint64_t>(flags.get("chaos-seed", 1)));
    script.validate(spec.n);
    std::cout << "gcsd node " << self << ": chaos script: " << script.str()
              << "\n";
  }
  ChaosScheduler chaos(script, chaos_target);

  Time last_anchor = start;
  while (true) {
    chaos.poll(clock.now() - start);
    const Time t = node.pump();
    if (!anchor_file.empty() && t >= last_anchor + 1.0 && !node.is_down()) {
      persist_anchor(anchor_file, node.logical());
      last_anchor = t;
    }
    if (t >= horizon) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  node.pump();

  const std::string csv = flags.get("csv", std::string());
  if (!csv.empty()) {
    CsvWriter out(csv);
    out.row({"t", "node", "logical", "hardware", "live"});
    for (const RtSample& s : samples) {
      out.field(s.t)
          .field(self)
          .field(s.logical)
          .field(s.hardware)
          .field(s.live ? 1 : 0)
          .endrow();
    }
  }
  const std::string bounds_csv = flags.get("bounds-csv", std::string());
  if (!bounds_csv.empty()) {
    // Every replica derives the same per-edge constants; any daemon's table
    // serves the whole deployment (chaos_report.py reads one).
    CsvWriter out(bounds_csv);
    out.row({"a", "b", "eps", "kappa", "bound"});
    Engine& engine = node.engine();
    const AlgoParams& aopt = node.scenario().spec().aopt;
    for (const EdgeKey& e : node.scenario().initial_edges()) {
      const double eps = engine.edge_eps(e);
      const double kappa = engine.metric_kappa(e);
      out.field(e.a)
          .field(e.b)
          .field(eps)
          .field(kappa)
          .field(gradient_bound(kappa, aopt.gtilde_static, aopt.sigma()))
          .endrow();
    }
  }
  std::cout << "gcsd node " << self << ": ran to model t=" << horizon
            << " (" << samples.size() << " samples), frames out "
            << node.egress_count() << ", in " << node.ingress_count()
            << ", rejected " << node.rejected_count() << ", chaos-dropped "
            << net->chaos_dropped() << ", corrupted " << net->corrupted()
            << ", wire-rejected " << net->rejected() << ", restarts "
            << node.restarts();
  if (udp) {
    std::cout << ", send errors " << udp->send_errors();
  } else {
    std::cout << ", resets " << tcp->resets() << ", reconnects "
              << tcp->reconnects();
  }
  std::cout << "\nfinal L=" << node.logical() << " H=" << node.hardware()
            << "\n";
  return 0;
}
