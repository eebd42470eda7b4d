#include "estimate/rtt_estimate.h"

#include <algorithm>

namespace gcs {

RttEstimateSource::RttEstimateSource(DynamicGraph& graph, Duration probe_period,
                                     double rho, double mu, int window,
                                     double outlier)
    : graph_(graph),
      probe_period_(probe_period),
      rho_(rho),
      mu_(mu),
      window_(window),
      outlier_(outlier),
      next_id_(static_cast<std::size_t>(graph.size()), 0) {
  require(probe_period > 0.0, "RttEstimateSource: probe period must be > 0");
  require(window >= 1, "RttEstimateSource: window must be >= 1");
  require(outlier >= 1.0, "RttEstimateSource: outlier factor must be >= 1");
}

std::optional<ClockValue> RttEstimateSource::estimate(NodeId u, NodeId v) {
  require(clocks_ != nullptr, "RttEstimateSource: bind() not called");
  if (graph_.find_neighbor(u, v) == nullptr) return std::nullopt;
  const EdgeSync* sync = edges_.find(u, v);
  if (sync == nullptr || !sync->have_estimate) return std::nullopt;
  // Extrapolate at the owner's hardware rate, exactly like the beacon
  // source: the rate mismatch to the peer's logical clock is bounded by
  // 2ρ + µ(1+ρ), which eps() charges over a full probe period.
  const ClockValue hw_elapsed = clocks_->true_hardware(u) - sync->recv_hw;
  return sync->base + hw_elapsed;
}

double RttEstimateSource::eps(const EdgeKey& e) const {
  return beacon_eps(graph_.params(e), probe_period_, rho_, mu_);
}

void RttEstimateSource::on_edge_lost(NodeId u, NodeId peer) {
  edges_.erase(u, peer);
  // Orphan the in-flight probes toward that peer (a late response must not
  // resurrect the estimate of an edge the view already dropped).
  pending_.erase_if(u, [peer](const auto& s) { return s.value.peer == peer; });
}

void RttEstimateSource::on_probe(NodeId u, ProbeSender& sender) {
  require(clocks_ != nullptr, "RttEstimateSource: bind() not called");
  const ClockValue hw = clocks_->true_hardware(u);
  // Prune this owner's stale in-flight probes (lost requests/responses).
  const ClockValue horizon = hw - kStaleRounds * probe_period_;
  pending_.erase_if(u, [horizon](const auto& s) { return s.value.send_hw < horizon; });
  std::uint32_t& next = next_id_[static_cast<std::size_t>(u)];
  // Two back-to-back requests per neighbor (edyn's two-phase exchange): one
  // lost datagram still leaves this round a sample.
  for (const NeighborView& nv : graph_.view_neighbors(u)) {
    for (int shot = 0; shot < 2; ++shot) {
      const std::uint32_t id = next++;
      if (sender.send_time_request(u, nv.id, TimeRequest{id, hw})) {
        pending_.find_or_insert(u, id) = Pending{nv.id, hw};
      }
    }
  }
}

double RttEstimateSource::filtered_transit(const std::vector<double>& rtts,
                                           double outlier) {
  double lo = rtts.front();
  for (const double r : rtts) lo = std::min(lo, r);
  const double cut = lo * outlier;
  double sum = 0.0;
  int kept = 0;
  for (const double r : rtts) {
    if (r <= cut) {
      sum += r;
      ++kept;
    }
  }
  return 0.5 * sum / static_cast<double>(kept);  // kept >= 1: the minimum survives
}

void RttEstimateSource::on_time_response(const Delivery& d, const TimeResponse& resp) {
  require(clocks_ != nullptr, "RttEstimateSource: bind() not called");
  const NodeId owner = d.to;
  const Pending* pit = pending_.find(owner, resp.id);
  if (pit == nullptr) return;  // duplicate, stale, or post-edge-loss
  const Pending p = *pit;
  pending_.erase(owner, resp.id);
  if (p.peer != d.from) return;  // response relayed by the wrong peer: discard
  if (graph_.find_neighbor(owner, d.from) == nullptr) return;
  const ClockValue hw = clocks_->true_hardware(owner);
  const double rtt = hw - resp.echo_hw;
  if (rtt < 0.0) return;  // clock anomaly; never poison the window
  EdgeSync& sync = edges_.find_or_insert(owner, d.from);
  if (sync.rtts.size() < static_cast<std::size_t>(window_)) {
    sync.rtts.push_back(rtt);
  } else {
    sync.rtts[sync.next] = rtt;
    sync.next = (sync.next + 1) % sync.rtts.size();
  }
  ++samples_accepted_;
  // The responder's logical clock has advanced by ~transit since it stamped
  // remote_logical; compensate with the measured one-way estimate, drift-
  // discounted like the beacon source's known-delay compensation.
  const double transit = filtered_transit(sync.rtts, outlier_);
  sync.base = resp.remote_logical + (1.0 - rho_) * transit;
  sync.recv_hw = hw;
  sync.have_estimate = true;
}

double RttEstimateSource::transit_estimate(NodeId owner, NodeId peer) const {
  const EdgeSync* sync = edges_.find(owner, peer);
  if (sync == nullptr || sync->rtts.empty()) return -1.0;
  return filtered_transit(sync->rtts, outlier_);
}

void register_rtt_estimate(Registry<EstimateFactory>& r) {
  using E = Registry<EstimateFactory>::Entry;
  r.add(E{"rtt",
          "measured-RTT offset exchange (two requests/round, sliding-window "
          "average with outlier rejection); the service-mode estimate source",
          {{"probe", "0", "probe period (0 = the engine's beacon period)"},
           {"window", "8", "RTT samples kept per directed edge"},
           {"outlier", "2", "reject samples above this multiple of the window minimum"}},
          [](const ParamMap& p, const EstimateArgs& a) -> std::unique_ptr<EstimateSource> {
            const double probe = p.get_double("probe", 0.0);
            return std::make_unique<RttEstimateSource>(
                a.graph, probe > 0.0 ? probe : a.beacon_period, a.rho, a.mu,
                p.get_int("window", 8), p.get_double("outlier", 2.0));
          }});
}

}  // namespace gcs
