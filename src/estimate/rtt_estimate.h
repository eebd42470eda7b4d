// Measured-RTT estimate source (the service-mode realization of eq. 1).
//
// Instead of compensating beacon transit with the model's known delay floor
// (BeaconEstimateSource), this source *measures* the round-trip time with an
// edyn-style two-request/response offset exchange: each probe round sends two
// back-to-back TimeRequests per neighbor, every TimeResponse yields one RTT
// sample, and the transit compensation is half the sliding-window average of
// the surviving samples after outlier rejection (a sample more than
// `outlier` times the window minimum is a queueing spike, not a path
// property, and is excluded). Two requests per round means a single lost or
// deferred datagram cannot starve a round of samples — the reason edyn's
// exchange is two-phase.
//
// The reported ε_e is beacon_eps(e, probe_period, ρ, µ): the worst-case
// receipt error of an *uncompensated* timestamp plus drift growth over one
// period. RTT compensation only shrinks the receipt term (the residual error
// is the path asymmetry, at most the delay uncertainty that the beacon bound
// already charges in full), so the beacon formula stays a sound, if
// conservative, bound for this source.
#pragma once

#include <cstdint>
#include <vector>

#include "estimate/estimate_source.h"
#include "util/peer_rows.h"

namespace gcs {

class RttEstimateSource final : public EstimateSource {
 public:
  RttEstimateSource(DynamicGraph& graph, Duration probe_period, double rho,
                    double mu, int window, double outlier);

  std::optional<ClockValue> estimate(NodeId u, NodeId v) override;
  [[nodiscard]] double eps(const EdgeKey& e) const override;
  void on_edge_lost(NodeId u, NodeId peer) override;

  [[nodiscard]] Duration probe_period() const override { return probe_period_; }
  void on_probe(NodeId u, ProbeSender& sender) override;
  void on_time_response(const Delivery& d, const TimeResponse& resp) override;

  /// Smoothed transit estimate for the directed edge (peer -> owner), or a
  /// negative value if no RTT sample has survived yet (test/metrics access).
  [[nodiscard]] double transit_estimate(NodeId owner, NodeId peer) const;
  [[nodiscard]] std::uint64_t sample_count() const { return samples_accepted_; }

 private:
  /// Per-directed-edge sync state (owner's view of one peer).
  struct EdgeSync {
    std::vector<double> rtts;     ///< sliding window, circular overwrite
    std::size_t next = 0;         ///< overwrite cursor into rtts
    ClockValue base = 0.0;        ///< remote L + compensated transit at receipt
    ClockValue recv_hw = 0.0;     ///< owner hardware clock at receipt
    bool have_estimate = false;
  };
  /// An unanswered TimeRequest. Entries older than kStaleRounds probe
  /// periods are pruned on the owner's next probe — a response that late is
  /// indistinguishable from a duplicate and would be dropped either way.
  struct Pending {
    NodeId peer = kNoNode;
    ClockValue send_hw = 0.0;
  };
  static constexpr double kStaleRounds = 4.0;

  /// Outlier-rejected mean of the window, halved into a one-way transit.
  [[nodiscard]] static double filtered_transit(const std::vector<double>& rtts,
                                               double outlier);

  DynamicGraph& graph_;
  Duration probe_period_;
  double rho_;
  double mu_;
  int window_;
  double outlier_;
  PeerRows<EdgeSync> edges_;                  ///< row = owner, peer = neighbor
  /// Row = owner, key = probe id. Ids are handed out ascending, so each row
  /// is append-only and a prune touches only that owner's probes.
  PeerRows<Pending, std::uint32_t> pending_;
  std::vector<std::uint32_t> next_id_;        ///< per-owner next probe id
  std::uint64_t samples_accepted_ = 0;
};

/// Hook for estimate_source.cpp's builtin registration.
void register_rtt_estimate(Registry<EstimateFactory>& r);

}  // namespace gcs
