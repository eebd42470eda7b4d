// TCP stream backend: real connection lifecycle under the same two-call
// RtTransport contract as the pipe and UDP backends.
//
// Topology: node u owns one listening socket on 127.0.0.1:(base_port + u)
// plus one lazily-dialed outbound connection per peer, used for SENDING
// only; frames from a peer arrive on the connection that peer dialed to
// our listener. Two unidirectional connections per adjacent pair keeps the
// whole reconnect state machine on the sender's side and needs no identity
// handshake — every frame already carries `from`.
//
// Outbound lifecycle (per peer):
//
//   Closed ──dial──> Connecting ──writable──> Established
//      ^                  │ error                  │ reset / write error
//      │                  v                        v
//      └────deadline── Backoff <──────────────────┘
//
// Backoff grows exponentially (base · 2^attempt, capped) with jitter drawn
// from a per-peer seeded RNG — deterministic, so lockstep runs stay
// bit-reproducible; a successful establishment resets the attempt count.
// While Connecting, frames are buffered (bounded) and flushed on
// establishment; while Backoff, send() returns false — the existing
// "send() == false means drop" contract, so a down connection degrades to
// loss and AOPT re-convergence, not the transport, heals the cluster.
//
// Everything is non-blocking: dials, accepts, reads (reassembled against
// the length prefix across arbitrary segment boundaries) and writes
// (bounded per-connection buffering; a full buffer counts backpressure(),
// never an injected fault). Chaos conn-reset requests are latched in
// atomics and consumed on the owning thread, like RtNode's admin flags.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "rt/rt_transport.h"

namespace gcs {

struct TcpConfig {
  Duration backoff_base = 0.05;  ///< first retry delay, model seconds
  Duration backoff_max = 1.6;    ///< backoff growth cap
  double jitter = 0.25;          ///< fraction of the backoff added as jitter
  std::size_t write_buffer_cap = 64 * 1024;  ///< bytes buffered per connection
  int listen_backlog = 64;
};

class TcpTransport final : public RtTransport {
 public:
  enum class ConnState { kClosed, kConnecting, kEstablished, kBackoff };

  /// One instance serves node `self`; listens on 127.0.0.1:(base_port +
  /// self). `clock` is mandatory: reconnect backoff and latency storms are
  /// measured in model time against it.
  TcpTransport(int n, NodeId self, std::uint16_t base_port, TimeSource& clock,
               std::uint64_t chaos_seed = 1, const TcpConfig& config = {});
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  bool send(const WireMsg& m) override;
  bool poll(NodeId self, WireMsg& out) override;
  /// Only the outbound (from == self) direction is stored, as with UDP.
  void set_link_fault(NodeId from, NodeId to, const LinkFault& f) override;

  /// Chaos conn-reset: latch a request to hard-close (RST) the outbound
  /// connection to `peer`. Thread-safe; applied on the owning thread at the
  /// next send/poll, after which the connection re-dials through Backoff.
  void request_reset(NodeId peer);

  [[nodiscard]] ConnState conn_state(NodeId peer) const;
  /// Consecutive failed/reset attempts on the peer's connection (bounds the
  /// backoff exponent; re-established connections reset it to zero).
  [[nodiscard]] int backoff_attempts(NodeId peer) const;
  /// The most recently armed backoff delay for the peer, model seconds.
  [[nodiscard]] Duration last_backoff(NodeId peer) const;

  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] std::uint64_t received() const { return received_; }
  /// Chaos-injected drops only (pure function of the chaos script + seed).
  [[nodiscard]] std::uint64_t chaos_dropped() const override {
    return chaos_.counters().dropped;
  }
  /// Chaos-injected bit flips on outbound frames (live connections only).
  [[nodiscard]] std::uint64_t corrupted() const override {
    return chaos_.counters().corrupted;
  }
  /// Undecodable ingress frames (CRC mismatch etc.); framing survives — a
  /// bad frame is skipped by its length prefix, the stream stays in sync.
  [[nodiscard]] std::uint64_t rejected() const override { return rejected_; }
  /// Frames refused because a connection's write buffer was full — real
  /// backpressure, never mixed into the injected-fault counters.
  [[nodiscard]] std::uint64_t backpressure() const { return backpressure_; }
  /// Frames dropped because the connection was down (Backoff) or died
  /// carrying them (buffer discarded on connection failure).
  [[nodiscard]] std::uint64_t conn_down() const { return conn_down_; }
  /// Connection losses observed (chaos resets + real write/connect errors).
  [[nodiscard]] std::uint64_t resets() const { return resets_; }
  /// Successful establishments (first dials and re-establishments).
  [[nodiscard]] std::uint64_t reconnects() const { return reconnects_; }

 private:
  struct OutConn {
    int fd = -1;
    ConnState state = ConnState::kClosed;
    Time retry_at = 0.0;        ///< Backoff: model time of the next dial
    int attempt = 0;            ///< consecutive failures (backoff exponent)
    Duration last_backoff = 0.0;
    /// Unwritten frames, whole-frame granularity (head may be partially
    /// written — head_written bytes of wbuf.front() are already out).
    std::deque<std::vector<std::uint8_t>> wbuf;
    std::size_t head_written = 0;
    std::size_t wbuf_bytes = 0;  ///< total buffered bytes, capped by config
  };
  struct InConn {
    int fd = -1;
    std::vector<std::uint8_t> rbuf;  ///< partial-frame reassembly
    std::size_t consumed = 0;        ///< parsed prefix of rbuf
  };

  void consume_reset_requests(Time now);
  void progress(OutConn& c, NodeId peer, Time now);
  void dial(OutConn& c, NodeId peer, Time now);
  void fail_connection(OutConn& c, Time now, bool hard_reset);
  bool enqueue_frame(OutConn& c, const std::uint8_t* frame, std::size_t len);
  void flush_wbuf(OutConn& c, Time now);
  void flush_stash(Time now);
  void accept_pending();
  void read_connections();
  void parse_frames(InConn& c);

  int n_;
  NodeId self_;
  std::uint16_t base_port_;
  TimeSource& clock_;
  TcpConfig config_;
  int listen_fd_ = -1;
  std::vector<OutConn> out_;       ///< per peer, owner-thread only
  std::vector<InConn> in_;         ///< accepted connections, owner-thread only
  std::deque<WireMsg> pending_;    ///< decoded frames awaiting poll()
  LinkChaos chaos_;                ///< owner-thread only, fresh roots
  std::vector<Rng> backoff_rngs_;  ///< per destination, jitter stream
  std::unique_ptr<std::atomic<bool>[]> reset_requests_;  ///< per destination
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t backpressure_ = 0;
  std::uint64_t conn_down_ = 0;
  std::uint64_t resets_ = 0;
  std::uint64_t reconnects_ = 0;
};

}  // namespace gcs
