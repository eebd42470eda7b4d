#include "rt/rt_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace gcs {

// -------------------------------------------------------------------- pipe

PipeHub::PipeHub(int n, TimeSource& clock, const FaultSpec& faults,
                 std::size_t ring_capacity)
    : n_(n), clock_(clock), faults_(faults) {
  require(n >= 1, "PipeHub: need n >= 1");
  const std::size_t nn = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  rings_.reserve(nn);
  rngs_.reserve(nn);
  Rng root(faults.seed ^ 0x9d1eULL);
  for (std::size_t i = 0; i < nn; ++i) {
    rings_.push_back(std::make_unique<SpscRing<WireMsg>>(ring_capacity));
    rngs_.push_back(root.fork(i));
  }
  // One shared pair of roots, senders in order: the per-link chaos streams
  // are forked from it n² times in link order (see rt/link_chaos.h).
  LinkChaos::Roots chaos_roots(faults.seed);
  chaos_.reserve(static_cast<std::size_t>(n));
  for (NodeId from = 0; from < n; ++from) {
    chaos_.push_back(std::make_unique<LinkChaos>(n, from, chaos_roots));
  }
  ring_full_link_ = std::make_unique<std::atomic<std::uint64_t>[]>(nn);
  inboxes_.resize(static_cast<std::size_t>(n));
}

void PipeHub::set_link_fault(NodeId from, NodeId to, const LinkFault& f) {
  require(from >= 0 && from < n_, "PipeHub: bad link");
  chaos_[static_cast<std::size_t>(from)]->arm(to, f);
}

std::uint64_t PipeHub::chaos_dropped() const {
  std::uint64_t sum = 0;
  for (const auto& c : chaos_) sum += c->counters().dropped;
  return sum;
}

std::uint64_t PipeHub::corrupted() const {
  std::uint64_t sum = 0;
  for (const auto& c : chaos_) sum += c->counters().corrupted;
  return sum;
}

bool PipeHub::push_one(const WireMsg& m) {
  if (!ring(m.from, m.to).push(m)) {
    // Ring full: backpressure means loss, exactly like a saturated NIC
    // queue. The protocol tolerates loss by design — but the operator must
    // be able to see it, so it gets its own counter, per directed link.
    ring_full_.fetch_add(1, std::memory_order_relaxed);
    ring_full_link_[link_index(m.from, m.to)].fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  sent_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool PipeHub::send(const WireMsg& m) {
  require(m.from >= 0 && m.from < n_ && m.to >= 0 && m.to < n_ && m.from != m.to,
          "PipeHub: bad addressing");
  Rng& rng = edge_rng(m.from, m.to);
  // Always draw the full decision tuple: the per-edge RNG stream is then a
  // pure function of the send count, so a fixed seed reproduces the same
  // fault pattern whatever the thread interleaving or fault configuration.
  const double roll_drop = rng.uniform(0.0, 1.0);
  const double roll_dup = rng.uniform(0.0, 1.0);
  const double roll_reorder = rng.uniform(0.0, 1.0);
  const double draw_delay = rng.uniform(0.0, 1.0);
  const double draw_jitter = rng.uniform(0.0, 1.0);
  LinkChaos& chaos = *chaos_[static_cast<std::size_t>(m.from)];
  const LinkChaos::Verdict verdict = chaos.decide(m.to);
  if (roll_drop < faults_.drop) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return true;  // swallowed in flight; the sender cannot tell
  }
  if (verdict.drop) {
    chaos.record_drop();
    return true;
  }
  if (verdict.corrupt) {
    // Pipe frames are structs, not bytes, so corruption goes through the
    // real codec: encode, flip one bit, re-decode. CRC32C detects every
    // single-bit error, so the decode fails and the frame dies in flight,
    // counted exactly as a socket backend's receiver would count it.
    std::uint8_t frame[kWireMax];
    const std::size_t len = wire_encode(m, frame);
    chaos.corrupt(frame, len, verdict);
    WireMsg decoded;
    if (!wire_decode(frame, len, decoded)) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return true;  // swallowed in flight, like a chaos drop
    }
    // Unreachable for single-bit flips, but if the codec ever let one
    // through, delivering the decoded bytes is the honest behavior.
  }
  WireMsg out = m;
  Duration hold = draw_jitter * faults_.jitter + verdict.hold;
  if (roll_reorder < faults_.reorder) {
    hold += draw_delay * faults_.delay;
    delayed_.fetch_add(1, std::memory_order_relaxed);
  }
  out.deliver_at = hold > 0.0 ? clock_.now() + hold : 0.0;
  const bool ok = push_one(out);
  if (roll_dup < faults_.dup) {
    duplicated_.fetch_add(1, std::memory_order_relaxed);
    push_one(out);
  }
  return ok;
}

bool PipeHub::poll(NodeId self, WireMsg& out) {
  require(self >= 0 && self < n_, "PipeHub: bad poll node");
  Inbox& inbox = inboxes_[static_cast<std::size_t>(self)];
  // Drain every inbound ring into the pending heap first: a freshly arrived
  // message may be due before an already-held delayed one.
  WireMsg m;
  for (NodeId from = 0; from < n_; ++from) {
    if (from == self) continue;
    while (ring(from, self).pop(m)) {
      inbox.pending.emplace(m, inbox.seq++);
    }
  }
  if (inbox.pending.empty()) return false;
  const auto& head = inbox.pending.top();
  if (head.first.deliver_at > clock_.now()) return false;  // held back (fault delay)
  out = head.first;
  inbox.pending.pop();
  return true;
}

// --------------------------------------------------------------------- udp

UdpTransport::UdpTransport(int n, NodeId self, std::uint16_t base_port,
                           TimeSource* clock, std::uint64_t chaos_seed)
    : n_(n),
      self_(self),
      base_port_(base_port),
      clock_(clock),
      chaos_(n, self, LinkChaos::Roots(chaos_seed)) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  require(fd_ >= 0, "UdpTransport: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(base_port + self));
  const int rc = ::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc != 0) {
    ::close(fd_);
    fd_ = -1;
    require(false, "UdpTransport: bind(127.0.0.1:" +
                       std::to_string(base_port + self) + ") failed: " +
                       std::strerror(errno));
  }
}

UdpTransport::~UdpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

void UdpTransport::set_link_fault(NodeId from, NodeId to, const LinkFault& f) {
  if (from != self_) return;  // the peer's transport owns the reverse slot
  // A latency storm needs a clock to measure the hold against. Refusing to
  // arm one here beats the old behavior (silently releasing stashed frames
  // with zero delay — a storm that quietly tests nothing).
  require(f.extra_delay <= 0.0f || clock_ != nullptr,
          "UdpTransport: latency fault armed without a clock");
  chaos_.arm(to, f);
}

bool UdpTransport::transmit(const std::uint8_t* frame, std::size_t len, NodeId to) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(base_port_ + to));
  // Bounded retry on transient kernel-side backpressure: a loopback socket
  // buffer drains in microseconds, so a couple of immediate retries clear
  // almost every EAGAIN without ever blocking the pump thread.
  constexpr int kAttempts = 3;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    const ssize_t rc = ::sendto(fd_, frame, len, 0,
                                reinterpret_cast<const sockaddr*>(&addr),
                                sizeof(addr));
    if (rc == static_cast<ssize_t>(len)) {
      ++sent_;
      return true;
    }
    const bool transient =
        rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS);
    if (!transient) break;
    ++send_retries_;
  }
  // A real socket failure, NOT an injected fault: chaos_dropped() stays a
  // pure function of the chaos script.
  ++send_errors_;
  return false;
}

void UdpTransport::flush_stash() {
  if (clock_ == nullptr) return;
  chaos_.release(clock_->now(), [this](const std::uint8_t* frame,
                                       std::size_t len, NodeId to) {
    transmit(frame, len, to);
  });
}

bool UdpTransport::send(const WireMsg& m) {
  require(m.to >= 0 && m.to < n_ && m.to != self_, "UdpTransport: bad addressing");
  flush_stash();
  const LinkChaos::Verdict verdict = chaos_.decide(m.to);
  if (verdict.drop) {
    chaos_.record_drop();
    return true;  // swallowed in flight; the sender cannot tell
  }
  std::uint8_t frame[kWireMax];
  const std::size_t len = wire_encode(m, frame);
  if (verdict.corrupt) chaos_.corrupt(frame, len, verdict);
  if (verdict.hold > 0.0 && clock_ != nullptr) {
    chaos_.hold(frame, len, m.to, clock_->now() + verdict.hold);
    return true;
  }
  return transmit(frame, len, m.to);
}

bool UdpTransport::poll(NodeId self, WireMsg& out) {
  require(self == self_, "UdpTransport: instance serves one node");
  flush_stash();
  std::uint8_t buf[kWireMax];
  for (;;) {
    const ssize_t rc = ::recvfrom(fd_, buf, sizeof(buf), 0, nullptr, nullptr);
    if (rc < 0) return false;  // EWOULDBLOCK: nothing ready
    if (wire_decode(buf, static_cast<std::size_t>(rc), out)) {
      ++received_;
      return true;
    }
    // Undecodable datagram (chaos corruption, foreign sender, truncation):
    // count it and keep draining. The counter is what lets CI prove every
    // injected bit flip was caught rather than silently absorbed.
    ++rejected_;
  }
}

}  // namespace gcs
