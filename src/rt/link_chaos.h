// The sending side of the runtime's chaos fault layer, for one node.
//
// Every transport — PipeHub, UdpTransport, TcpTransport — holds one
// LinkChaos per sending node and asks it once per send what the chaos layer
// does to the frame. It owns:
//
//  * one LinkFault slot per destination (rt/chaos.h): a lock-free atomic
//    the ChaosScheduler writes from any thread and the sender reads once
//    per frame;
//  * two per-destination RNG streams. decide() draws exactly one uniform
//    from the drop stream and one u64 from the corruption stream whether or
//    not a fault is armed, so both decision sequences are pure functions of
//    the per-link send count — which is what makes lockstep chaos runs
//    bit-reproducible. A separate corruption stream means arming corruption
//    never shifts the drop rolls; its single u64 decides both whether to
//    flip and which bit;
//  * the bit flip itself. Flips land past the 2-byte length prefix:
//    corrupting the prefix would break stream framing, a transport
//    invariant, not an integrity property the CRC is meant to catch;
//  * the latency-storm stash for the socket backends: encoded (possibly
//    already corrupted — that decision belongs to send time) frames held
//    until their release time. The pipe instead stamps deliver_at and its
//    receiver holds the frame back;
//  * the {dropped, corrupted} counters. They are written by the sending
//    thread only and may be read from any thread.
//
// Stream derivation. The caller supplies the pair of roots (Roots, seeded
// from the chaos seed); the constructor forks stream (self·n + to) from
// each, for to = 0 .. n-1 in order. Rng::fork advances its root, so who
// shares a root decides the streams: PipeHub builds its n instances in
// sender order from ONE shared pair (one root forked n² times in link
// order), while each UDP/TCP transport passes a fresh pair, so a daemon
// derives its outbound streams from (seed, self, to) alone. The two rules
// agree for sender 0 only; pinned lockstep rows and benchmark digests
// cover both, so neither may change.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "rt/chaos.h"
#include "rt/wire.h"
#include "util/rng.h"

namespace gcs {

class LinkChaos {
 public:
  struct Counters {
    std::uint64_t dropped = 0;    ///< frames swallowed by a chaos drop
    std::uint64_t corrupted = 0;  ///< frames with one bit flipped
  };

  /// The chaos layer's decision for one send.
  struct Verdict {
    bool drop = false;     ///< swallow the frame (caller: record_drop())
    bool corrupt = false;  ///< flip one bit (caller: corrupt())
    Duration hold = 0.0;   ///< extra model-seconds of delivery delay
    std::uint64_t corrupt_draw = 0;  ///< picks the flipped bit
  };

  /// The two root streams every per-link stream is forked from.
  struct Roots {
    explicit Roots(std::uint64_t seed)
        : drop(seed ^ 0xc4a05ULL), corrupt(seed ^ 0xf11bULL) {}
    Rng drop;
    Rng corrupt;
  };

  /// Shared roots: successive instances continue one fork sequence.
  LinkChaos(int n, NodeId self, Roots& shared);
  /// Fresh roots, used by this instance alone.
  LinkChaos(int n, NodeId self, Roots&& fresh) : LinkChaos(n, self, fresh) {}

  /// Set the fault slot of the link self -> to. Any thread.
  void arm(NodeId to, const LinkFault& f);

  /// One call per send, on the sending thread (see header comment).
  [[nodiscard]] Verdict decide(NodeId to);

  /// Count a frame swallowed because its Verdict said drop.
  void record_drop() { bump(dropped_); }

  /// Flip the bit `v` drew in an encoded frame of `len` bytes and count it.
  void corrupt(std::uint8_t* frame, std::size_t len, const Verdict& v);

  /// Hold an encoded frame for `to` until `release_at` (latency storm).
  void hold(const std::uint8_t* frame, std::size_t len, NodeId to,
            Time release_at);

  /// Hand every held frame due at `now` to fn(frame, len, to), in release
  /// order (FIFO among equal release times).
  template <class Fn>
  void release(Time now, Fn&& fn) {
    while (!stash_.empty() && stash_.top().release_at <= now) {
      const Stashed& top = stash_.top();
      fn(top.frame.data(), top.len, top.to);
      stash_.pop();
    }
  }

  [[nodiscard]] Counters counters() const {
    return {dropped_.load(std::memory_order_relaxed),
            corrupted_.load(std::memory_order_relaxed)};
  }

 private:
  struct Stashed {
    Time release_at = 0.0;
    std::uint64_t seq = 0;
    std::array<std::uint8_t, kWireMax> frame{};
    std::size_t len = 0;
    NodeId to = kNoNode;
  };
  struct StashOrder {  // min-heap on release_at, FIFO within ties
    bool operator()(const Stashed& a, const Stashed& b) const {
      if (a.release_at != b.release_at) return a.release_at > b.release_at;
      return a.seq > b.seq;
    }
  };

  /// Single-writer increment: no read-modify-write bus lock needed.
  static void bump(std::atomic<std::uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  int n_;
  NodeId self_;
  std::vector<Rng> chaos_rngs_;    ///< per destination, drop rolls
  std::vector<Rng> corrupt_rngs_;  ///< per destination, corruption draws
  std::unique_ptr<std::atomic<std::uint64_t>[]> faults_;  ///< packed LinkFault
  std::priority_queue<Stashed, std::vector<Stashed>, StashOrder> stash_;
  std::uint64_t stash_seq_ = 0;
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> corrupted_{0};
};

}  // namespace gcs
