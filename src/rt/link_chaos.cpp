#include "rt/link_chaos.h"

#include <cstring>

namespace gcs {

namespace {

/// The corruption decision for one send, from ONE u64 of the corruption
/// stream: the top 53 bits decide whether to flip (uniform in [0,1) against
/// the armed probability), the low bits pick the bit once the frame length
/// is known.
struct CorruptDraw {
  std::uint64_t raw = 0;
  [[nodiscard]] bool hit(float probability) const {
    if (probability <= 0.0f) return false;
    const double u = static_cast<double>(raw >> 11) * 0x1.0p-53;
    return u < static_cast<double>(probability);
  }
  /// Bit index within [first_byte, len) of an encoded frame.
  [[nodiscard]] std::size_t bit(std::size_t first_byte, std::size_t len) const {
    const std::size_t nbits = (len - first_byte) * 8;
    return first_byte * 8 + static_cast<std::size_t>(raw % nbits);
  }
};

}  // namespace

LinkChaos::LinkChaos(int n, NodeId self, Roots& shared)
    : n_(n), self_(self) {
  require(n >= 1 && self >= 0 && self < n, "LinkChaos: bad node");
  chaos_rngs_.reserve(static_cast<std::size_t>(n));
  corrupt_rngs_.reserve(static_cast<std::size_t>(n));
  for (NodeId to = 0; to < n; ++to) {
    const std::uint64_t stream =
        static_cast<std::uint64_t>(self) * static_cast<std::uint64_t>(n) +
        static_cast<std::uint64_t>(to);
    chaos_rngs_.push_back(shared.drop.fork(stream));
    corrupt_rngs_.push_back(shared.corrupt.fork(stream));
  }
  faults_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      static_cast<std::size_t>(n));
}

void LinkChaos::arm(NodeId to, const LinkFault& f) {
  require(to >= 0 && to < n_ && to != self_, "LinkChaos: bad link");
  faults_[static_cast<std::size_t>(to)].store(pack_link_fault(f),
                                              std::memory_order_relaxed);
}

LinkChaos::Verdict LinkChaos::decide(NodeId to) {
  const auto link = static_cast<std::size_t>(to);
  const double roll = chaos_rngs_[link].uniform(0.0, 1.0);
  const CorruptDraw draw{corrupt_rngs_[link].next()};
  const LinkFault fault =
      unpack_link_fault(faults_[link].load(std::memory_order_relaxed));
  Verdict v;
  v.drop = roll < fault.drop;
  v.corrupt = draw.hit(fault.corrupt);
  v.hold = fault.extra_delay;
  v.corrupt_draw = draw.raw;
  return v;
}

void LinkChaos::corrupt(std::uint8_t* frame, std::size_t len, const Verdict& v) {
  const std::size_t bit = CorruptDraw{v.corrupt_draw}.bit(/*first_byte=*/2, len);
  frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  bump(corrupted_);
}

void LinkChaos::hold(const std::uint8_t* frame, std::size_t len, NodeId to,
                     Time release_at) {
  Stashed stashed;
  stashed.release_at = release_at;
  stashed.seq = stash_seq_++;
  std::memcpy(stashed.frame.data(), frame, len);
  stashed.len = len;
  stashed.to = to;
  stash_.push(stashed);
}

}  // namespace gcs
