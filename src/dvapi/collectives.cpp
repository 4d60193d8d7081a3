#include "dvapi/collectives.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace dvx::dvapi {

sim::Coro<std::vector<std::uint64_t>> alltoall_words(DvContext& ctx,
                                                     std::span<const std::uint64_t> send) {
  const int n = ctx.nodes();
  if (send.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument("alltoall_words: need one word per peer");
  }
  if (static_cast<std::uint32_t>(n) > kCollectiveStride) {
    // Above the stride the two sense regions overlap and back-to-back
    // collectives would overwrite each other's words.
    throw std::invalid_argument(
        "alltoall_words: at most " + std::to_string(kCollectiveStride) +
        " nodes (DV word regions of the two senses would overlap); got " +
        std::to_string(n));
  }
  auto& st = ctx.collective_state();
  if (!st.primed) {
    // Arm both sense counters once, then one barrier so no word can race an
    // unarmed counter. Every later collective re-arms its counter after use
    // (sense reversal), so the steady-state cost has no barrier at all.
    co_await ctx.counter_set_local(kCollectiveCounterA, static_cast<std::uint64_t>(n - 1));
    co_await ctx.counter_set_local(kCollectiveCounterB, static_cast<std::uint64_t>(n - 1));
    st.primed = true;
    co_await ctx.barrier();
  }
  const bool odd = (st.phase % 2) != 0;
  const int ctr = odd ? kCollectiveCounterB : kCollectiveCounterA;
  const std::uint32_t base = kCollectiveBase + (odd ? kCollectiveStride : 0);
  ++st.phase;

  std::vector<vic::Packet> batch;
  batch.reserve(static_cast<std::size_t>(n - 1));
  for (int peer = 0; peer < n; ++peer) {
    if (peer == ctx.rank()) continue;
    batch.push_back(vic::Packet{
        vic::Header{static_cast<std::uint16_t>(peer), vic::DestKind::kDvMemory,
                    static_cast<std::uint8_t>(ctr),
                    base + static_cast<std::uint32_t>(ctx.rank())},
        send[static_cast<std::size_t>(peer)]});
  }
  co_await ctx.send_direct_batch(batch);
  co_await ctx.counter_wait_zero(ctr);
  // Re-arm for the next same-sense call; safe because a peer reaches it only
  // after receiving our next (other-sense) contribution, sent after this.
  co_await ctx.counter_set_local(ctr, static_cast<std::uint64_t>(n - 1));

  std::vector<std::uint64_t> out(static_cast<std::size_t>(n));
  co_await ctx.dma_read_dv(base, out);
  out[static_cast<std::size_t>(ctx.rank())] = send[static_cast<std::size_t>(ctx.rank())];
  co_return out;
}

sim::Coro<std::uint64_t> allreduce_sum(DvContext& ctx, std::uint64_t value) {
  std::vector<std::uint64_t> send(static_cast<std::size_t>(ctx.nodes()), value);
  const auto all = co_await alltoall_words(ctx, send);
  std::uint64_t acc = 0;
  for (auto v : all) acc += v;
  co_return acc;
}

sim::Coro<std::uint64_t> allreduce_max(DvContext& ctx, std::uint64_t value) {
  std::vector<std::uint64_t> send(static_cast<std::size_t>(ctx.nodes()), value);
  const auto all = co_await alltoall_words(ctx, send);
  std::uint64_t acc = 0;
  for (auto v : all) acc = std::max(acc, v);
  co_return acc;
}

sim::Coro<std::uint64_t> broadcast_word(DvContext& ctx, std::uint64_t value, int root) {
  std::vector<std::uint64_t> send(static_cast<std::size_t>(ctx.nodes()),
                                  ctx.rank() == root ? value : 0);
  const auto all = co_await alltoall_words(ctx, send);
  co_return all[static_cast<std::size_t>(root)];
}

}  // namespace dvx::dvapi
