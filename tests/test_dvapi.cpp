// Tests for the dvapi programming model: send paths, remote memory,
// query/reply, counters, FIFO messaging, barriers, and word collectives.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "dvapi/collectives.hpp"
#include "dvapi/context.hpp"
#include "sim/engine.hpp"

namespace sim = dvx::sim;
namespace vic = dvx::vic;
namespace dvapi = dvx::dvapi;
using sim::Coro;
using sim::Engine;

namespace {

/// Runs `body(ctx)` as one simulated process per rank; returns finish time.
template <typename Body>
sim::Time run_nodes(int nodes, Body body, vic::DvFabricParams params = {}) {
  Engine engine;
  vic::DvFabric fabric(engine, nodes, params);
  engine.configure_sharding({.lookahead = fabric.min_remote_latency()});
  std::deque<dvapi::DvContext> ctxs;
  for (int r = 0; r < nodes; ++r) ctxs.emplace_back(engine, fabric, r);
  for (int r = 0; r < nodes; ++r) {
    engine.spawn(body(ctxs[static_cast<std::size_t>(r)]));
  }
  const auto t = engine.run();
  EXPECT_TRUE(engine.all_done()) << "some rank deadlocked";
  return t;
}

TEST(DvApi, PutMakesDataVisibleAfterCounterWait) {
  run_nodes(2, [](dvapi::DvContext& ctx) -> Coro<void> {
    constexpr int kCtr = dvapi::kFirstFreeCounter;
    constexpr std::uint32_t kAddr = 4096;
    if (ctx.rank() == 1) co_await ctx.counter_set_local(kCtr, 8);
    co_await ctx.barrier();
    if (ctx.rank() == 0) {
      std::vector<std::uint64_t> words = {10, 11, 12, 13, 14, 15, 16, 17};
      co_await ctx.put(1, kAddr, words, kCtr);
    } else {
      const bool ok = co_await ctx.counter_wait_zero(kCtr);
      EXPECT_TRUE(ok);
      std::vector<std::uint64_t> got(8);
      co_await ctx.dma_read_dv(kAddr, got);
      for (int i = 0; i < 8; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], 10u + i);
    }
    co_await ctx.barrier();
  });
}

TEST(DvApi, QueryReadsRemoteWord) {
  run_nodes(3, [](dvapi::DvContext& ctx) -> Coro<void> {
    constexpr std::uint32_t kAddr = 1000;
    if (ctx.rank() == 2) {
      const std::vector<std::uint64_t> words = {0xfeedface};
      co_await ctx.dma_write_dv(kAddr, words);
    }
    co_await ctx.barrier();
    if (ctx.rank() == 0) {
      const auto v = co_await ctx.query(2, kAddr);
      EXPECT_EQ(v, 0xfeedfaceu);
    }
    co_await ctx.barrier();
  });
}

TEST(DvApi, FifoCarriesSurprseMessages) {
  run_nodes(4, [](dvapi::DvContext& ctx) -> Coro<void> {
    // Everyone sends its rank to rank 0's FIFO.
    if (ctx.rank() != 0) {
      co_await ctx.send_fifo(0, static_cast<std::uint64_t>(ctx.rank()));
    } else {
      std::uint64_t sum = 0;
      int got = 0;
      while (got < 3) {
        auto batch = co_await ctx.fifo_wait();
        for (const auto& p : batch) {
          sum += p.payload;
          ++got;
        }
      }
      EXPECT_EQ(sum, 1u + 2 + 3);
    }
    co_await ctx.barrier();
  });
}

TEST(DvApi, RemoteCounterSetArrivesAsControlPacket) {
  run_nodes(2, [](dvapi::DvContext& ctx) -> Coro<void> {
    constexpr int kCtr = dvapi::kFirstFreeCounter;
    if (ctx.rank() == 0) {
      co_await ctx.counter_set_remote(1, kCtr, 0);  // release peer
    } else {
      const bool ok = co_await ctx.counter_wait_zero(kCtr, sim::ms(1));
      EXPECT_TRUE(ok);
    }
    co_await ctx.barrier();
  });
}

// --- send-path bandwidth ordering (the physics behind Fig. 3) --------------

double path_bandwidth(int which, std::int64_t words) {
  // Receiver-visible bandwidth: counter armed for `words` arrivals, timed
  // from the post-barrier instant to the counter settling at zero.
  double out = 0.0;
  run_nodes(2, [&out, which, words](dvapi::DvContext& ctx) -> Coro<void> {
    constexpr int kCtr = dvapi::kFirstFreeCounter;
    if (ctx.rank() == 1) {
      co_await ctx.counter_set_local(kCtr, static_cast<std::uint64_t>(words));
    }
    co_await ctx.barrier();
    const sim::Time t0 = ctx.engine().now();
    if (ctx.rank() == 0) {
      std::vector<vic::Packet> batch(static_cast<std::size_t>(words));
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i].header = vic::Header{1, vic::DestKind::kDvMemory,
                                      static_cast<std::uint8_t>(kCtr),
                                      static_cast<std::uint32_t>(4096 + i)};
        batch[i].payload = i;
      }
      switch (which) {
        case 0: co_await ctx.send_direct_batch(batch); break;
        case 1: co_await ctx.send_cached_batch(batch); break;
        default: co_await ctx.send_dma_batch(batch); break;
      }
    } else {
      EXPECT_TRUE(co_await ctx.counter_wait_zero(kCtr));
      out = sim::rate_bytes_per_sec(words * 8, ctx.engine().now() - t0);
    }
    co_await ctx.barrier();
  });
  return out;
}

TEST(DvApi, SendPathBandwidthOrderingMatchesPaper) {
  const std::int64_t kWords = 256 * 1024;
  const double direct = path_bandwidth(0, kWords);
  const double cached = path_bandwidth(1, kWords);
  const double dma = path_bandwidth(2, kWords);
  // Fig. 3a: DWr/NoCached < DWr/Cached << DMA/Cached.
  EXPECT_LT(direct, cached);
  EXPECT_LT(cached, dma);
  // Direct write limited by the PCIe lane: 16 B cross for 8 B of payload.
  EXPECT_NEAR(direct, 0.25e9, 0.03e9);
  EXPECT_NEAR(cached, 0.5e9, 0.05e9);
  // DMA path approaches the 4.4 GB/s network peak (99.4% at 256 Ki words).
  EXPECT_GT(dma, 0.97 * 4.4e9);
  EXPECT_LT(dma, 1.01 * 4.4e9);
}

TEST(DvApi, FastBarrierSynchronizesAndIsReusable) {
  std::vector<sim::Time> finish;
  std::vector<sim::Time> last_arrival;
  run_nodes(8, [&](dvapi::DvContext& ctx) -> Coro<void> {
    for (int phase = 0; phase < 4; ++phase) {
      // Stagger arrivals so the barrier actually has to wait.
      co_await ctx.engine().delay(sim::us(ctx.rank() == 3 ? 10 : 1));
      if (ctx.rank() == 3) last_arrival.push_back(ctx.engine().now());
      co_await ctx.fast_barrier();
    }
    finish.push_back(ctx.engine().now());
  });
  ASSERT_EQ(finish.size(), 8u);
  // No rank exits before the slowest rank arrived at the final phase.
  for (auto t : finish) EXPECT_GE(t, last_arrival.back());
  // Releases are not simultaneous (counters settle per rank as the
  // all-to-all words land) but the spread stays well under a microsecond.
  const auto [lo, hi] = std::minmax_element(finish.begin(), finish.end());
  EXPECT_LT(*hi - *lo, sim::us(1));
}

TEST(DvApi, FastBarrierCostsMoreThanIntrinsicAndGrowsWithNodes) {
  auto cost = [](int nodes, bool fast) {
    // Measure the second barrier (the first one pays priming).
    sim::Time mark = 0;
    const auto total = run_nodes(nodes, [&mark, fast](dvapi::DvContext& ctx) -> Coro<void> {
      if (fast) {
        co_await ctx.fast_barrier();
      } else {
        co_await ctx.barrier();
      }
      if (ctx.rank() == 0) mark = ctx.engine().now();
      if (fast) {
        co_await ctx.fast_barrier();
      } else {
        co_await ctx.barrier();
      }
    });
    return total - mark;
  };
  const auto intrinsic32 = cost(32, false);
  const auto fast8 = cost(8, true);
  const auto fast32 = cost(32, true);
  EXPECT_GT(fast32, intrinsic32);  // Fig. 4: FastBarrier above the intrinsic
  EXPECT_GT(fast32, fast8);        // all-to-all grows with node count
  EXPECT_LT(sim::to_us(fast32), 10.0);  // but stays in the microsecond range
}

TEST(DvApi, AlltoallWordsExchangesEveryPair) {
  run_nodes(6, [](dvapi::DvContext& ctx) -> Coro<void> {
    std::vector<std::uint64_t> send(6);
    for (int peer = 0; peer < 6; ++peer) {
      send[static_cast<std::size_t>(peer)] =
          static_cast<std::uint64_t>(ctx.rank() * 100 + peer);
    }
    const auto got = co_await dvapi::alltoall_words(ctx, send);
    for (int src = 0; src < 6; ++src) {
      EXPECT_EQ(got[static_cast<std::size_t>(src)],
                static_cast<std::uint64_t>(src * 100 + ctx.rank()));
    }
    co_await ctx.barrier();
  });
}

TEST(DvApi, AllreduceAndBroadcast) {
  run_nodes(5, [](dvapi::DvContext& ctx) -> Coro<void> {
    const auto sum =
        co_await dvapi::allreduce_sum(ctx, static_cast<std::uint64_t>(ctx.rank() + 1));
    EXPECT_EQ(sum, 15u);  // 1+2+3+4+5
    const auto mx =
        co_await dvapi::allreduce_max(ctx, static_cast<std::uint64_t>(ctx.rank() * 7));
    EXPECT_EQ(mx, 28u);
    const auto b = co_await dvapi::broadcast_word(
        ctx, ctx.rank() == 2 ? 0xabcull : 0ull, /*root=*/2);
    EXPECT_EQ(b, 0xabcu);
    co_await ctx.barrier();
  });
}

TEST(DvApi, AlltoallRejectsWrongArity) {
  run_nodes(3, [](dvapi::DvContext& ctx) -> Coro<void> {
    std::vector<std::uint64_t> bad(2);  // needs 3
    bool threw = false;
    try {
      co_await dvapi::alltoall_words(ctx, bad);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
    co_await ctx.barrier();
  });
}

TEST(DvApi, AlltoallRefusesMoreNodesThanItsWordRegionsHold) {
  // Above 64 nodes the two sense regions overlap: the collective must
  // refuse up front instead of letting consecutive calls corrupt each other.
  run_nodes(128, [](dvapi::DvContext& ctx) -> Coro<void> {
    std::vector<std::uint64_t> send(128, 1);
    std::string error;
    try {
      co_await dvapi::alltoall_words(ctx, send);
    } catch (const std::invalid_argument& e) {
      error = e.what();
    }
    EXPECT_NE(error.find("at most 64 nodes"), std::string::npos) << error;
  });
}

TEST(DvApi, MixedDestinationDmaBatchLandsEverywhere) {
  // "Aggregation at source": one DMA batch fans out to many nodes.
  run_nodes(8, [](dvapi::DvContext& ctx) -> Coro<void> {
    constexpr int kCtr = dvapi::kFirstFreeCounter;
    co_await ctx.counter_set_local(kCtr, 7);  // expect one word from each peer
    co_await ctx.barrier();
    std::vector<vic::Packet> batch;
    for (int peer = 0; peer < 8; ++peer) {
      if (peer == ctx.rank()) continue;
      batch.push_back(vic::Packet{
          vic::Header{static_cast<std::uint16_t>(peer), vic::DestKind::kDvMemory,
                      static_cast<std::uint8_t>(kCtr),
                      static_cast<std::uint32_t>(2000 + ctx.rank())},
          static_cast<std::uint64_t>(ctx.rank() + 1)});
    }
    co_await ctx.send_dma_batch(batch);
    EXPECT_TRUE(co_await ctx.counter_wait_zero(kCtr));
    std::vector<std::uint64_t> got(8);
    co_await ctx.dma_read_dv(2000, got);
    for (int src = 0; src < 8; ++src) {
      if (src == ctx.rank()) continue;
      EXPECT_EQ(got[static_cast<std::size_t>(src)], static_cast<std::uint64_t>(src + 1));
    }
    co_await ctx.barrier();
  });
}

TEST(DvApi, PacketsSentAccounting) {
  run_nodes(2, [](dvapi::DvContext& ctx) -> Coro<void> {
    if (ctx.rank() == 0) {
      co_await ctx.send_fifo(1, 1);
      co_await ctx.send_fifo(1, 2);
      EXPECT_EQ(ctx.packets_sent(), 2u);
    }
    co_await ctx.barrier();
  });
}

}  // namespace
