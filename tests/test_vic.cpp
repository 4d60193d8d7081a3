// Tests for the VIC substrate: packet codec, DV memory, group counters,
// surprise FIFO, PCIe link, DMA engines, and the assembled fabric.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "vic/vic.hpp"

namespace sim = dvx::sim;
namespace vic = dvx::vic;
using sim::Coro;
using sim::Engine;

namespace {

/// DvFabric resolves staged traffic at window close, so its tests run on a
/// windowed engine, as cluster runs do.
void make_windowed(Engine& e, const vic::DvFabric& f) {
  e.configure_sharding({.lookahead = f.min_remote_latency()});
}

TEST(PacketCodec, RoundTripsRandomHeaders) {
  sim::Xoshiro256 rng(42);
  for (int i = 0; i < 1000; ++i) {
    vic::Header h;
    h.dst_vic = static_cast<std::uint16_t>(rng.below(1 << 16));
    h.kind = static_cast<vic::DestKind>(rng.below(4));
    h.counter = static_cast<std::uint8_t>(rng.below(256));
    h.addr = static_cast<std::uint32_t>(rng());
    EXPECT_EQ(vic::decode_header(vic::encode_header(h)), h);
  }
}

TEST(DvMemory, DefaultCapacityIs32MB) {
  vic::DvMemory m;
  EXPECT_EQ(m.bytes(), 32u << 20);
  EXPECT_EQ(m.words(), (32u << 20) / 8);
}

TEST(DvMemory, ReadWriteAndBounds) {
  vic::DvMemory m(128);
  m.write(5, 0xdeadbeef);
  EXPECT_EQ(m.read(5), 0xdeadbeefu);
  EXPECT_EQ(m.read(6), 0u);
  EXPECT_THROW(m.read(128), std::out_of_range);
  EXPECT_THROW(m.write(128, 1), std::out_of_range);
  EXPECT_THROW(vic::DvMemory(0), std::invalid_argument);
}

TEST(DvMemory, BlockOpsAndBounds) {
  vic::DvMemory m(64);
  const std::vector<std::uint64_t> src = {1, 2, 3, 4};
  m.write_block(10, src);
  std::vector<std::uint64_t> dst(4);
  m.read_block(10, dst);
  EXPECT_EQ(src, dst);
  std::vector<std::uint64_t> big(5);
  EXPECT_THROW(m.write_block(60, big), std::out_of_range);
}

TEST(DvMemory, SparseSegmentsMaterializeOnWrite) {
  vic::DvMemory m;  // full 32 MB card
  EXPECT_EQ(m.resident_segments(), 0u);
  EXPECT_EQ(m.read(3'000'000), 0u);  // untouched words read as zero
  EXPECT_EQ(m.resident_segments(), 0u);
  m.write(3'000'000, 7);
  EXPECT_EQ(m.resident_segments(), 1u);
  EXPECT_EQ(m.read(3'000'000), 7u);
}

TEST(DvMemory, BlockOpsCrossSegmentBoundaries) {
  vic::DvMemory m(vic::DvMemory::kSegmentWords * 2);
  std::vector<std::uint64_t> src(100);
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = i + 1;
  const auto base = static_cast<std::uint32_t>(vic::DvMemory::kSegmentWords - 50);
  m.write_block(base, src);
  std::vector<std::uint64_t> dst(100);
  m.read_block(base, dst);
  EXPECT_EQ(src, dst);
  EXPECT_EQ(m.resident_segments(), 2u);
}

TEST(GroupCounter, WaiterResumesAtSettleTime) {
  Engine e;
  vic::GroupCounter gc(e);
  sim::Time woke = -1;
  bool ok = false;
  e.spawn([](Engine& eng, vic::GroupCounter& c, sim::Time& t, bool& res) -> Coro<void> {
    c.set(eng.now(), 3);
    res = co_await c.wait_zero();
    t = eng.now();
  }(e, gc, woke, ok));
  e.spawn([](Engine& eng, vic::GroupCounter& c) -> Coro<void> {
    co_await eng.delay(sim::us(1));
    c.decrement(sim::us(5));          // registered now, lands later
    c.decrement(sim::us(2));
    c.decrement(sim::us(9));          // latest arrival dominates
  }(e, gc));
  e.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(woke, sim::us(9));
  EXPECT_EQ(gc.value(), 0u);
  EXPECT_EQ(gc.lost_decrements(), 0u);
}

TEST(GroupCounter, TimeoutExpires) {
  Engine e;
  vic::GroupCounter gc(e);
  bool ok = true;
  sim::Time woke = -1;
  e.spawn([](Engine& eng, vic::GroupCounter& c, bool& res, sim::Time& t) -> Coro<void> {
    c.set(eng.now(), 2);
    c.decrement(eng.now());  // only one of two arrives
    res = co_await c.wait_zero(sim::us(4));
    t = eng.now();
  }(e, gc, ok, woke));
  e.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(woke, sim::us(4));
  EXPECT_EQ(gc.value(), 1u);
}

TEST(GroupCounter, DecrementAgainstZeroIsLost) {
  // Reproduces the documented race: data packets arriving before the
  // "set group counter" control packet are lost, so the counter never
  // reaches the expected zero.
  Engine e;
  vic::GroupCounter gc(e);
  bool ok = true;
  e.spawn([](Engine& eng, vic::GroupCounter& c, bool& res) -> Coro<void> {
    c.decrement(eng.now());      // arrives before the set
    c.set(eng.now(), 1);         // now expects 1 packet that already came
    res = co_await c.wait_zero(sim::us(10));
  }(e, gc, ok));
  e.run();
  EXPECT_FALSE(ok) << "lost arrival must leave the counter nonzero";
  EXPECT_EQ(gc.lost_decrements(), 1u);
  EXPECT_EQ(gc.value(), 1u);
}

TEST(GroupCounter, BatchDecrementUsesLastArrival) {
  Engine e;
  vic::GroupCounter gc(e);
  sim::Time woke = -1;
  e.spawn([](Engine& eng, vic::GroupCounter& c, sim::Time& t) -> Coro<void> {
    c.set(eng.now(), 100);
    c.decrement(sim::us(7), 100);
    co_await c.wait_zero();
    t = eng.now();
  }(e, gc, woke));
  e.run();
  EXPECT_EQ(woke, sim::us(7));
}

TEST(GroupCounterFile, ReservedIdsAndBounds) {
  Engine e;
  vic::GroupCounterFile file(e);
  EXPECT_NO_THROW(file.at(vic::kScratchCounter));
  EXPECT_NO_THROW(file.at(vic::kBarrierCounterA));
  EXPECT_NO_THROW(file.at(vic::kBarrierCounterB));
  EXPECT_THROW(file.at(64), std::out_of_range);
  EXPECT_THROW(file.at(-1), std::out_of_range);
  EXPECT_EQ(vic::kFirstUserCounter, 1);
}

TEST(SurpriseFifo, ArrivalTimeOrderingAcrossSenders) {
  Engine e;
  vic::SurpriseFifo fifo(e, 16);
  // Out-of-order deposits, made outside dispatch as the fabric's window-close
  // resolution makes them: arrival times decide visibility order.
  fifo.deposit(sim::us(5), vic::Packet{{}, 50});
  fifo.deposit(sim::us(2), vic::Packet{{}, 20});
  fifo.deposit(sim::us(8), vic::Packet{{}, 80});
  std::vector<std::uint64_t> got;
  e.spawn([](vic::SurpriseFifo& f, auto& out) -> Coro<void> {
    while (out.size() < 3) {
      auto batch = co_await f.wait_packets();
      for (const auto& p : batch) out.push_back(p.payload);
    }
  }(fifo, got));
  e.run();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{20, 50, 80}));
}

TEST(SurpriseFifo, PollOnlyReturnsVisiblePackets) {
  Engine e;
  vic::SurpriseFifo fifo(e, 16);
  fifo.deposit(sim::us(1), vic::Packet{{}, 1});
  fifo.deposit(sim::us(100), vic::Packet{{}, 2});
  e.spawn([](Engine& eng, vic::SurpriseFifo& f) -> Coro<void> {
    co_await eng.delay(sim::us(2));
    auto now_visible = f.poll();
    EXPECT_EQ(now_visible.size(), 1u);
    EXPECT_EQ(now_visible[0].payload, 1u);
    EXPECT_FALSE(f.ready());
    EXPECT_EQ(f.buffered(), 1u);
  }(e, fifo));
  e.run();
}

TEST(SurpriseFifo, OverflowDropsAndCounts) {
  // Overflow is decided in arrival order, not deposit order: the four
  // earliest arrivals fit, the six later ones are dropped, wherever they
  // sat among the deposits.
  Engine e;
  vic::SurpriseFifo fifo(e, 4);
  for (int i = 9; i >= 0; --i) {
    fifo.deposit(sim::ns(i + 1), vic::Packet{{}, static_cast<std::uint64_t>(i)});
  }
  EXPECT_EQ(fifo.buffered(), 10u);
  EXPECT_EQ(fifo.dropped(), 0u);
  std::vector<std::uint64_t> got;
  e.spawn([](Engine& eng, vic::SurpriseFifo& f, auto& out) -> Coro<void> {
    co_await eng.delay(sim::ns(20));
    for (const auto& p : f.poll()) out.push_back(p.payload);
  }(e, fifo, got));
  e.run();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(fifo.buffered(), 0u);
  EXPECT_EQ(fifo.dropped(), 6u);
  EXPECT_EQ(fifo.total_deposited(), 10u);
  EXPECT_EQ(fifo.total_drained(), 4u);
}

TEST(SurpriseFifo, LaterDepositArrivingEarlierMovesTheWake) {
  // The waiter parks with a packet due at 9 us; a deposit made later that
  // arrives at 3 us must wake it at 3 us, not at 9. As in DvFabric, a
  // sender's injection at 1 us is staged and deposited by the window hook.
  Engine e;
  e.configure_sharding({.lookahead = sim::us(1)});
  vic::SurpriseFifo fifo(e, 16);
  sim::Time woke = -1;
  std::vector<std::uint64_t> got;
  fifo.deposit(sim::us(9), vic::Packet{{}, 9});
  e.spawn([](Engine& eng, vic::SurpriseFifo& f, sim::Time& t, auto& out) -> Coro<void> {
    for (const auto& p : co_await f.wait_packets()) out.push_back(p.payload);
    t = eng.now();
  }(e, fifo, woke, got));
  bool staged = false;
  e.schedule(sim::us(1), [&staged] { staged = true; });
  e.add_window_hook(&fifo, [&fifo, &staged] {
    if (std::exchange(staged, false)) fifo.deposit(sim::us(3), vic::Packet{{}, 3});
  });
  EXPECT_EQ(e.run(), sim::us(3));
  e.remove_window_hook(&fifo);
  EXPECT_EQ(woke, sim::us(3));
  EXPECT_EQ(got, (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(fifo.buffered(), 1u);
  // The wake armed for 9 us was cancelled, not dispatched: three events ran
  // (the spawn, the deposit, the wake at 3 us) in three windows, and the
  // cancelled wake neither opened a window nor moved the clock.
  EXPECT_EQ(e.events_processed(), 3u);
  EXPECT_EQ(e.windows(), 3u);
}

TEST(PcieLink, DirectionsAreIndependent) {
  vic::PcieLink link(vic::PcieParams{});
  const auto down = link.occupy(vic::PcieDir::kHostToVic, 1 << 20, 5.5e9, 0);
  const auto up = link.occupy(vic::PcieDir::kVicToHost, 1 << 20, 6.0e9, 0);
  EXPECT_NEAR(sim::to_seconds(down), (1 << 20) / 5.5e9, 1e-7);
  EXPECT_NEAR(sim::to_seconds(up), (1 << 20) / 6.0e9, 1e-7);
  // Neither waited for the other.
  EXPECT_LT(std::max(down, up), down + up);
}

TEST(PcieLink, DirectWriteMatches500MBs) {
  vic::PcieLink link(vic::PcieParams{});
  const std::int64_t bytes = 100 << 20;
  const auto t = link.direct_write(bytes, 0);
  EXPECT_NEAR(sim::rate_bytes_per_sec(bytes, t), 0.5e9, 0.01e9);
}

TEST(PcieLink, DirectReadSlowerThanWrite) {
  vic::PcieLink link(vic::PcieParams{});
  const auto w = link.direct_write(1 << 20, 0);
  vic::PcieLink link2(vic::PcieParams{});
  const auto r = link2.direct_read(1 << 20, 0);
  EXPECT_GT(r, w);
}

TEST(Dma, RatesAreSeveralTimesDirectPaths) {
  vic::PcieParams p{};
  vic::PcieLink link(p);
  vic::DmaEngine down(link, vic::PcieDir::kHostToVic);
  const std::int64_t bytes = 64 << 20;
  const auto res = down.transfer(bytes, 0);
  const double dma_bw = sim::rate_bytes_per_sec(bytes, res.complete - res.start);
  EXPECT_GT(dma_bw, 4.4e9);  // must be able to feed the fabric at line rate
  EXPECT_GT(dma_bw, 4 * 0.5e9);  // "up to 4x faster than direct writes"
}

TEST(Dma, TableRefillCostsExtraSetup) {
  vic::PcieParams p{};
  p.dma_entry_bytes = 64;
  p.dma_table_entries = 4;  // tiny table: 256 B per refill
  vic::PcieLink link(p);
  vic::DmaEngine eng(link, vic::PcieDir::kHostToVic);
  const auto one = eng.transfer(256, 0);
  vic::PcieLink link2(p);
  vic::DmaEngine eng2(link2, vic::PcieDir::kHostToVic);
  const auto two = eng2.transfer(512, 0);  // needs two refills
  const auto d1 = one.complete - one.start;
  const auto d2 = two.complete - two.start;
  EXPECT_GE(d2, 2 * d1 - sim::ns(1));  // two setups + double payload
}

TEST(Dma, InAndOutOverlap) {
  vic::PcieParams p{};
  vic::PcieLink link(p);
  vic::DmaEngine down(link, vic::PcieDir::kHostToVic);
  vic::DmaEngine up(link, vic::PcieDir::kVicToHost);
  const std::int64_t bytes = 32 << 20;
  const auto a = down.transfer(bytes, 0);
  const auto b = up.transfer(bytes, 0);
  // Overlapped: combined completion far less than serialized sum.
  EXPECT_LT(std::max(a.complete, b.complete),
            (a.complete - a.start) + (b.complete - b.start));
}

TEST(DvFabric, MemoryPacketWritesRemoteWordAndDecrementsCounter) {
  Engine e;
  vic::DvFabric fabric(e, 4);
  make_windowed(e, fabric);
  e.spawn([](Engine& eng, vic::DvFabric& f) -> Coro<void> {
    f.vic(2).counters().at(5).set(eng.now(), 1);
    vic::Packet p;
    p.header = vic::Header{2, vic::DestKind::kDvMemory, 5, 1234};
    p.payload = 777;
    f.transmit(0, std::span<const vic::Packet>(&p, 1), eng.now());
    // An idle switch: the word arrives when a fresh model says it would.
    dvx::dvnet::FabricModel idle(f.model().params());
    const auto t = idle.send_burst(0, 2, 1, eng.now());
    EXPECT_GT(t.first_arrival, eng.now());
    const bool ok = co_await f.vic(2).counters().at(5).wait_zero();
    EXPECT_TRUE(ok);
    EXPECT_EQ(eng.now(), t.first_arrival);
    EXPECT_EQ(f.vic(2).memory().read(1234), 777u);
  }(e, fabric));
  e.run();
  EXPECT_TRUE(e.all_done());
}

TEST(DvFabric, QueryTriggersHostFreeReply) {
  Engine e;
  vic::DvFabric fabric(e, 4);
  make_windowed(e, fabric);
  e.spawn([](Engine& eng, vic::DvFabric& f) -> Coro<void> {
    f.vic(3).memory().write(50, 0xabcdef);
    // Query VIC 3, addr 50; reply goes to VIC 1's FIFO (not the sender!).
    vic::Packet q;
    q.header = vic::Header{3, vic::DestKind::kQuery, vic::kNoCounter, 50};
    q.payload = vic::encode_header(vic::Header{1, vic::DestKind::kFifo, vic::kNoCounter, 0});
    f.transmit(0, std::span<const vic::Packet>(&q, 1), eng.now());
    auto got = co_await f.vic(1).fifo().wait_packets();
    EXPECT_EQ(got.size(), 1u);  // ASSERT_* cannot be used in a coroutine
    if (!got.empty()) {
      EXPECT_EQ(got[0].payload, 0xabcdefu);
    }
  }(e, fabric));
  e.run();
  EXPECT_TRUE(e.all_done());
}

TEST(DvFabric, TransmitCoalescesRunsToSameDestination) {
  Engine e;
  vic::DvFabric fabric(e, 4);
  make_windowed(e, fabric);
  std::vector<vic::Packet> batch;
  for (int i = 0; i < 100; ++i) {
    batch.push_back(vic::Packet{vic::Header{1, vic::DestKind::kDvMemory, 5,
                                            static_cast<std::uint32_t>(i)},
                                static_cast<std::uint64_t>(i)});
  }
  sim::Time last = -1;
  e.spawn([](Engine& eng, vic::DvFabric& f, const auto& words,
             sim::Time& out) -> Coro<void> {
    f.vic(1).counters().at(5).set(eng.now(), words.size());
    f.transmit(0, words, 0);
    co_await f.vic(1).counters().at(5).wait_zero();
    out = eng.now();
  }(e, fabric, batch, last));
  e.run();
  // The run reached the switch as one burst: its last word lands exactly
  // where a single 100-word burst on an idle switch lands, ~100 word-times
  // after the first.
  dvx::dvnet::FabricModel idle(fabric.model().params());
  const auto t = idle.send_burst(0, 1, 100, 0);
  EXPECT_EQ(last, t.last_arrival);
  const auto wt = fabric.model().word_time();
  EXPECT_GE(t.last_arrival - t.first_arrival, 99 * wt);
  EXPECT_LT(t.last_arrival, 120 * wt + fabric.model().base_latency());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(fabric.vic(1).memory().read(static_cast<std::uint32_t>(i)),
              static_cast<std::uint64_t>(i));
  }
}

TEST(DvFabric, IntrinsicBarrierIsNearlyFlatInNodeCount) {
  auto barrier_cost = [](int nodes) {
    Engine e;
    vic::DvFabric fabric(e, nodes);
    make_windowed(e, fabric);
    for (int r = 0; r < nodes; ++r) {
      e.spawn([](vic::DvFabric& f, int rank) -> Coro<void> {
        co_await f.intrinsic_barrier(rank);
      }(fabric, r));
    }
    return e.run();
  };
  const auto t2 = barrier_cost(2);
  const auto t32 = barrier_cost(32);
  EXPECT_GT(t2, 0);
  EXPECT_LT(sim::to_us(t32), 1.6) << "DV barrier should stay ~1us at 32 nodes";
  EXPECT_LT(static_cast<double>(t32) / static_cast<double>(t2), 1.4)
      << "barrier latency must be nearly flat in node count";
}

TEST(DvFabric, BarrierIsReusableAcrossPhases) {
  Engine e;
  vic::DvFabric fabric(e, 3);
  make_windowed(e, fabric);
  std::vector<sim::Time> done;
  for (int r = 0; r < 3; ++r) {
    e.spawn([](Engine& eng, vic::DvFabric& f, int rank, auto& out) -> Coro<void> {
      for (int phase = 0; phase < 3; ++phase) {
        co_await eng.delay(sim::us(rank + 1));
        co_await f.intrinsic_barrier(rank);
      }
      out.push_back(eng.now());
    }(e, fabric, r, done));
  }
  e.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], done[1]);
  EXPECT_EQ(done[1], done[2]);
}

}  // namespace
