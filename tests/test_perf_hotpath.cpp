// Tests for the hot-path overhaul (DESIGN.md §10): the slab-backed 4-ary
// event heap must dispatch in exactly the documented (time, insertion-seq)
// order; steady-state dispatch and switch stepping must not touch the
// allocator; deep per-port backlogs must drain in bounded host time (the
// O(n) pop-front regression); and the delivery statistics must be exact
// whether or not the per-delivery log is recording.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>  // det-lint: allow(system_clock) -- host-time drain bound only
#include <cstdint>
#include <cstdlib>
#include <new>
#include <queue>
#include <vector>

#include "dvnet/cycle_switch.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace sim = dvx::sim;
namespace dvnet = dvx::dvnet;

// ---------------------------------------------------------------------------
// Global operator new/delete counting hooks. Every allocation in the test
// binary bumps the counter; the allocation-freedom tests snapshot it around
// a steady-state window and require a zero delta.

namespace {
// Atomic (relaxed) because the sharded-engine equivalence test below runs
// engine workers on std::threads, and every thread allocates through these
// hooks.
std::atomic<std::uint64_t> g_alloc_count{0};
std::uint64_t allocation_count() noexcept {
  return g_alloc_count.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  n = (n + align - 1) / align * align;  // C11 aligned_alloc size contract
  if (void* p = std::aligned_alloc(align, n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

// ---------------------------------------------------------------------------
// Scheduler equivalence: the engine's dispatch order must match a reference
// (time, insertion-seq) min-heap across randomized interleavings of plain
// callbacks, self-rescheduling callback chains, and coroutine delay chains.

constexpr int kChainFires = 24;
constexpr int kCoroHops = 24;

struct RefEvent {
  sim::Time t;
  std::uint64_t seq;
  int id;
};
struct RefLater {
  bool operator()(const RefEvent& a, const RefEvent& b) const {
    return a.t != b.t ? a.t > b.t : a.seq > b.seq;
  }
};

struct EqChain {
  sim::Engine* engine;
  sim::Xoshiro256 rng{0};
  int fires_left = 0;
  int id = 0;
  std::vector<int>* observed = nullptr;
};

void eq_chain_fire(EqChain* ch) {
  ch->observed->push_back(ch->id);
  if (--ch->fires_left == 0) return;
  const auto d = sim::ns(static_cast<double>(1 + ch->rng.below(64)));
  ch->engine->schedule(ch->engine->now() + d, [ch] { eq_chain_fire(ch); });
}

sim::Coro<void> eq_coro(sim::Engine& engine, sim::Xoshiro256 rng, int id,
                        std::vector<int>& observed) {
  for (int h = 0; h < kCoroHops; ++h) {
    observed.push_back(id);
    co_await engine.delay(sim::ns(static_cast<double>(1 + rng.below(64))));
  }
  observed.push_back(id);
}

TEST(SchedulerEquivalence, MatchesReferenceHeapAcrossSeeds) {
  for (const std::uint64_t seed : {1u, 7u, 42u, 1234u}) {
    constexpr int kChains = 8;
    constexpr int kCoros = 6;
    constexpr int kOneShots = 32;

    // --- engine run ---
    sim::Engine engine;
    engine.set_audit_interval(0);
    std::vector<int> observed;
    std::vector<EqChain> chains(kChains);
    sim::Xoshiro256 setup(seed);

    // Interleave the three kinds of setup ops in a seeded random order so
    // the insertion-seq assignment itself is part of what the test varies.
    std::vector<int> ops;  // 0..kChains-1 chain, 100+j coro, 200+k one-shot
    for (int i = 0; i < kChains; ++i) ops.push_back(i);
    for (int j = 0; j < kCoros; ++j) ops.push_back(100 + j);
    for (int k = 0; k < kOneShots; ++k) ops.push_back(200 + k);
    for (std::size_t i = ops.size(); i > 1; --i) {
      std::swap(ops[i - 1], ops[setup.below(i)]);
    }

    sim::Xoshiro256 times(seed ^ 0x9E3779B97F4A7C15ull);
    std::vector<sim::Time> oneshot_times(kOneShots);
    for (auto& t : oneshot_times) {
      t = sim::ns(static_cast<double>(times.below(512)));
    }

    for (const int op : ops) {
      if (op < 100) {
        EqChain& ch = chains[static_cast<std::size_t>(op)];
        ch.engine = &engine;
        ch.rng = sim::Xoshiro256(seed * 1000 + static_cast<std::uint64_t>(op));
        ch.fires_left = kChainFires;
        ch.id = op;
        ch.observed = &observed;
        const auto d = sim::ns(static_cast<double>(1 + ch.rng.below(64)));
        EqChain* p = &ch;
        engine.schedule(d, [p] { eq_chain_fire(p); });
      } else if (op < 200) {
        const int j = op - 100;
        engine.spawn(eq_coro(engine,
                             sim::Xoshiro256(seed * 2000 +
                                             static_cast<std::uint64_t>(j)),
                             1000 + j, observed));
      } else {
        const int k = op - 200;
        engine.schedule(oneshot_times[static_cast<std::size_t>(k)],
                        [k, &observed] { observed.push_back(2000 + k); });
      }
    }
    const std::uint64_t processed_before = engine.events_processed();
    engine.run();

    // --- reference model, mirroring the exact same schedule sequence ---
    std::vector<int> expected;
    std::priority_queue<RefEvent, std::vector<RefEvent>, RefLater> ref;
    std::uint64_t ref_seq = 0;
    std::vector<sim::Xoshiro256> chain_rng;
    std::vector<int> chain_left;
    std::vector<sim::Xoshiro256> coro_rng(kCoros, sim::Xoshiro256(0));
    std::vector<int> coro_left(kCoros, 0);
    for (int i = 0; i < kChains; ++i) {
      chain_rng.emplace_back(seed * 1000 + static_cast<std::uint64_t>(i));
      chain_left.push_back(kChainFires);
    }
    for (const int op : ops) {
      if (op < 100) {
        auto& rng = chain_rng[static_cast<std::size_t>(op)];
        const auto d = sim::ns(static_cast<double>(1 + rng.below(64)));
        ref.push(RefEvent{d, ref_seq++, op});
      } else if (op < 200) {
        const int j = op - 100;
        coro_rng[static_cast<std::size_t>(j)] =
            sim::Xoshiro256(seed * 2000 + static_cast<std::uint64_t>(j));
        coro_left[static_cast<std::size_t>(j)] = kCoroHops;
        ref.push(RefEvent{0, ref_seq++, 1000 + j});  // spawn resume at t=0
      } else {
        ref.push(RefEvent{oneshot_times[static_cast<std::size_t>(op - 200)],
                          ref_seq++, 2000 + (op - 200)});
      }
    }
    std::uint64_t ref_processed = 0;
    while (!ref.empty()) {
      const RefEvent ev = ref.top();
      ref.pop();
      ++ref_processed;
      expected.push_back(ev.id);
      if (ev.id < 100) {  // chain: reschedules until its fires run out
        const auto i = static_cast<std::size_t>(ev.id);
        if (--chain_left[i] != 0) {
          const auto d = sim::ns(static_cast<double>(1 + chain_rng[i].below(64)));
          ref.push(RefEvent{ev.t + d, ref_seq++, ev.id});
        }
      } else if (ev.id < 2000) {  // coro: one wake per remaining hop
        const auto j = static_cast<std::size_t>(ev.id - 1000);
        if (coro_left[j]-- != 0) {
          const auto d = sim::ns(static_cast<double>(1 + coro_rng[j].below(64)));
          ref.push(RefEvent{ev.t + d, ref_seq++, ev.id});
        }
      }
    }

    EXPECT_EQ(observed, expected) << "seed " << seed;
    EXPECT_EQ(engine.events_processed() - processed_before, ref_processed)
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Sharded-scheduler equivalence: the windowed sharded path (DESIGN.md §12)
// must match a reference model of per-shard (time, insertion-seq) heaps
// advanced in lookahead windows with the documented (time, source-shard,
// stage-order) boundary merge — and must match it at every worker count,
// both when every window is busy on all shards and when most windows have
// one busy shard (run inline) and the rest several (run through the gate).

constexpr int kShShards = 4;
constexpr int kShChainsPerShard = 6;
constexpr int kShFires = 48;
const sim::Duration kShLookahead = sim::us(1);

struct ShChain {
  sim::Engine* engine;
  sim::Xoshiro256 rng{0};
  int shard = 0;
  int id = 0;
  int fires_left = 0;
  bool sparse = false;
  std::vector<std::vector<int>>* observed = nullptr;  // one log per shard
};

/// A chain's next step. With `sparse`, chains off shard 0 step 1024x
/// further (tens of lookaheads), so many windows hold work on one shard.
sim::Duration sh_delay(sim::Xoshiro256& rng, int shard, bool sparse) {
  const auto d = sim::ns(static_cast<double>(1 + rng.below(64)));
  return sparse && shard != 0 ? 1024 * d : d;
}

void sh_chain_fire(ShChain* ch) {
  (*ch->observed)[static_cast<std::size_t>(ch->shard)].push_back(ch->id);
  if (--ch->fires_left == 0) return;
  if (ch->fires_left % 4 == 0) {
    // Cross-shard one-shot: lands at now + lookahead (+ jitter), which is
    // always at/after the window end because now >= the window floor.
    const int dst = (ch->shard + 1) % kShShards;
    const int xid = 1000 + ch->id * 100 + ch->fires_left;
    const auto at = ch->engine->now() + kShLookahead +
                    sim::ns(static_cast<double>(1 + ch->rng.below(32)));
    auto* obs = ch->observed;
    ch->engine->schedule(
        at, [obs, dst, xid] { (*obs)[static_cast<std::size_t>(dst)].push_back(xid); },
        dst);
  }
  const auto d = sh_delay(ch->rng, ch->shard, ch->sparse);
  ch->engine->schedule(ch->engine->now() + d, [ch] { sh_chain_fire(ch); }, ch->shard);
}

TEST(SchedulerEquivalence, ShardedPathMatchesReferenceWindowModel) {
  for (const bool sparse : {false, true}) {
  for (const std::uint64_t seed : {3u, 17u, 99u}) {
    // --- reference: per-shard heaps + window loop in plain code ---
    struct RefStaged {
      sim::Time t;
      int src;
      std::size_t idx;  // append order within the (src, dst) outbox
      int xid;
    };
    std::vector<std::priority_queue<RefEvent, std::vector<RefEvent>, RefLater>>
        heaps(kShShards);
    std::vector<std::uint64_t> seqs(kShShards, 0);
    std::vector<sim::Xoshiro256> rngs;
    std::vector<int> fires(kShShards * kShChainsPerShard, kShFires);
    std::vector<std::vector<int>> expected(kShShards);
    for (int c = 0; c < kShShards * kShChainsPerShard; ++c) {
      rngs.emplace_back(seed * 777 + static_cast<std::uint64_t>(c));
      const int shard = c / kShChainsPerShard;
      const auto d = sh_delay(rngs.back(), shard, sparse);
      heaps[static_cast<std::size_t>(shard)].push(
          RefEvent{d, seqs[static_cast<std::size_t>(shard)]++, c});
    }
    std::uint64_t ref_events = 0;
    std::uint64_t ref_windows = 0;
    for (;;) {
      sim::Time t0 = -1;
      for (const auto& h : heaps) {
        if (!h.empty() && (t0 < 0 || h.top().t < t0)) t0 = h.top().t;
      }
      if (t0 < 0) break;
      ++ref_windows;
      const sim::Time wend = t0 + kShLookahead;
      // outboxes[src][dst], staged in dispatch order per pair
      std::vector<std::vector<std::vector<RefStaged>>> outboxes(
          kShShards, std::vector<std::vector<RefStaged>>(kShShards));
      for (int s = 0; s < kShShards; ++s) {
        auto& heap = heaps[static_cast<std::size_t>(s)];
        while (!heap.empty() && heap.top().t < wend) {
          const RefEvent ev = heap.top();
          heap.pop();
          ++ref_events;
          expected[static_cast<std::size_t>(s)].push_back(ev.id);
          if (ev.id >= 1000) continue;  // staged one-shot: no reschedule
          auto& rng = rngs[static_cast<std::size_t>(ev.id)];
          auto& left = fires[static_cast<std::size_t>(ev.id)];
          if (--left == 0) continue;
          if (left % 4 == 0) {
            const int dst = (s + 1) % kShShards;
            const int xid = 1000 + ev.id * 100 + left;
            const auto at =
                ev.t + kShLookahead + sim::ns(static_cast<double>(1 + rng.below(32)));
            auto& box = outboxes[static_cast<std::size_t>(s)][static_cast<std::size_t>(dst)];
            box.push_back(RefStaged{at, s, box.size(), xid});
          }
          const auto d = sh_delay(rng, s, sparse);
          heap.push(RefEvent{ev.t + d, seqs[static_cast<std::size_t>(s)]++, ev.id});
        }
      }
      // Boundary merge: (time, source shard, stage order), then destination
      // seqs assigned in exactly that order.
      for (int dst = 0; dst < kShShards; ++dst) {
        std::vector<RefStaged> merged;
        for (int src = 0; src < kShShards; ++src) {
          const auto& box =
              outboxes[static_cast<std::size_t>(src)][static_cast<std::size_t>(dst)];
          merged.insert(merged.end(), box.begin(), box.end());
        }
        std::sort(merged.begin(), merged.end(),
                  [](const RefStaged& a, const RefStaged& b) {
                    if (a.t != b.t) return a.t < b.t;
                    if (a.src != b.src) return a.src < b.src;
                    return a.idx < b.idx;
                  });
        for (const RefStaged& st : merged) {
          heaps[static_cast<std::size_t>(dst)].push(
              RefEvent{st.t, seqs[static_cast<std::size_t>(dst)]++, st.xid});
        }
      }
    }

    // --- engine runs at several worker counts; all must match the model ---
    for (const int threads : {1, 2, 4}) {
      sim::Engine engine;
      engine.set_audit_interval(0);
      engine.configure_sharding(
          {.shards = kShShards, .threads = threads, .lookahead = kShLookahead});
      std::vector<std::vector<int>> observed(kShShards);
      std::vector<ShChain> chains(kShShards * kShChainsPerShard);
      for (int c = 0; c < kShShards * kShChainsPerShard; ++c) {
        ShChain& ch = chains[static_cast<std::size_t>(c)];
        ch.engine = &engine;
        ch.rng = sim::Xoshiro256(seed * 777 + static_cast<std::uint64_t>(c));
        ch.shard = c / kShChainsPerShard;
        ch.id = c;
        ch.fires_left = kShFires;
        ch.sparse = sparse;
        ch.observed = &observed;
        const auto d = sh_delay(ch.rng, ch.shard, sparse);
        ShChain* p = &ch;
        engine.schedule(d, [p] { sh_chain_fire(p); }, ch.shard);
      }
      engine.run();
      EXPECT_EQ(engine.events_processed(), ref_events)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(engine.windows(), ref_windows)
          << "seed " << seed << " threads " << threads;
      if (sparse && threads > 1) {
        // Both window paths ran, most windows inline.
        EXPECT_GT(engine.gated_windows(), 0u) << "seed " << seed;
        EXPECT_LT(2 * engine.gated_windows(), engine.windows()) << "seed " << seed;
      }
      for (int s = 0; s < kShShards; ++s) {
        EXPECT_EQ(observed[static_cast<std::size_t>(s)],
                  expected[static_cast<std::size_t>(s)])
            << "sparse " << sparse << " seed " << seed << " threads " << threads
            << " shard " << s;
      }
    }
  }
  }
}

// ---------------------------------------------------------------------------
// Allocation freedom: once slabs, heap storage, and switch buffers are
// warmed, dispatching events and stepping the switch must never reach the
// allocator.

struct AllocChain {
  sim::Engine* engine;
  int n = 0;
  std::uint64_t at_warm = 0;
  std::uint64_t at_end = 0;
};
constexpr int kAllocWarm = 2000;
constexpr int kAllocTotal = 6000;

void alloc_chain_tick(AllocChain* st) {
  ++st->n;
  if (st->n == kAllocWarm) st->at_warm = allocation_count();
  if (st->n == kAllocTotal) {
    st->at_end = allocation_count();
    return;
  }
  st->engine->schedule(st->engine->now() + sim::ns(3), [st] { alloc_chain_tick(st); });
}

TEST(AllocationFree, EngineSteadyStateDispatch) {
  // The counting hook must actually be linked in, or the zero-delta
  // assertions below would pass vacuously.
  const std::uint64_t sanity = allocation_count();
  std::vector<int> probe(64);
  ASSERT_GT(allocation_count(), sanity);
  probe.clear();

  sim::Engine engine;
  engine.set_audit_interval(0);
  AllocChain st{&engine};
  AllocChain* p = &st;
  engine.schedule(sim::ns(1), [p] { alloc_chain_tick(p); });
  // A coroutine delay chain alongside, so the handle-slab path is inside
  // the measured window too. Its frame is allocated at spawn (warm-up).
  engine.spawn([](sim::Engine& eng) -> sim::Coro<void> {
    for (int h = 0; h < kAllocTotal; ++h) co_await eng.delay(sim::ns(2));
  }(engine));
  engine.run();
  ASSERT_EQ(st.n, kAllocTotal);
  EXPECT_EQ(st.at_end, st.at_warm)
      << "Engine::run() dispatch allocated in the steady-state window";
}

// Two shards on two threads whose windows alternate between one busy shard
// (run inline on the coordinator) and both busy (run through the worker
// gate), with cross-shard sends through the window-close merge. Shard 0
// ticks every 2 us and snapshots the counter; shard 1 ticks every 4 us, on
// shard 0's even ticks, and each tick sends a one-shot onto shard 0 that
// lands exactly at the window end.
struct ShardedAllocState {
  sim::Engine* engine;
  AllocChain meter{};  // shard 0's tick count and the counter snapshots
  int slow_ticks = 0;  // shard 1
  int one_shots = 0;   // delivered on shard 0
};
const sim::Duration kAllocLookahead = sim::us(1);

void alloc_fast_tick(ShardedAllocState* st) {
  AllocChain& m = st->meter;
  ++m.n;
  if (m.n == kAllocWarm) m.at_warm = allocation_count();
  if (m.n == kAllocTotal) {
    m.at_end = allocation_count();
    return;
  }
  st->engine->schedule(st->engine->now() + sim::us(2),
                       [st] { alloc_fast_tick(st); }, 0);
}

void alloc_slow_tick(ShardedAllocState* st) {
  if (++st->slow_ticks == kAllocTotal / 2) return;
  st->engine->schedule(st->engine->now() + kAllocLookahead,
                       [st] { ++st->one_shots; }, 0);
  st->engine->schedule(st->engine->now() + sim::us(4),
                       [st] { alloc_slow_tick(st); }, 1);
}

TEST(AllocationFree, ShardedInlineAndGatedWindows) {
  sim::Engine engine;
  engine.set_audit_interval(0);
  engine.configure_sharding(
      {.shards = 2, .threads = 2, .lookahead = kAllocLookahead});
  ShardedAllocState st{&engine};
  ShardedAllocState* p = &st;
  engine.schedule(0, [p] { alloc_fast_tick(p); }, 0);
  engine.schedule(0, [p] { alloc_slow_tick(p); }, 1);
  engine.run();
  ASSERT_EQ(st.meter.n, kAllocTotal);
  ASSERT_EQ(st.slow_ticks, kAllocTotal / 2);
  EXPECT_EQ(st.one_shots, kAllocTotal / 2 - 1);
  // Windows at 4k us are gated (both shards), at 4k+1 and 4k+2 us inline.
  EXPECT_EQ(engine.gated_windows(), static_cast<std::uint64_t>(kAllocTotal / 2));
  EXPECT_GT(engine.windows(), 2 * engine.gated_windows());
  EXPECT_EQ(st.meter.at_end, st.meter.at_warm)
      << "inline or gated sharded windows allocated in the steady state";
}

TEST(AllocationFree, CycleSwitchStepSteadyState) {
  dvnet::CycleSwitch sw(dvnet::Geometry{8, 4});
  const int ports = sw.geometry().ports();
  sim::Xoshiro256 rng(5);
  // Warm-up at full saturation: every buffer, slab, and worklist reaches a
  // high-water mark no sub-saturation steady state will exceed.
  for (int round = 0; round < 64; ++round) {
    for (int p = 0; p < ports; ++p) {
      sw.inject(p, static_cast<int>(rng.below(static_cast<std::uint64_t>(ports))));
    }
    sw.step();
  }
  ASSERT_TRUE(sw.drain());
  const std::uint64_t before = allocation_count();
  for (int cyc = 0; cyc < 4096; ++cyc) {
    for (int p = 0; p < ports; ++p) {
      if (rng.chance(0.15)) {
        sw.inject(p, static_cast<int>(rng.below(static_cast<std::uint64_t>(ports))));
      }
    }
    sw.step();
  }
  ASSERT_TRUE(sw.drain());
  EXPECT_EQ(allocation_count(), before)
      << "CycleSwitch::step() allocated in the steady-state window";
}

// ---------------------------------------------------------------------------
// Deep per-port backlog: with head-indexed ring queues a drain's cost is
// linear in the backlog. Before the rework, pop-front was an O(n) erase and
// this workload (tens of thousands of packets queued on two ports) took
// quadratic time in the queue depth.

TEST(CycleSwitchPerf, DeepPerPortBacklogDrainsInBoundedTime) {
  dvnet::CycleSwitch sw(dvnet::Geometry{8, 4});
  const int ports = sw.geometry().ports();
  sim::Xoshiro256 rng(11);
  constexpr int kPerPort = 1 << 15;
  const auto host_start = std::chrono::steady_clock::now();  // det-lint: allow(system_clock) -- host-time drain bound only
  for (int i = 0; i < kPerPort; ++i) {
    for (int p = 0; p < 2; ++p) {
      sw.inject(p, static_cast<int>(rng.below(static_cast<std::uint64_t>(ports))));
    }
  }
  EXPECT_EQ(sw.queued(), static_cast<std::size_t>(2 * kPerPort));
  ASSERT_TRUE(sw.drain(500'000)) << "deep backlog failed to drain";
  const double host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -  // det-lint: allow(system_clock) -- host-time drain bound only
                                    host_start)
          .count();
  EXPECT_EQ(sw.queued(), 0u);
  EXPECT_EQ(sw.injected_total(), static_cast<std::uint64_t>(2 * kPerPort));
  EXPECT_EQ(sw.delivered_total(), sw.injected_total());
  // Generous for shared CI machines; the quadratic behavior this guards
  // against took minutes at this depth.
  EXPECT_LT(host_seconds, 30.0);
}

// ---------------------------------------------------------------------------
// queued() running counter and delivery-statistics exactness.

TEST(CycleSwitch, QueuedCounterTracksBacklog) {
  dvnet::CycleSwitch sw(dvnet::Geometry{8, 4});
  const int ports = sw.geometry().ports();
  for (int i = 0; i < 100; ++i) {
    sw.inject(i % ports, (i * 7) % ports);
  }
  EXPECT_EQ(sw.queued(), 100u);
  EXPECT_EQ(sw.injected_total(), 0u);  // still queued, not yet in the fabric
  sw.step();
  EXPECT_LT(sw.queued(), 100u);
  EXPECT_EQ(sw.queued() + sw.in_flight() + sw.delivered_total(), 100u);
  ASSERT_TRUE(sw.drain());
  EXPECT_EQ(sw.queued(), 0u);
  EXPECT_EQ(sw.delivered_total(), 100u);
}

void expect_stats_equal(const sim::RunningStats& a, const sim::RunningStats& b,
                        const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.variance(), b.variance()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
  EXPECT_EQ(a.total(), b.total()) << what;
}

TEST(CycleSwitch, StatsExactWithDeliveryLogDisabled) {
  dvnet::CycleSwitch logged(dvnet::Geometry{8, 4});
  dvnet::CycleSwitch bare(dvnet::Geometry{8, 4});
  logged.record_deliveries(true);
  EXPECT_TRUE(logged.deliveries_recorded());
  EXPECT_FALSE(bare.deliveries_recorded());

  const int ports = logged.geometry().ports();
  sim::Xoshiro256 rng(99);
  for (int cyc = 0; cyc < 2000; ++cyc) {
    for (int p = 0; p < ports; ++p) {
      if (rng.chance(0.3)) {
        const int dst = static_cast<int>(rng.below(static_cast<std::uint64_t>(ports)));
        logged.inject(p, dst);
        bare.inject(p, dst);
      }
    }
    logged.step();
    bare.step();
  }
  ASSERT_TRUE(logged.drain());
  ASSERT_TRUE(bare.drain());

  ASSERT_EQ(logged.delivered_total(), bare.delivered_total());
  ASSERT_GT(logged.delivered_total(), 0u);
  EXPECT_EQ(logged.deliveries().size(), logged.delivered_total());
  EXPECT_TRUE(bare.deliveries().empty());

  // Identical traffic => bitwise-identical statistics, log or no log.
  expect_stats_equal(logged.latency_stats(), bare.latency_stats(), "latency");
  expect_stats_equal(logged.hop_stats(), bare.hop_stats(), "hops");
  expect_stats_equal(logged.deflection_stats(), bare.deflection_stats(),
                     "deflections");

  // The log replays to exactly the incremental statistics (same fold order).
  sim::RunningStats replay;
  for (const auto& d : logged.deliveries()) {
    replay.add(static_cast<double>(d.eject_cycle - d.inject_cycle));
  }
  expect_stats_equal(replay, logged.latency_stats(), "latency replay");

  // clear_deliveries resets both the log and the since-last-clear stats.
  logged.clear_deliveries();
  EXPECT_TRUE(logged.deliveries().empty());
  EXPECT_EQ(logged.latency_stats().count(), 0u);
  EXPECT_EQ(logged.hop_stats().count(), 0u);
}

}  // namespace
