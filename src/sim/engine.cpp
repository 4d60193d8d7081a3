#include "sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

#include "check/check.hpp"

namespace dvx::sim {

namespace {
// The shard a worker thread is currently dispatching for, so that now() and
// default-shard scheduling resolve to the executing shard. Cleared outside
// windows; the engine pointer disambiguates nested/foreign engines.
thread_local const Engine* tls_engine = nullptr;
thread_local int tls_shard = -1;
// The lookahead-window index published to analyze:: instrumentation while a
// shard window dispatches; 0 outside dispatch.
thread_local std::uint64_t tls_window = 0;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// A waiter polls before it parks, for a budget that follows how its recent
// waits went: doubled when the awaited change came while it spun, halved
// when it had to park. Short waits (sparse gated windows in quick
// succession) are then caught without a futex round trip, and long ones
// (the gaps around dense windows) spin only briefly before the thread
// sleeps instead of burning a core. 32 to 2048 `pause` iterations: about
// 1 to 50 us on a recent Xeon.
constexpr int kMinSpins = 32;
constexpr int kMaxSpins = 2048;

/// Waits until `a` no longer holds `old`; returns the value that ended it.
template <class T>
T spin_then_park(const std::atomic<T>& a, T old, int& spins) noexcept {
  for (int i = 0; i < spins; ++i) {
    const T v = a.load(std::memory_order_acquire);
    if (v != old) {
      spins = std::min(2 * spins, kMaxSpins);
      return v;
    }
    cpu_relax();
  }
  spins = std::max(spins / 2, kMinSpins);
  a.wait(old, std::memory_order_acquire);
  return a.load(std::memory_order_acquire);
}
}  // namespace

// Fork-join gate for windows whose busy shards belong to two or more
// workers. Shard i always runs on worker i % workers (worker 0 is the
// coordinator), so a shard's memory stays with one thread from window to
// window. The coordinator opens a window by bumping `generation_`; workers
// spin for their budget (above), then park on it. `pending_` counts the
// workers still inside the window and the last one out wakes the
// coordinator. The release/acquire pairs on the two counters order all
// shard state handed between threads. Threads start once per run(); the
// destructor stops and joins them on every exit path, a failing window
// included.
class Engine::WorkerPool {
 public:
  WorkerPool(Engine& engine, int workers) : engine_(engine), workers_(workers) {
    threads_.reserve(static_cast<std::size_t>(workers - 1));
    try {
      for (int w = 1; w < workers; ++w) {
        threads_.emplace_back([this, w] { worker_loop(w); });
      }
    } catch (...) {
      stop();  // joins the threads that did start
      throw;
    }
  }
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  ~WorkerPool() { stop(); }

  /// Runs the engine's busy shards on their workers, the calling coordinator
  /// included; returns when all of them are done.
  void run_window() {
    pending_.store(workers_ - 1, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    run_share(0);
    for (int left = pending_.load(std::memory_order_acquire); left != 0;) {
      left = spin_then_park(pending_, left, coordinator_spins_);
    }
  }

 private:
  void worker_loop(int w) {
    std::uint32_t seen = 0;
    int spins = kMaxSpins;
    for (;;) {
      seen = spin_then_park(generation_, seen, spins);
      if (stop_) return;
      run_share(w);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        pending_.notify_one();
      }
    }
  }

  void stop() noexcept {
    stop_ = true;
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    for (auto& t : threads_) t.join();
  }

  void run_share(int w) {
    for (const int shard : engine_.busy_) {
      if (shard % workers_ == w) {
        engine_.run_shard_window(shard, engine_.window_end_);
      }
    }
  }

  Engine& engine_;
  const int workers_;
  bool stop_ = false;  // written before the final generation bump
  int coordinator_spins_ = kMaxSpins;
  alignas(64) std::atomic<std::uint32_t> generation_{0};
  alignas(64) std::atomic<int> pending_{0};
  std::vector<std::thread> threads_;
};

int Engine::current_shard() noexcept { return tls_shard; }

std::uint64_t Engine::current_window() noexcept { return tls_window; }

Engine::Engine() : audit_interval_(check::default_audit_interval()) {
  shards_.resize(1);
  shards_[0].heap.resize(kHeapPad);  // front pad: aligns 4-child groups
  shards_[0].outbox.resize(1);
}

Engine::~Engine() {
  for (auto& r : roots_) {
    if (r.handle) r.handle.destroy();
  }
}

Time Engine::now() const noexcept {
  if (tls_engine == this && tls_shard >= 0) {
    return shards_[static_cast<std::size_t>(tls_shard)].now;
  }
  return now_;
}

void Engine::configure_sharding(const ShardingConfig& config) {
  DVX_CHECK(config.shards >= 1) << "sharding needs at least one shard";
  DVX_CHECK(config.threads >= 1) << "sharding needs at least one thread";
  DVX_CHECK(config.shards == 1 || config.lookahead > 0)
      << "sharded execution needs a positive conservative lookahead";
  DVX_CHECK(config.lookahead >= 0) << "negative lookahead";
  for (const auto& s : shards_) {
    DVX_CHECK(s.heap.size() <= kHeapPad)
        << "cannot reconfigure sharding with events pending";
  }
  sharding_ = config;
  shards_.resize(static_cast<std::size_t>(config.shards));
  for (auto& s : shards_) {
    if (s.heap.size() < kHeapPad) s.heap.resize(kHeapPad);
    s.outbox.resize(static_cast<std::size_t>(config.shards));
    s.now = now_;
  }
  busy_.reserve(static_cast<std::size_t>(config.shards));
}

int Engine::resolve_shard(int shard) const {
  if (shard < 0) {
    return (tls_engine == this && tls_shard >= 0) ? tls_shard : 0;
  }
  DVX_CHECK(shard < static_cast<int>(shards_.size()))
      << "shard " << shard << " out of range (engine has " << shards_.size()
      << ")";
  return shard;
}

void Engine::spawn(Coro<void> coro, Time start, int shard) {
  DVX_CHECK(coro.valid()) << "spawn of an empty/moved-from coroutine";
  const Time now_t = now();
  Root* root = nullptr;
  {
    // Workers may spawn during a window; the deque keeps &done stable, the
    // lock only guards the push. Uncontended at one worker.
    const std::lock_guard<std::mutex> lock(spawn_mutex_);
    roots_.push_back(Root{coro.release(), false});
    root = &roots_.back();
  }
  root->handle.promise().done_flag = &root->done;
  schedule_handle(start < now_t ? now_t : start, root->handle, shard);
}

// Logical heap index i lives at heap[i + kHeapPad]; children of logical i
// are logical 4i+1 .. 4i+4. All index arithmetic below is in logical terms
// with the pad applied at the subscript.

void Engine::heap_push(Shard& s, Time t, std::uint64_t key) {
  auto& heap = s.heap;
  std::size_t i = heap.size() - kHeapPad;
  heap.push_back(HeapEntry{t, key});
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    const HeapEntry p = heap[parent + kHeapPad];
    if (p.t < t || (p.t == t && p.key < key)) break;
    heap[i + kHeapPad] = p;
    i = parent;
  }
  heap[i + kHeapPad] = HeapEntry{t, key};
}

Engine::HeapEntry Engine::heap_pop(Shard& s) {
  auto& heap = s.heap;
  const HeapEntry top = heap[kHeapPad];
  const HeapEntry last = heap.back();
  heap.pop_back();
  const std::size_t n = heap.size() - kHeapPad;
  if (n != 0) {
    // Sift the hole along the min-child path all the way to a leaf, then
    // bubble `last` back up. Compared to the textbook early-exit sift-down
    // this trades a couple of extra moves for the removal of one
    // unpredictable branch per level: the min-of-4 selection compiles to
    // conditional moves and the only data-dependent branches are in the
    // short (expected O(1) levels) bubble-up.
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first + 4 <= n) {  // full child group: branch-free min selection
        std::size_t best = first;
        best = entry_before(heap[first + 1 + kHeapPad], heap[best + kHeapPad])
                   ? first + 1
                   : best;
        best = entry_before(heap[first + 2 + kHeapPad], heap[best + kHeapPad])
                   ? first + 2
                   : best;
        best = entry_before(heap[first + 3 + kHeapPad], heap[best + kHeapPad])
                   ? first + 3
                   : best;
#if defined(__GNUC__) || defined(__clang__)
        // The winner's own child group is the next line the walk reads.
        if (4 * best + 1 + kHeapPad < heap.size()) {
          __builtin_prefetch(&heap[4 * best + 1 + kHeapPad]);
        }
#endif
        heap[i + kHeapPad] = heap[best + kHeapPad];
        i = best;
      } else if (first < n) {  // partial group at the frontier
        std::size_t best = first;
        for (std::size_t c = first + 1; c < n; ++c) {
          if (entry_before(heap[c + kHeapPad], heap[best + kHeapPad])) best = c;
        }
        heap[i + kHeapPad] = heap[best + kHeapPad];
        i = best;
        break;
      } else {
        break;
      }
    }
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!entry_before(last, heap[parent + kHeapPad])) break;
      heap[i + kHeapPad] = heap[parent + kHeapPad];
      i = parent;
    }
    heap[i + kHeapPad] = last;
  }
  return top;
}

std::uint64_t Engine::make_key(Shard& s, std::uint64_t ordinal, bool callback,
                               std::uint32_t slot) {
  // Every packed field is guarded here, at the single point where the key
  // is assembled: a slot above kSlotMask, or a seq or ordinal at kMaxSeq,
  // would silently corrupt the (time, class, seq) comparison order.
  DVX_CHECK(slot <= kSlotMask)
      << "event slot " << slot << " overflows the " << kSlotBits
      << "-bit key field";
  std::uint64_t cls_seq;
  if (ordinal == kNoOrdinal) {
    DVX_CHECK(s.next_seq < kMaxSeq) << "event sequence space exhausted";
    cls_seq = kDispatchClass | (s.next_seq++ << kKeyShift);
  } else {
    DVX_CHECK(ordinal < kMaxSeq) << "resolution ordinal space exhausted";
    cls_seq = ordinal << kKeyShift;
  }
  return cls_seq | (callback ? kCallbackBit : 0) | slot;
}

std::uint64_t Engine::take_ordinal() {
  DVX_CHECK(!in_window())
      << "resolution ordinals are drawn at window close, not inside a window";
  DVX_CHECK(next_ordinal_ < kMaxSeq) << "resolution ordinal space exhausted";
  return next_ordinal_++;
}

bool Engine::in_window() const noexcept {
  return tls_engine == this && tls_shard >= 0;
}

std::uint32_t Engine::push_event(Shard& s, Time t, std::uint64_t ordinal,
                                 bool callback, std::coroutine_handle<> h,
                                 std::function<void()>&& fn) {
  std::uint32_t slot;
  if (!callback) {
    if (!s.handle_free.empty()) {
      slot = s.handle_free.back();
      s.handle_free.pop_back();
      s.handle_slab[slot] = h;
    } else {
      slot = static_cast<std::uint32_t>(s.handle_slab.size());
      DVX_CHECK(slot <= kSlotMask) << "too many outstanding coroutine events";
      s.handle_slab.push_back(h);
    }
  } else {
    if (!s.fn_free.empty()) {
      slot = s.fn_free.back();
      s.fn_free.pop_back();
      s.fn_slab[slot] = std::move(fn);
    } else {
      slot = static_cast<std::uint32_t>(s.fn_slab.size());
      DVX_CHECK(slot <= kSlotMask) << "too many outstanding callback events";
      s.fn_slab.push_back(std::move(fn));
    }
  }
  heap_push(s, t, make_key(s, ordinal, callback, slot));
  return slot;
}

void Engine::schedule_handle(Time t, std::coroutine_handle<> h, int shard) {
  schedule_event(t, h, {}, shard);
}

void Engine::schedule(Time t, std::function<void()> fn, int shard) {
  schedule_event(t, {}, std::move(fn), shard);
}

void Engine::schedule_event(Time t, std::coroutine_handle<> h,
                            std::function<void()>&& fn, int shard) {
  const int dst = resolve_shard(shard);
  const int cur = (tls_engine == this) ? tls_shard : -1;
  if (cur >= 0 && dst != cur) {
    // Cross-shard from inside a window: stage for the barrier merge. The
    // conservative guarantee — nothing scheduled inside a window may land
    // before the window ends — is what makes concurrent shard execution
    // equivalent to the global (time, seq) order.
    DVX_CHECK(t >= window_end_)
        << "cross-shard event violates the lookahead window: t=" << t
        << " window_end=" << window_end_ << " (lookahead too large?)";
    shards_[static_cast<std::size_t>(cur)]
        .outbox[static_cast<std::size_t>(dst)]
        .push_back(Staged{t, h, std::move(fn)});
    return;
  }
  Shard& s = shards_[static_cast<std::size_t>(dst)];
  DVX_CHECK(t >= s.now) << "cannot schedule into the past: t=" << t
                        << " now=" << s.now;
  // A window-close hook keys what it schedules by a fresh resolution ordinal.
  push_event(s, t, in_hooks_ ? take_ordinal() : kNoOrdinal, /*callback=*/!h, h,
             std::move(fn));
}

Engine::WakeRef Engine::schedule_wake(Time t, std::uint64_t ordinal,
                                      std::coroutine_handle<> h, int shard) {
  const int dst = resolve_shard(shard);
  const int cur = (tls_engine == this) ? tls_shard : -1;
  DVX_CHECK(cur < 0 || dst == cur)
      << "a wake is scheduled on its own shard or from a window hook";
  Shard& s = shards_[static_cast<std::size_t>(dst)];
  DVX_CHECK(t >= s.now) << "cannot schedule a wake into the past: t=" << t
                        << " now=" << s.now;
  return WakeRef{dst, push_event(s, t, ordinal, /*callback=*/false, h, {})};
}

void Engine::cancel_wake(WakeRef& w) noexcept {
  if (!w.armed()) return;
  // The heap entry stays; dispatch_one drops it when it surfaces and only
  // then frees the slot, so the slot cannot be reused before that.
  shards_[static_cast<std::size_t>(w.shard)].handle_slab[w.slot] = {};
  w = {};
}

void Engine::add_window_hook(const void* owner, std::function<void()> hook) {
  DVX_CHECK(owner != nullptr && hook != nullptr);
  remove_window_hook(owner);
  window_hooks_.emplace_back(owner, std::move(hook));
}

void Engine::remove_window_hook(const void* owner) noexcept {
  std::erase_if(window_hooks_,
                [owner](const auto& h) { return h.first == owner; });
}

void Engine::add_auditor(check::InvariantAuditor* auditor) {
  DVX_CHECK(auditor != nullptr);
  auditors_.push_back(auditor);
}

void Engine::remove_auditor(check::InvariantAuditor* auditor) noexcept {
  auditors_.erase(std::remove(auditors_.begin(), auditors_.end(), auditor),
                  auditors_.end());
}

void Engine::run_audits() {
  // Level-2 headroom audit: the per-shard seq counters must stay inside the
  // representable key range (make_key aborts the run at the edge; this
  // catches a counter drifting toward it between dispatches).
  for (const auto& s : shards_) {
    DVX_CHECK_SOON(s.next_seq < kMaxSeq)
        << "insertion-seq counter left the representable range";
  }
  DVX_CHECK_SOON(next_ordinal_ < kMaxSeq)
      << "resolution ordinal counter left the representable range";
  if (auditors_.empty()) return;
  ++audits_run_;
  for (auto* a : auditors_) a->audit(now_);
}

void Engine::set_next_seq_for_test(std::uint64_t seq, int shard) {
  shards_.at(static_cast<std::size_t>(shard)).next_seq = seq;
}

bool Engine::dispatch_one(Shard& s) {
#if defined(__GNUC__) || defined(__clang__)
  {
    // Start the payload fetch before the sift-down: the slab slot of the
    // event about to fire is random relative to insertion order, and the
    // O(log n) sift gives the line time to arrive.
    const std::uint64_t top_key = s.heap[kHeapPad].key;
    const auto top_slot = static_cast<std::uint32_t>(top_key & kSlotMask);
    if ((top_key & kCallbackBit) == 0) {
      __builtin_prefetch(&s.handle_slab[top_slot]);
    } else {
      __builtin_prefetch(&s.fn_slab[top_slot]);
    }
  }
#endif
  const HeapEntry ev = heap_pop(s);
  const auto slot = static_cast<std::uint32_t>(ev.key & kSlotMask);
  if ((ev.key & kCallbackBit) == 0 && !s.handle_slab[slot]) {
    s.handle_free.push_back(slot);  // a cancelled wake
    return false;
  }
  // Event-time monotonicity: the queue must never yield an event behind
  // the clock (would reorder causally dependent wake-ups).
  DVX_CHECK(ev.t >= s.now) << "non-monotonic event: t=" << ev.t
                           << " behind now=" << s.now;
  s.now = ev.t;
#if DVX_CHECK_LEVEL >= 1
  check::context().sim_time_ps = ev.t;
#endif
  ++s.events;
  if ((ev.key & kCallbackBit) == 0) {
    // Free the slot before resuming: the resumed coroutine may schedule
    // again and should find its own slot first on the free list.
    const std::coroutine_handle<> h = s.handle_slab[slot];
    s.handle_slab[slot] = {};
    s.handle_free.push_back(slot);
    h.resume();
  } else {
    // Move the callback out first — running it may schedule into the slab
    // and invalidate references. Moving never allocates; the slot object
    // is recycled for the next callback of this size class.
    std::function<void()> fn = std::move(s.fn_slab[slot]);
    s.fn_slab[slot] = nullptr;
    s.fn_free.push_back(slot);
    fn();
  }
  return true;
}

Time Engine::run() {
  DVX_CHECK(window_hooks_.empty() || sharding_.lookahead > 0)
      << "window hooks need a windowed engine (a positive lookahead)";
  in_hooks_ = false;  // a hook that threw out of the last run left it set
  const int workers = std::max(1, std::min(sharding_.threads, shards()));
  WorkerPool pool(*this, workers);  // no threads at workers == 1
  for (;;) {
    const Time t0 = next_window_floor();
    if (t0 < 0) break;
    // A zero lookahead (one shard, no hooks) has no cross-shard event to
    // bound: its one window runs until the heap drains.
    window_end_ = sharding_.lookahead > 0 ? t0 + sharding_.lookahead
                                          : std::numeric_limits<Time>::max();
    ++window_seq_;
    now_ = std::max(now_, t0);
    if (collect_busy_shards(workers)) {
      ++gated_windows_;
      pool.run_window();
    } else {
      // Every busy shard belongs to one worker (at one busy shard, or with
      // no workers, always): nothing could overlap, and the idle shards
      // stay idle for the whole window because cross-shard events land at
      // or after its end. Which thread runs a shard never changes its
      // trajectory, so the coordinator runs the window itself.
      for (const int shard : busy_) run_shard_window(shard, window_end_);
    }
    close_window();
  }
  return finish_run();
}

Time Engine::next_window_floor() {
  Time t0 = -1;
  for (auto& s : shards_) {
    // A cancelled wake at a heap top must not set the floor: it would open
    // a window of its own and move the engine clock to its time.
    drop_cancelled_tops(s);
    if (s.heap.size() > kHeapPad) {
      const Time top = s.heap[kHeapPad].t;
      if (t0 < 0 || top < t0) t0 = top;
    }
  }
  return t0;  // -1: every shard drained
}

void Engine::drop_cancelled_tops(Shard& s) {
  while (s.heap.size() > kHeapPad) {
    const std::uint64_t key = s.heap[kHeapPad].key;
    const auto slot = static_cast<std::uint32_t>(key & kSlotMask);
    if ((key & kCallbackBit) != 0 || s.handle_slab[slot]) return;
    heap_pop(s);
    s.handle_free.push_back(slot);
  }
}

void Engine::run_shard_window(int shard, Time window_end) {
  Shard& s = shards_[static_cast<std::size_t>(shard)];
  tls_engine = this;
  tls_shard = shard;
  // window_seq_ was advanced by the coordinator before it opened the window
  // (inline, or through the gate's release), so every shard of one window
  // sees the same id.
  tls_window = window_seq_;
  try {
    while (s.heap.size() > kHeapPad && s.heap[kHeapPad].t < window_end) {
      dispatch_one(s);
    }
  } catch (...) {
    if (!s.failure) s.failure = std::current_exception();
  }
  tls_engine = nullptr;
  tls_shard = -1;
  tls_window = 0;
}

bool Engine::collect_busy_shards(int workers) {
  busy_.clear();
  bool spread = false;  // busy shards on two or more workers
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = shards_[i];
    if (s.heap.size() > kHeapPad && s.heap[kHeapPad].t < window_end_) {
      const int shard = static_cast<int>(i);
      if (!busy_.empty() && shard % workers != busy_.front() % workers) {
        spread = true;
      }
      busy_.push_back(shard);
    }
  }
  return spread;
}

void Engine::rethrow_shard_failure() {
  for (auto& s : shards_) {
    if (s.failure) {
      std::exception_ptr e = std::exchange(s.failure, nullptr);
      std::rethrow_exception(e);
    }
  }
}

void Engine::merge_mailboxes() {
  // Deterministic boundary merge: for each destination, staged events from
  // every source outbox are ordered by (time, source shard, stage order)
  // and only then assigned destination insertion-seqs. The order is a pure
  // function of the window's simulation content — worker interleaving
  // cannot touch it, which is what keeps output byte-identical at any
  // thread count.
  std::vector<MergeRef>& order = merge_order_;
  const auto n = shards_.size();
  for (std::size_t dst = 0; dst < n; ++dst) {
    order.clear();
    for (std::size_t src = 0; src < n; ++src) {
      const auto& box = shards_[src].outbox[dst];
      for (std::size_t i = 0; i < box.size(); ++i) {
        order.push_back(MergeRef{box[i].t, static_cast<int>(src), i});
      }
    }
    if (order.empty()) continue;
    std::sort(order.begin(), order.end(),
              [](const MergeRef& a, const MergeRef& b) {
                if (a.t != b.t) return a.t < b.t;
                if (a.src != b.src) return a.src < b.src;
                return a.idx < b.idx;
              });
    Shard& d = shards_[dst];
    for (const MergeRef& ref : order) {
      Staged& e = shards_[static_cast<std::size_t>(ref.src)].outbox[dst][ref.idx];
      DVX_CHECK(e.t >= d.now)
          << "merged cross-shard event behind the destination clock";
      if (e.h) {
        push_event(d, e.t, kNoOrdinal, /*callback=*/false, e.h, {});
      } else {
        push_event(d, e.t, kNoOrdinal, /*callback=*/true, {}, std::move(e.fn));
      }
    }
    for (std::size_t src = 0; src < n; ++src) {
      shards_[src].outbox[dst].clear();
    }
  }
}

void Engine::close_window() {
  rethrow_shard_failure();
  // Window hooks run in registration order on this (coordinator) thread,
  // outside any shard context: fabric models resolve their staged
  // cross-shard operations here in a canonical, layout-invariant order.
  in_hooks_ = true;
  for (auto& [owner, hook] : window_hooks_) hook();
  in_hooks_ = false;
  merge_mailboxes();
  if (audit_interval_ != 0) {
    const std::uint64_t total = events_processed();
    if (total - last_audit_events_ >= audit_interval_) {
      run_audits();
      last_audit_events_ = total;
    }
  }
}

Time Engine::finish_run() {
  for (auto& s : shards_) {
    now_ = std::max(now_, s.now);
    // The heap drained: no live entry can tie with a future one, so the
    // tie-break counter rewinds and kMaxSeq bounds a busy period, not a run.
    s.next_seq = 0;
  }
  next_ordinal_ = 0;
  last_audit_events_ = events_processed();
  run_audits();  // drain-time sweep: short runs get audited too
  // Surface failures from simulated processes to the caller (tests rely on it).
  for (auto& r : roots_) {
    if (r.handle && r.handle.promise().exception) {
      std::rethrow_exception(r.handle.promise().exception);
    }
  }
  return now_;
}

std::uint64_t Engine::events_processed() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s.events;
  return total;
}

bool Engine::all_done() const noexcept {
  for (const auto& r : roots_) {
    if (!r.done) return false;
  }
  return true;
}

}  // namespace dvx::sim
