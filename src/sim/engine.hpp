#pragma once
// Discrete-event simulation engine.
//
// Deterministic: events fire in (time, insertion-seq) order within one
// event-ordering shard. Top-level simulated processes are Coro<void>
// coroutines registered through spawn(); they suspend on awaitables (delay,
// conditions, communication ops) and the engine resumes them at the correct
// virtual time.
//
// Hot-path layout (DESIGN.md §10): each shard's ready queue is an
// index-based 4-ary min-heap over 16-byte POD entries — sift operations
// move (time, key) pairs, never payloads. Payloads live in recycled
// side-slabs (one for coroutine handles, one for the rarer std::function
// callbacks) addressed by a slot id packed into the low bits of the
// comparison key, so steady-state dispatch performs zero heap allocations.
//
// Windowed execution (DESIGN.md §12): configure_sharding() splits the engine
// into S independent shards, each owning a private heap/slab set, a local
// clock, and a local insertion-seq counter. run() always advances in
// conservative lookahead windows [T0, T0 + lookahead); a zero lookahead
// (one shard, no hooks) opens one window over the whole busy period. The
// shards with events inside the window dispatch them concurrently on up to
// `threads` workers (shard state is disjoint, so no locks), and any event
// one shard schedules onto another is staged into a per-destination
// mailbox. Shard i runs on worker i % threads; a window whose busy shards
// all belong to one worker (in particular, a window with one busy shard)
// runs inline on the coordinator thread, and only the others open the
// spin-then-park worker gate. At window close the mailboxes are merged in
// deterministic (time, source-shard, stage-order) order and only then
// assigned destination insertion-seqs, so the dispatch trajectory depends
// on the shard layout alone — never on the worker-thread count or on which
// thread ran a window.
// Cross-shard events must land at or after the window end; the lookahead is
// derived from the minimum cross-node latency of the network models
// (net::Interconnect::lookahead, vic::DvFabric::min_remote_latency), which
// makes the conservative guarantee physical.
//
// Window-close hooks (DESIGN.md §15.1) apply the fabric models' staged
// effects; an event a hook schedules at t fires before the dispatch-scheduled
// events at t, ordered by a global resolution ordinal (take_ordinal()), so
// where a window closed never shows. schedule_wake() gives a waiter one
// re-armable wake keyed by the ordinal of the effect that satisfies it.

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <new>
#include <vector>

#include "check/audit.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace dvx::sim {

/// How Engine::run() executes: `shards` independent event-ordering domains
/// advanced in conservative `lookahead` windows by up to `threads` workers.
/// The dispatch trajectory (and therefore every simulation output) is a
/// function of `shards` and `lookahead` only; `threads` is pure execution
/// parallelism and never changes results. The default (1/1/0) is one shard
/// whose single window spans each busy period; it cannot run window hooks.
struct ShardingConfig {
  int shards = 1;        ///< event-ordering domains (>= 1)
  int threads = 1;       ///< worker threads inside a window (>= 1)
  Duration lookahead = 0;  ///< window width; 0 = unbounded, needs shards == 1
};

class Engine {
 public:
  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Current virtual time: the dispatching shard's clock when called from
  /// inside an event, the engine-wide clock otherwise.
  Time now() const noexcept;

  /// Sets the shard layout, worker count and window width. Must be called
  /// while no events are pending (typically right after construction);
  /// reconfiguring with a loaded queue would strand events in the old shard
  /// layout.
  void configure_sharding(const ShardingConfig& config);
  const ShardingConfig& sharding() const noexcept { return sharding_; }
  int shards() const noexcept { return static_cast<int>(shards_.size()); }

  /// Registers a top-level process; it starts at virtual time `start` on
  /// shard `shard` (-1 = the scheduling shard, shard 0 outside dispatch).
  void spawn(Coro<void> coro, Time start = -1, int shard = -1);

  /// Schedules a coroutine resume at absolute time t (must be >= now()) on
  /// shard `shard` (-1 = the scheduling shard). Cross-shard schedules from
  /// inside a window must satisfy the conservative bound t >= window end.
  void schedule_handle(Time t, std::coroutine_handle<> h, int shard = -1);

  /// Schedules a plain callback at absolute time t; same shard rules.
  void schedule(Time t, std::function<void()> fn, int shard = -1);

  /// Runs until every shard's event queue drains. Returns the final virtual
  /// time. Rethrows the first exception that escaped any spawned process.
  Time run();

  /// True when every spawned process has run to completion.
  bool all_done() const noexcept;

  /// Number of processes spawned so far.
  std::size_t spawned() const noexcept { return roots_.size(); }

  /// Total events dispatched across all shards (diagnostics).
  std::uint64_t events_processed() const noexcept;

  /// Lookahead windows opened so far; a cancelled wake opens none. A
  /// function of the trajectory alone, so it is the same at any thread
  /// count; harvested into obs metrics by the cluster runtime.
  std::uint64_t windows() const noexcept { return window_seq_; }

  /// Windows that went through the worker gate rather than running inline
  /// on the coordinator (diagnostics only). Depends on the thread count, so
  /// it must never be exported as a metric.
  std::uint64_t gated_windows() const noexcept { return gated_windows_; }

  /// Registers an invariant auditor; audit() runs at the first window close
  /// after every audit_interval() dispatched events and once when the event
  /// queue drains. Observational only — auditors must not mutate
  /// simulation state (DESIGN.md §7).
  void add_auditor(check::InvariantAuditor* auditor);
  /// Unregisters; no-op when the auditor was never added.
  void remove_auditor(check::InvariantAuditor* auditor) noexcept;

  /// Registers a window-close hook keyed by `owner` (one hook per owner).
  /// Hooks run on the coordinator thread at every window close — after all
  /// shards finished the window, before the engine mailbox merge — in
  /// registration order. Partitioned fabric models use them to resolve their
  /// per-shard staged operations in a canonical order; every event a hook
  /// schedules must land at or after the closing window's end, and fires
  /// before the dispatch-scheduled events of its time (see the file
  /// comment). run() refuses an engine with hooks but no lookahead.
  void add_window_hook(const void* owner, std::function<void()> hook);
  /// Unregisters; no-op when the owner never added a hook.
  void remove_window_hook(const void* owner) noexcept;

  /// Exclusive upper bound of the window being closed (valid inside window
  /// hooks); hooks use it to clamp resolution-scheduled times.
  Time window_end() const noexcept { return window_end_; }

  /// Ordinal argument of schedule_wake() for a wake with no resolved effect
  /// behind it: the wake then takes a dispatch insertion seq.
  static constexpr std::uint64_t kNoOrdinal = ~std::uint64_t{0};

  /// Draws the next global resolution ordinal. The order in which hooks
  /// apply staged effects is canonical, so ordinals drawn there name an
  /// effect independently of where windows closed. Drawing inside a window
  /// (that is, inside dispatch, where shards run concurrently) is refused.
  std::uint64_t take_ordinal();

  /// True while the calling thread dispatches a window of this engine.
  bool in_window() const noexcept;

  /// A coroutine resume that its owner may cancel until it fires; a
  /// default-constructed one is not armed.
  struct WakeRef {
    int shard = -1;
    std::uint32_t slot = 0;
    bool armed() const noexcept { return shard >= 0; }
  };
  /// Schedules `h` at time t on `shard` (-1 = the scheduling shard), keyed
  /// by `ordinal` like a hook event, or by a dispatch seq for kNoOrdinal.
  /// From inside a window only the executing shard may be named.
  WakeRef schedule_wake(Time t, std::uint64_t ordinal, std::coroutine_handle<> h,
                        int shard = -1);
  /// Cancels a wake that has not fired and disarms `w` (a no-op when it is
  /// not armed): the wake is dropped without being dispatched, counted or
  /// moving a clock. Call from the wake's shard or a window hook. A fired
  /// wake may only be cancelled by its own coroutine before that schedules
  /// anything (its slot is then free and empty).
  void cancel_wake(WakeRef& w) noexcept;

  /// Events between automatic audit sweeps; 0 disables the cadence (the
  /// drain-time sweep still runs). Defaults to check::default_audit_interval()
  /// — 4096 in DVX_CHECK_LEVEL >= 2 builds, 0 otherwise.
  void set_audit_interval(std::uint64_t events) noexcept { audit_interval_ = events; }
  std::uint64_t audit_interval() const noexcept { return audit_interval_; }

  /// Number of audit sweeps performed (each sweep visits every auditor).
  std::uint64_t audits_run() const noexcept { return audits_run_; }

  /// The shard the calling thread is currently dispatching for, or -1 when
  /// the thread is outside engine dispatch. Static (thread-identity, not
  /// engine-identity) so instrumentation points deep inside the network
  /// models (analyze::ShardAccessRecorder) can attribute an access without
  /// holding an Engine reference.
  static int current_shard() noexcept;

  /// Monotone index of the lookahead window the calling thread is currently
  /// dispatching; 0 outside dispatch.
  static std::uint64_t current_window() noexcept;

  /// Awaitable: suspend the current coroutine for `d` of virtual time.
  auto delay(Duration d) {
    struct Awaiter {
      Engine& engine;
      Time wake;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { engine.schedule_handle(wake, h); }
      void await_resume() const noexcept {}
    };
    if (d < 0) d = 0;
    return Awaiter{*this, now() + d};
  }

  /// Awaitable: reschedule the current coroutine at absolute time t
  /// (clamped to now()). Used to resume a waiter at a computed arrival time.
  auto resume_at(Time t) {
    struct Awaiter {
      Engine& engine;
      Time wake;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { engine.schedule_handle(wake, h); }
      void await_resume() const noexcept {}
    };
    const Time now_t = now();
    if (t < now_t) t = now_t;
    return Awaiter{*this, t};
  }

  // Key-packing limits, public so overflow tests can probe the edges.
  static constexpr int kSlotBits = 25;  ///< 32M outstanding events per kind
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr int kKeyShift = kSlotBits + 1;
  /// Insertion seqs and resolution ordinals per busy period (both counters
  /// reset whenever the heaps drain, so this bound is per uninterrupted run,
  /// not per Engine). The key's top bit separates the two classes.
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << (63 - kKeyShift);

  /// Test hooks: force a shard's insertion-seq counter or the resolution
  /// ordinal counter so the overflow guards can be exercised without
  /// dispatching 2^37 events. Never call outside tests — a forged counter
  /// breaks tie-break ordering with any events already in the heap.
  void set_next_seq_for_test(std::uint64_t seq, int shard = 0);
  void set_next_ordinal_for_test(std::uint64_t ordinal) { next_ordinal_ = ordinal; }

 private:
  /// 16-byte heap entry. `key` packs class | (seq << kKeyShift) | kind |
  /// slot: the class bit (set for dispatch events, clear for hook events)
  /// and the seq (insertion seq or resolution ordinal) in the high bits make
  /// lexicographic (t, key) comparison reproduce the documented dispatch
  /// order, while the low bits locate the payload without a third word the
  /// sift would have to move.
  struct HeapEntry {
    Time t;
    std::uint64_t key;
  };
  static_assert(sizeof(HeapEntry) == 16);

  static constexpr std::uint64_t kCallbackBit = std::uint64_t{1} << kSlotBits;
  static constexpr std::uint64_t kDispatchClass = std::uint64_t{1} << 63;

  struct Root {
    Coro<void>::Handle handle{};
    bool done = false;
  };

  static bool entry_before(const HeapEntry& a, const HeapEntry& b) noexcept {
    return a.t != b.t ? a.t < b.t : a.key < b.key;
  }

  /// Backing-store allocator that hands out 64-byte-aligned blocks so the
  /// heap's cache-line geometry (see kHeapPad) survives vector growth.
  template <class T>
  struct CacheAlignedAlloc {
    using value_type = T;
    CacheAlignedAlloc() = default;
    template <class U>
    CacheAlignedAlloc(const CacheAlignedAlloc<U>&) noexcept {}
    T* allocate(std::size_t n) {
      return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{64}));
    }
    void deallocate(T* p, std::size_t) noexcept {
      ::operator delete(p, std::align_val_t{64});
    }
    bool operator==(const CacheAlignedAlloc&) const noexcept { return true; }
  };

  /// The heap array starts with kHeapPad unused entries. With logical node i
  /// stored at heap_[i + kHeapPad], a node's 4-child group (logical 4i+1 ..
  /// 4i+4, i.e. byte offset 64(i+1) from the 64-byte-aligned base) occupies
  /// exactly one cache line, so each sift level costs one line instead of
  /// two straddled ones.
  static constexpr std::size_t kHeapPad = 3;

  /// A cross-shard event parked in its source shard's outbox until the
  /// window-close merge moves it into the destination heap.
  struct Staged {
    Time t;
    std::coroutine_handle<> h{};  ///< non-null: coroutine resume
    std::function<void()> fn{};   ///< otherwise: plain callback
  };

  /// One event-ordering domain: private heap, slabs, clock, seq counter.
  /// 64-byte aligned so concurrently-dispatching shards never share a line.
  struct alignas(64) Shard {
    std::vector<HeapEntry, CacheAlignedAlloc<HeapEntry>> heap;
    std::vector<std::coroutine_handle<>> handle_slab;
    std::vector<std::uint32_t> handle_free;
    std::vector<std::function<void()>> fn_slab;
    std::vector<std::uint32_t> fn_free;
    std::vector<std::vector<Staged>> outbox;  ///< one per destination shard
    Time now = 0;                  ///< last dispatched event time
    std::uint64_t next_seq = 0;    ///< local insertion-seq counter
    std::uint64_t events = 0;      ///< events dispatched by this shard
    std::exception_ptr failure{};  ///< first escape from a window dispatch
  };

  void heap_push(Shard& s, Time t, std::uint64_t key);
  HeapEntry heap_pop(Shard& s);
  std::uint64_t make_key(Shard& s, std::uint64_t ordinal, bool callback,
                         std::uint32_t slot);
  /// Pushes an event keyed by `ordinal` (kNoOrdinal: a dispatch seq);
  /// returns its payload slot.
  std::uint32_t push_event(Shard& s, Time t, std::uint64_t ordinal, bool callback,
                           std::coroutine_handle<> h, std::function<void()>&& fn);
  void schedule_event(Time t, std::coroutine_handle<> h, std::function<void()>&& fn,
                      int shard);
  int resolve_shard(int shard) const;
  /// Pops and runs the shard's next event; false when it was a cancelled
  /// wake, which is dropped without touching the clock or the event count.
  bool dispatch_one(Shard& s);

  /// One staged event's position in the window-close merge order.
  struct MergeRef {
    Time t;
    int src;
    std::size_t idx;
  };

  class WorkerPool;

  /// Earliest live event time over all shards (-1: every shard drained);
  /// drops the cancelled wakes it finds at the heap tops on the way.
  Time next_window_floor();
  /// Pops cancelled wakes off the top of the shard's heap.
  void drop_cancelled_tops(Shard& s);
  /// Fills busy_ for the executing window; true when its busy shards
  /// belong to two or more of `workers` (shard i runs on worker i % workers).
  bool collect_busy_shards(int workers);
  void run_shard_window(int shard, Time window_end);
  void merge_mailboxes();
  void close_window();
  void rethrow_shard_failure();
  Time finish_run();

  void run_audits();

  Time now_ = 0;             ///< engine-wide clock (the latest window floor)
  Time window_end_ = 0;      ///< exclusive bound of the executing window
  std::uint64_t window_seq_ = 0;  ///< windows opened (monotone)
  std::uint64_t next_ordinal_ = 0;  ///< global resolution ordinal counter
  bool in_hooks_ = false;  ///< close_window() is running the window hooks
  std::uint64_t gated_windows_ = 0;  ///< windows run through the worker gate
  ShardingConfig sharding_{};
  std::vector<Shard> shards_;  ///< always >= 1
  /// Shards with an event below the executing window's end, ascending.
  /// Capacity reserved per shard layout: refilled every window, never grown.
  std::vector<int> busy_;
  std::vector<MergeRef> merge_order_;  ///< reused window-close merge buffer
  std::deque<Root> roots_;     // deque: &done must stay stable
  std::mutex spawn_mutex_;     // spawn() may be called from window workers
  std::vector<check::InvariantAuditor*> auditors_;
  std::vector<std::pair<const void*, std::function<void()>>> window_hooks_;
  std::uint64_t audit_interval_ = 0;  // ctor sets the level-dependent default
  std::uint64_t audits_run_ = 0;
  std::uint64_t last_audit_events_ = 0;  ///< events at the last cadence sweep
};

}  // namespace dvx::sim
