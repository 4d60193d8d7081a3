#pragma once
// The VIC's "surprise packet" FIFO (paper §II/§III): a network-addressable
// input queue that non-destructively buffers thousands of 8-byte messages
// with no pre-arranged DV-memory slot. Arrival order across the network is
// not guaranteed; the developer polls and handles reordering.
//
// A background DMA process drains the hardware FIFO into a host-side ring
// buffer, so host polls are cheap (no PCIe round trip); that is why poll()
// here exposes packets by arrival time without an extra read latency.
//
// Deposits come from the fabric's window-close resolution, possibly long
// before the packet arrives, so nothing may depend on when one was made:
// overflow is decided in arrival order at hand-over, and a waiting host is
// woken by one re-armable wake keyed by the earliest packet's resolution
// ordinal (DESIGN.md §15.1).

#include <coroutine>
#include <cstdint>
#include <queue>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "vic/packet.hpp"

namespace dvx::vic {

// dvx-analyze: shard-partitioned
class SurpriseFifo {
 public:
  /// "thousands of 8-byte messages": default ring of 64 Ki entries.
  static constexpr std::size_t kDefaultCapacity = 64 * 1024;

  /// `node` labels this FIFO's obs metrics (the owning VIC's id); pass the
  /// default for standalone FIFOs outside a cluster.
  explicit SurpriseFifo(sim::Engine& engine, std::size_t capacity = kDefaultCapacity,
                        int node = -1);

  /// Network-side deposit: the packet arrives (becomes visible to the host)
  /// at `at`. Not callable from inside an engine window.
  void deposit(sim::Time at, Packet p);

  /// Host-side poll: removes and returns every packet that has arrived, in
  /// arrival order. Arrivals beyond capacity() since the previous poll
  /// overflowed the hardware FIFO: they are dropped (counted in dropped()).
  std::vector<Packet> poll();

  /// Waits until at least one packet is visible, then returns all of them.
  sim::Coro<std::vector<Packet>> wait_packets();

  /// True if a packet is visible at the current virtual time.
  bool ready() const;

  /// Deposited packets not yet handed over or dropped (arrived or not).
  std::size_t buffered() const noexcept { return heap_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::uint64_t total_deposited() const noexcept { return deposited_; }
  std::uint64_t total_drained() const noexcept { return drained_; }

 private:
  struct Entry {
    sim::Time at;
    /// Resolution ordinal of the deposit: orders equal arrival times by
    /// deposit and keys the waiter's wake.
    std::uint64_t ord;
    Packet packet;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.at != b.at ? a.at > b.at : a.ord > b.ord;
    }
  };
  struct Park;

  /// (Re-)arms the waiter's wake at the earliest deposited packet.
  void arm_wake();

  sim::Engine& engine_;
  int node_;  ///< owning VIC id (-1 standalone); labels shard-access records
  // The one host waiter (the owning rank), its shard and its wake.
  std::coroutine_handle<> waiter_{};
  int waiter_shard_ = -1;
  sim::Engine::WakeRef wake_{};
  sim::Time wake_at_ = 0;
  // obs instrumentation (null when nothing collects); the depth gauge's max
  // is the FIFO's high-water mark.
  obs::Gauge* obs_depth_ = nullptr;
  obs::Counter* obs_deposits_ = nullptr;
  obs::Counter* obs_dropped_ = nullptr;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  std::uint64_t deposited_ = 0;
  std::uint64_t drained_ = 0;
};

}  // namespace dvx::vic
