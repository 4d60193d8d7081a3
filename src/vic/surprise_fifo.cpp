#include "vic/surprise_fifo.hpp"

#include <stdexcept>
#include <string>

#include "analyze/shard_access.hpp"
#include "check/check.hpp"
#include "obs/collector.hpp"

namespace dvx::vic {

SurpriseFifo::SurpriseFifo(sim::Engine& engine, std::size_t capacity, int node)
    : engine_(engine), node_(node), capacity_(capacity) {
  if (capacity == 0) throw std::invalid_argument("SurpriseFifo: zero capacity");
  if (obs::Registry* m = obs::metrics()) {
    const obs::Labels labels{{"node", std::to_string(node)}};
    obs_depth_ = m->gauge("vic.fifo.depth", labels);
    obs_deposits_ = m->counter("vic.fifo.deposits", labels);
    obs_dropped_ = m->counter("vic.fifo.dropped", labels);
  }
}

void SurpriseFifo::deposit(sim::Time at, Packet p) {
  DVX_SHARD_GUARDED("vic.SurpriseFifo", node_);
  if (at < engine_.now()) at = engine_.now();
  heap_.push(Entry{at, engine_.take_ordinal(), p});
  ++deposited_;
  if (obs_deposits_ != nullptr) obs_deposits_->inc();
  // A later deposit may arrive earlier than the one the waiter sleeps
  // towards: the wake moves to the new head.
  if (waiter_ && (!wake_.armed() || at < wake_at_)) arm_wake();
}

void SurpriseFifo::arm_wake() {
  const Entry& head = heap_.top();
  engine_.cancel_wake(wake_);
  wake_ = engine_.schedule_wake(head.at, head.ord, waiter_, waiter_shard_);
  wake_at_ = head.at;
}

std::vector<Packet> SurpriseFifo::poll() {
  DVX_SHARD_GUARDED("vic.SurpriseFifo", node_);
  std::vector<Packet> out;
  std::uint64_t dropped = 0;
  while (!heap_.empty() && heap_.top().at <= engine_.now()) {
    // Everything that arrived since the previous poll sits in the hardware
    // FIFO at once; arrivals past its capacity overflowed.
    if (out.size() < capacity_) {
      out.push_back(heap_.top().packet);
    } else {
      ++dropped;
    }
    heap_.pop();
  }
  drained_ += out.size();
  dropped_ += dropped;
  if (obs_deposits_ != nullptr && !out.empty()) {
    obs_depth_->sample(static_cast<double>(out.size()));
    if (dropped != 0) obs_dropped_->add(dropped);
  }
  // Message conservation: every deposited packet is drained, dropped, or
  // still buffered — nothing vanishes silently.
  DVX_CHECK_EQ(deposited_, drained_ + dropped_ + heap_.size())
      << "surprise FIFO lost packets. ";
  return out;
}

bool SurpriseFifo::ready() const {
  DVX_SHARD_ACCESS("vic.SurpriseFifo", node_, kRead);
  return !heap_.empty() && heap_.top().at <= engine_.now();
}

/// Parks the host waiter until its wake fires. The wake is armed here when
/// a packet is already on its way, else by the deposit that brings one.
struct SurpriseFifo::Park {
  SurpriseFifo& fifo;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    DVX_CHECK(!fifo.waiter_) << "surprise FIFO supports one waiting host";
    fifo.waiter_ = h;
    fifo.waiter_shard_ = sim::Engine::current_shard();
    if (!fifo.heap_.empty()) fifo.arm_wake();
  }
  void await_resume() const noexcept {
    fifo.waiter_ = {};
    fifo.wake_ = {};  // it fired
  }
};

sim::Coro<std::vector<Packet>> SurpriseFifo::wait_packets() {
  for (;;) {
    if (ready()) co_return poll();
    co_await Park{*this};
  }
}

}  // namespace dvx::vic
