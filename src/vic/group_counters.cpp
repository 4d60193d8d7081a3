#include "vic/group_counters.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "check/check.hpp"
#include "obs/collector.hpp"

namespace dvx::vic {

GroupCounter::GroupCounter(sim::Engine& engine, int node) : engine_(engine) {
  if (obs::Registry* m = obs::metrics()) {
    const obs::Labels labels{{"node", std::to_string(node)}};
    obs_waits_ = m->counter("vic.counter.waits", labels);
    obs_wait_ps_ = m->counter("vic.counter.wait_ps", labels);
    obs_timeouts_ = m->counter("vic.counter.timeouts", labels);
  }
}

void GroupCounter::set(sim::Time at, std::uint64_t v) {
  value_ = v;
  settle_ = std::max(settle_, std::max(at, engine_.now()));
  changed();
}

void GroupCounter::decrement(sim::Time at_last, std::uint64_t n) {
  if (n == 0) return;
  if (value_ == 0) {
    // Hardware hazard reproduced: arrivals against a zero counter are lost
    // (paper §III: "the initial packet arrival is lost").
    lost_ += n;
    return;
  }
  const std::uint64_t applied = std::min(value_, n);
  lost_ += n - applied;
  value_ -= applied;
  settle_ = std::max(settle_, std::max(at_last, engine_.now()));
  changed();
}

void GroupCounter::changed() {
  state_ord_ = engine_.in_window() ? sim::Engine::kNoOrdinal : engine_.take_ordinal();
  if (waiter_) arm_zero_wake();
}

void GroupCounter::arm_zero_wake() {
  engine_.cancel_wake(zero_wake_);
  if (value_ == 0) {
    zero_wake_ = engine_.schedule_wake(settle_, state_ord_, waiter_, waiter_shard_);
  }
}

/// Parks the waiter until its zero wake or its deadline fires, whichever
/// comes first; the other is cancelled on resume.
struct GroupCounter::Park {
  GroupCounter& counter;
  sim::Time deadline;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    GroupCounter& c = counter;
    DVX_CHECK(!c.waiter_) << "group counter supports one waiter";
    c.waiter_ = h;
    c.waiter_shard_ = sim::Engine::current_shard();
    c.arm_zero_wake();
    if (deadline != std::numeric_limits<sim::Time>::max()) {
      c.deadline_wake_ = c.engine_.schedule_wake(deadline, sim::Engine::kNoOrdinal, h,
                                                 c.waiter_shard_);
    }
  }
  void await_resume() const noexcept {
    // The wake that fired has freed its slot and not yet handed it on, so
    // cancelling both is safe.
    GroupCounter& c = counter;
    c.engine_.cancel_wake(c.zero_wake_);
    c.engine_.cancel_wake(c.deadline_wake_);
    c.waiter_ = {};
  }
};

sim::Coro<bool> GroupCounter::wait_zero(sim::Duration timeout) {
  const sim::Time begin = engine_.now();
  const sim::Time deadline =
      timeout < 0 ? std::numeric_limits<sim::Time>::max() : engine_.now() + timeout;
  for (;;) {
    if (value_ == 0 && settle_ <= engine_.now()) {
      if (obs_waits_ != nullptr) {
        obs_waits_->inc();
        obs_wait_ps_->add(static_cast<std::uint64_t>(engine_.now() - begin));
      }
      co_return true;
    }
    if (engine_.now() >= deadline) {
      if (obs_waits_ != nullptr) {
        obs_waits_->inc();
        obs_wait_ps_->add(static_cast<std::uint64_t>(engine_.now() - begin));
        obs_timeouts_->inc();
      }
      co_return false;
    }
    co_await Park{*this, deadline};
  }
}

GroupCounterFile::GroupCounterFile(sim::Engine& engine, int node) {
  counters_.reserve(kNumGroupCounters);
  for (int i = 0; i < kNumGroupCounters; ++i) {
    counters_.push_back(std::make_unique<GroupCounter>(engine, node));
  }
}

GroupCounter& GroupCounterFile::at(int id) {
  if (id < 0 || id >= kNumGroupCounters) {
    throw std::out_of_range("GroupCounterFile: bad counter id " + std::to_string(id));
  }
  return *counters_[static_cast<std::size_t>(id)];
}

const GroupCounter& GroupCounterFile::at(int id) const {
  if (id < 0 || id >= kNumGroupCounters) {
    throw std::out_of_range("GroupCounterFile: bad counter id " + std::to_string(id));
  }
  return *counters_[static_cast<std::size_t>(id)];
}

}  // namespace dvx::vic
