#include "vic/vic.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <stdexcept>

#include "analyze/shard_access.hpp"
#include "check/check.hpp"

namespace dvx::vic {

Vic::Vic(sim::Engine& engine, DvFabric& fabric, int id, const VicParams& params)
    : engine_(engine),
      fabric_(fabric),
      id_(id),
      memory_(params.dv_memory_words),
      counters_(engine, id),
      fifo_(engine, params.fifo_capacity, id),
      pcie_(params.pcie),
      dma_down_(pcie_, PcieDir::kHostToVic, id),
      dma_up_(pcie_, PcieDir::kVicToHost, id) {}

void Vic::deliver(const Packet& p, sim::Time arrival) {
  DVX_SHARD_GUARDED("vic.Vic", id_);
  const check::ScopedNode check_node(id_);
  DVX_CHECK(static_cast<int>(p.header.dst_vic) == id_)
      << "packet for VIC " << p.header.dst_vic << " delivered to VIC " << id_;
  switch (p.header.kind) {
    case DestKind::kDvMemory:
      memory_.write(p.header.addr, p.payload);
      break;
    case DestKind::kFifo:
      fifo_.deposit(arrival, p);
      break;
    case DestKind::kGroupCounter:
      counters_.at(static_cast<int>(p.header.addr)).set(arrival, p.payload);
      break;
    case DestKind::kQuery: {
      // Remote read without host intervention (paper §III): the payload is
      // the header of the reply, whose payload is the requested word. The
      // reply destination need not be the original sender.
      Packet reply;
      reply.header = decode_header(p.payload);
      reply.payload = memory_.read(p.header.addr);
      fabric_.transmit(id_, std::span<const Packet>(&reply, 1), arrival);
      break;
    }
  }
  if (p.header.counter != kNoCounter && p.header.kind != DestKind::kGroupCounter) {
    counters_.at(static_cast<int>(p.header.counter)).decrement(arrival);
  }
}

DvFabric::DvFabric(sim::Engine& engine, int nodes, DvFabricParams params)
    : engine_(engine),
      params_(params),
      model_([&] {
        auto fp = params.fabric;
        if (fp.geometry.ports() < nodes) {
          fp.geometry = dvnet::Geometry::for_ports(nodes, fp.geometry.angles);
        }
        return fp;
      }()) {
  if (nodes <= 0) throw std::invalid_argument("DvFabric: need at least one node");
  const auto n = static_cast<std::size_t>(nodes);
  vics_.reserve(n);
  barrier_conds_.reserve(n);
  for (int i = 0; i < nodes; ++i) {
    vics_.push_back(std::make_unique<Vic>(engine, *this, i, params.vic));
    barrier_conds_.push_back(std::make_unique<sim::Condition>(engine_));
  }
  staged_.resize(n);
  barrier_staged_.resize(n);
  stage_seq_.assign(n, 0);
  engine_.add_auditor(this);
  engine_.add_window_hook(this, [this] { resolve_window(); });
}

DvFabric::~DvFabric() {
  engine_.remove_auditor(this);
  engine_.remove_window_hook(this);
}

void DvFabric::audit(std::int64_t now_ps) {
  DVX_SHARD_ACCESS("vic.DvFabric", -1, kRead);
  (void)now_ps;
  DVX_CHECK(barrier_arrived_ >= 0 && barrier_arrived_ < nodes())
      << "intrinsic barrier arrival count out of range: " << barrier_arrived_;
  for (const auto& v : vics_) {
    const check::ScopedNode check_node(v->id());
    const SurpriseFifo& fifo = v->fifo();
    DVX_CHECK_EQ(fifo.total_deposited(),
                 fifo.total_drained() + fifo.dropped() + fifo.buffered())
        << "surprise FIFO lost packets. ";
  }
}

void DvFabric::transmit(int src, std::span<const Packet> packets, sim::Time ready) {
  if (packets.empty()) return;
  if (resolving_) {
    // A query reply emitted while the resolution replays a delivery: it
    // enters the switch right away, exactly where the query's delivery sits
    // in the replay order.
    transmit_now(src, packets, ready);
    return;
  }
  // Rank context: stage into the calling shard's ledger. Each src rank is
  // dispatched by exactly one shard, so the ledger and the per-src seq
  // counter are single-writer.
  DVX_SHARD_ACCESS("vic.DvFabric", src, kWrite);
  staged_[ledger()].push_back(
      StagedBurst{engine_.now(), ready, src, stage_seq_[static_cast<std::size_t>(src)]++,
                  std::vector<Packet>(packets.begin(), packets.end())});
}

std::size_t DvFabric::ledger() const {
  const int cur = sim::Engine::current_shard();
  DVX_CHECK(cur < nodes()) << "engine has more shards than the fabric has nodes";
  return static_cast<std::size_t>(cur < 0 ? 0 : cur);
}

void DvFabric::transmit_now(int src, std::span<const Packet> packets,
                            sim::Time ready) {
  DVX_SHARD_GUARDED("vic.DvFabric", -1);
  std::size_t i = 0;
  while (i < packets.size()) {
    // Coalesce a run of packets to the same destination into one burst.
    std::size_t j = i + 1;
    const int dst = packets[i].header.dst_vic;
    while (j < packets.size() && packets[j].header.dst_vic == dst) ++j;
    const auto n = static_cast<std::int64_t>(j - i);
    const auto timing = model_.send_burst(src, dst, n, ready);

    // Apply per-packet effects; arrival times interpolated across the run.
    Vic& target = vic(dst);
    for (std::size_t k = i; k < j; ++k) {
      const auto idx = static_cast<std::int64_t>(k - i);
      const sim::Time at =
          n == 1 ? timing.first_arrival
                 : timing.first_arrival +
                       (timing.last_arrival - timing.first_arrival) * idx / (n - 1);
      target.deliver(packets[k], at);
    }
    i = j;
  }
}

void DvFabric::resolve_window() {
  // Window-close resolution (coordinator thread, outside any shard context):
  // replay every staged burst against the switch model in (call time, src,
  // per-src seq) order. Every call time of a window lies below its end and
  // at or above the previous window's end, so the concatenated replays of
  // consecutive windows are one global sort: the replay order, and with it
  // every resolution ordinal, is the same at any window width.
  const auto shards = static_cast<std::size_t>(std::min(engine_.shards(), nodes()));
  for (std::size_t s = 0; s < shards; ++s) {
    std::move(staged_[s].begin(), staged_[s].end(), std::back_inserter(batch_));
    staged_[s].clear();
  }
  if (!batch_.empty()) {
    std::sort(batch_.begin(), batch_.end(),
              [](const StagedBurst& a, const StagedBurst& b) {
                if (a.call != b.call) return a.call < b.call;
                if (a.src != b.src) return a.src < b.src;
                return a.seq < b.seq;
              });
    resolving_ = true;
    for (const StagedBurst& b : batch_) transmit_now(b.src, b.packets, b.ready);
    resolving_ = false;
    batch_.clear();
  }
  resolve_barrier_arrivals(shards);
}

void DvFabric::resolve_barrier_arrivals(std::size_t shards) {
  std::vector<std::pair<sim::Time, int>> arrivals;
  for (std::size_t s = 0; s < shards; ++s) {
    arrivals.insert(arrivals.end(), barrier_staged_[s].begin(), barrier_staged_[s].end());
    barrier_staged_[s].clear();
  }
  if (arrivals.empty()) return;
  std::sort(arrivals.begin(), arrivals.end());
  for (const auto& [at, rank] : arrivals) {
    DVX_CHECK(barrier_arrived_ < nodes())
        << "barrier over-arrival in phase " << barrier_phase_;
    barrier_latest_ = std::max(barrier_latest_, at);
    if (++barrier_arrived_ == nodes()) {
      // Hardware completes the AND-tree: base cost plus a little per level.
      const int levels = std::bit_width(static_cast<unsigned>(nodes() - 1));
      sim::Time release = barrier_latest_ + params_.barrier_base +
                          static_cast<sim::Duration>(levels) * params_.barrier_per_level;
      // Defensive clamp: the release must not land behind any shard's clock.
      // The barrier base cost exceeds any fabric lookahead, so it never
      // binds and cannot make the release depend on the window width.
      release = std::max(release, engine_.window_end());
      barrier_arrived_ = 0;
      barrier_latest_ = 0;
      ++barrier_phase_;
      for (auto& cond : barrier_conds_) cond->notify_all(release);
    }
  }
}

sim::Coro<void> DvFabric::intrinsic_barrier(int rank) {
  // Stage the arrival in the shard's ledger; the VIC-side AND-tree completes
  // at the window-close resolution, which computes the release time and
  // wakes every rank through its own (rank-local) condition.
  DVX_SHARD_ACCESS("vic.DvFabric", rank, kWrite);
  const std::uint64_t my_phase = barrier_phase_;
  barrier_staged_[ledger()].emplace_back(engine_.now(), rank);
  sim::Condition& cond = *barrier_conds_[static_cast<std::size_t>(rank)];
  while (barrier_phase_ == my_phase) co_await cond.wait();
  DVX_CHECK(barrier_phase_ > my_phase) << "barrier phase went backwards";
}

}  // namespace dvx::vic
