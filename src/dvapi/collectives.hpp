#pragma once
// Collective helpers built from Data Vortex primitives.
//
// MPI-style collectives do not exist in dvapi; these are the idiomatic
// patterns the paper's ports use instead: preset a group counter, barrier,
// put single words into peers' DV memory, wait for zero. Word slots
// [kCollectiveBase, kCollectiveBase + nodes) of every VIC and group counter
// kCollectiveCounter are reserved for them.

#include <cstdint>
#include <span>
#include <vector>

#include "dvapi/context.hpp"

namespace dvx::dvapi {

/// Group counters used by the word collectives below (sense-alternating so
/// repeated collectives need no barrier after the first).
inline constexpr int kCollectiveCounterA = 4;
inline constexpr int kCollectiveCounterB = 5;
/// First DV-memory word of the collective exchange regions (one per sense,
/// strided for up to 64 nodes). dvapi reserves DV words [0, 256) in total;
/// applications should place their regions at 256 or above.
inline constexpr std::uint32_t kCollectiveBase = 16;
inline constexpr std::uint32_t kCollectiveStride = 64;
inline constexpr std::uint32_t kFirstFreeDvWord = 256;
/// First counter id truly free for applications.
inline constexpr int kFirstFreeCounter = 6;

/// Every rank contributes one word per peer (`send.size() == nodes`);
/// returns the word each peer addressed to this rank (`out[i]` from rank i).
/// Throws std::invalid_argument above kCollectiveStride (64) nodes, where
/// the two sense regions would overlap.
sim::Coro<std::vector<std::uint64_t>> alltoall_words(DvContext& ctx,
                                                     std::span<const std::uint64_t> send);

/// Sum of every rank's value (built on alltoall_words).
sim::Coro<std::uint64_t> allreduce_sum(DvContext& ctx, std::uint64_t value);

/// Maximum of every rank's value.
sim::Coro<std::uint64_t> allreduce_max(DvContext& ctx, std::uint64_t value);

/// Root's value delivered to every rank.
sim::Coro<std::uint64_t> broadcast_word(DvContext& ctx, std::uint64_t value, int root);

}  // namespace dvx::dvapi
