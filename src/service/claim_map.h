// Per-node tentative ownership flags for concurrent route planning.
//
// During the batched engine's parallel phase the fabric is frozen
// (read-only): workers plan edge chains against it and arbitrate wire
// usage among themselves through this map. A node is claimed with a
// compare-and-swap, so two planners can never hold the same wire; a
// planner that loses the race re-runs its search with the contested node
// blocked (ClaimView plugs into RouterOptions::claimFilter). After the
// engine commits a plan into the fabric the claims are released — the
// fabric's own net bookkeeping takes over as the source of truth.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "plan/footprint.h"
#include "router/options.h"
#include "rrg/graph.h"

namespace jrsvc {

using xcvsim::NodeId;

/// Owner ids are request ids + 1; 0 means unclaimed.
class ClaimMap {
 public:
  /// Region-sharded layout: slots are permuted so nodes of the same
  /// region-grid cell (the cell jrplan footprints key on) are
  /// contiguous, and each shard is padded to a cache line. Concurrent
  /// planners work bbox-disjoint regions, so their CASes do not false
  /// share each other's lines.
  ClaimMap(const xcvsim::Graph& g, const jrplan::RegionGrid& grid) {
    constexpr size_t kShardPad = 16;  // uint32 slots per 64-byte line
    const size_t cells = static_cast<size_t>(grid.numCells());
    std::vector<size_t> shardSize(cells, 0);
    for (NodeId n = 0; n < g.numNodes(); ++n) {
      ++shardSize[static_cast<size_t>(grid.cellOf(g.positionOf(n)))];
    }
    std::vector<size_t> shardBase(cells, 0);
    size_t total = 0;
    for (size_t c = 0; c < cells; ++c) {
      shardBase[c] = total;
      total += (shardSize[c] + kShardPad - 1) / kShardPad * kShardPad;
    }
    slots_.resize(g.numNodes());
    std::vector<size_t> next = shardBase;
    for (NodeId n = 0; n < g.numNodes(); ++n) {
      const auto cell = static_cast<size_t>(grid.cellOf(g.positionOf(n)));
      slots_[n] = static_cast<uint32_t>(next[cell]++);
    }
    owner_ = std::vector<std::atomic<uint32_t>>(total);
  }

  /// Claim `n` for `owner`. True when the claim is held by `owner` after
  /// the call (newly acquired or already ours); false when another owner
  /// holds it.
  bool claim(NodeId n, uint32_t owner) {
    uint32_t expected = 0;
    if (owner_[slot(n)].compare_exchange_strong(expected, owner,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
      return true;
    }
    return expected == owner;
  }

  /// Current owner of `n` (0 = unclaimed).
  uint32_t ownerOf(NodeId n) const {
    return owner_[slot(n)].load(std::memory_order_acquire);
  }

  /// Release `n` if held by `owner`.
  void release(NodeId n, uint32_t owner) {
    uint32_t expected = owner;
    owner_[slot(n)].compare_exchange_strong(
        expected, 0, std::memory_order_acq_rel, std::memory_order_acquire);
  }

  void releaseAll(std::span<const NodeId> nodes, uint32_t owner) {
    for (const NodeId n : nodes) release(n, owner);
  }

 private:
  size_t slot(NodeId n) const { return slots_[n]; }

  std::vector<std::atomic<uint32_t>> owner_;
  std::vector<uint32_t> slots_;  ///< node → slot
};

/// RouterOptions::claimFilter view: every claimed node is an obstacle,
/// including the requester's own — its already-planned tree nodes enter
/// each search as zero-cost starts, and re-entering them through another
/// PIP would create a second driver.
class ClaimView : public jroute::NodeClaimFilter {
 public:
  explicit ClaimView(const ClaimMap& map) : map_(&map) {}

  bool blocked(NodeId n) const override { return map_->ownerOf(n) != 0; }

 private:
  const ClaimMap* map_;
};

}  // namespace jrsvc
