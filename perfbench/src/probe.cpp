#include "probe.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <utility>

#include "common/rng.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRows = 64, kCols = 96;  // XCV1000's tile grid
constexpr int kPerTile = 136;
constexpr int kEdges = 16;
constexpr size_t kNodes = size_t{kRows} * kCols * kPerTile;
constexpr size_t kChaseEntries = size_t{1} << 21;  // 8 MB
constexpr int kChaseSteps = 1 << 20;
constexpr int kSearches = 1500;
constexpr uint64_t kPopBudget = 300;

double msSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

int tileRow(uint32_t v) { return static_cast<int>(v / kPerTile) / kCols; }
int tileCol(uint32_t v) { return static_cast<int>(v / kPerTile) % kCols; }

}  // namespace

void HostProbe::build() {
  xcvsim::Rng rng(11);
  lattice_.resize(kNodes * kEdges);
  stamp_.assign(kNodes, 0);
  for (size_t v = 0; v < kNodes; ++v) {
    const int r = tileRow(static_cast<uint32_t>(v));
    const int c = tileCol(static_cast<uint32_t>(v));
    for (int e = 0; e < kEdges; ++e) {
      // One edge in four spans up to 6 tiles (a hex), the rest 1 (singles).
      const int span = e % 4 == 0 ? 6 : 1;
      const int r2 = std::clamp(r + rng.intIn(-span, span), 0, kRows - 1);
      const int c2 = std::clamp(c + rng.intIn(-span, span), 0, kCols - 1);
      lattice_[v * kEdges + static_cast<size_t>(e)] = static_cast<uint32_t>(
          (r2 * kCols + c2) * kPerTile + rng.intIn(0, kPerTile - 1));
    }
  }
  // Sattolo's shuffle: one cycle through every entry.
  chase_.resize(kChaseEntries);
  for (uint32_t i = 0; i < kChaseEntries; ++i) chase_[i] = i;
  for (size_t i = kChaseEntries - 1; i > 0; --i) {
    std::swap(chase_[i], chase_[rng.below(i)]);
  }
}

uint64_t HostProbe::search(uint32_t src, int goalRow, int goalCol) {
  ++epoch_;
  using Item = std::pair<int, uint32_t>;
  std::vector<Item> heap;
  auto dist = [&](uint32_t v) {
    return std::abs(tileRow(v) - goalRow) + std::abs(tileCol(v) - goalCol);
  };
  heap.push_back({dist(src), src});
  stamp_[src] = epoch_;
  uint64_t pops = 0;
  while (!heap.empty() && pops < kPopBudget) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<Item>());
    const uint32_t v = heap.back().second;
    heap.pop_back();
    ++pops;
    if (dist(v) == 0) break;
    for (int e = 0; e < kEdges; ++e) {
      const uint32_t w = lattice_[size_t{v} * kEdges + static_cast<size_t>(e)];
      if (stamp_[w] == epoch_) continue;
      stamp_[w] = epoch_;
      heap.push_back({dist(w) + static_cast<int>(pops / 8), w});
      std::push_heap(heap.begin(), heap.end(), std::greater<Item>());
    }
  }
  return pops;
}

void HostProbe::sample() {
  if (lattice_.empty()) build();
  Clock::time_point t = Clock::now();
  xcvsim::Rng rng(5);
  uint64_t pops = 0;
  for (int i = 0; i < kSearches; ++i) {
    const uint32_t src = static_cast<uint32_t>(rng.below(kNodes));
    const int goalRow = rng.intIn(0, kRows - 1);
    pops += search(src, goalRow, rng.intIn(0, kCols - 1));
  }
  const double mazeMs = msSince(t);
  t = Clock::now();
  uint32_t x = 0;
  for (int i = 0; i < kChaseSteps; ++i) x = chase_[x];
  const double chaseMs = msSince(t);
  sink_ += pops + x;
  readings_.push_back(std::sqrt(mazeMs * chaseMs));
}

double HostProbe::readingMs() const {
  if (readings_.empty()) return kReferenceMs;
  std::vector<double> v = readings_;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2),
                   v.end());
  return v[v.size() / 2];
}

}  // namespace perfbench
