#include "bitstream/pip_table.h"

#include <limits>

#include "common/error.h"

namespace xcvsim {

PipTable::PipTable(const ArchDb& arch)
    : tileSlots_(size_t{kNumLocalWires} * kNumLocalWires, -1),
      directSlots_(2 * size_t{kDirectSide} * kDirectSide, -1) {
  // Mark every pattern that occurs anywhere on the device: the union of the
  // tile-class PIP lists (every tile belongs to exactly one class), the
  // direct connects, and the global pads. Direct connects depend only on a
  // tile's column, so one row shows them all.
  constexpr int16_t kSeen = 0;
  for (int k = 0; k < arch.numTileClasses(); ++k) {
    for (const TilePip& p : arch.classPips(k)) {
      tileSlots_[p.from * size_t{kNumLocalWires} + p.to] = kSeen;
    }
  }
  for (int16_t c = 0; c < arch.device().cols; ++c) {
    arch.forEachDirectConnect(
        RowCol{0, c}, [&](LocalWire f, RowCol dst, LocalWire t) {
          const PipKeyKind kind =
              dst.col > c ? PipKeyKind::DirectE : PipKeyKind::DirectW;
          directSlots_[directIndex({kind, f, t})] = kSeen;
        });
  }
  padSlots_.fill(kSeen);

  // Number the marked keys in (kind, from, to) order, the order the
  // tables are laid out in.
  const auto assign = [&](int16_t& slot, const PipKey& key) {
    if (slot != kSeen) return;
    if (keys_.size() >
        static_cast<size_t>(std::numeric_limits<int16_t>::max())) {
      throw JRouteError("PipTable: too many PIP slots");
    }
    slot = static_cast<int16_t>(keys_.size());
    keys_.push_back(key);
  };
  for (LocalWire f = 0; f < kNumLocalWires; ++f) {
    for (LocalWire t = 0; t < kNumLocalWires; ++t) {
      assign(tileSlots_[f * size_t{kNumLocalWires} + t],
             {PipKeyKind::TilePip, f, t});
    }
  }
  for (const PipKeyKind kind : {PipKeyKind::DirectE, PipKeyKind::DirectW}) {
    for (LocalWire f = 0; f < kDirectSide; ++f) {
      for (LocalWire t = 0; t < kDirectSide; ++t) {
        const PipKey key{kind, f, t};
        assign(directSlots_[directIndex(key)], key);
      }
    }
  }
  for (int k = 0; k < kGlobalNets; ++k) {
    assign(padSlots_[static_cast<size_t>(k)],
           {PipKeyKind::GlobalPad, kInvalidLocalWire,
            static_cast<LocalWire>(k)});
  }

  const int total = slotsPerTile();
  bitsPerTileRow_ = (total + kFramesPerColumn - 1) / kFramesPerColumn;
}

}  // namespace xcvsim
