// The PIP-to-configuration-bit mapping table.
//
// The real Virtex device database (shipped inside JBits) assigns every
// programmable point a position in the configuration frames of its column.
// That database is proprietary, so we build an equivalent one: enumerate
// every connection pattern that can occur at any tile (the union of the
// ArchDb's tile-class PIP lists, plus the direct connects and the global
// pads) and number them in (kind, from, to) order, so each has a stable
// slot. A tile's configuration occupies kFramesPerColumn frames x
// bitsPerTileRow() bits; slot s of tile (r,c) lives in column c, frame
// s / bitsPerTileRow(), bit r * bitsPerTileRow() + s % bitsPerTileRow().
//
// Logic (LUT truth tables and per-slice mode bits) gets a reserved slot
// region after the PIPs so cores can be configured through the same frames.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "arch/arch_db.h"
#include "common/types.h"

namespace xcvsim {

/// Number of configuration frames per CLB column (matches Virtex).
inline constexpr int kFramesPerColumn = 48;

/// Kinds of configurable points addressed by a PipKey.
enum class PipKeyKind : uint8_t {
  TilePip,   // same-tile PIP (from, to local wires)
  DirectE,   // direct connect from this tile's output to the EAST neighbour
  DirectW,   // ... to the WEST neighbour
  GlobalPad, // global clock pad driver k (addressed at tile (0,0))
};

/// Identity of one configurable point, relative to a tile.
struct PipKey {
  PipKeyKind kind = PipKeyKind::TilePip;
  LocalWire from = kInvalidLocalWire;
  LocalWire to = kInvalidLocalWire;

  friend bool operator==(const PipKey&, const PipKey&) = default;
};

/// LUTs per tile (2 slices x F/G) and bits per LUT truth table.
inline constexpr int kLutsPerTile = 4;
inline constexpr int kLutBits = 16;
/// Per-tile miscellaneous logic configuration bits (FF modes, muxes...).
inline constexpr int kMiscLogicBits = 16;

class PipTable {
 public:
  explicit PipTable(const ArchDb& arch);

  /// Slot of a configurable point within its tile's config block, or -1 if
  /// the key names no existing pattern. One table load: this sits under
  /// every Fabric::turnOn/turnOff.
  int slotOf(const PipKey& key) const {
    switch (key.kind) {
      case PipKeyKind::TilePip:
        if (key.from >= kNumLocalWires || key.to >= kNumLocalWires) return -1;
        return tileSlots_[key.from * size_t{kNumLocalWires} + key.to];
      case PipKeyKind::DirectE:
      case PipKeyKind::DirectW:
        if (key.from >= kDirectSide || key.to >= kDirectSide) return -1;
        return directSlots_[directIndex(key)];
      case PipKeyKind::GlobalPad:
        if (key.from != kInvalidLocalWire || key.to >= kGlobalNets) return -1;
        return padSlots_[key.to];
    }
    return -1;
  }

  /// Key stored at a slot (inverse of slotOf); only valid for PIP slots.
  const PipKey& keyAt(int slot) const { return keys_[static_cast<size_t>(slot)]; }

  /// Number of PIP slots (keys).
  int numPipSlots() const { return static_cast<int>(keys_.size()); }

  /// First slot of the logic-configuration region.
  int logicSlotBase() const { return numPipSlots(); }

  /// Slot of LUT `lut` bit `bit` within a tile.
  int lutSlot(int lut, int bit) const {
    return logicSlotBase() + lut * kLutBits + bit;
  }
  /// Slot of miscellaneous logic bit `bit` within a tile.
  int miscSlot(int bit) const {
    return logicSlotBase() + kLutsPerTile * kLutBits + bit;
  }

  /// Total slots per tile (PIPs + logic), the tile config block size.
  int slotsPerTile() const {
    return logicSlotBase() + kLutsPerTile * kLutBits + kMiscLogicBits;
  }

  /// Bits each tile contributes to one frame of its column.
  int bitsPerTileRow() const { return bitsPerTileRow_; }

 private:
  // Direct connects join logic pins only: slice outputs to CLB inputs.
  static constexpr LocalWire kDirectSide = kSingleBase;

  static size_t directIndex(const PipKey& key) {
    const size_t side = key.kind == PipKeyKind::DirectE ? 0 : 1;
    return (side * kDirectSide + key.from) * kDirectSide + key.to;
  }

  std::vector<PipKey> keys_;  // slot -> key, sorted for determinism
  // Dense (from, to) -> slot tables, -1 where no pattern exists.
  std::vector<int16_t> tileSlots_;    // kNumLocalWires^2
  std::vector<int16_t> directSlots_;  // 2 x kDirectSide^2: east, then west
  std::array<int16_t, kGlobalNets> padSlots_{};
  int bitsPerTileRow_ = 0;
};

}  // namespace xcvsim
