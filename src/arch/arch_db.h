// The architecture description class of the paper (section 3):
//
//   "There is a Java class in which all of the architecture information is
//    held. In this class each wire is defined by a unique integer. Also in
//    this class the possible template values are defined, along with which
//    template value each wire can be classified under. ... Also in this
//    Java class is a description of each wire, including how long it is,
//    its direction, which wires can drive it, and which wires it can
//    drive."
//
// ArchDb answers exactly those queries for one device, and additionally is
// the single source of truth for PIP existence: the routing-resource graph
// builder enumerates PIPs through tilePips()/forEachDirectConnect(), so the
// graph and the description can never diverge.
//
// Same-tile PIPs come from one recipe (the pattern rules in arch_db.cpp).
// Its output at a tile depends only on which local wires exist there and
// on the tile's row phase within the long-line access period, so the
// constructor runs it once per distinct (existence, phase) pair — a tile
// class — and every tile of the class shares that list. XCV1000's 6,144
// tiles fall into 324 classes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arch/device.h"
#include "arch/patterns.h"
#include "arch/template_value.h"
#include "arch/wires.h"
#include "common/types.h"

namespace xcvsim {

/// Static description of one local wire (device-independent part).
struct WireInfo {
  WireKind kind;
  int index;   // track / pin / OUT number within its range
  int length;  // tiles spanned end to end (0 for pins, device-dep for longs)
};

/// One same-tile PIP, as (from, to) local wires.
struct TilePip {
  LocalWire from;
  LocalWire to;
};

class ArchDb {
 public:
  /// Builds the tile-class table: one PIP list per class.
  explicit ArchDb(const DeviceSpec& dev);

  const DeviceSpec& device() const { return dev_; }

  /// Description of a wire: kind, index, length.
  WireInfo wireInfo(LocalWire w) const;

  /// Does local name `w` denote an existing resource at tile `rc`?
  /// (Channel and hex names near device edges, and long-line names away
  /// from access tiles, do not.)
  bool existsAt(RowCol rc, LocalWire w) const;

  /// Origin tile of the hex segment named by hex alias `w` at `rc`.
  /// Precondition: wireKind(w) == Hex and existsAt(rc, w).
  RowCol hexOrigin(RowCol rc, LocalWire w) const;

  /// Every same-tile PIP at `rc`, in recipe order. Direct connects (which
  /// cross tiles) are not included; see forEachDirectConnect. Throws
  /// ArgumentError when `rc` is off the device.
  std::span<const TilePip> tilePips(RowCol rc) const {
    return classPips(tileClass(rc));
  }

  /// Number of tile classes.
  int numTileClasses() const {
    return static_cast<int>(classOff_.size()) - 1;
  }

  /// The PIP list shared by every tile of class `cls`.
  std::span<const TilePip> classPips(int cls) const {
    const auto k = static_cast<size_t>(cls);
    return {classPips_.data() + classOff_[k], classOff_[k + 1] - classOff_[k]};
  }

  /// Enumerate the dedicated direct-connect PIPs whose source output pin is
  /// at `rc`: cb(fromLocal, destination tile, toLocal).
  ///
  /// "Local resources include direct connections between horizontally
  /// adjacent configurable logic blocks" — each slice output reaches two
  /// input pins of the east and west neighbours.
  template <class Fn>
  void forEachDirectConnect(RowCol rc, Fn&& cb) const {
    requireTile(rc);
    for (Dir d : {Dir::East, Dir::West}) {
      const RowCol nb{rc.row, static_cast<int16_t>(rc.col + dirDCol(d))};
      if (!dev_.contains(nb)) continue;
      for (int o = 0; o < kSliceOutputs; ++o) {
        for (int p : directPins(o)) cb(sliceOut(o), nb, clbIn(p));
      }
    }
  }

  /// Same-tile PIP legality: may `from` drive `to` at tile `rc`?
  bool canDrive(RowCol rc, LocalWire from, LocalWire to) const;

  /// All wires `w` can drive at `rc` (same tile), the paper's
  /// "which wires it can drive".
  std::vector<LocalWire> drives(RowCol rc, LocalWire w) const;

  /// All wires that can drive `w` at `rc`, the paper's
  /// "which wires can drive it".
  std::vector<LocalWire> drivenBy(RowCol rc, LocalWire w) const;

 private:
  void requireTile(RowCol rc) const;
  int tileClass(RowCol rc) const;
  /// The PIP recipe (rules A-N) at one tile, appended to `out`.
  void runRecipe(RowCol rc, std::vector<TilePip>& out) const;

  DeviceSpec dev_;
  std::vector<TilePip> classPips_;   // every class's list, back to back
  std::vector<uint32_t> classOff_;   // numTileClasses()+1 offsets
  std::vector<uint16_t> tileClass_;  // row-major, one per tile
};

}  // namespace xcvsim
