#include "arch/arch_db.h"

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <string>

#include "common/error.h"

namespace xcvsim {
namespace {

// Directions a hex at `d` can turn onto (the two orthogonal directions).
std::array<Dir, 2> orthogonal(Dir d) {
  if (d == Dir::East || d == Dir::West) return {Dir::North, Dir::South};
  return {Dir::East, Dir::West};
}

constexpr std::array<Dir, 4> kAllDirs = {Dir::East, Dir::West, Dir::North,
                                         Dir::South};

constexpr std::array<HexTap, 3> kAllTaps = {HexTap::Beg, HexTap::Mid,
                                            HexTap::End};

int tapOffset(HexTap tap) {
  switch (tap) {
    case HexTap::Beg: return 0;
    case HexTap::Mid: return kHexMid;
    case HexTap::End: return kHexSpan;
  }
  return 0;
}

}  // namespace

ArchDb::ArchDb(const DeviceSpec& dev) : dev_(dev) {
  // Class key: one existence bit per local wire, plus the row phase that
  // the single -> vertical-long rule reads (rule I/J/K).
  using Key = std::array<uint64_t, (kNumLocalWires + 63) / 64 + 1>;
  std::map<Key, uint16_t> classOf;
  tileClass_.reserve(static_cast<size_t>(dev_.tiles()));
  classOff_.push_back(0);
  for (int16_t r = 0; r < dev_.rows; ++r) {
    for (int16_t c = 0; c < dev_.cols; ++c) {
      const RowCol rc{r, c};
      Key key{};
      for (LocalWire w = 0; w < kNumLocalWires; ++w) {
        if (existsAt(rc, w)) key[w / 64u] |= uint64_t{1} << (w % 64u);
      }
      key.back() = static_cast<uint64_t>(r % kLongAccessPeriod);
      const auto [it, fresh] =
          classOf.emplace(key, static_cast<uint16_t>(classOf.size()));
      if (fresh) {
        if (classOf.size() > std::numeric_limits<uint16_t>::max()) {
          throw JRouteError("ArchDb: too many tile classes");
        }
        runRecipe(rc, classPips_);
        classOff_.push_back(static_cast<uint32_t>(classPips_.size()));
      }
      tileClass_.push_back(it->second);
    }
  }
}

void ArchDb::requireTile(RowCol rc) const {
  if (!dev_.contains(rc)) throw ArgumentError("ArchDb: tile out of range");
}

int ArchDb::tileClass(RowCol rc) const {
  requireTile(rc);
  return tileClass_[static_cast<size_t>(rc.row * dev_.cols + rc.col)];
}

WireInfo ArchDb::wireInfo(LocalWire w) const {
  WireInfo info{wireKind(w), wireIndex(w), wireLength(w)};
  if (info.kind == WireKind::Long) {
    info.length = (w < kLongVBase ? dev_.cols : dev_.rows) - 1;
  } else if (info.kind == WireKind::Gclk) {
    info.length = dev_.rows + dev_.cols;  // chip-wide tree, nominal extent
  }
  return info;
}

bool ArchDb::existsAt(RowCol rc, LocalWire w) const {
  if (!dev_.contains(rc) || !isValidWire(w)) return false;
  switch (wireKind(w)) {
    case WireKind::SliceOut:
    case WireKind::Omux:
    case WireKind::ClbIn:
    case WireKind::Gclk:
      return true;
    case WireKind::Single: {
      // The channel on side `dir` of the tile must exist.
      const Dir d = wireDir(w);
      return dev_.contains({static_cast<int16_t>(rc.row + dirDRow(d)),
                            static_cast<int16_t>(rc.col + dirDCol(d))});
    }
    case WireKind::Hex: {
      // Both the origin and the far end of the named segment must be on
      // the device; hexes are not clamped at the edges (section 4 of
      // DESIGN.md), so edge tiles simply see fewer hexes.
      const Dir d = wireDir(w);
      const int off = tapOffset(wireHexTap(w));
      const RowCol origin{static_cast<int16_t>(rc.row - off * dirDRow(d)),
                          static_cast<int16_t>(rc.col - off * dirDCol(d))};
      const RowCol end{
          static_cast<int16_t>(origin.row + kHexSpan * dirDRow(d)),
          static_cast<int16_t>(origin.col + kHexSpan * dirDCol(d))};
      return dev_.contains(origin) && dev_.contains(end);
    }
    case WireKind::Long:
      // Long lines tap the fabric every kLongAccessPeriod tiles.
      return w < kLongVBase ? longAccessibleAt(wireIndex(w), rc.col)
                            : longAccessibleAt(wireIndex(w), rc.row);
    case WireKind::IobIn:
    case WireKind::IobOut:
      // The I/O ring couples in at boundary tiles only.
      return isBoundaryTile(dev_, rc);
    case WireKind::BramOut:
    case WireKind::BramIn:
      // Block-RAM columns flank the CLB array on the west and east.
      return isBramTile(dev_, rc);
  }
  return false;
}

RowCol ArchDb::hexOrigin(RowCol rc, LocalWire w) const {
  const Dir d = wireDir(w);
  const int off = tapOffset(wireHexTap(w));
  return {static_cast<int16_t>(rc.row - off * dirDRow(d)),
          static_cast<int16_t>(rc.col - off * dirDCol(d))};
}

void ArchDb::runRecipe(RowCol rc, std::vector<TilePip>& out) const {
  const auto emit = [&](LocalWire from, LocalWire to) {
    // Degenerate self-loops (a hex "straight continuation" onto its own
    // track at the Beg tap names the same wire twice) can never carry
    // signal and are dropped here rather than at every pattern site.
    if (from == to) return;
    if (existsAt(rc, from) && existsAt(rc, to)) out.push_back({from, to});
  };

  // Rule A/B: slice outputs drive the OMUX and their own CLB's inputs
  // (feedback path).
  for (int o = 0; o < kSliceOutputs; ++o) {
    for (int j : omuxFromOutput(o)) emit(sliceOut(o), omux(j));
    for (int p : feedbackPins(o)) emit(sliceOut(o), clbIn(p));
  }

  // Rule C/D/E: "Logic block outputs drive all length interconnects" —
  // OMUX lines drive singles, hexes, and (at access tiles) long lines.
  for (int j = 0; j < kOutWires; ++j) {
    for (Dir d : kAllDirs) {
      for (int t : singlesFromOut(j)) emit(omux(j), single(d, t));
      for (int t : hexFromOut(j)) {
        emit(omux(j), hex(d, HexTap::Beg, t));
        // Bidirectional hexes can also be driven at their far endpoint.
        if (hexIsBidir(t)) emit(omux(j), hex(d, HexTap::End, t));
      }
    }
    for (int t = 0; t < kLongTracks; ++t) {
      emit(omux(j), longH(t));  // existsAt gates on access position
      emit(omux(j), longV(t));
    }
  }

  // Rule F: "longs can drive hexes only".
  for (int t = 0; t < kLongTracks; ++t) {
    for (int h : hexFromLong(t)) {
      for (Dir d : {Dir::East, Dir::West}) {
        emit(longH(t), hex(d, HexTap::Beg, h));
        if (hexIsBidir(h)) emit(longH(t), hex(d, HexTap::End, h));
      }
      for (Dir d : {Dir::North, Dir::South}) {
        emit(longV(t), hex(d, HexTap::Beg, h));
        if (hexIsBidir(h)) emit(longV(t), hex(d, HexTap::End, h));
      }
    }
  }

  // Rule G/H: "hexes drive singles and other hexes" — at every tap.
  for (Dir d : kAllDirs) {
    for (HexTap tap : kAllTaps) {
      for (int t = 0; t < kHexTracks; ++t) {
        const LocalWire from = hex(d, tap, t);
        for (Dir sd : kAllDirs) {
          for (int s : singleFromHex(t)) emit(from, single(sd, s));
        }
        // Straight continuation in the same direction.
        emit(from, hex(d, HexTap::Beg, hexStraight(t)));
        // Turns onto the orthogonal directions.
        for (Dir od : orthogonal(d)) {
          emit(from, hex(od, HexTap::Beg, hexTurn(t)));
          if (hexIsBidir(hexTurn(t))) {
            emit(from, hex(od, HexTap::End, hexTurn(t)));
          }
        }
      }
    }
  }

  // Rule I/J/K: "singles drive logic block inputs, vertical long lines, and
  // other singles".
  for (Dir d : kAllDirs) {
    for (int s = 0; s < kSinglesPerChannel; ++s) {
      const LocalWire from = single(d, s);
      for (int p : clbInFromSingle(s)) emit(from, clbIn(p));
      for (Dir d2 : kAllDirs) {
        if (d2 == d) continue;
        if (d2 == opposite(d)) {
          if (singleStraightThrough(s)) emit(from, single(d2, s));
        } else {
          for (int s2 : singleTurn(d, d2, s)) emit(from, single(d2, s2));
        }
      }
      emit(from, longV(longVFromSingle(s, rc.row)));
    }
  }

  // Rule L: global clock nets drive the dedicated CLK pins.
  for (int k = 0; k < kGlobalNets; ++k) {
    emit(gclk(k), S0CLK);
    emit(gclk(k), S1CLK);
  }

  // Rule M: the I/O ring (boundary tiles only; existsAt gates the rest).
  // Pad inputs drive singles of the tile's channels; singles drive pad
  // outputs — the section 6 IOB extension.
  for (int k = 0; k < kIobsPerTile; ++k) {
    for (Dir d : kAllDirs) {
      for (int t : singlesFromIob(k)) emit(iobIn(k), single(d, t));
      for (int t : iobFromSingles(k)) emit(single(d, t), iobOut(k));
    }
  }

  // Rule N: block-RAM ports (west/east edge columns; existsAt gates).
  // Data outputs drive singles; singles drive data and address inputs —
  // the section 6 BRAM extension.
  for (int k = 0; k < kBramPinsPerTile; ++k) {
    for (Dir d : kAllDirs) {
      for (int t : singlesFromBram(k)) emit(bramDo(k), single(d, t));
      for (int t : bramFromSingles(k)) emit(single(d, t), bramDi(k));
      for (int t : bramFromSingles(k + kBramPinsPerTile)) {
        emit(single(d, t), bramAd(k));
      }
    }
  }
}

bool ArchDb::canDrive(RowCol rc, LocalWire from, LocalWire to) const {
  const auto pips = tilePips(rc);
  return std::any_of(pips.begin(), pips.end(), [&](const TilePip& p) {
    return p.from == from && p.to == to;
  });
}

std::vector<LocalWire> ArchDb::drives(RowCol rc, LocalWire w) const {
  std::vector<LocalWire> out;
  for (const TilePip& p : tilePips(rc)) {
    if (p.from == w) out.push_back(p.to);
  }
  return out;
}

std::vector<LocalWire> ArchDb::drivenBy(RowCol rc, LocalWire w) const {
  std::vector<LocalWire> out;
  for (const TilePip& p : tilePips(rc)) {
    if (p.to == w) out.push_back(p.from);
  }
  return out;
}

}  // namespace xcvsim
