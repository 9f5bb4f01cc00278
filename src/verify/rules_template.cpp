// Template-library rules: every generated template must be an honest,
// replayable plan — exact displacement, in-bounds, and executable on a
// clean fabric. This is the layer that catches a generator emitting
// sequences the switch matrix cannot legally step through (hex after
// single, hex directly into CLBIN, same-channel U-turns).
#include <utility>

#include "arch/wires.h"
#include "router/options.h"
#include "router/template_engine.h"
#include "verify/rules.h"

namespace jrverify {
namespace {

using xcvsim::clbIn;
using xcvsim::isClockPin;
using xcvsim::kClbInputs;
using xcvsim::kInvalidLocalWire;
using xcvsim::kInvalidNode;
using xcvsim::sliceOut;
using xcvsim::templateDCol;
using xcvsim::templateDRow;
using xcvsim::templateValueName;

/// Displacements probed per device: interior decompositions (pure hex,
/// overshoot, mixed) plus corner/edge pairs where the nominal path would
/// poke past the array if the generator forgot to clip.
std::vector<std::pair<RowCol, RowCol>> probePairs(const DeviceSpec& dev) {
  const auto rc = [](int r, int c) {
    return RowCol{static_cast<int16_t>(r), static_cast<int16_t>(c)};
  };
  const int mr = dev.rows / 2;
  const int mc = dev.cols / 2;
  const int lr = dev.rows - 1;
  const int lc = dev.cols - 1;
  return {
      {rc(mr, mc), rc(mr, mc)},          // same tile (feedback + detours)
      {rc(mr, mc), rc(mr, mc + 1)},      // direct connect east
      {rc(mr, mc), rc(mr, mc - 1)},      // direct connect west
      {rc(mr, mc), rc(mr + 1, mc)},      // one single north
      {rc(mr, mc), rc(mr, mc + 6)},      // pure hex: terminal-hex step-down
      {rc(mr, mc), rc(mr + 6, mc + 6)},  // two-axis pure hex
      {rc(mr, mc), rc(mr + 2, mc + 5)},  // overshoot on the column axis
      {rc(mr, mc), rc(mr - 3, mc + 4)},  // mixed exact/overshoot
      {rc(0, 0), rc(0, 5)},              // overshoot from the SW corner
      {rc(0, lc - 5), rc(0, lc)},        // overshoot toward the SE corner
      {rc(lr, lc), rc(lr, lc - 6)},      // pure hex out of the NE corner
      {rc(lr, 0), rc(lr - 6, 0)},        // pure hex down the west edge
  };
}

/// tpl-displacement — every template nets the exact displacement and is
/// bracketed by OUTMUX/CLBIN (the bare feedback/direct variant excepted).
class DisplacementRule final : public Rule {
 public:
  const char* id() const override { return "tpl-displacement"; }
  Layer layer() const override { return Layer::kTemplate; }
  const char* description() const override {
    return "templates net the exact tile displacement, OUTMUX..CLBIN";
  }
  void run(const ModelView& m, VerifyReport& out) const override {
    for (const auto& [from, to] : probePairs(*m.dev)) {
      for (const auto& tmpl : m.templates(from, to)) {
        ++out.templatesChecked;
        int dr = 0, dc = 0;
        bool directional = false;
        for (const TemplateValue v : tmpl) {
          dr += templateDRow(v);
          dc += templateDCol(v);
          directional =
              directional || templateDRow(v) != 0 || templateDCol(v) != 0;
        }
        if (!directional) continue;  // displacement rides a dedicated pip
        if (dr != to.row - from.row || dc != to.col - from.col) {
          addFinding(*this, out, entity(from, to, tmpl),
                     "nets (" + std::to_string(dr) + "," +
                         std::to_string(dc) + ") instead of the tile delta",
                     "the axis decomposition in template_lib.cpp no longer "
                     "sums to the displacement");
        }
        if (tmpl.front() != TemplateValue::OUTMUX ||
            tmpl.back() != TemplateValue::CLBIN) {
          addFinding(*this, out, entity(from, to, tmpl),
                     "pin-to-pin template is not OUTMUX-led and CLBIN-ended",
                     "templatesFor(srcIsOutput=true, dstIsInput=true) must "
                     "bracket every directional body");
        }
      }
    }
  }

 private:
  static std::string entity(RowCol from, RowCol to,
                            const std::vector<TemplateValue>& tmpl) {
    std::string s = tileName(from) + "->" + tileName(to) + " [";
    for (size_t i = 0; i < tmpl.size(); ++i) {
      if (i > 0) s += ' ';
      s += templateValueName(tmpl[i]);
    }
    return s + "]";
  }
};

/// tpl-bounds — the nominal tile walk of every template stays inside the
/// device (overshoot variants must be clipped at edges).
class BoundsRule final : public Rule {
 public:
  const char* id() const override { return "tpl-bounds"; }
  Layer layer() const override { return Layer::kTemplate; }
  const char* description() const override {
    return "template walks never leave the device array";
  }
  void run(const ModelView& m, VerifyReport& out) const override {
    for (const auto& [from, to] : probePairs(*m.dev)) {
      for (const auto& tmpl : m.templates(from, to)) {
        ++out.templatesChecked;
        int r = from.row, c = from.col;
        for (const TemplateValue v : tmpl) {
          r += templateDRow(v);
          c += templateDCol(v);
          if (r < 0 || r >= m.dev->rows || c < 0 || c >= m.dev->cols) {
            addFinding(
                *this, out,
                tileName(from) + "->" + tileName(to) + " via " +
                    std::string(templateValueName(v)),
                "walk reaches (" + std::to_string(r) + "," +
                    std::to_string(c) + ") outside the array",
                "templatesFor must drop bodies whose nominal positions "
                "leave the device (overshoot near an edge)");
            break;
          }
        }
      }
    }
  }
};

/// tpl-replay — every template replays to a legal, contention-free path
/// on a clean fabric: the follower must reach some non-clock input pin of
/// the destination tile. A template that cannot replay anywhere is dead
/// weight that silently shunts every route to the maze fallback.
class ReplayRule final : public Rule {
 public:
  const char* id() const override { return "tpl-replay"; }
  Layer layer() const override { return Layer::kTemplate; }
  const char* description() const override {
    return "every template replays on a clean fabric to a real sink pin";
  }
  void run(const ModelView& m, VerifyReport& out) const override {
    const xcvsim::Graph& g = *m.graph;
    const jroute::RouterOptions opts;
    for (const auto& [from, to] : probePairs(*m.dev)) {
      const NodeId src = g.nodeAt(from, sliceOut(0));
      if (src == kInvalidNode) continue;
      for (const auto& tmpl : m.templates(from, to)) {
        ++out.templatesChecked;
        bool found = false;
        // Probe concrete sink pins: with no required target the follower
        // accepts any full-depth node, which can sit at the wrong tile
        // after a mid-tap hex exit — not a replay proof.
        for (int pin = 0; pin < kClbInputs && !found; ++pin) {
          if (isClockPin(clbIn(pin))) continue;
          const NodeId sink = g.nodeAt(to, clbIn(pin));
          if (sink == kInvalidNode) continue;
          found = jroute::followTemplate(*m.fabric, src, tmpl, sink,
                                         kInvalidLocalWire, opts)
                      .found;
        }
        if (!found) {
          std::string seq;
          for (const TemplateValue v : tmpl) {
            if (!seq.empty()) seq += ' ';
            seq += templateValueName(v);
          }
          addFinding(*this, out,
                     tileName(from) + "->" + tileName(to) + " [" + seq + "]",
                     "template cannot replay to any input pin of the "
                     "destination tile",
                     "the sequence violates a switch-matrix driver rule "
                     "(singles never drive hexes, hexes never drive CLBIN, "
                     "no same-channel U-turn) or was clipped wrongly");
        }
      }
    }
  }
};

/// template-footprint-consistent — every wire a template replay actually
/// steps through lies inside jrplan's extracted claim footprint for that
/// src→sink pin pair. An extractor that under-covers its own templates
/// would claim a conservative bound it does not keep, so the analyzer's
/// coverage is verified against the replays themselves.
class FootprintRule final : public Rule {
 public:
  const char* id() const override { return "template-footprint-consistent"; }
  Layer layer() const override { return Layer::kTemplate; }
  const char* description() const override {
    return "template replay wire sets stay inside jrplan footprints";
  }
  void run(const ModelView& m, VerifyReport& out) const override {
    const xcvsim::Graph& g = *m.graph;
    const jroute::RouterOptions opts;
    for (const auto& [from, to] : probePairs(*m.dev)) {
      const NodeId src = g.nodeAt(from, sliceOut(0));
      if (src == kInvalidNode) continue;
      for (const auto& tmpl : m.templates(from, to)) {
        ++out.templatesChecked;
        for (int pin = 0; pin < kClbInputs; ++pin) {
          if (isClockPin(clbIn(pin))) continue;
          const NodeId sink = g.nodeAt(to, clbIn(pin));
          if (sink == kInvalidNode) continue;
          const jroute::TemplateResult res = jroute::followTemplate(
              *m.fabric, src, tmpl, sink, kInvalidLocalWire, opts);
          if (!res.found) continue;
          const jrplan::Footprint fp =
              m.footprint(jroute::Pin{from, sliceOut(0)},
                          jroute::Pin{to, clbIn(pin)});
          if (!fp.sound()) {
            addFinding(*this, out,
                       tileName(from) + "->" + tileName(to),
                       "footprint of a template-replayable pair is unsound",
                       "FootprintExtractor::extractPair must bound every "
                       "pair the template library can serve");
            continue;
          }
          for (const xcvsim::EdgeId e : res.edges) {
            const NodeId n = g.edge(e).to;
            if (!fp.allowsNode(g, n)) {
              addFinding(
                  *this, out,
                  tileName(from) + "->" + tileName(to) + " node " +
                      g.nodeName(n),
                  "replayed template wire escapes the extracted footprint",
                  "addTemplateWalk/long-line strip indexing in "
                  "footprint.cpp no longer covers this step");
              break;
            }
          }
        }
      }
    }
  }
};

}  // namespace

std::vector<const Rule*> templateRules() {
  static const DisplacementRule displacement;
  static const BoundsRule bounds;
  static const ReplayRule replay;
  static const FootprintRule footprint;
  return {&displacement, &bounds, &replay, &footprint};
}

}  // namespace jrverify
