// E1 — Fig. 1 / section 2: the Virtex routing fabric inventory, and the
// section 5 family range (16x24 .. 64x96).
//
// Regenerates the architecture figure as numbers: per-CLB resource counts
// exactly as the paper states them, then the whole device family with
// routing-graph size, per-stage bring-up time (ArchDb, Graph, PipTable,
// lookahead), and memory — the data a run-time router has to stand up
// before it can touch a single PIP. One run record per device.
#include <sys/resource.h>

#include <cstdio>

#include "arch/patterns.h"
#include "bench/bench_util.h"
#include "lookahead/lookahead.h"

using namespace xcvsim;

int main() {
  std::printf("E1: Virtex fabric inventory (paper section 2 / figure 1)\n\n");

  // Per-tile constants, as stated in the paper.
  std::printf("per-CLB routing resources (paper's claim -> model):\n");
  std::printf("  single lines per direction      24 -> %d\n",
              kSinglesPerChannel);
  std::printf("  hex lines drivable per direction 12 -> %d\n", kHexTracks);
  std::printf("  hex span (tiles)                  6 -> %d\n", kHexSpan);
  std::printf("  long lines per row/column        12 -> %d\n", kLongTracks);
  std::printf("  long-line access period           6 -> %d\n",
              kLongAccessPeriod);
  std::printf("  dedicated global clock nets       4 -> %d\n", kGlobalNets);
  std::printf("  (future work, implemented) IOBs per boundary tile: %d; "
              "BRAM columns: %d, %d ports/edge tile, %d bits/block\n",
              kIobsPerTile, kBramColumns, kBramPinsPerTile,
              kBramBitsPerBlock);

  // Verify the driver rules hold at an interior tile by classification.
  ArchDb db(xcv300());
  int byKind[8][8] = {};
  for (const auto [f, t] : db.tilePips({16, 24})) {
    byKind[static_cast<int>(wireKind(f))][static_cast<int>(wireKind(t))]++;
  }
  std::printf("\ninterior-tile PIP census (XCV300 R16C24):\n");
  const char* names[] = {"SliceOut", "Omux", "ClbIn", "Single",
                         "Hex",      "Long", "Gclk"};
  for (int f = 0; f < 7; ++f) {
    for (int t = 0; t < 7; ++t) {
      if (byKind[f][t]) {
        std::printf("  %-8s -> %-8s : %4d PIPs\n", names[f], names[t],
                    byKind[f][t]);
      }
    }
  }

  // The family sweep: graph size, then the bring-up a run-time router pays
  // before its first route, stage by stage, and the process peak RSS after
  // each device (the sweep runs smallest to largest, so it is that
  // device's peak).
  std::printf("\ndevice family (paper section 5: 16x24 .. 64x96):\n");
  std::printf("%-9s %5s %5s %10s %10s %7s %8s %8s %8s %8s %8s %9s\n",
              "device", "rows", "cols", "wires", "PIPs", "classes", "arch(s)",
              "graph(s)", "pips(s)", "look(s)", "mem(MB)", "peak(MB)");
  for (const DeviceSpec& spec : deviceFamily()) {
    std::unique_ptr<Graph> g;
    std::unique_ptr<PipTable> table;
    const double archS = jrbench::secondsOf([&] { ArchDb standalone(spec); });
    const double graphS =
        jrbench::secondsOf([&] { g = std::make_unique<Graph>(spec); });
    const double pipS = jrbench::secondsOf(
        [&] { table = std::make_unique<PipTable>(g->arch()); });
    const double lookS =
        jrbench::secondsOf([&] { jrla::Lookahead::forGraph(*g); });
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peakMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    const double graphMb = static_cast<double>(g->memoryBytes()) / (1 << 20);
    const int classes = g->arch().numTileClasses();
    std::printf(
        "%-9s %5d %5d %10u %10u %7d %8.3f %8.3f %8.3f %8.3f %8.1f %9.1f\n",
        std::string(spec.name).c_str(), spec.rows, spec.cols, g->numNodes(),
        g->numEdges(), classes, archS, graphS, pipS, lookS, graphMb, peakMb);
    jrbench::JsonWriter j;
    j.kv("bench", std::string("e1_bringup"))
        .kv("device", std::string(spec.name))
        .kv("nodes", static_cast<uint64_t>(g->numNodes()))
        .kv("edges", static_cast<uint64_t>(g->numEdges()))
        .kv("tile_classes", static_cast<uint64_t>(classes))
        .kv("pip_slots", static_cast<uint64_t>(table->numPipSlots()))
        .kv("arch_s", archS)
        .kv("graph_s", graphS)
        .kv("pip_table_s", pipS)
        .kv("lookahead_s", lookS)
        .kv("graph_mb", graphMb)
        .kv("peak_rss_mb", peakMb);
    jrbench::appendRunRecord(j);
  }
  return 0;
}
