// Host-speed probe: a fixed kernel that shares no code or data with the
// program, timed between the measured rounds.
//
// The reference host's vCPU speed drifts by up to 1.6x within minutes
// (README "Drift"). The probe slows with it, so the ratio of a raw time to
// the probe's reading in the same run depends on the program alone. Two
// kernels make one reading, chosen because together they slow in step with
// the router (elasticity 1.03, correlation 0.94 over 20 runs of one seed):
//   - a dependent pointer chase through an 8 MB single-cycle table;
//   - 1500 budgeted best-first searches over a synthetic 64x96-tile
//     lattice (136 nodes per tile, 16 edges per node, 54 MB).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class HostProbe {
 public:
  /// Reading that defines the reference host speed (ms): about the median
  /// on the 4-core reference host.
  static constexpr double kReferenceMs = 30.0;

  /// Time both kernels once and keep their geometric mean. The tables are
  /// built on the first call, outside the timing.
  void sample();

  /// Median reading (ms) over the samples; kReferenceMs before the first.
  double readingMs() const;
  /// Multiply a raw rate, or divide a raw time, by this to get it at the
  /// reference host speed.
  double speedScale() const { return readingMs() / kReferenceMs; }
  size_t samples() const { return readings_.size(); }
  /// The latest reading (ms); kReferenceMs before the first.
  double lastMs() const {
    return readings_.empty() ? kReferenceMs : readings_.back();
  }

 private:
  void build();
  uint64_t search(uint32_t src, int goalRow, int goalCol);

  std::vector<uint32_t> chase_;    // single cycle over 2^21 entries
  std::vector<uint32_t> lattice_;  // LK * LE targets per tile
  std::vector<uint32_t> stamp_;    // visited epoch per lattice node
  uint32_t epoch_ = 0;
  uint64_t sink_ = 0;  // keeps the kernels' results live
  std::vector<double> readings_;
};

}  // namespace perfbench
