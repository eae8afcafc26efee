//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Options, clocks, order statistics, hashing, the result record every
/// workload fills in, and the host stamp printed with every result.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_PERFBENCH_COMMON_H
#define LLSTAR_PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Command-line options shared by every workload.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Checkout root: grammars/ is read from here.
  std::string Root = ".";
  /// Directory for trace files (created if missing).
  std::string OutDir = ".bench_build/traces";
  /// Flip one bit of every reference before the timed region, so the
  /// oracle must report every operation as failed (the smoke test's
  /// negative control).
  bool CorruptReference = false;
};

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}
inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Linear-interpolation quantile (q in [0,1]) of \p V; 0 when empty.
double quantile(std::vector<double> V, double Q);
double median(std::vector<double> V);
/// Interquartile range as a share of the median (0 when the median is 0).
double relativeIqr(std::vector<double> V);
double mean(const std::vector<double> &V);

/// A fast 64-bit hash of \p Bytes (eight bytes per step): the oracles keep
/// hashes of reference outputs, not the outputs themselves.
uint64_t hashText(std::string_view Bytes);

/// getrusage max RSS of this process, in MB.
double peakRssMb();

/// One metric of a result: a value plus the samples it was taken from
/// (empty when the value is a single measurement or a count).
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  std::vector<double> Samples;
  /// Free-form qualifier printed in the human-readable report.
  std::string Note;
};

/// What a workload run reports.
struct Result {
  int64_t Attempted = 0;
  int64_t Failed = 0;
  /// First few oracle mismatches, for the report.
  std::vector<std::string> Mismatches;
  std::vector<Metric> Metrics;
  /// Extra human-readable lines (corpus size, reconciliation, ...).
  std::vector<std::string> Notes;

  void add(std::string Name, double Value, std::string Unit,
           std::vector<double> Samples = {}, std::string Note = "");
  void fail(std::string What);
  bool correct() const { return Failed == 0 && Attempted > 0; }
};

/// Runs \p Work in a forked child and returns the words it produced.
/// References are computed there so the oracle's own memory never shows
/// in the workload's peak RSS. Must be called before this process starts
/// any thread. Exits the benchmark when the child fails.
std::vector<uint64_t>
runInChild(const std::function<std::vector<uint64_t>()> &Work);

/// Per-thread count of operator new calls (see Alloc.cpp).
uint64_t threadAllocations();

/// Host description printed with every result.
struct HostStamp {
  unsigned VCpus = 0;
  std::string Compiler;
  std::string BuildType;
  double SpinSingleS = 0;  ///< wall time of a fixed spin loop, one thread
  double SpinAllCoreS = 0; ///< same loop on every vCPU at once
  /// SpinSingleS * VCpus / SpinAllCoreS: how many vCPUs' worth of
  /// parallel work the host actually delivered during the probe.
  double ScalingFactor = 0;
};
HostStamp probeHost();

/// Prints the human-readable report and, as the last line, the JSON result
/// object. Returns the process exit code.
int emitResult(const Options &O, const HostStamp &H, Result &R);

} // namespace perfbench

#endif // LLSTAR_PERFBENCH_COMMON_H
