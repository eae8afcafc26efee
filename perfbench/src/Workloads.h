//===- perfbench/src/Workloads.h - The three workloads ----------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// bulk, daemon and edit. Each runs untraced (end-to-end metrics) or traced
/// (per-layer metrics) from the same seeded inputs; see perfbench/README.md
/// for why each workload exists and which layers it loads.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_PERFBENCH_WORKLOADS_H
#define LLSTAR_PERFBENCH_WORKLOADS_H

#include "Common.h"

namespace perfbench {

Result runBulk(const Options &O);
Result runDaemon(const Options &O);
Result runEdit(const Options &O);

} // namespace perfbench

#endif // LLSTAR_PERFBENCH_WORKLOADS_H
