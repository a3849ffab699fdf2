//===- Workloads.h - The Olden benchmarks in EARTH-C ------------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's benchmark suite (Table II) rewritten in our EARTH-C dialect:
/// power, perimeter, tsp, health and voronoi — all pointer-based programs
/// over dynamically allocated trees and lists, parallelized with parallel
/// sequences / forall and placed calls, and distributed with pmalloc@node.
///
/// Problem sizes are scaled to simulator scale; the per-benchmark notes
/// record the paper's original sizes. Each program's main() returns a
/// deterministic checksum that must be identical for the sequential,
/// simple (unoptimized parallel) and optimized versions at every node
/// count — the harness and tests verify this.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_WORKLOADS_WORKLOADS_H
#define EARTHCC_WORKLOADS_WORKLOADS_H

#include "driver/Pipeline.h"

#include <string>
#include <vector>

namespace earthcc {

/// One structural size parameter of a benchmark: the `${name}` placeholder
/// in the source template plus its full-size and reduced-size values.
struct WorkloadParam {
  std::string Name;  ///< Placeholder name (appears as `${Name}`).
  std::string Full;  ///< Value for the standard (Table II-scaled) size.
  std::string Small; ///< Value for the reduced equivalence-sweep size.
};

/// One benchmark program. Problem sizes are real fields, not literals
/// buried in the source text: the template carries `${param}` placeholders
/// and the two expansions are derived from Params, so resizing can never
/// silently miss (expansion hard-fails on an unmatched placeholder).
struct Workload {
  std::string Name;
  std::string Description;   ///< Table II description.
  std::string PaperSize;     ///< Problem size the paper used.
  std::string OurSize;       ///< Scaled size we run.
  std::string Optimization;  ///< Which comm optimizations dominate (paper).
  std::string SourceTemplate; ///< EARTH-C source with `${param}` holes.
  std::vector<WorkloadParam> Params; ///< Structural size parameters.
  std::string Source;        ///< Template expanded with the Full sizes.

  /// The template expanded with the Small sizes (two distinct input sizes
  /// per program for the engine-equivalence sweep).
  std::string smallSource() const;
};

/// Expands every `${name}` placeholder of \p Template from \p Params
/// (Small selects WorkloadParam::Small over Full). Throws std::runtime_error
/// if a parameter never matches or an unknown `${` placeholder remains —
/// a size change that does not take effect must be loud, not silent.
std::string expandWorkloadSource(const std::string &Template,
                                 const std::vector<WorkloadParam> &Params,
                                 bool Small);

/// The five Olden benchmarks (power, perimeter, tsp, health, voronoi).
const std::vector<Workload> &oldenWorkloads();

/// Finds a workload by name (nullptr if unknown).
const Workload *findWorkload(const std::string &Name);

/// How a benchmark run is configured.
enum class RunMode {
  Sequential, ///< Pure C baseline: 1 node, no EARTH operations at all.
  Simple,     ///< Parallel, no communication optimization.
  Optimized   ///< Parallel, communication optimization enabled.
};

/// The pipeline configuration matching \p Mode (with \p Comm as the
/// communication-selection policy where it applies).
PipelineOptions workloadOptions(RunMode Mode, const CommOptions &Comm = {});

/// The machine configuration matching \p Mode at \p Nodes nodes.
MachineConfig workloadMachine(RunMode Mode, unsigned Nodes);

/// Compiles and runs \p W under \p Mode on \p Nodes nodes (one-shot
/// convenience). A sweep compiles once with a Pipeline and runs the module
/// at every machine size: the module does not depend on the node count.
RunResult runWorkload(const Workload &W, RunMode Mode, unsigned Nodes,
                      const CommOptions &Comm = {});

} // namespace earthcc

#endif // EARTHCC_WORKLOADS_WORKLOADS_H
