//===- Workloads.cpp - Benchmark registry and run harness ------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "workloads/Workloads.h"

#include <stdexcept>

using namespace earthcc;

// Benchmark sources (one translation unit each; see the per-file comments).
extern const char *earthccPowerSource;
extern const char *earthccPerimeterSource;
extern const char *earthccTspSource;
extern const char *earthccHealthSource;
extern const char *earthccVoronoiSource;

std::string
earthcc::expandWorkloadSource(const std::string &Template,
                              const std::vector<WorkloadParam> &Params,
                              bool Small) {
  std::string Text = Template;
  for (const WorkloadParam &P : Params) {
    const std::string Needle = "${" + P.Name + "}";
    const std::string &Value = Small ? P.Small : P.Full;
    size_t Hits = 0;
    size_t Pos = 0;
    while ((Pos = Text.find(Needle, Pos)) != std::string::npos) {
      Text.replace(Pos, Needle.size(), Value);
      Pos += Value.size();
      ++Hits;
    }
    if (Hits == 0)
      throw std::runtime_error("workload parameter '" + P.Name +
                               "' matched nothing in the source template");
  }
  if (size_t Pos = Text.find("${"); Pos != std::string::npos)
    throw std::runtime_error("unexpanded workload placeholder: " +
                             Text.substr(Pos, Text.find('}', Pos) + 1 - Pos));
  return Text;
}

std::string Workload::smallSource() const {
  return expandWorkloadSource(SourceTemplate, Params, /*Small=*/true);
}

namespace {

Workload makeWorkload(std::string Name, std::string Description,
                      std::string PaperSize, std::string OurSize,
                      std::string Optimization, const char *Template,
                      std::vector<WorkloadParam> Params) {
  Workload W;
  W.Name = std::move(Name);
  W.Description = std::move(Description);
  W.PaperSize = std::move(PaperSize);
  W.OurSize = std::move(OurSize);
  W.Optimization = std::move(Optimization);
  W.SourceTemplate = Template;
  W.Params = std::move(Params);
  W.Source = expandWorkloadSource(W.SourceTemplate, W.Params, /*Small=*/false);
  return W;
}

} // namespace

const std::vector<Workload> &earthcc::oldenWorkloads() {
  static const std::vector<Workload> Workloads = {
      makeWorkload("power",
                   "Power system optimization over a variable k-nary tree",
                   "10,000 leaves",
                   "1024 leaves (16 feeders x 4 x 4 x 4), 4 iterations",
                   "blocking of per-node field reads/writes",
                   earthccPowerSource,
                   {{"feeders", "16", "8"},
                    {"lateral", "4", "2"},
                    {"branch", "4", "2"},
                    {"leaf", "4", "2"}}),
      makeWorkload("perimeter",
                   "Perimeter of a quad-tree encoded raster image",
                   "maximum tree depth 11", "tree depth 6 (up to 4096 leaves)",
                   "blocking (blkmov replaces child-pointer reads)",
                   earthccPerimeterSource, {{"depth", "6", "4"}}),
      makeWorkload("tsp",
                   "Sub-optimal traveling-salesperson tour over a point tree",
                   "32K cities", "2K cities (depth-11 BSP tree)",
                   "redundant communication elimination + pipelining",
                   earthccTspSource, {{"depth", "11", "7"}}),
      makeWorkload("health",
                   "Colombian health-care simulation over a 4-way village tree",
                   "4 levels, 600 iterations",
                   "4 levels (85 villages), 48 iterations",
                   "pipelining + redundancy elimination", earthccHealthSource,
                   {{"levels", "3", "2"}, {"iters", "48", "8"}}),
      makeWorkload("voronoi",
                   "Divide-and-conquer geometric merge over a point tree",
                   "32K points", "2047 points (depth-11 point tree)",
                   "redundancy elimination + blocking", earthccVoronoiSource,
                   {{"depth", "11", "7"}}),
  };
  return Workloads;
}

const Workload *earthcc::findWorkload(const std::string &Name) {
  for (const Workload &W : oldenWorkloads())
    if (W.Name == Name)
      return &W;
  return nullptr;
}

PipelineOptions earthcc::workloadOptions(RunMode Mode,
                                         const CommOptions &Comm) {
  PipelineOptions Opts;
  static_cast<CommOptions &>(Opts) = Comm;
  Opts.Optimize = Mode == RunMode::Optimized;
  return Opts;
}

MachineConfig earthcc::workloadMachine(RunMode Mode, unsigned Nodes) {
  MachineConfig MC;
  MC.NumNodes = Nodes;
  MC.SequentialMode = Mode == RunMode::Sequential;
  return MC;
}

RunResult earthcc::runWorkload(const Workload &W, RunMode Mode,
                               unsigned Nodes, const CommOptions &Comm) {
  Pipeline P(workloadOptions(Mode, Comm));
  return P.run(P.compile(W.Source), workloadMachine(Mode, Nodes));
}
