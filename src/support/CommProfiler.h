//===- CommProfiler.h - Per-site communication profiles ---------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-site dynamic communication profiles, accumulated in *simulated* time
/// by both execution engines. A "site" is one comm-capable SIMPLE statement
/// (remote read, remote write, blkmov, atomic); site ids are assigned by
/// simple/CommSites.h as a pure function of the module, so profiles recorded
/// by the AST walker and the bytecode engine are bit-identical row for row.
///
/// Like TraceSink, a null CommProfiler pointer on MachineConfig means
/// profiling is off; every engine hook is guarded by one branch on the
/// pointer, so the disabled path adds no work to the hot loop.
///
/// Latencies are kept in a deterministic fixed-bucket histogram (16 linear
/// sub-buckets per power of two, ~6% worst-case resolution; see
/// support/LogLinear.h), so percentile queries are exact functions of the
/// recorded multiset — no sampling, no host-dependent state — and memory
/// per site stays bounded no matter how many messages a run issues.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_SUPPORT_COMMPROFILER_H
#define EARTHCC_SUPPORT_COMMPROFILER_H

#include "support/LogLinear.h"

#include <cstdint>
#include <string>
#include <vector>

namespace earthcc {

/// End-of-run occupancy statistics for one directed network link, reported
/// by the NetworkModel (earth/NetworkModel.h). Defined here so the profiler
/// (support layer) can carry them without depending on the earth layer.
struct NetLinkStats {
  std::string Name;       ///< Stable link id, e.g. "n3->n4" or "up1.2".
  uint64_t Msgs = 0;      ///< Transfers that traversed this link.
  uint64_t Words = 0;     ///< Payload words carried.
  double BusyNs = 0.0;    ///< Total simulated occupancy (latency + transfer).
  unsigned MaxQueueDepth = 0; ///< Peak FIFO depth (queued + in flight).
};

/// Accumulated dynamic behavior of one site. Its latency histogram has 16
/// exact buckets below 16 ns, then 16 linear sub-buckets per octave
/// (bucketOf, bucketLowNs and NumBuckets come from LogLinear<4>).
struct SiteProfile : LogLinear<4> {
  uint64_t Msgs = 0;       ///< Remote transactions issued from this site.
  uint64_t Words = 0;      ///< Words moved by those transactions.
  uint64_t LocalHits = 0;  ///< Local fallbacks (no remote traffic).
  double LatSumNs = 0.0;   ///< Sum of issue-start -> complete latencies.
  uint64_t LatCount = 0;   ///< Latency samples recorded (== Msgs for the
                           ///< engines, which sample once per message; kept
                           ///< separate so standalone histogram users — and
                           ///< the diff tool's edge cases — never depend on
                           ///< the caller mutating Msgs first).
  uint64_t LatMinNs = 0;   ///< Minimum latency (integer ns; 0 when empty).
  uint64_t LatMaxNs = 0;   ///< Maximum latency (integer ns).
  std::vector<uint64_t> LatHist; ///< Lazily sized to NumBuckets on first use.

  void recordLatency(uint64_t Ns);

  /// Latency at percentile \p P (0 < P <= 100): the lower bound of the
  /// histogram bucket holding the ceil(P% * LatCount)-th smallest latency.
  /// Returns 0 when no samples were recorded; a single sample is every
  /// percentile of itself.
  uint64_t latencyPercentileNs(double P) const;
  double latencyMeanNs() const { return LatCount ? LatSumNs / LatCount : 0.0; }
};

/// Per-site profile table plus a per-node-pair traffic matrix. Reset by
/// beginRun(); engines call record()/recordLocal() from the same points
/// where they bump OpCounters, with the same operands, so every derived
/// number is engine-invariant by construction.
class CommProfiler {
public:
  /// Clears all state and sizes the tables. Engines call this at run start,
  /// so one profiler instance observes exactly one run at a time.
  void beginRun(unsigned NumSites, unsigned NumNodes);

  /// Records one remote split-phase transaction: issued from node \p From
  /// against node \p To, moving \p Words words, issue started at
  /// \p IssueStartNs and completed at \p DoneNs (simulated clock).
  void record(int32_t Site, unsigned From, unsigned To, uint64_t Words,
              double IssueStartNs, double DoneNs);

  /// Records a comm-capable operation that resolved locally (no message).
  void recordLocal(int32_t Site);

  unsigned numSites() const { return NumSites; }
  unsigned numNodes() const { return NumNodes; }
  const SiteProfile &site(unsigned Id) const { return Sites[Id]; }

  uint64_t trafficWords(unsigned From, unsigned To) const {
    return TrafficWords[From * NumNodes + To];
  }

  uint64_t totalMsgs() const;

  /// Attaches the network layer's end-of-run view: topology name, per-link
  /// occupancy stats, the NumNodes x NumNodes matrix of words the model
  /// actually injected (row = source), and the run's end time (for
  /// utilization). The machine calls this once after a successful run. The
  /// ideal network reports no links.
  void setNetwork(std::string TopologyName, std::vector<NetLinkStats> Links,
                  std::vector<uint64_t> PairWords, double EndTimeNs);

  const std::string &netTopology() const { return NetTopology; }
  const std::vector<NetLinkStats> &netLinks() const { return NetLinks; }
  const std::vector<uint64_t> &netPairWords() const { return NetPairWords; }
  double netEndTimeNs() const { return NetEndTimeNs; }

private:
  unsigned NumSites = 0;
  unsigned NumNodes = 0;
  std::vector<SiteProfile> Sites;
  /// NumNodes x NumNodes remote words, row = from.
  std::vector<uint64_t> TrafficWords;
  std::string NetTopology;
  std::vector<NetLinkStats> NetLinks;
  std::vector<uint64_t> NetPairWords; ///< Same shape as TrafficWords.
  double NetEndTimeNs = 0.0;
};

} // namespace earthcc

#endif // EARTHCC_SUPPORT_COMMPROFILER_H
