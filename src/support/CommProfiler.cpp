//===- CommProfiler.cpp - Per-site communication profiles -----------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "support/CommProfiler.h"

#include <algorithm>

namespace earthcc {

void SiteProfile::recordLatency(uint64_t Ns) {
  if (LatHist.empty())
    LatHist.assign(NumBuckets, 0);
  ++LatHist[bucketOf(Ns)];
  // First-sample detection must come from the sample count itself, not from
  // Msgs: the engines bump Msgs before sampling, but nothing else does, and
  // min would otherwise stick at 0 for any standalone user.
  ++LatCount;
  LatMinNs = LatCount == 1 ? Ns : std::min(LatMinNs, Ns);
  LatMaxNs = std::max(LatMaxNs, Ns);
}

uint64_t SiteProfile::latencyPercentileNs(double P) const {
  // Ranking over the recorded samples (not Msgs) keeps the walk in bounds
  // even when the two counts diverge.
  if (LatHist.empty())
    return 0;
  return percentile(
      P, LatCount, [this](unsigned B) { return LatHist[B]; }, LatMaxNs);
}

void CommProfiler::beginRun(unsigned Sites_, unsigned Nodes) {
  NumSites = Sites_;
  NumNodes = Nodes;
  Sites.assign(NumSites, SiteProfile());
  TrafficWords.assign(size_t(NumNodes) * NumNodes, 0);
  NetTopology.clear();
  NetLinks.clear();
  NetPairWords.clear();
  NetEndTimeNs = 0.0;
}

void CommProfiler::setNetwork(std::string TopologyName,
                              std::vector<NetLinkStats> Links,
                              std::vector<uint64_t> PairWords,
                              double EndTimeNs) {
  NetTopology = std::move(TopologyName);
  NetLinks = std::move(Links);
  NetPairWords = std::move(PairWords);
  NetEndTimeNs = EndTimeNs;
}

void CommProfiler::record(int32_t Site, unsigned From, unsigned To,
                          uint64_t Words, double IssueStartNs, double DoneNs) {
  if (Site < 0 || static_cast<unsigned>(Site) >= NumSites)
    return;
  SiteProfile &P = Sites[Site];
  ++P.Msgs;
  P.Words += Words;
  double Lat = DoneNs - IssueStartNs;
  P.LatSumNs += Lat;
  P.recordLatency(Lat <= 0 ? 0 : static_cast<uint64_t>(Lat));
  if (From < NumNodes && To < NumNodes)
    TrafficWords[From * NumNodes + To] += Words;
}

void CommProfiler::recordLocal(int32_t Site) {
  if (Site < 0 || static_cast<unsigned>(Site) >= NumSites)
    return;
  ++Sites[Site].LocalHits;
}

uint64_t CommProfiler::totalMsgs() const {
  uint64_t N = 0;
  for (const SiteProfile &P : Sites)
    N += P.Msgs;
  return N;
}

} // namespace earthcc
