//===- CommProfiler.cpp - Per-site communication profiles -----------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "support/CommProfiler.h"

#include <algorithm>
#include <bit>

namespace earthcc {

const char *commOpKindName(CommOpKind K) {
  switch (K) {
  case CommOpKind::Read:
    return "read";
  case CommOpKind::Write:
    return "write";
  case CommOpKind::BlkMov:
    return "blkmov";
  case CommOpKind::Atomic:
    return "atomic";
  }
  return "?";
}

unsigned SiteProfile::bucketOf(uint64_t Ns) {
  if (Ns < 16)
    return static_cast<unsigned>(Ns);
  unsigned E = 63 - static_cast<unsigned>(std::countl_zero(Ns)); // >= 4
  unsigned Sub = static_cast<unsigned>((Ns >> (E - 4)) & 0xF);
  unsigned B = 16 * (E - 3) + Sub;
  return std::min(B, NumBuckets - 1);
}

uint64_t SiteProfile::bucketLowNs(unsigned B) {
  if (B < 16)
    return B;
  unsigned E = B / 16 + 3;
  unsigned Sub = B % 16;
  return (uint64_t(1) << E) | (uint64_t(Sub) << (E - 4));
}

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
  if (!LatCount || LatHist.empty())
    return 0;
  // Rank of the percentile element, 1-based: ceil(P/100 * LatCount). Ranking
  // over the recorded samples (not Msgs) keeps the walk in bounds even when
  // the two counts diverge — an empty or single-sample site must render
  // without any divide-by-zero or off-the-end fallback.
  double Exact = P * static_cast<double>(LatCount) / 100.0;
  uint64_t Rank = static_cast<uint64_t>(Exact);
  if (static_cast<double>(Rank) < Exact)
    ++Rank;
  Rank = std::max<uint64_t>(1, std::min(Rank, LatCount));
  uint64_t Seen = 0;
  for (unsigned B = 0; B != NumBuckets; ++B) {
    Seen += LatHist[B];
    if (Seen >= Rank)
      return bucketLowNs(B);
  }
  return LatMaxNs;
}

void CommProfiler::beginRun(unsigned Sites_, unsigned Nodes) {
  NumSites = Sites_;
  NumNodes = Nodes;
  Sites.assign(NumSites, SiteProfile());
  SiteOps.assign(NumSites, CommOpKind::Read);
  TrafficMsgs.assign(size_t(NumNodes) * NumNodes, 0);
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

void CommProfiler::record(int32_t Site, CommOpKind Op, unsigned From,
                          unsigned To, uint64_t Words, double IssueStartNs,
                          double DoneNs) {
  if (Site < 0 || static_cast<unsigned>(Site) >= NumSites)
    return;
  SiteProfile &P = Sites[Site];
  SiteOps[Site] = Op;
  ++P.Msgs;
  P.Words += Words;
  double Lat = DoneNs - IssueStartNs;
  P.LatSumNs += Lat;
  P.recordLatency(Lat <= 0 ? 0 : static_cast<uint64_t>(Lat));
  if (From < NumNodes && To < NumNodes) {
    ++TrafficMsgs[From * NumNodes + To];
    TrafficWords[From * NumNodes + To] += Words;
  }
}

void CommProfiler::recordLocal(int32_t Site, CommOpKind Op, unsigned Node,
                               uint64_t Words) {
  (void)Node;
  (void)Words;
  if (Site < 0 || static_cast<unsigned>(Site) >= NumSites)
    return;
  SiteOps[Site] = Op;
  ++Sites[Site].LocalHits;
}

uint64_t CommProfiler::totalMsgs() const {
  uint64_t N = 0;
  for (const SiteProfile &P : Sites)
    N += P.Msgs;
  return N;
}

} // namespace earthcc
