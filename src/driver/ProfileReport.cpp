//===- ProfileReport.cpp - Joined per-site profile report ------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "driver/ProfileReport.h"

#include "simple/CommSites.h"
#include "support/CommProfiler.h"
#include "support/Remark.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <map>
#include <sstream>

using namespace earthcc;

namespace {

/// The join key: remarks carry (function name, location); sites carry the
/// same pair. Tuple ordering keeps the index deterministic.
using JoinKey = std::tuple<std::string, unsigned, unsigned>;

JoinKey keyOf(const std::string &Fn, SourceLoc Loc) {
  return {Fn, Loc.Line, Loc.Col};
}

/// Remark categories ("pass.category", deduplicated, emission order) per
/// (function, location).
std::map<JoinKey, std::vector<std::string>>
indexRemarks(const RemarkStream *Remarks) {
  std::map<JoinKey, std::vector<std::string>> Index;
  if (!Remarks)
    return Index;
  for (const Remark &R : Remarks->all()) {
    std::vector<std::string> &Cats = Index[keyOf(R.Function, R.Loc)];
    std::string Tag = R.Pass + "." + R.Category;
    if (std::find(Cats.begin(), Cats.end(), Tag) == Cats.end())
      Cats.push_back(std::move(Tag));
  }
  return Index;
}

std::string joinCategories(const std::vector<std::string> &Cats) {
  std::string Out;
  for (const std::string &C : Cats) {
    if (!Out.empty())
      Out += ", ";
    Out += C;
  }
  return Out;
}

/// The joined document over \p Table, the module's comm sites: one row per
/// active site the profiler knows, in site-id order.
ProfileData buildFrom(const CommSiteTable &Table, const CommProfiler &Prof,
                      const RemarkStream *Remarks) {
  auto RemarkIndex = indexRemarks(Remarks);
  ProfileData P;
  for (const CommSite &S : Table.sites()) {
    if (static_cast<unsigned>(S.Id) >= Prof.numSites())
      continue; // Module mutated since the profiled run; skip the tail.
    const SiteProfile &SP = Prof.site(static_cast<unsigned>(S.Id));
    if (SP.Msgs + SP.LocalHits == 0)
      continue;
    ProfileSiteRow Row;
    Row.Site = S.Id;
    Row.Function = S.Fn->name();
    Row.Line = S.Loc.Line;
    Row.Col = S.Loc.Col;
    Row.Op = commSiteKindName(S.Kind);
    Row.Access = S.Desc;
    Row.Msgs = SP.Msgs;
    Row.Words = SP.Words;
    Row.Local = SP.LocalHits;
    Row.LatMeanNs = SP.latencyMeanNs();
    Row.LatP50Ns = SP.latencyPercentileNs(50.0);
    Row.LatP90Ns = SP.latencyPercentileNs(90.0);
    Row.LatMinNs = SP.LatMinNs;
    Row.LatMaxNs = SP.LatMaxNs;
    if (auto It = RemarkIndex.find(keyOf(S.Fn->name(), S.Loc));
        It != RemarkIndex.end())
      Row.Remarks = It->second;
    P.Sites.push_back(std::move(Row));
  }
  P.TotalMsgs = Prof.totalMsgs();
  for (unsigned From = 0; From != Prof.numNodes(); ++From) {
    std::vector<uint64_t> Row;
    for (unsigned To = 0; To != Prof.numNodes(); ++To)
      Row.push_back(Prof.trafficWords(From, To));
    P.TrafficWords.push_back(std::move(Row));
  }
  // Per-link utilization and queue depth exist only when the run used a
  // topology with real links (the ideal network has none to contend for).
  if (!Prof.netLinks().empty()) {
    P.HasNetwork = true;
    P.NetTopology = Prof.netTopology();
    P.NetEndNs = Prof.netEndTimeNs();
    for (const NetLinkStats &L : Prof.netLinks()) {
      ProfileLinkRow Row;
      Row.Name = L.Name;
      Row.Msgs = L.Msgs;
      Row.Words = L.Words;
      Row.BusyNs = L.BusyNs;
      Row.Utilization = P.NetEndNs > 0.0 ? L.BusyNs / P.NetEndNs : 0.0;
      Row.MaxQueueDepth = L.MaxQueueDepth;
      P.Links.push_back(std::move(Row));
    }
  }
  return P;
}

} // namespace

ProfileData earthcc::buildProfileData(const Module &M,
                                      const CommProfiler &Prof,
                                      const RemarkStream *Remarks) {
  return buildFrom(buildCommSiteTable(M), Prof, Remarks);
}

std::string earthcc::renderProfileReport(const Module &M,
                                         const CommProfiler &Prof,
                                         const RemarkStream *Remarks) {
  CommSiteTable Table = buildCommSiteTable(M);
  ProfileData P = buildFrom(Table, Prof, Remarks);

  std::ostringstream OS;
  TablePrinter T({"site", "location", "op", "access", "msgs", "words",
                  "local", "mean ns", "p50 ns", "p90 ns", "max ns",
                  "remarks"});
  for (const ProfileSiteRow &S : P.Sites) {
    T.addRow({std::to_string(S.Site),
              S.Function + ":" + SourceLoc(S.Line, S.Col).str(), S.Op,
              S.Access, std::to_string(S.Msgs), std::to_string(S.Words),
              std::to_string(S.Local), TablePrinter::fmt(S.LatMeanNs, 0),
              std::to_string(S.LatP50Ns), std::to_string(S.LatP90Ns),
              std::to_string(S.LatMaxNs), joinCategories(S.Remarks)});
  }
  T.print(OS);
  const size_t Quiet =
      std::min<size_t>(Table.size(), Prof.numSites()) - P.Sites.size();
  OS << "total: " << P.TotalMsgs << " remote messages across "
     << P.Sites.size() << " active sites (" << Quiet << " sites quiet)\n";

  if (P.TrafficWords.size() > 1) {
    OS << "\ntraffic matrix (words, row = from node, col = to node):\n";
    TablePrinter TM([&] {
      std::vector<std::string> H{"from\\to"};
      for (size_t N = 0; N != P.TrafficWords.size(); ++N)
        H.push_back(std::to_string(N));
      return H;
    }());
    for (size_t From = 0; From != P.TrafficWords.size(); ++From) {
      std::vector<std::string> Row{std::to_string(From)};
      for (uint64_t W : P.TrafficWords[From])
        Row.push_back(std::to_string(W));
      TM.addRow(std::move(Row));
    }
    TM.print(OS);
  }

  if (P.HasNetwork) {
    OS << "\nnetwork links (topology " << P.NetTopology << "):\n";
    TablePrinter TL({"link", "msgs", "words", "busy ns", "util", "max queue"});
    for (const ProfileLinkRow &L : P.Links)
      TL.addRow({L.Name, std::to_string(L.Msgs), std::to_string(L.Words),
                 TablePrinter::fmt(L.BusyNs, 0),
                 TablePrinter::fmt(L.Utilization, 3),
                 std::to_string(L.MaxQueueDepth)});
    TL.print(OS);
  }
  return OS.str();
}

std::string earthcc::profileReportJson(const Module &M,
                                       const CommProfiler &Prof,
                                       const RemarkStream *Remarks) {
  std::string Json = saveProfileJson(buildProfileData(M, Prof, Remarks));
  // The writer grows its buffer geometrically; the compile service caches
  // this document and budgets it by size(), so hand back a tight copy.
  Json.shrink_to_fit();
  return Json;
}
