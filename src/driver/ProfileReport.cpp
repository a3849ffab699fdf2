//===- ProfileReport.cpp - Joined per-site profile report ------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "driver/ProfileReport.h"

#include "simple/CommSites.h"
#include "support/CommProfiler.h"
#include "support/Json.h"
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

bool siteActive(const SiteProfile &P) { return P.Msgs + P.LocalHits != 0; }

} // namespace

std::string earthcc::renderProfileReport(const Module &M,
                                         const CommProfiler &Prof,
                                         const RemarkStream *Remarks) {
  CommSiteTable Table = buildCommSiteTable(M);
  auto RemarkIndex = indexRemarks(Remarks);

  std::ostringstream OS;
  TablePrinter T({"site", "location", "op", "access", "msgs", "words",
                  "local", "mean ns", "p50 ns", "p90 ns", "max ns",
                  "remarks"});
  size_t Quiet = 0;
  for (const CommSite &S : Table.sites()) {
    if (static_cast<unsigned>(S.Id) >= Prof.numSites())
      continue; // Module mutated since the profiled run; skip the tail.
    const SiteProfile &P = Prof.site(static_cast<unsigned>(S.Id));
    if (!siteActive(P)) {
      ++Quiet;
      continue;
    }
    std::string Cats;
    if (auto It = RemarkIndex.find(keyOf(S.Fn->name(), S.Loc));
        It != RemarkIndex.end())
      Cats = joinCategories(It->second);
    T.addRow({std::to_string(S.Id), S.Fn->name() + ":" + S.Loc.str(),
              commSiteKindName(S.Kind), S.Desc, std::to_string(P.Msgs),
              std::to_string(P.Words), std::to_string(P.LocalHits),
              TablePrinter::fmt(P.latencyMeanNs(), 0),
              std::to_string(P.latencyPercentileNs(50.0)),
              std::to_string(P.latencyPercentileNs(90.0)),
              std::to_string(P.LatMaxNs), Cats});
  }
  T.print(OS);
  OS << "total: " << Prof.totalMsgs() << " remote messages across "
     << (Table.size() - Quiet) << " active sites (" << Quiet
     << " sites quiet)\n";

  if (Prof.numNodes() > 1) {
    OS << "\ntraffic matrix (words, row = from node, col = to node):\n";
    TablePrinter TM([&] {
      std::vector<std::string> H{"from\\to"};
      for (unsigned N = 0; N != Prof.numNodes(); ++N)
        H.push_back(std::to_string(N));
      return H;
    }());
    for (unsigned From = 0; From != Prof.numNodes(); ++From) {
      std::vector<std::string> Row{std::to_string(From)};
      for (unsigned To = 0; To != Prof.numNodes(); ++To)
        Row.push_back(std::to_string(Prof.trafficWords(From, To)));
      TM.addRow(std::move(Row));
    }
    TM.print(OS);
  }

  // Per-link occupancy exists only on non-ideal topologies (the ideal
  // network has no links to contend for).
  if (!Prof.netLinks().empty()) {
    const double EndNs = Prof.netEndTimeNs();
    OS << "\nnetwork links (topology " << Prof.netTopology() << "):\n";
    TablePrinter TL({"link", "msgs", "words", "busy ns", "util", "max queue"});
    for (const NetLinkStats &L : Prof.netLinks())
      TL.addRow({L.Name, std::to_string(L.Msgs), std::to_string(L.Words),
                 TablePrinter::fmt(L.BusyNs, 0),
                 TablePrinter::fmt(EndNs > 0.0 ? L.BusyNs / EndNs : 0.0, 3),
                 std::to_string(L.MaxQueueDepth)});
    TL.print(OS);
  }
  return OS.str();
}

std::string earthcc::profileReportJson(const Module &M,
                                       const CommProfiler &Prof,
                                       const RemarkStream *Remarks) {
  CommSiteTable Table = buildCommSiteTable(M);
  auto RemarkIndex = indexRemarks(Remarks);

  std::ostringstream OS;
  OS << "{\"version\": " << ProfileJsonVersion << ", \"sites\": [";
  bool First = true;
  for (const CommSite &S : Table.sites()) {
    if (static_cast<unsigned>(S.Id) >= Prof.numSites())
      continue;
    const SiteProfile &P = Prof.site(static_cast<unsigned>(S.Id));
    if (!siteActive(P))
      continue;
    if (!First)
      OS << ", ";
    First = false;
    OS << "{\"site\": " << S.Id << ", \"function\": \""
       << json::escape(S.Fn->name()) << "\", \"line\": " << S.Loc.Line
       << ", \"col\": " << S.Loc.Col << ", \"op\": \""
       << commSiteKindName(S.Kind) << "\", \"access\": \""
       << json::escape(S.Desc) << "\", \"msgs\": " << P.Msgs
       << ", \"words\": " << P.Words << ", \"local\": " << P.LocalHits
       << ", \"lat_mean_ns\": " << P.latencyMeanNs()
       << ", \"lat_p50_ns\": " << P.latencyPercentileNs(50.0)
       << ", \"lat_p90_ns\": " << P.latencyPercentileNs(90.0)
       << ", \"lat_min_ns\": " << P.LatMinNs
       << ", \"lat_max_ns\": " << P.LatMaxNs << ", \"remarks\": [";
    if (auto It = RemarkIndex.find(keyOf(S.Fn->name(), S.Loc));
        It != RemarkIndex.end()) {
      for (size_t I = 0; I != It->second.size(); ++I)
        OS << (I ? ", " : "") << "\"" << json::escape(It->second[I]) << "\"";
    }
    OS << "]}";
  }
  OS << "], \"total_msgs\": " << Prof.totalMsgs() << ", \"traffic_words\": [";
  for (unsigned From = 0; From != Prof.numNodes(); ++From) {
    OS << (From ? ", [" : "[");
    for (unsigned To = 0; To != Prof.numNodes(); ++To)
      OS << (To ? ", " : "") << Prof.trafficWords(From, To);
    OS << "]";
  }
  OS << "]";
  // Per-link utilization and queue depth, present only when the run used a
  // topology with real links (ideal stays byte-identical to the v1 schema).
  if (!Prof.netLinks().empty()) {
    const double EndNs = Prof.netEndTimeNs();
    OS << ", \"network\": {\"topology\": \"" << json::escape(Prof.netTopology())
       << "\", \"end_ns\": " << EndNs << ", \"links\": [";
    bool FirstLink = true;
    for (const NetLinkStats &L : Prof.netLinks()) {
      OS << (FirstLink ? "" : ", ") << "{\"name\": \"" << json::escape(L.Name)
         << "\", \"msgs\": " << L.Msgs << ", \"words\": " << L.Words
         << ", \"busy_ns\": " << L.BusyNs << ", \"utilization\": "
         << (EndNs > 0.0 ? L.BusyNs / EndNs : 0.0)
         << ", \"max_queue_depth\": " << L.MaxQueueDepth << "}";
      FirstLink = false;
    }
    OS << "]}";
  }
  OS << "}";
  return OS.str();
}
