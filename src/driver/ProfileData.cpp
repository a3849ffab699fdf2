//===- ProfileData.cpp - Persisted comm-profile load/save/diff ------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "driver/ProfileData.h"

#include "driver/ProfileReport.h"
#include "support/Json.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <tuple>
#include <utility>

using namespace earthcc;

//===----------------------------------------------------------------------===//
// Load
//===----------------------------------------------------------------------===//

namespace {

/// Reads the integer \p V into \p Out; an absent value (null \p V) leaves
/// \p Out as it is. A value that is not an integer \p Out can hold fails
/// the load with an error naming \p Field.
template <class IntT>
bool readInt(const json::Value *V, const char *Field, IntT &Out,
             std::string &Err) {
  if (!V)
    return true;
  std::optional<int64_t> I = V->asInt64();
  if (!I || !std::in_range<IntT>(*I)) {
    Err = std::string("profile: \"") + Field +
          "\" is not an integer in range";
    return false;
  }
  Out = static_cast<IntT>(*I);
  return true;
}

template <class IntT>
bool readInt(const json::Value &Obj, const char *Field, IntT &Out,
             std::string &Err) {
  return readInt(Obj.find(Field), Field, Out, Err);
}

bool loadSite(const json::Value &S, ProfileSiteRow &Row, std::string &Err) {
  if (!S.isObject()) {
    Err = "profile: site row is not an object";
    return false;
  }
  if (!S.find("function") || !S.find("op")) {
    Err = "profile: site row missing function/op";
    return false;
  }
  Row.Site = -1;
  if (!readInt(S, "site", Row.Site, Err) ||
      !readInt(S, "line", Row.Line, Err) ||
      !readInt(S, "col", Row.Col, Err) ||
      !readInt(S, "msgs", Row.Msgs, Err) ||
      !readInt(S, "words", Row.Words, Err) ||
      !readInt(S, "local", Row.Local, Err) ||
      !readInt(S, "lat_p50_ns", Row.LatP50Ns, Err) ||
      !readInt(S, "lat_p90_ns", Row.LatP90Ns, Err) ||
      !readInt(S, "lat_min_ns", Row.LatMinNs, Err) ||
      !readInt(S, "lat_max_ns", Row.LatMaxNs, Err))
    return false;
  Row.Function = S.getString("function", "");
  Row.Op = S.getString("op", "");
  Row.Access = S.getString("access", "");
  Row.LatMeanNs = S.getNumber("lat_mean_ns", 0.0);
  if (const json::Value *R = S.find("remarks"); R && R->isArray())
    for (const json::Value &Item : R->items())
      if (Item.isString())
        Row.Remarks.push_back(Item.asString());
  return true;
}

} // namespace

bool earthcc::loadProfileJson(std::string_view Text, ProfileData &Out,
                              std::string &Err) {
  json::Value Root;
  if (!json::parse(Text, Root, Err))
    return false;
  if (!Root.isObject()) {
    Err = "profile: top-level value is not an object";
    return false;
  }
  Out = ProfileData();
  // Documents written before the schema was versioned carry no "version"
  // field; they are the version-1 layout.
  double V = Root.getNumber("version", 1.0);
  if (V != static_cast<double>(ProfileJsonVersion)) {
    std::ostringstream OS;
    OS << "profile: unsupported schema version " << V << " (expected "
       << ProfileJsonVersion << ")";
    Err = OS.str();
    return false;
  }
  Out.Version = ProfileJsonVersion;

  const json::Value *Sites = Root.find("sites");
  if (!Sites || !Sites->isArray()) {
    Err = "profile: missing \"sites\" array";
    return false;
  }
  for (const json::Value &S : Sites->items()) {
    ProfileSiteRow Row;
    if (!loadSite(S, Row, Err))
      return false;
    Out.Sites.push_back(std::move(Row));
  }

  if (!readInt(Root, "total_msgs", Out.TotalMsgs, Err))
    return false;
  if (const json::Value *TW = Root.find("traffic_words");
      TW && TW->isArray()) {
    for (const json::Value &RowV : TW->items()) {
      std::vector<uint64_t> Row;
      if (RowV.isArray())
        for (const json::Value &Cell : RowV.items())
          if (!readInt(&Cell, "traffic_words", Row.emplace_back(), Err))
            return false;
      Out.TrafficWords.push_back(std::move(Row));
    }
  }

  if (const json::Value *Net = Root.find("network"); Net && Net->isObject()) {
    Out.HasNetwork = true;
    Out.NetTopology = Net->getString("topology", "");
    Out.NetEndNs = Net->getNumber("end_ns", 0.0);
    if (const json::Value *Links = Net->find("links");
        Links && Links->isArray()) {
      for (const json::Value &L : Links->items()) {
        ProfileLinkRow Row;
        if (!readInt(L, "msgs", Row.Msgs, Err) ||
            !readInt(L, "words", Row.Words, Err) ||
            !readInt(L, "max_queue_depth", Row.MaxQueueDepth, Err))
          return false;
        Row.Name = L.getString("name", "");
        Row.BusyNs = L.getNumber("busy_ns", 0.0);
        Row.Utilization = L.getNumber("utilization", 0.0);
        Out.Links.push_back(std::move(Row));
      }
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Save
//===----------------------------------------------------------------------===//

namespace {

json::Value num(double D) { return json::Value::number(D); }
json::Value num(uint64_t U) {
  return json::Value::number(static_cast<double>(U));
}

} // namespace

std::string earthcc::saveProfileJson(const ProfileData &P) {
  json::Value Root = json::Value::object();
  Root.members().emplace_back("version", num(uint64_t(ProfileJsonVersion)));

  json::Value Sites = json::Value::array();
  for (const ProfileSiteRow &S : P.Sites) {
    json::Value Row = json::Value::object();
    Row.members().emplace_back("site",
                               num(static_cast<double>(S.Site)));
    Row.members().emplace_back("function", json::Value::string(S.Function));
    Row.members().emplace_back("line", num(uint64_t(S.Line)));
    Row.members().emplace_back("col", num(uint64_t(S.Col)));
    Row.members().emplace_back("op", json::Value::string(S.Op));
    Row.members().emplace_back("access", json::Value::string(S.Access));
    Row.members().emplace_back("msgs", num(S.Msgs));
    Row.members().emplace_back("words", num(S.Words));
    Row.members().emplace_back("local", num(S.Local));
    Row.members().emplace_back("lat_mean_ns", num(S.LatMeanNs));
    Row.members().emplace_back("lat_p50_ns", num(S.LatP50Ns));
    Row.members().emplace_back("lat_p90_ns", num(S.LatP90Ns));
    Row.members().emplace_back("lat_min_ns", num(S.LatMinNs));
    Row.members().emplace_back("lat_max_ns", num(S.LatMaxNs));
    json::Value Remarks = json::Value::array();
    for (const std::string &R : S.Remarks)
      Remarks.items().push_back(json::Value::string(R));
    Row.members().emplace_back("remarks", std::move(Remarks));
    Sites.items().push_back(std::move(Row));
  }
  Root.members().emplace_back("sites", std::move(Sites));
  Root.members().emplace_back("total_msgs", num(P.TotalMsgs));

  json::Value TW = json::Value::array();
  for (const std::vector<uint64_t> &RowW : P.TrafficWords) {
    json::Value Row = json::Value::array();
    for (uint64_t W : RowW)
      Row.items().push_back(num(W));
    TW.items().push_back(std::move(Row));
  }
  Root.members().emplace_back("traffic_words", std::move(TW));

  if (P.HasNetwork) {
    json::Value Net = json::Value::object();
    Net.members().emplace_back("topology", json::Value::string(P.NetTopology));
    Net.members().emplace_back("end_ns", num(P.NetEndNs));
    json::Value Links = json::Value::array();
    for (const ProfileLinkRow &L : P.Links) {
      json::Value Row = json::Value::object();
      Row.members().emplace_back("name", json::Value::string(L.Name));
      Row.members().emplace_back("msgs", num(L.Msgs));
      Row.members().emplace_back("words", num(L.Words));
      Row.members().emplace_back("busy_ns", num(L.BusyNs));
      Row.members().emplace_back("utilization", num(L.Utilization));
      Row.members().emplace_back("max_queue_depth",
                                 num(uint64_t(L.MaxQueueDepth)));
      Links.items().push_back(std::move(Row));
    }
    Net.members().emplace_back("links", std::move(Links));
    Root.members().emplace_back("network", std::move(Net));
  }
  return Root.str();
}

//===----------------------------------------------------------------------===//
// Diff
//===----------------------------------------------------------------------===//

namespace {

/// The diff join key. Site ids are not comparable across optimization
/// levels; (function, location, op) is — it is the identity the remark join
/// already uses.
using DiffKey = std::tuple<std::string, unsigned, unsigned, std::string>;

/// Per-key aggregate of one side's rows (multiple sites can share a source
/// location, e.g. a blkmov split from a read at the same statement).
struct SideAgg {
  uint64_t Msgs = 0;
  uint64_t Words = 0;
  uint64_t Local = 0;
  double LatWeighted = 0.0; ///< sum(mean_i * msgs_i); mean = /Msgs.
  uint64_t P50 = 0;         ///< From the row with the most msgs.
  uint64_t P50Msgs = 0;
  std::vector<std::string> Remarks;

  void add(const ProfileSiteRow &S) {
    Msgs += S.Msgs;
    Words += S.Words;
    Local += S.Local;
    LatWeighted += S.LatMeanNs * static_cast<double>(S.Msgs);
    if (S.Msgs > P50Msgs) {
      P50 = S.LatP50Ns;
      P50Msgs = S.Msgs;
    }
    for (const std::string &R : S.Remarks)
      if (std::find(Remarks.begin(), Remarks.end(), R) == Remarks.end())
        Remarks.push_back(R);
  }
  double meanNs() const {
    return Msgs ? LatWeighted / static_cast<double>(Msgs) : 0.0;
  }
};

std::string signedDelta(uint64_t A, uint64_t B) {
  int64_t D = static_cast<int64_t>(B) - static_cast<int64_t>(A);
  return D > 0 ? "+" + std::to_string(D) : std::to_string(D);
}

std::string joinList(const std::vector<std::string> &L) {
  std::string Out;
  for (const std::string &S : L) {
    if (!Out.empty())
      Out += ", ";
    Out += S;
  }
  return Out.empty() ? "-" : Out;
}

std::string remarksCell(const SideAgg *A, const SideAgg *B) {
  std::string RA = A ? joinList(A->Remarks) : "-";
  std::string RB = B ? joinList(B->Remarks) : "-";
  if (RA == RB)
    return RA;
  return "A: " + RA + " | B: " + RB;
}

uint64_t totalWords(const ProfileData &P) {
  uint64_t W = 0;
  for (const ProfileSiteRow &S : P.Sites)
    W += S.Words;
  return W;
}

} // namespace

std::string earthcc::renderProfileDiff(const ProfileData &A,
                                       const ProfileData &B,
                                       const std::string &NameA,
                                       const std::string &NameB) {
  std::map<DiffKey, SideAgg> SideA, SideB;
  for (const ProfileSiteRow &S : A.Sites)
    SideA[{S.Function, S.Line, S.Col, S.Op}].add(S);
  for (const ProfileSiteRow &S : B.Sites)
    SideB[{S.Function, S.Line, S.Col, S.Op}].add(S);

  std::ostringstream OS;
  OS << "profile diff: A = " << NameA << ", B = " << NameB << "\n";

  TablePrinter T({"site", "op", "msgs A", "msgs B", "dmsgs", "words A",
                  "words B", "dwords", "local A", "local B", "p50 A", "p50 B",
                  "mean A", "mean B", "remarks"});
  // Merge-walk the union of keys; both maps share the ordering of DiffKey.
  auto ItA = SideA.begin(), ItB = SideB.begin();
  while (ItA != SideA.end() || ItB != SideB.end()) {
    const DiffKey *Key;
    const SideAgg *VA = nullptr, *VB = nullptr;
    if (ItB == SideB.end() ||
        (ItA != SideA.end() && ItA->first < ItB->first)) {
      Key = &ItA->first;
      VA = &ItA->second;
      ++ItA;
    } else if (ItA == SideA.end() || ItB->first < ItA->first) {
      Key = &ItB->first;
      VB = &ItB->second;
      ++ItB;
    } else {
      Key = &ItA->first;
      VA = &ItA->second;
      VB = &ItB->second;
      ++ItA;
      ++ItB;
    }
    static const SideAgg Zero;
    const SideAgg &ZA = VA ? *VA : Zero;
    const SideAgg &ZB = VB ? *VB : Zero;
    T.addRow({std::get<0>(*Key) + ":" + std::to_string(std::get<1>(*Key)) +
                  ":" + std::to_string(std::get<2>(*Key)),
              std::get<3>(*Key), std::to_string(ZA.Msgs),
              std::to_string(ZB.Msgs), signedDelta(ZA.Msgs, ZB.Msgs),
              std::to_string(ZA.Words), std::to_string(ZB.Words),
              signedDelta(ZA.Words, ZB.Words), std::to_string(ZA.Local),
              std::to_string(ZB.Local), std::to_string(ZA.P50),
              std::to_string(ZB.P50), TablePrinter::fmt(ZA.meanNs(), 0),
              TablePrinter::fmt(ZB.meanNs(), 0), remarksCell(VA, VB)});
  }
  T.print(OS);

  uint64_t WordsA = totalWords(A), WordsB = totalWords(B);
  OS << "total msgs: " << A.TotalMsgs << " -> " << B.TotalMsgs << " ("
     << signedDelta(A.TotalMsgs, B.TotalMsgs) << "); total words: " << WordsA
     << " -> " << WordsB << " (" << signedDelta(WordsA, WordsB) << ")\n";

  // Per-link occupancy deltas, present when either side ran a non-ideal
  // topology (the ideal network has no links).
  if (A.HasNetwork || B.HasNetwork) {
    OS << "\nnetwork links (A: "
       << (A.HasNetwork ? A.NetTopology : std::string("ideal")) << ", B: "
       << (B.HasNetwork ? B.NetTopology : std::string("ideal")) << "):\n";
    std::map<std::string, std::pair<const ProfileLinkRow *,
                                    const ProfileLinkRow *>>
        Links;
    for (const ProfileLinkRow &L : A.Links)
      Links[L.Name].first = &L;
    for (const ProfileLinkRow &L : B.Links)
      Links[L.Name].second = &L;
    TablePrinter TL({"link", "words A", "words B", "busy A", "busy B",
                     "dbusy", "util A", "util B"});
    for (const auto &KV : Links) {
      static const ProfileLinkRow NoLink;
      const ProfileLinkRow &LA = KV.second.first ? *KV.second.first : NoLink;
      const ProfileLinkRow &LB =
          KV.second.second ? *KV.second.second : NoLink;
      TL.addRow({KV.first, std::to_string(LA.Words), std::to_string(LB.Words),
                 TablePrinter::fmt(LA.BusyNs, 0),
                 TablePrinter::fmt(LB.BusyNs, 0),
                 TablePrinter::fmt(LB.BusyNs - LA.BusyNs, 0),
                 TablePrinter::fmt(LA.Utilization, 3),
                 TablePrinter::fmt(LB.Utilization, 3)});
    }
    TL.print(OS);
  }
  return OS.str();
}
