//===- ProfileData.h - Persisted comm-profile load/save/diff ----*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persisted form of the joined per-site communication report. `earthcc
/// --profile=json` (driver/ProfileReport.h) emits a versioned JSON document;
/// this file loads it back into a structured ProfileData, re-serializes it
/// canonically, and diffs two documents site by site — the audit instrument
/// the ROADMAP's profile-guided placement item needs before any profile can
/// be fed back into compilation.
///
/// Round-trip contract: --profile=json *is* saveProfileJson() of the joined
/// ProfileData, and saveProfileJson() has one canonical number encoding
/// (the json::Value writer: integers exact, other doubles at %.17g), so
/// save(load(S)) reproduces S byte for byte and every value is preserved
/// exactly.
///
/// Diff join key: site ids are stable for one compiled module but different
/// optimization levels produce different site sets (hoisting and blocking
/// rewrite the comm statements), so rows are joined by (function, line,
/// col, op) — the same identity the remark join uses — and per-key
/// aggregates are diffed.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_DRIVER_PROFILEDATA_H
#define EARTHCC_DRIVER_PROFILEDATA_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace earthcc {

/// One persisted site row (mirrors the profileReportJson site object).
struct ProfileSiteRow {
  int64_t Site = 0;
  std::string Function;
  unsigned Line = 0;
  unsigned Col = 0;
  std::string Op;
  std::string Access;
  uint64_t Msgs = 0;
  uint64_t Words = 0;
  uint64_t Local = 0;
  double LatMeanNs = 0.0;
  uint64_t LatP50Ns = 0;
  uint64_t LatP90Ns = 0;
  uint64_t LatMinNs = 0;
  uint64_t LatMaxNs = 0;
  std::vector<std::string> Remarks;
};

/// One persisted network-link row (present only for non-ideal topologies).
struct ProfileLinkRow {
  std::string Name;
  uint64_t Msgs = 0;
  uint64_t Words = 0;
  double BusyNs = 0.0;
  double Utilization = 0.0;
  unsigned MaxQueueDepth = 0;
};

/// A loaded --profile=json document.
struct ProfileData {
  unsigned Version = 1;
  std::vector<ProfileSiteRow> Sites;
  uint64_t TotalMsgs = 0;
  std::vector<std::vector<uint64_t>> TrafficWords;
  bool HasNetwork = false;
  std::string NetTopology;
  double NetEndNs = 0.0;
  std::vector<ProfileLinkRow> Links;
};

/// Parses \p Text (a --profile=json document). Returns false with \p Err
/// set on malformed JSON, a missing required field, or an unsupported
/// schema version. A document without a "version" field is accepted as
/// version 1 (pre-versioning emitters).
bool loadProfileJson(std::string_view Text, ProfileData &Out,
                     std::string &Err);

/// Serializes \p P with the canonical json::Value number encoding; this is
/// the --profile=json document. save(load(S)) == S.
std::string saveProfileJson(const ProfileData &P);

/// Renders an aligned per-site delta table between two profiles: msgs,
/// words, local hits and latency (p50/mean) per (function, line, col, op),
/// joined with the remark categories of both sides, followed by totals and
/// — when either side ran on a non-ideal topology — per-link busy-ns
/// deltas. Rows are sorted by the join key, so equal inputs give equal
/// output.
std::string renderProfileDiff(const ProfileData &A, const ProfileData &B,
                              const std::string &NameA = "A",
                              const std::string &NameB = "B");

} // namespace earthcc

#endif // EARTHCC_DRIVER_PROFILEDATA_H
