//===- ProfileReport.h - Joined per-site profile report ---------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-site communication report: one row per comm site of the module,
/// joining the *static* story (what the optimizer did there, from the
/// RemarkStream, keyed by (function, source location)) with the *dynamic*
/// story (message counts, words moved, latency percentiles, from the
/// CommProfiler keyed by site id). This is the "site tsp.c:41 read p->sz:
/// hoisted, pipelined, 2000 msgs, p50 latency 141 ns" view that
/// `earthcc --profile --remarks` prints.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_DRIVER_PROFILEREPORT_H
#define EARTHCC_DRIVER_PROFILEREPORT_H

#include "driver/ProfileData.h"

#include <string>

namespace earthcc {

class Module;
class CommProfiler;
class RemarkStream;

/// The join as one document: a row per active site (in site-id order)
/// carrying the static identity (function, line, col, op, access), the
/// dynamic numbers, and the remark categories attached to its location,
/// plus total messages, the per-node traffic matrix and, on a topology with
/// real links, the per-link occupancy. \p Remarks may be null (no site then
/// carries remarks). The site table is rebuilt from \p M, so the ids match
/// the ones the engines recorded into \p Prof as long as the module has not
/// been mutated since the profiled run.
ProfileData buildProfileData(const Module &M, const CommProfiler &Prof,
                             const RemarkStream *Remarks);

/// Renders buildProfileData() as an aligned text table followed by the
/// per-node traffic matrix and, when present, the per-link table.
std::string renderProfileReport(const Module &M, const CommProfiler &Prof,
                                const RemarkStream *Remarks);

/// Schema version stamped into profileReportJson output. Bump on any
/// incompatible change to the field set; driver/ProfileData.h loads this
/// format back and refuses versions it does not understand.
constexpr unsigned ProfileJsonVersion = 1;

/// buildProfileData() as one JSON object (saveProfileJson): {"version":1,
/// "sites":[...],"total_msgs":N,"traffic_words":[[...]]} plus "network" on
/// a topology with real links. Site ids are assigned by simple/CommSites.h
/// as a pure function of the module, so they are stable across runs of the
/// same compiled module; across *different* optimization levels rows must
/// be joined by (function, line, col, op) — see driver/ProfileData.h.
std::string profileReportJson(const Module &M, const CommProfiler &Prof,
                              const RemarkStream *Remarks);

} // namespace earthcc

#endif // EARTHCC_DRIVER_PROFILEREPORT_H
