//===- CostModel.h - EARTH-MANNA timing parameters --------------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Timing parameters of the simulated EARTH-MANNA machine, calibrated so
/// the simulator reproduces the paper's Table I exactly:
///
///   Operation   | Sequential | Pipelined
///   ------------|------------|----------
///   Read word   |   7109 ns  |  1908 ns
///   Write word  |   6458 ns  |  1749 ns
///   Blkmov word |   9700 ns  |  2602 ns
///
/// "Pipelined" is the EU issue cost of the split-phase operation; the
/// remainder of the sequential figure is network transit plus SU service.
/// The MANNA network moves 50 MB/s per direction, i.e. 160 ns per 8-byte
/// word, which sets the per-word cost of larger block moves.
///
/// The paper measures one machine, so the simulator runs one calibration:
/// EarthMannaCosts. The struct documents its fields; nothing configures
/// them per run.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_EARTH_COSTMODEL_H
#define EARTHCC_EARTH_COSTMODEL_H

namespace earthcc {

/// All times in nanoseconds.
struct CostModel {
  // EU issue costs of split-phase operations (Table I, pipelined column).
  double ReadIssue = 1908.0;
  double WriteIssue = 1749.0;
  double BlkIssue = 2602.0;

  // One-way network transit (link + interface).
  double NetDelay = 1800.0;

  // SU service per request at the remote node; calibrated so that
  // issue + 2*NetDelay + service equals the sequential column of Table I.
  double SUReadService = 1601.0;   // 1908 + 3600 + 1601 = 7109.
  double SUWriteService = 1109.0;  // 1749 + 3600 + 1109 = 6458.
  double SUBlkService = 3338.0;    // 2602 + 3600 + 3338 + 160*1 = 9700.
  double SUAtomicService = 1601.0;

  // Extra network/memory cost per word of a block transfer (50 MB/s).
  double PerWord = 160.0;

  // A "remote" primitive that happens to hit node-local memory: no network
  // or SU involvement, but still a runtime call.
  double LocalFallback = 250.0;
  // Per-word cost of a node-local block move (streaming memcpy).
  double LocalBlkPerWord = 4.0;

  // EU execution costs (50 MHz i860: 20 ns per cycle).
  double StmtCost = 40.0;        ///< One SIMPLE basic statement.
  double CopyCost = 10.0;        ///< Plain register-to-register copy.
  double LocalAccess = 20.0;     ///< Extra for a local load/store.
  double CallCost = 200.0;       ///< Local function invocation.
  double ReturnCost = 100.0;
  double SpawnCost = 600.0;      ///< Creating a fiber / remote invocation.
  double CtxSwitch = 400.0;      ///< EU picks a different fiber.

  /// End-to-end latency of one remote read (no contention).
  double sequentialRead() const {
    return ReadIssue + 2 * NetDelay + SUReadService;
  }
  double sequentialWrite() const {
    return WriteIssue + 2 * NetDelay + SUWriteService;
  }
  double sequentialBlk(unsigned Words) const {
    return BlkIssue + 2 * NetDelay + SUBlkService + PerWord * Words;
  }
};

/// The calibration every simulated run uses.
inline constexpr CostModel EarthMannaCosts{};

} // namespace earthcc

#endif // EARTHCC_EARTH_COSTMODEL_H
