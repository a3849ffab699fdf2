//===- ThreadedC.h - Threaded-C code emission -------------------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Phase III of the EARTH-McCAT pipeline: lowering optimized SIMPLE into
/// Threaded-C, the explicitly-threaded C dialect of the EARTH runtime.
/// This emitter produces the textual Threaded-C program:
///
///  - every split-phase operation becomes an EARTH primitive with an
///    explicit sync slot (`GET_SYNC_L`, `DATA_SYNC_L`, `BLKMOV_SYNC`);
///  - fibers are split at synchronization points: a statement that *uses*
///    the result of an outstanding split-phase operation starts a new
///    thread (`THREAD_n:`) guarded by the slot's sync count, which is how
///    EARTH overlaps communication with computation;
///  - parallel sequences and forall loops become TOKEN spawns plus a join
///    slot; placed calls become INVOKE tokens.
///
/// The emitter walks the SIMPLE statement tree: SIMPLE is structured the
/// way Threaded-C is, so each construct maps onto its Threaded-C form
/// directly and operand text comes from the IR printer. Sync slots exist
/// only in the emitted program (the simulator's engines never number them);
/// they are numbered in emission order.
///
/// The earthcc execution path interprets the same SIMPLE module on the
/// simulator (see DESIGN.md), so this emitter is a faithful *presentation*
/// of Phase III rather than a second execution engine; tests pin down the
/// thread partitioning and the slot discipline.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_CODEGEN_THREADEDC_H
#define EARTHCC_CODEGEN_THREADEDC_H

#include "simple/Function.h"

#include <string>

namespace earthcc {

/// Statistics of one function's lowering.
struct ThreadedCInfo {
  unsigned Threads = 0;   ///< Fibers the body was partitioned into.
  unsigned SyncSlots = 0; ///< Sync slots allocated.
};

/// Emits Threaded-C for \p F. \p Info (optional) receives counts.
std::string emitThreadedC(const Function &F, ThreadedCInfo *Info = nullptr);

} // namespace earthcc

#endif // EARTHCC_CODEGEN_THREADEDC_H
