//===- Lower.h - SIMPLE -> bytecode lowering --------------------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-time lowering pass from the structured SIMPLE IR to the flat
/// bytecode the simulator's default engine executes. Lowering is pure
/// (the module is not modified) and deterministic; the emitted stream obeys
/// the one-instruction-per-step invariant documented in Bytecode.h.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_INTERP_LOWER_H
#define EARTHCC_INTERP_LOWER_H

#include "interp/Bytecode.h"

namespace earthcc {

/// Lowers every function of \p M into a fresh BytecodeModule (see
/// Bytecode.h).
///
/// \p Threads drives the per-function bodies over a thread pool (functions
/// are independent once the serial frame-layout pass has run): 1 lowers
/// serially on the caller's thread, 0 uses the host's hardware concurrency,
/// N uses N workers. Output is bit-identical at every thread count — each
/// task writes only its own pre-allocated BytecodeFunction, so the result
/// is a pure function of the module regardless of scheduling.
std::shared_ptr<const BytecodeModule> lowerModule(const Module &M,
                                                  unsigned Threads = 1);

/// Returns \p M's lowered form, lowering on first use and memoizing in the
/// module's execution cache — so compile-once/run-many harnesses lower
/// exactly once no matter how many times they run the module. \p Threads
/// applies only when this call performs the lowering (see lowerModule).
const BytecodeModule &getOrLowerBytecode(const Module &M,
                                         unsigned Threads = 1);

} // namespace earthcc

#endif // EARTHCC_INTERP_LOWER_H
