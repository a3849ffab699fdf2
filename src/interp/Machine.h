//===- Machine.h - The simulated EARTH-MANNA machine ------------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The discrete-event EARTH machine both execution engines run on, written
/// once: per-node memory and network, the event queue, fibers and their join
/// counters, EU clocks and slices (context switch, fuel, preemption
/// quantum), the split-phase operations (read-data, write-data, blkmov,
/// atomics) with their costs, counters, trace events and profile records,
/// intrinsics, call placement, migration and return transfers, and run
/// setup and teardown.
///
/// An engine derives from Machine and keeps only what differs between the
/// AST walker (Interp.cpp) and the bytecode engine (Bytecode.cpp): how a
/// fiber's next step is found and executed, and how frames store
/// variables. It resolves a step's operands and availability, then calls
/// the machine with plain values (node, address, words, comm-site id, and
/// the variable and function used in diagnostics) and stores the result in
/// its own frame. Everything the bytecode loop calls is defined in this
/// header, visible to the compiler in the engine's translation unit, and the
/// per-instruction path has no virtual or indirect call.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_INTERP_MACHINE_H
#define EARTHCC_INTERP_MACHINE_H

#include "interp/EngineCommon.h"
#include "interp/Interp.h"
#include "support/CommProfiler.h"
#include "support/Trace.h"

#include <cmath>
#include <deque>
#include <memory>
#include <queue>

namespace earthcc {
namespace interp {

struct Fiber;

/// Join counter for one parallel-construct instance.
struct JoinCtx {
  int Outstanding = 0;
  Fiber *Waiter = nullptr;
  double LatestEnd = 0.0;
};

/// What the machine knows of a fiber. Each engine derives its own fiber
/// type holding its frame stack; the machine owns every fiber.
struct Fiber {
  Fiber() = default;
  Fiber(const Fiber &) = delete;
  Fiber &operator=(const Fiber &) = delete;
  virtual ~Fiber() = default;
  uint64_t Id = 0;
  std::shared_ptr<JoinCtx> ParentJoin;
  bool Done = false;
};

/// What the machine knows of a function activation. Each engine's frame
/// derives from it.
struct MachineFrame {
  double WriteSync = 0.0; ///< Completion of outstanding writes.
  unsigned Node = 0;
  bool Migrated = false; ///< Entered via a placed call.
};

/// Result of one step inside a fiber run.
///
/// BlockRetry means the current step could not start (an operand is not yet
/// available): nothing was executed; retry the same step at the given time.
/// YieldAt means the step completed but the fiber must re-enter the
/// scheduler (it migrated to another node); do not retry.
enum class StepStatus { Continue, BlockRetry, YieldAt, WaitJoin, FiberDone };

class Machine {
protected:
  explicit Machine(const MachineConfig &Cfg);
  ~Machine();

  static const CostModel &cost() { return EarthMannaCosts; }

  //===--------------------------------------------------------------------===
  // Scheduling.
  //===--------------------------------------------------------------------===

  void schedule(Fiber *F, double T) { Q.push({T, ++EventSeq, F}); }

  /// A new, not yet scheduled fiber of the engine's type \p FiberT.
  template <typename FiberT> FiberT *newFiber() {
    auto F = std::make_unique<FiberT>();
    FiberT *Raw = F.get();
    Fibers.push_back(std::move(F));
    Raw->Id = Fibers.size();
    return Raw;
  }

  /// Starts \p Child, one more fiber of \p Join's construct, from a fiber on
  /// \p Node: the spawner pays the spawn and the child is ready at the new
  /// \p Now.
  void spawn(Fiber *Child, const std::shared_ptr<JoinCtx> &Join,
             unsigned Node, double &Now) {
    Child->ParentJoin = Join;
    ++Join->Outstanding;
    if (!Cfg.SequentialMode) {
      Now += cost().SpawnCost;
      ++Ctr.Spawns;
      if (Trc)
        traceInstant("spawn", "fiber", Now, Node, TraceTidEU,
                     {{"child", Child->Id}});
    }
    schedule(Child, Now);
  }

  /// The join step of a parallel construct run by \p F: true (with \p Now
  /// past the last child's end) once every child has settled; otherwise \p F
  /// waits on \p Join, whose last child reschedules it.
  bool joined(JoinCtx &Join, Fiber *F, double &Now) {
    if (Join.Outstanding == 0) {
      Now = std::max(Now, Join.LatestEnd);
      return true;
    }
    Join.Waiter = F;
    return false;
  }

  void finishFiber(Fiber *F, double End, unsigned Node) {
    F->Done = true;
    if (F == MainFiber)
      EndTime = End;
    if (auto Join = F->ParentJoin) {
      --Join->Outstanding;
      Join->LatestEnd = std::max(Join->LatestEnd, End);
      // The EARTH sync-slot signal: the settling fiber decrements its
      // parent's join counter (outstanding writes already folded into End).
      if (Trc)
        traceInstant("sync-signal", "sync", End, Node, TraceTidEU,
                     {{"fiber", F->Id}, {"outstanding", Join->Outstanding}});
      if (Join->Outstanding == 0 && Join->Waiter) {
        Fiber *W = Join->Waiter;
        Join->Waiter = nullptr;
        schedule(W, Join->LatestEnd);
      }
    }
  }

  //===--------------------------------------------------------------------===
  // EU slices. A fiber's node is stable within one run: migrations and
  // remote returns exit through YieldAt, so one EU slice spans the whole
  // run. An engine's run loop calls beginSlice, then nextStep before every
  // step, and leaves through leaveEU. The node's EU clock is written once,
  // where the slice ends (leaveEU, or nextStep when the quantum expires):
  // nothing reads it while the slice runs, since another fiber can start
  // on the node only after the slice ends, and Now never decreases within
  // a slice.
  //===--------------------------------------------------------------------===

  /// Gives \p Node's EU to \p F at \p T; returns the slice start, after a
  /// context switch when another fiber held the EU.
  double beginSlice(const Fiber *F, unsigned Node, double T) {
    double Now = std::max(T, EUClock[Node]);
    if (LastFiber[Node] != F && LastFiber[Node] != nullptr &&
        !Cfg.SequentialMode) {
      if (Trc)
        traceInstant("ctx-switch", "eu", Now, Node, TraceTidEU,
                     {{"fiber", F->Id}});
      Now += cost().CtxSwitch;
      ++Ctr.CtxSwitches;
    }
    LastFiber[Node] = F;
    return Now;
  }

  /// Bills one step against the fuel. Returns false when \p F has used its
  /// quantum: the slice ends and \p F re-enters the ready queue behind
  /// same-time peers (e.g. freshly spawned sibling branches). LastFiber
  /// stays set so an immediate re-entry costs no context switch.
  bool nextStep(Fiber *F, unsigned Node, double Start, double Now,
                unsigned StepsThisRun) {
    if (++Steps > Cfg.MaxSteps)
      fail("step limit exceeded (infinite loop?)");
    if (!Cfg.EUQuantum || StepsThisRun < Cfg.EUQuantum)
      return true;
    advanceEU(Node, Now); // endSlice's eu-clock event reads it.
    endSlice(F, Node, Start, Now);
    schedule(F, Now);
    return false;
  }

  /// Ends the slice of a fiber that blocked, yielded, waits on a join or
  /// finished, and frees \p Node's EU: the next fiber starts there without
  /// a context switch (only displacing a preempted fiber costs one).
  void leaveEU(const Fiber *F, unsigned Node, double Start, double Now) {
    advanceEU(Node, Now);
    endSlice(F, Node, Start, Now);
    LastFiber[Node] = nullptr;
  }

  //===--------------------------------------------------------------------===
  // Split-phase operations, issued by a fiber running frame \p Fr at
  // \p Now. \p Site is the statement's CommSites id (read only when
  // profiling). Memory effects apply immediately; the destination becomes
  // available, or the frame's writes complete, when the transaction does.
  //===--------------------------------------------------------------------===

  /// `Dst = *(Addr + Off)`, where \p Addr was read from pointer \p Base in
  /// function \p Fn.
  void load(double &Now, const MachineFrame &Fr, GlobalAddr Addr,
            uint32_t Off, Locality Loc, int32_t Site, const Var *Base,
            const Function *Fn, RtValue &Dst, double &DstAvail) {
    if (Addr.isNull())
      fail("null pointer read via '" + Base->name() + "' in '" + Fn->name() +
           "'");
    Addr.Offset += Off;
    if (!Mem.valid(Addr))
      fail("out-of-bounds read at " + Addr.str());

    if (Cfg.SequentialMode || Loc == Locality::Local) {
      if (!Cfg.SequentialMode && Addr.Node != static_cast<int32_t>(Fr.Node))
        fail("'local' access to remote address " + Addr.str() +
             " from node " + std::to_string(Fr.Node));
      Now += cost().StmtCost + cost().LocalAccess;
      Dst = Mem.word(Addr);
      DstAvail = Now;
      return;
    }

    ++Ctr.ReadData;
    if (Addr.Node == static_cast<int32_t>(Fr.Node)) {
      ++Ctr.LocalFallbacks;
      if (Trc)
        traceInstant("local-fallback", "comm", Now, Fr.Node, TraceTidEU,
                     {{"op", "read-data"}});
      if (Prof)
        Prof->recordLocal(Site);
      Now += cost().LocalFallback;
      Dst = Mem.word(Addr);
      DstAvail = Now;
      return;
    }
    double IssueStart = Now;
    Now += cost().ReadIssue;
    ++Ctr.WordsMoved;
    double DoneAt = transactionComplete(Now, Fr.Node, Addr.Node,
                                        cost().SUReadService, 0.0,
                                        /*FwdWords=*/0, /*BackWords=*/1,
                                        "su:read-data");
    if (Trc)
      traceSpan("read-data", "comm", IssueStart, DoneAt - IssueStart,
                Fr.Node, TraceTidComm,
                {{"to", Addr.Node}, {"addr", Addr.str()}});
    if (Prof)
      Prof->record(Site, Fr.Node, Addr.Node, 1, IssueStart, DoneAt);
    Dst = Mem.word(Addr);
    DstAvail = DoneAt;
  }

  /// `*(Addr + Off) = Val`, where \p Addr was read from pointer \p Ptr.
  void store(double &Now, MachineFrame &Fr, GlobalAddr Addr, uint32_t Off,
             Locality Loc, int32_t Site, const Var *Ptr, const RtValue &Val) {
    if (Addr.isNull())
      fail("null pointer write via '" + Ptr->name() + "'");
    Addr.Offset += Off;
    if (!Mem.valid(Addr))
      fail("out-of-bounds write at " + Addr.str());

    if (Cfg.SequentialMode || Loc == Locality::Local) {
      if (!Cfg.SequentialMode && Addr.Node != static_cast<int32_t>(Fr.Node))
        fail("'local' store to remote address " + Addr.str());
      Now += cost().StmtCost + cost().LocalAccess;
      Mem.word(Addr) = Val;
      return;
    }

    ++Ctr.WriteData;
    if (Addr.Node == static_cast<int32_t>(Fr.Node)) {
      ++Ctr.LocalFallbacks;
      if (Trc)
        traceInstant("local-fallback", "comm", Now, Fr.Node, TraceTidEU,
                     {{"op", "write-data"}});
      if (Prof)
        Prof->recordLocal(Site);
      Now += cost().LocalFallback;
      Mem.word(Addr) = Val;
      return;
    }
    double IssueStart = Now;
    Now += cost().WriteIssue;
    ++Ctr.WordsMoved;
    double DoneAt = transactionComplete(Now, Fr.Node, Addr.Node,
                                        cost().SUWriteService, 0.0,
                                        /*FwdWords=*/1, /*BackWords=*/0,
                                        "su:write-data");
    if (Trc)
      traceSpan("write-data", "comm", IssueStart, DoneAt - IssueStart,
                Fr.Node, TraceTidComm,
                {{"to", Addr.Node}, {"addr", Addr.str()}});
    if (Prof)
      Prof->record(Site, Fr.Node, Addr.Node, 1, IssueStart, DoneAt);
    Mem.word(Addr) = Val;
    Fr.WriteSync = std::max(Fr.WriteSync, DoneAt);
  }

  /// Moves \p Words words between the memory at \p Addr (read from pointer
  /// \p Ptr) and the frame's struct image \p Local, available at
  /// \p LocalAvail.
  void blkmov(double &Now, MachineFrame &Fr, GlobalAddr Addr, uint32_t Words,
              BlkMovDir Dir, int32_t Site, const Var *Ptr, RtValue *Local,
              double &LocalAvail) {
    if (Addr.isNull())
      fail("blkmov through null pointer '" + Ptr->name() + "'");
    if (!Mem.valid(Addr, Words))
      fail("blkmov out of bounds at " + Addr.str());

    const bool Read = Dir == BlkMovDir::ReadToLocal;
    auto copyWords = [&] {
      for (unsigned W = 0; W != Words; ++W) {
        GlobalAddr WA = Addr;
        WA.Offset += W;
        if (Read)
          Local[W] = Mem.word(WA);
        else
          Mem.word(WA) = Local[W];
      }
    };

    if (Cfg.SequentialMode) {
      Now += cost().StmtCost + cost().LocalAccess * Words;
      copyWords();
      if (Read)
        LocalAvail = Now;
      return;
    }

    ++Ctr.BlkMov;
    if (Addr.Node == static_cast<int32_t>(Fr.Node)) {
      ++Ctr.LocalFallbacks;
      if (Trc)
        traceInstant("local-fallback", "comm", Now, Fr.Node, TraceTidEU,
                     {{"op", "blkmov"}, {"words", Words}});
      if (Prof)
        Prof->recordLocal(Site);
      Now += cost().LocalFallback + cost().LocalBlkPerWord * Words;
      copyWords();
      if (Read)
        LocalAvail = Now;
      return;
    }

    double IssueStart = Now;
    Now += cost().BlkIssue;
    Ctr.WordsMoved += Words;
    double DoneAt = transactionComplete(
        Now, Fr.Node, Addr.Node, cost().SUBlkService, Words,
        /*FwdWords=*/Read ? 0 : Words,
        /*BackWords=*/Read ? Words : 0, "su:blkmov");
    if (Trc)
      traceSpan("blkmov", "comm", IssueStart, DoneAt - IssueStart, Fr.Node,
                TraceTidComm,
                {{"to", Addr.Node},
                 {"addr", Addr.str()},
                 {"words", Words},
                 {"dir", Read ? "read" : "write"}});
    if (Prof)
      Prof->record(Site, Fr.Node, Addr.Node, Words, IssueStart, DoneAt);
    copyWords();
    if (Read)
      LocalAvail = DoneAt;
    else
      Fr.WriteSync = std::max(Fr.WriteSync, DoneAt);
  }

  /// writeto() (or addto(), per \p Op) of \p V into the cell at \p Addr of
  /// shared variable \p Shared.
  void atomicUpdate(double &Now, MachineFrame &Fr, AtomicOp Op,
                    GlobalAddr Addr, int32_t Site, const Var *Shared,
                    const RtValue &V) {
    RtValue &Cell = Mem.word(Addr);
    if (Op == AtomicOp::AddTo) {
      if (Cell.isUndef())
        fail("addto() on uninitialized shared variable '" + Shared->name() +
             "'");
      Cell = evalBinary(BinaryOp::Add, Cell, V);
    } else {
      Cell = V;
    }
    atomicCost(Now, Fr, Addr, Site, Shared, cost().WriteIssue,
               &Fr.WriteSync);
  }

  /// valueof() of the cell at \p Addr of shared variable \p Shared; \p Avail
  /// is when the value reaches the frame.
  RtValue atomicRead(double &Now, MachineFrame &Fr, GlobalAddr Addr,
                     int32_t Site, const Var *Shared, double &Avail) {
    const RtValue Cell = Mem.word(Addr);
    if (Cell.isUndef())
      fail("valueof() on uninitialized shared variable '" + Shared->name() +
           "'");
    Avail = atomicCost(Now, Fr, Addr, Site, Shared, cost().ReadIssue,
                       /*WriteSync=*/nullptr);
    return Cell;
  }

  //===--------------------------------------------------------------------===
  // Calls.
  //===--------------------------------------------------------------------===

  /// The node a call with placement \p P made on \p Node runs on;
  /// \p PlaceArg() evaluates the placement operand when one is needed.
  template <typename PlaceFn>
  unsigned targetNode(CallPlacement P, unsigned Node, PlaceFn &&PlaceArg) {
    if (Cfg.SequentialMode)
      return Node;
    switch (P) {
    case CallPlacement::Default:
      return Node;
    case CallPlacement::Home:
      return 0;
    case CallPlacement::AtNode: {
      int64_t N = PlaceArg().asInt();
      if (N < 0)
        fail("@node with negative index");
      return static_cast<unsigned>(static_cast<uint64_t>(N) %
                                   Mem.numNodes());
    }
    case CallPlacement::OwnerOf: {
      RtValue V = PlaceArg();
      if (V.K != RtValue::Kind::Ptr || V.P.isNull())
        fail("OWNER_OF of null/non-pointer");
      return static_cast<unsigned>(V.P.Node);
    }
    }
    return Node;
  }

  /// Runs intrinsic \p K (not None) for a fiber on \p Node and returns its
  /// result (undefined for print, which has none). \p Arg() evaluates the
  /// first argument; \p P and \p PlaceArg place a pmalloc.
  template <typename ArgFn, typename PlaceFn>
  RtValue intrinsic(Intrinsic K, unsigned Node, CallPlacement P, ArgFn &&Arg,
                    PlaceFn &&PlaceArg, double &Now) {
    switch (K) {
    case Intrinsic::None:
      break;
    case Intrinsic::Print:
      Output.push_back(Arg().str());
      Now += cost().StmtCost;
      return RtValue();
    case Intrinsic::MyNode:
    case Intrinsic::NumNodes:
      Now += cost().StmtCost;
      return RtValue::makeInt(K == Intrinsic::MyNode ? Node : Mem.numNodes());
    case Intrinsic::IntSqrt: {
      int64_t V = Arg().asInt();
      if (V < 0)
        fail("isqrt of negative value");
      Now += cost().StmtCost * 4;
      return RtValue::makeInt(
          static_cast<int64_t>(std::sqrt(static_cast<double>(V))));
    }
    case Intrinsic::Sqrt:
    case Intrinsic::Fabs: {
      RtValue V = Arg();
      double X =
          V.K == RtValue::Kind::Dbl ? V.D : static_cast<double>(V.asInt());
      if (K == Intrinsic::Sqrt && X < 0)
        fail("sqrt of negative value");
      Now += cost().StmtCost * (K == Intrinsic::Sqrt ? 4 : 2);
      return RtValue::makeDbl(K == Intrinsic::Sqrt ? std::sqrt(X)
                                                   : std::fabs(X));
    }
    case Intrinsic::PMalloc: {
      int64_t Words = Arg().asInt();
      if (Words <= 0)
        fail("pmalloc of non-positive size");
      unsigned Target = targetNode(P, Node, PlaceArg);
      GlobalAddr Addr = Mem.allocate(Target, static_cast<unsigned>(Words));
      Now += cost().StmtCost * 2;
      if (!Cfg.SequentialMode && Target != Node)
        Now += cost().SpawnCost; // Remote allocation request.
      return RtValue::makePtr(Addr);
    }
    }
    fail("bad intrinsic");
  }

  /// Charges a call from \p From whose callee frame, on node \p To, the
  /// engine has just pushed onto \p F's stack. A placed call to another
  /// node migrates \p F: YieldAt, resuming at \p BlockTime on \p To.
  StepStatus enterCall(const Fiber *F, unsigned From, unsigned To,
                       double &Now, double &BlockTime) {
    Now += cost().CallCost;
    if (To == From)
      return StepStatus::Continue;
    ++Ctr.Spawns;
    Now += cost().SpawnCost;
    if (Trc)
      traceInstant("migrate", "fiber", Now, From, TraceTidEU,
                   {{"fiber", F->Id}, {"to", To}});
    // Travel to the remote node (ideal: one NetDelay).
    BlockTime = Net->transferDone(From, To, 0, Now);
    return StepStatus::YieldAt;
  }

  /// Charges the return of \p Done, just popped off \p F's stack, with
  /// \p Result (may be null). Without a \p Parent, Done was F's base frame:
  /// F settles once Done's writes complete (FiberDone). Otherwise Done's
  /// pending writes fold into Parent and \p Arrive is when the result
  /// reaches Parent's node; a placed call returns home through YieldAt,
  /// resuming at Arrive.
  StepStatus returnFrom(Fiber *F, const MachineFrame &Done,
                        MachineFrame *Parent, const RtValue *Result,
                        double &Now, double &Arrive) {
    Now += cost().ReturnCost;
    if (!Parent) {
      if (F == MainFiber && Result)
        ExitVal = *Result;
      double End = std::max(Now, Done.WriteSync);
      if (Done.Migrated) // Defensive: base frames are never placed calls.
        End = Net->transferDone(Done.Node, 0, 0, End);
      finishFiber(F, End, Done.Node);
      return StepStatus::FiberDone;
    }
    Parent->WriteSync = std::max(Parent->WriteSync, Done.WriteSync);
    if (!Done.Migrated) {
      Arrive = Now;
      return StepStatus::Continue;
    }
    Arrive = Net->transferDone(Done.Node, Parent->Node, 0, Now);
    return StepStatus::YieldAt;
  }

  //===--------------------------------------------------------------------===
  // Runs.
  //===--------------------------------------------------------------------===

  /// Cell of module-level shared variable \p V, or null when \p V is not
  /// one.
  const GlobalAddr *sharedGlobal(const Var *V) const {
    for (const auto &[G, Addr] : SharedGlobals)
      if (G == V)
        return &Addr;
    return nullptr;
  }
  /// Cell of the \p I-th module-level shared variable in declaration order
  /// (the order of BytecodeModule::SharedGlobals).
  GlobalAddr sharedGlobalAt(size_t I) const { return SharedGlobals[I].second; }

  /// Runs \p Entry of \p M to completion. \p E is the engine: it provides
  /// `uint32_t numSites()` (the comm-site id space, asked only when
  /// profiling), `Fiber *start(const Function &, const std::vector<RtValue>
  /// &)` (the unscheduled main fiber) and `void runFiber(Fiber *, double)`.
  template <typename Engine>
  RunResult run(Engine &E, const Module &M, const std::string &Entry,
                const std::vector<RtValue> &Args) {
    RunResult R;
    const Function *EntryFn = entryFunction(M, Entry, Args, R);
    if (!EntryFn)
      return R;
    if (Prof)
      Prof->beginRun(E.numSites(), Mem.numNodes());
    try {
      for (const auto &G : M.globals())
        if (G->kind() == VarKind::Shared)
          SharedGlobals.emplace_back(G.get(), Mem.allocate(0, 1));
      MainFiber = E.start(*EntryFn, Args);
      schedule(MainFiber, 0.0);
      while (!Q.empty()) {
        Event Ev = Q.top();
        Q.pop();
        if (!Ev.F->Done)
          E.runFiber(Ev.F, Ev.T);
      }
    } catch (RuntimeFailure &Failure) {
      R.Error = Failure.Message;
      return R;
    }
    finishRun(R);
    return R;
  }

  MachineConfig Cfg;
  TraceSink *Trc = nullptr;
  CommProfiler *Prof = nullptr;
  EarthMemory Mem;
  /// The interconnect: owns the per-node SU clocks and all link state (see
  /// earth/NetworkModel.h).
  std::unique_ptr<NetworkModel> Net;
  OpCounters Ctr;
  std::vector<double> EUClock;
  std::vector<const Fiber *> LastFiber;
  std::vector<std::string> Output;
  uint64_t Steps = 0;
  /// Every fiber of the run.
  std::deque<std::unique_ptr<Fiber>> Fibers;

private:
  struct Event {
    double T = 0.0;
    uint64_t Seq = 0;
    Fiber *F = nullptr;
    friend bool operator>(const Event &A, const Event &B) {
      if (A.T != B.T)
        return A.T > B.T;
      return A.Seq > B.Seq;
    }
  };

  //===--------------------------------------------------------------------===
  // Tracing. Every emitter is guarded by `if (Trc)` at the call site, so a
  // null sink costs one branch and builds no event objects.
  //===--------------------------------------------------------------------===

  /// A completed span: a transaction in flight, an SU service slice, an EU
  /// fiber slice.
  void traceSpan(const char *Name, const char *Cat, double Ts, double Dur,
                 unsigned Pid, uint32_t Tid,
                 std::vector<TraceEvent::Arg> Args = {});
  /// A point event (sync-slot signal, spawn, context switch, fallback).
  void traceInstant(const char *Name, const char *Cat, double Ts,
                    unsigned Pid, uint32_t Tid,
                    std::vector<TraceEvent::Arg> Args = {});
  /// A sampled clock value (EU/SU clock advance) for counter tracks.
  void traceClock(const char *Name, double Ts, unsigned Pid, uint32_t Tid,
                  double Value);

  /// One split-phase transaction through the network and the target's SU
  /// (a FIFO server per node). The latency arithmetic lives in
  /// NetworkModel::transaction() (earth/NetworkModel.h); this wrapper traces
  /// the SU service slice under \p SuLabel, an "su:<op>" literal (prefixed
  /// so CounterTraceSink keeps SU slices distinct from the issuing node's
  /// in-flight span; callers pass the constant, so the trace path never
  /// builds a string per transaction). \p FwdWords / \p BackWords are the
  /// payload words on the request and reply legs (they matter only to
  /// bandwidth-modeling topologies; the ideal network ignores them).
  double transactionComplete(double IssueEnd, unsigned From, unsigned To,
                             double Service, double ExtraWords,
                             uint64_t FwdWords, uint64_t BackWords,
                             const char *SuLabel) {
    NetTransaction Tx = Net->transaction(IssueEnd, From, To, Service,
                                         ExtraWords, FwdWords, BackWords);
    if (Trc) {
      traceSpan(SuLabel, "su", Tx.SuStart, Tx.SuEnd - Tx.SuStart, To,
                TraceTidSU);
      traceClock("su-clock", Tx.SuEnd, To, TraceTidSU, Tx.SuEnd);
    }
    return Tx.DoneAt;
  }

  void advanceEU(unsigned Node, double Now) {
    EUClock[Node] = std::max(EUClock[Node], Now);
  }

  void endSlice(const Fiber *F, unsigned Node, double Start, double End) {
    if (Trc && End > Start) {
      traceSpan("eu-run", "eu", Start, End - Start, Node, TraceTidEU,
                {{"fiber", F->Id}});
      traceClock("eu-clock", End, Node, TraceTidEU, EUClock[Node]);
    }
  }

  /// The cost of one atomic on the cell at \p Addr, issued with \p Issue
  /// when remote; returns when it completes, folding a remote completion
  /// into \p WriteSync when given.
  double atomicCost(double &Now, const MachineFrame &Fr, GlobalAddr Addr,
                    int32_t Site, const Var *Shared, double Issue,
                    double *WriteSync) {
    if (!Cfg.SequentialMode)
      ++Ctr.Atomic; // A plain variable access in the sequential program.
    if (Cfg.SequentialMode || Addr.Node == static_cast<int32_t>(Fr.Node)) {
      if (Prof && !Cfg.SequentialMode)
        Prof->recordLocal(Site);
      Now += Cfg.SequentialMode ? cost().StmtCost : cost().LocalFallback;
      return Now;
    }
    double IssueStart = Now;
    Now += Issue;
    double DoneAt = transactionComplete(Now, Fr.Node, Addr.Node,
                                        cost().SUAtomicService, 0.0,
                                        /*FwdWords=*/0, /*BackWords=*/0,
                                        "su:atomic");
    if (Trc)
      traceSpan("atomic", "comm", IssueStart, DoneAt - IssueStart, Fr.Node,
                TraceTidComm, {{"to", Addr.Node}, {"var", Shared->name()}});
    if (Prof)
      Prof->record(Site, Fr.Node, Addr.Node, 0, IssueStart, DoneAt);
    if (WriteSync)
      *WriteSync = std::max(*WriteSync, DoneAt);
    return DoneAt;
  }

  /// \p Entry of \p M if it takes \p Args; otherwise null, with R.Error set.
  static const Function *entryFunction(const Module &M,
                                       const std::string &Entry,
                                       const std::vector<RtValue> &Args,
                                       RunResult &R);
  /// Fills \p R from a drained event queue (or reports the deadlock).
  void finishRun(RunResult &R);

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> Q;
  uint64_t EventSeq = 0;
  std::vector<std::pair<const Var *, GlobalAddr>> SharedGlobals;
  Fiber *MainFiber = nullptr;
  double EndTime = 0.0;
  RtValue ExitVal;
};

} // namespace interp
} // namespace earthcc

#endif // EARTHCC_INTERP_MACHINE_H
