//===- Bytecode.cpp - Bytecode execution engine ----------------------------===//
//
// Part of the earthcc project.
//
// The register-bytecode engine: the same EARTH machine as the AST walker in
// Interp.cpp (interp/Machine.h), stepped by dispatch over a flat
// instruction stream instead of a statement tree, with frame storage as one
// contiguous word image indexed by precomputed slots instead of a
// per-variable std::map of heap vectors. The engine-equivalence tests
// assert bit-identical results.
//
//===----------------------------------------------------------------------===//

#include "interp/Bytecode.h"

#include "interp/Machine.h"

#include <cassert>

using namespace earthcc;
using namespace earthcc::interp;

namespace {

//===----------------------------------------------------------------------===//
// Fiber state.
//===----------------------------------------------------------------------===//

/// The flat activation image: one word vector for every slot's storage plus
/// one availability time per slot. Parallel-sequence branches share the
/// image; forall iterations copy it — exactly the sharing the AST walker
/// gets from its per-variable map.
struct BcLocals {
  std::vector<RtValue> Words;
  std::vector<double> Avail;
};

/// One function activation. PC indexes BF->Code; Joins holds the join
/// contexts of the parallel constructs currently open in this frame
/// (properly nested, so a stack suffices).
///
/// Locals is a pooled image (see acquireLocals) with one owner and no
/// reference count. A call's frame and a forall iteration own theirs and
/// return it to the pool when they pop. A parallel-sequence branch borrows
/// the image of the frame that spawned it: that frame cannot pop before
/// its Join, which waits for every branch to finish.
struct BcFrame : MachineFrame {
  const BytecodeFunction *BF = nullptr;
  int32_t PC = 0;
  BcLocals *Locals = nullptr;
  bool OwnsLocals = true;       ///< False for a borrowed branch image.
  const Var *ResultV = nullptr; ///< Result variable in the caller frame.
  int32_t ResultSlot = -1;      ///< Its slot there (-1: none/no storage).
  std::vector<std::shared_ptr<JoinCtx>> Joins;
};

struct BcFiber : Fiber {
  std::vector<BcFrame> Stack;
};

//===----------------------------------------------------------------------===//
// Engine.
//===----------------------------------------------------------------------===//

class BcInterp : Machine {
public:
  BcInterp(const BytecodeModule &BM, const MachineConfig &Cfg)
      : Machine(Cfg), BM(BM) {}

  RunResult run(const std::string &Entry, const std::vector<RtValue> &Args) {
    return Machine::run(*this, *BM.M, Entry, Args);
  }

  // Machine::run's engine hooks.

  uint32_t numSites() const { return BM.NumSites; }

  Fiber *start(const Function &EntryFn, const std::vector<RtValue> &Args) {
    const BytecodeFunction *EntryBF = BM.function(&EntryFn);
    assert(EntryBF && "module lowered without its entry function");
    BcFiber *F = newFiber();
    BcFrame Fr;
    Fr.BF = EntryBF;
    Fr.Node = 0;
    Fr.Locals = makeLocals(EntryBF, 0);
    for (size_t I = 0; I != Args.size(); ++I)
      Fr.Locals->Words[EntryBF->Slots[EntryBF->ParamSlots[I]].WordOff] =
          Args[I];
    F->Stack.push_back(std::move(Fr));
    return F;
  }

  /// Runs fiber \p Base from simulated time \p T until it blocks, yields,
  /// waits on a join, finishes, or exhausts its EU quantum (defined below
  /// the class).
  void runFiber(Fiber *Base, double T);

private:
  //===--------------------------------------------------------------------===
  // Slots and values.
  //===--------------------------------------------------------------------===

  [[noreturn]] void noStorage(const BcFrame &Fr, const Var *V) {
    fail("variable '" + V->name() + "' has no storage in '" +
         Fr.BF->Fn->name() + "'");
  }

  RtValue &word(BcFrame &Fr, int32_t Slot, uint32_t Extra = 0) {
    return Fr.Locals->Words[Fr.BF->Slots[Slot].WordOff + Extra];
  }

  double availOf(BcFrame &Fr, const BcOperand &O) {
    if (O.Kind != BcOperand::K::Slot)
      return 0.0;
    if (O.Slot < 0)
      noStorage(Fr, O.V);
    return Fr.Locals->Avail[O.Slot];
  }

  RtValue valueOf(BcFrame &Fr, const BcOperand &O) {
    if (O.Kind != BcOperand::K::Slot)
      return O.Const;
    if (O.Slot < 0)
      noStorage(Fr, O.V);
    const RtValue &V = word(Fr, O.Slot);
    if (V.isUndef())
      fail("read of undefined variable '" + O.V->name() + "' in '" +
           Fr.BF->Fn->name() + "'");
    return V;
  }

  /// \p Slot must be valid; \p V is its variable (for diagnostics).
  GlobalAddr pointerValue(BcFrame &Fr, int32_t Slot, const Var *V) {
    const RtValue &Val = word(Fr, Slot);
    if (Val.isUndef())
      fail("dereference of undefined pointer '" + V->name() + "'");
    if (Val.K == RtValue::Kind::Int && Val.I == 0)
      return GlobalAddr(); // NULL stored into a pointer.
    if (Val.K != RtValue::Kind::Ptr)
      fail("dereference of non-pointer value in '" + V->name() + "'");
    return Val.P;
  }

  /// A new fiber whose frame stack has room for the call depths the
  /// workloads actually reach: growing the stack move-constructs every
  /// frame below.
  BcFiber *newFiber() {
    BcFiber *F = Machine::newFiber<BcFiber>();
    F->Stack.reserve(8);
    return F;
  }

  /// A child fiber entering Fr's function at \p PC with image \p Locals,
  /// which it owns (a forall iteration's copy) or borrows from Fr (a
  /// parallel-sequence branch).
  BcFiber *newBranch(const BcFrame &Fr, int32_t PC, BcLocals *Locals,
                     bool Owns) {
    BcFiber *Child = newFiber();
    BcFrame BFr;
    BFr.BF = Fr.BF;
    BFr.Node = Fr.Node;
    BFr.Locals = Locals;
    BFr.OwnsLocals = Owns;
    BFr.PC = PC;
    Child->Stack.push_back(std::move(BFr));
    return Child;
  }

  /// Hands out a pooled activation image; its owner parks it back on the
  /// free list when its frame pops (see BcFrame). Activations are created
  /// at extreme rates (one per call, one per forall iteration), and
  /// recycling keeps the slot/avail vector capacity, so a steady-state
  /// activation allocates nothing.
  BcLocals *acquireLocals() {
    if (LocalsFree.empty())
      return &LocalsArena.emplace_back();
    BcLocals *L = LocalsFree.back();
    LocalsFree.pop_back();
    return L;
  }

  /// Pooled copy of an activation image (forall iterations capture the
  /// driver frame by value).
  BcLocals *copyLocals(const BcLocals &Src) {
    BcLocals *L = acquireLocals();
    *L = Src;
    return L;
  }

  /// Builds the flat activation image of \p BF on \p Node, allocating
  /// memory cells for function-scope shared variables in slot order (the
  /// same order the AST walker's makeLocals allocates them).
  BcLocals *makeLocals(const BytecodeFunction *BF, unsigned Node) {
    BcLocals *L = acquireLocals();
    L->Words.assign(BF->FrameWords, RtValue());
    L->Avail.assign(BF->Slots.size(), 0.0);
    // SharedCellOffs lists the shared-variable cells in slot order — the
    // same allocation order the per-slot scan (and the AST walker's
    // makeLocals) produced.
    for (uint32_t Off : BF->SharedCellOffs)
      L->Words[Off] = RtValue::makePtr(Mem.allocate(Node, 1));
    return L;
  }

  GlobalAddr sharedAddress(BcFrame &Fr, const BcInsn &I) {
    if (I.A >= 0) {
      const RtValue &Cell = word(Fr, I.A);
      assert(Cell.K == RtValue::Kind::Ptr && "shared var has no cell");
      return Cell.P;
    }
    if (I.B >= 0)
      return sharedGlobalAt(I.B);
    noStorage(Fr, castStmt<AtomicStmt>(*I.Src).SharedVar);
  }

  //===--------------------------------------------------------------------===
  // Conditions (Br / LoopCond / ForallCond encode the pure RValue inline).
  //===--------------------------------------------------------------------===

  double condAvail(BcFrame &Fr, const BcInsn &I) {
    switch (static_cast<RValueKind>(I.RK)) {
    case RValueKind::Opnd:
    case RValueKind::Unary:
      return availOf(Fr, I.X);
    case RValueKind::Binary:
      return std::max(availOf(Fr, I.X), availOf(Fr, I.Y));
    default:
      fail("condition with memory access");
    }
  }

  RtValue condValue(BcFrame &Fr, const BcInsn &I) {
    switch (static_cast<RValueKind>(I.RK)) {
    case RValueKind::Opnd:
      return valueOf(Fr, I.X);
    case RValueKind::Unary:
      return evalUnary(static_cast<UnaryOp>(I.Sub), valueOf(Fr, I.X));
    case RValueKind::Binary:
      return evalBinary(static_cast<BinaryOp>(I.Sub), valueOf(Fr, I.X),
                        valueOf(Fr, I.Y));
    default:
      fail("condition with memory access");
    }
  }

  //===--------------------------------------------------------------------===
  // Cold-path diagnostics: recover variable names from the source
  // statement when an encoded slot is -1 (variable without frame storage).
  //===--------------------------------------------------------------------===

  [[noreturn]] void noStorageAssignBase(BcFrame &Fr, const BcInsn &I) {
    const auto &A = castStmt<AssignStmt>(*I.Src);
    switch (A.R->kind()) {
    case RValueKind::Load:
      noStorage(Fr, static_cast<const LoadRV &>(*A.R).Base);
    case RValueKind::FieldRead:
      noStorage(Fr, static_cast<const FieldReadRV &>(*A.R).StructVar);
    case RValueKind::AddrOfField:
      noStorage(Fr, static_cast<const AddrOfFieldRV &>(*A.R).Base);
    default:
      fail("assignment base variable has no storage");
    }
  }

  [[noreturn]] void noStorageAssignTarget(BcFrame &Fr, const BcInsn &I) {
    noStorage(Fr, castStmt<AssignStmt>(*I.Src).L.V);
  }

  //===--------------------------------------------------------------------===
  // Basic-instruction execution: operand resolution and availability here,
  // the machine operation in Machine.h; PC handling lives in runFiber().
  //===--------------------------------------------------------------------===

  StepStatus execAssign(BcFrame &Fr, const BcInsn &I, double &Now,
                        double &BlockTime) {
    const auto RK = static_cast<RValueKind>(I.RK);
    const auto LK = static_cast<LValueKind>(I.LK);
    double Need = 0.0;
    switch (RK) {
    case RValueKind::Opnd:
    case RValueKind::Unary:
      Need = availOf(Fr, I.X);
      break;
    case RValueKind::Binary:
      Need = std::max(availOf(Fr, I.X), availOf(Fr, I.Y));
      break;
    case RValueKind::Load:
    case RValueKind::FieldRead:
    case RValueKind::AddrOfField:
      if (I.A < 0)
        noStorageAssignBase(Fr, I);
      Need = Fr.Locals->Avail[I.A];
      break;
    }
    if (LK == LValueKind::Store) {
      if (I.Dst < 0)
        noStorageAssignTarget(Fr, I);
      Need = std::max(Need, Fr.Locals->Avail[I.Dst]);
    }
    if (Need > Now) {
      BlockTime = Need;
      return StepStatus::BlockRetry;
    }

    // Loads: the one possibly split-phase read form.
    if (RK == RValueKind::Load) {
      assert(LK == LValueKind::Var && "load must target a variable");
      if (I.Dst < 0)
        noStorageAssignTarget(Fr, I);
      const Var *BaseV = Fr.BF->Slots[I.A].V;
      GlobalAddr Addr = pointerValue(Fr, I.A, BaseV);
      load(Now, Fr, Addr, I.Off, static_cast<Locality>(I.Loc), I.Site, BaseV,
           Fr.BF->Fn, word(Fr, I.Dst), Fr.Locals->Avail[I.Dst]);
      return StepStatus::Continue;
    }

    // Pure value computation.
    RtValue Val;
    switch (RK) {
    case RValueKind::FieldRead: {
      const RtValue &W = word(Fr, I.A, I.Off);
      if (W.isUndef()) {
        const auto &FR =
            static_cast<const FieldReadRV &>(*castStmt<AssignStmt>(*I.Src).R);
        fail("read of undefined field '" + FR.FieldName + "' of '" +
             FR.StructVar->name() + "'");
      }
      Val = W;
      break;
    }
    case RValueKind::AddrOfField: {
      GlobalAddr Addr = pointerValue(Fr, I.A, Fr.BF->Slots[I.A].V);
      if (Addr.isNull()) {
        const auto &AF =
            static_cast<const AddrOfFieldRV &>(*castStmt<AssignStmt>(*I.Src).R);
        fail("&(null->" + AF.FieldName + ")");
      }
      Addr.Offset += I.Off;
      Val = RtValue::makePtr(Addr);
      break;
    }
    case RValueKind::Opnd:
      Val = valueOf(Fr, I.X);
      break;
    case RValueKind::Unary:
      Val = evalUnary(static_cast<UnaryOp>(I.Sub), valueOf(Fr, I.X));
      break;
    default:
      Val = evalBinary(static_cast<BinaryOp>(I.Sub), valueOf(Fr, I.X),
                       valueOf(Fr, I.Y));
      break;
    }

    switch (LK) {
    case LValueKind::Var: {
      // Plain copies are register moves; real computation costs a cycle+.
      Now += RK == RValueKind::Opnd ? cost().CopyCost : cost().StmtCost;
      if (I.Dst < 0)
        noStorageAssignTarget(Fr, I);
      word(Fr, I.Dst) = Val;
      Fr.Locals->Avail[I.Dst] = Now;
      return StepStatus::Continue;
    }
    case LValueKind::FieldWrite: {
      Now += cost().StmtCost + cost().LocalAccess;
      if (I.Dst < 0)
        noStorageAssignTarget(Fr, I);
      // AvailAt is left untouched: a still-pending blkmov gates readers.
      word(Fr, I.Dst, static_cast<uint32_t>(I.B)) = Val;
      return StepStatus::Continue;
    }
    case LValueKind::Store: {
      const Var *PtrV = Fr.BF->Slots[I.Dst].V;
      store(Now, Fr, pointerValue(Fr, I.Dst, PtrV), static_cast<uint32_t>(I.B),
            static_cast<Locality>(I.Loc), I.Site, PtrV, Val);
      return StepStatus::Continue;
    }
    }
    return StepStatus::Continue;
  }

  StepStatus execBlkMov(BcFrame &Fr, const BcInsn &I, double &Now,
                        double &BlockTime) {
    const auto &B = castStmt<BlkMovStmt>(*I.Src);
    if (I.B < 0)
      noStorage(Fr, B.LocalStruct);
    if (I.A < 0)
      noStorage(Fr, B.Ptr);
    const auto Dir = static_cast<BlkMovDir>(I.Sub);
    double Need = Fr.Locals->Avail[I.A];
    if (Dir == BlkMovDir::WriteFromLocal)
      Need = std::max(Need, Fr.Locals->Avail[I.B]);
    if (Need > Now) {
      BlockTime = Need;
      return StepStatus::BlockRetry;
    }
    blkmov(Now, Fr, pointerValue(Fr, I.A, B.Ptr), I.Words, Dir, I.Site, B.Ptr,
           &word(Fr, I.B), Fr.Locals->Avail[I.B]);
    return StepStatus::Continue;
  }

  StepStatus execAtomic(BcFrame &Fr, const BcInsn &I, double &Now,
                        double &BlockTime) {
    const auto Op = static_cast<AtomicOp>(I.Sub);
    double Need = Op == AtomicOp::ValueOf ? 0.0 : availOf(Fr, I.X);
    if (Need > Now) {
      BlockTime = Need;
      return StepStatus::BlockRetry;
    }

    GlobalAddr Addr = sharedAddress(Fr, I);
    const Var *Shared =
        I.A >= 0 ? Fr.BF->Slots[I.A].V : BM.SharedGlobals[I.B];
    if (Op != AtomicOp::ValueOf) {
      atomicUpdate(Now, Fr, Op, Addr, I.Site, Shared, valueOf(Fr, I.X));
      return StepStatus::Continue;
    }
    double Avail;
    RtValue V = atomicRead(Now, Fr, Addr, I.Site, Shared, Avail);
    if (I.Dst < 0)
      noStorage(Fr, castStmt<AtomicStmt>(*I.Src).Result);
    word(Fr, I.Dst) = V;
    Fr.Locals->Avail[I.Dst] = Avail;
    return StepStatus::Continue;
  }

  /// Advances Fr.PC itself (before any frame push can invalidate Fr).
  StepStatus execCall(BcFiber *F, BcFrame &Fr, const BcInsn &I, double &Now,
                      double &BlockTime) {
    const BcOperand *Args = Fr.BF->ArgPool.data() + I.A;
    const auto Place = static_cast<CallPlacement>(I.Place);
    double Need = 0.0;
    for (uint32_t J = 0; J != I.Words; ++J)
      Need = std::max(Need, availOf(Fr, Args[J]));
    if (Place == CallPlacement::OwnerOf || Place == CallPlacement::AtNode)
      Need = std::max(Need, availOf(Fr, I.Y));
    if (Need > Now) {
      BlockTime = Need;
      return StepStatus::BlockRetry;
    }
    ++Fr.PC;

    auto PlaceArg = [&] { return valueOf(Fr, I.Y); };
    const auto K = static_cast<Intrinsic>(I.Sub);
    if (K != Intrinsic::None) {
      RtValue V = intrinsic(
          K, Fr.Node, Place, [&] { return valueOf(Fr, Args[0]); }, PlaceArg,
          Now);
      if (K != Intrinsic::Print) {
        if (I.Dst < 0)
          noStorage(Fr, castStmt<CallStmt>(*I.Src).Result);
        word(Fr, I.Dst) = V;
        Fr.Locals->Avail[I.Dst] = Now;
      }
      return StepStatus::Continue;
    }

    assert(I.Callee && "unresolved call survived Sema");
    unsigned Target = targetNode(Place, Fr.Node, PlaceArg);
    BcFrame NewFr;
    NewFr.BF = I.Callee;
    NewFr.Node = Target;
    NewFr.Locals = makeLocals(I.Callee, Target);
    NewFr.ResultV = castStmt<CallStmt>(*I.Src).Result;
    NewFr.ResultSlot = I.Dst;
    NewFr.Migrated = Target != Fr.Node;
    // ParamWordOffs is the callee's lowering-time param-offset cache: one
    // indexed load per argument instead of ParamSlots -> Slots -> WordOff.
    for (uint32_t J = 0; J != I.Words; ++J)
      NewFr.Locals->Words[I.Callee->ParamWordOffs[J]] = valueOf(Fr, Args[J]);
    // Capture the origin before push_back: growing the frame stack may
    // reallocate it and dangle Fr.
    const unsigned From = Fr.Node;
    F->Stack.push_back(std::move(NewFr));
    return enterCall(F, From, Target, Now, BlockTime);
  }

  /// Pops the top frame, delivering \p Result (may be null) to the caller.
  StepStatus popFrame(BcFiber *F, double &Now, const RtValue *Result,
                      double &BlockTime) {
    BcFrame Done = std::move(F->Stack.back());
    F->Stack.pop_back();
    BcFrame *Parent = F->Stack.empty() ? nullptr : &F->Stack.back();
    StepStatus St = returnFrom(F, Done, Parent, Result, Now, BlockTime);
    if (Parent && Done.ResultV && Result) {
      if (Done.ResultSlot < 0)
        noStorage(*Parent, Done.ResultV);
      word(*Parent, Done.ResultSlot) = *Result;
      Parent->Locals->Avail[Done.ResultSlot] = BlockTime;
    }
    if (Done.OwnsLocals)
      LocalsFree.push_back(Done.Locals);
    return St;
  }

  StepStatus execReturn(BcFiber *F, BcFrame &Fr, const BcInsn &I, double &Now,
                        double &BlockTime) {
    if (I.X.Kind != BcOperand::K::None) {
      double Need = availOf(Fr, I.X);
      if (Need > Now) {
        BlockTime = Need;
        return StepStatus::BlockRetry;
      }
      RtValue Result = valueOf(Fr, I.X);
      return popFrame(F, Now, &Result, BlockTime);
    }
    return popFrame(F, Now, nullptr, BlockTime);
  }

  const BytecodeModule &BM;
  /// BcLocals recycling pool (see acquireLocals). The deque owns every
  /// image ever handed out (stable addresses); the free list holds the
  /// ones no frame owns.
  std::deque<BcLocals> LocalsArena;
  std::vector<BcLocals *> LocalsFree;
};

//===----------------------------------------------------------------------===//
// Fiber run loop: one handler per opcode, one instruction == one AST-walker
// step. The loop caches the top frame pointer and its instruction stream per
// activation instead of re-deriving both every step; the caches are
// refreshed at exactly the points the frame stack can change (Call / Return
// / ImplicitRet). The machine's step accounting (fuel and the EU preemption
// quantum) runs at exactly the AST walker's step boundaries, and the EU
// clock is written once, where the slice ends.
//===----------------------------------------------------------------------===//

void BcInterp::runFiber(Fiber *Base, double T) {
  auto *F = static_cast<BcFiber *>(Base);
  const unsigned Node = F->Stack.empty() ? 0 : F->Stack.back().Node;
  const double SliceStart = beginSlice(F, Node, T);
  double Now = SliceStart;

  // The cached top frame and its instruction stream.
  BcFrame *Fr;
  const BcInsn *Code;
  auto reload = [&] {
    Fr = F->Stack.empty() ? nullptr : &F->Stack.back();
    Code = Fr ? Fr->BF->Code.data() : nullptr;
  };
  reload();
  unsigned StepsThisRun = 0;
  double BlockTime = 0.0;

  for (;;) {
    if (!nextStep(F, Node, SliceStart, Now, StepsThisRun))
      return;
    BlockTime = 0.0;
    if (!Fr) {
      // Scheduled with an empty stack: already complete (defensive parity
      // with the AST walker; the step is still billed, as before).
      finishFiber(F, Now, 0);
      goto Halt;
    }

    // Each handler either leaves the switch to take the next step, or jumps
    // to one of the exits below the loop.
    const BcInsn &I = Code[Fr->PC];
    switch (I.Op) {
    case BcOp::Assign:
      if (execAssign(*Fr, I, Now, BlockTime) == StepStatus::BlockRetry)
        goto BlockRetry;
      ++Fr->PC;
      break;
    case BcOp::BlkMov:
      if (execBlkMov(*Fr, I, Now, BlockTime) == StepStatus::BlockRetry)
        goto BlockRetry;
      ++Fr->PC;
      break;
    case BcOp::Atomic:
      if (execAtomic(*Fr, I, Now, BlockTime) == StepStatus::BlockRetry)
        goto BlockRetry;
      ++Fr->PC;
      break;
    case BcOp::Call:
      // execCall advances PC itself.
      if (execCall(F, *Fr, I, Now, BlockTime) != StepStatus::Continue)
        goto BlockRetry; // BlockRetry, or YieldAt migrating to a remote node.
      reload();          // A user call pushed the callee frame.
      break;
    case BcOp::Return:
    case BcOp::ImplicitRet: {
      StepStatus St = I.Op == BcOp::Return
                          ? execReturn(F, *Fr, I, Now, BlockTime)
                          : popFrame(F, Now, nullptr, BlockTime);
      if (St == StepStatus::FiberDone)
        goto Halt;
      if (St != StepStatus::Continue)
        goto BlockRetry; // BlockRetry (value not ready) or migrated YieldAt.
      reload();          // The frame under the popped one is the new top.
      break;
    }

    case BcOp::Enter:
    case BcOp::EndCompound:
      ++Fr->PC;
      break;
    case BcOp::EndSeq:
      Fr->PC = I.A;
      break;

    case BcOp::Br: {
      double Need = condAvail(*Fr, I);
      if (Need > Now) {
        BlockTime = Need;
        goto BlockRetry;
      }
      Now += cost().StmtCost;
      Fr->PC = condValue(*Fr, I).truthy() ? Fr->PC + 1 : I.A;
      break;
    }
    case BcOp::LoopCond: {
      double Need = condAvail(*Fr, I);
      if (Need > Now) {
        BlockTime = Need;
        goto BlockRetry;
      }
      Now += cost().StmtCost;
      Fr->PC = condValue(*Fr, I).truthy() ? I.A : I.B;
      break;
    }
    case BcOp::Switch: {
      double Need = availOf(*Fr, I.X);
      if (Need > Now) {
        BlockTime = Need;
        goto BlockRetry;
      }
      Now += cost().StmtCost;
      const int64_t V = valueOf(*Fr, I.X).asInt();
      int32_t Target = I.A;
      // Both strategies yield the target of the first source-order case
      // matching V (see BcSwitchMode; dedup at lowering keeps the first).
      switch (static_cast<BcSwitchMode>(I.Sub)) {
      case BcSwitchMode::Linear: {
        const auto *Cases = Fr->BF->CasePool.data() + I.B;
        for (uint32_t J = 0; J != I.Words; ++J)
          if (Cases[J].first == V) {
            Target = Cases[J].second;
            break;
          }
        break;
      }
      case BcSwitchMode::Dense: {
        const BcJumpTable &Tbl = Fr->BF->JumpTables[I.Dst];
        const uint64_t Idx =
            static_cast<uint64_t>(V) - static_cast<uint64_t>(Tbl.Lo);
        if (Idx < Tbl.Size) {
          const int32_t Hit = Fr->BF->JumpPool[Tbl.Begin + Idx];
          if (Hit >= 0)
            Target = Hit;
        }
        break;
      }
      }
      Fr->PC = Target;
      break;
    }

    case BcOp::ParSpawn: {
      auto Join = std::make_shared<JoinCtx>();
      Fr->Joins.push_back(Join);
      ++Fr->PC;
      // Branches borrow the activation locals.
      const int32_t *Branches = Fr->BF->BranchPool.data() + I.B;
      for (uint32_t J = 0; J != I.Words; ++J)
        spawn(newBranch(*Fr, Branches[J], Fr->Locals, /*Owns=*/false), Join,
              Fr->Node, Now);
      break;
    }
    case BcOp::Join:
      if (!joined(*Fr->Joins.back(), F, Now))
        goto Halt; // WaitJoin: the join signal reschedules the fiber.
      Fr->Joins.pop_back();
      ++Fr->PC;
      break;
    case BcOp::ForallInit:
      Fr->Joins.push_back(std::make_shared<JoinCtx>());
      ++Fr->PC;
      break;
    case BcOp::ForallCond: {
      double Need = condAvail(*Fr, I);
      if (Need > Now) {
        BlockTime = Need;
        goto BlockRetry;
      }
      Now += cost().StmtCost;
      if (!condValue(*Fr, I).truthy()) {
        Fr->PC = I.B;
        break;
      }
      // Each iteration captures the driver's variables by value.
      spawn(newBranch(*Fr, I.A, copyLocals(*Fr->Locals), /*Owns=*/true),
            Fr->Joins.back(), Fr->Node, Now);
      ++Fr->PC; // Fall into the Step region.
      break;
    }
    }

    ++StepsThisRun;
  }

BlockRetry: // BlockRetry / YieldAt: reschedule at the release time.
  leaveEU(F, Node, SliceStart, Now);
  schedule(F, std::max(BlockTime, Now));
  return;

Halt: // WaitJoin / FiberDone: leave the EU without rescheduling.
  leaveEU(F, Node, SliceStart, Now);
}

} // namespace

RunResult earthcc::runProgramBytecode(const BytecodeModule &BM,
                                      const MachineConfig &Config,
                                      const std::string &Entry,
                                      const std::vector<RtValue> &Args) {
  return BcInterp(BM, Config).run(Entry, Args);
}
