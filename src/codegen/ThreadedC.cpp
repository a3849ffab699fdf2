//===- ThreadedC.cpp ------------------------------------------------------===//
//
// Part of the earthcc project.
//
// Threaded-C emission over the flat bytecode stream. The emitter never
// consults the SIMPLE statement tree: structure comes from the BcCtor tags
// on Enter instructions plus the patched jump targets, sync-slot numbers and
// the split-phase classification come from the shared backend view, and all
// names/field/condition text comes from the bytecode operands and the view's
// presentation notes. emitLevel() walks one sequence level and returns the
// pc after the EndSeq that terminates it; constructs recurse, with fiber
// regions (parallel branches, forall bodies) spliced in at their spawn
// sites — the same emission order the view numbers sync slots in.
//
//===----------------------------------------------------------------------===//

#include "codegen/ThreadedC.h"

#include "interp/BackendView.h"

#include <cassert>
#include <map>
#include <sstream>

using namespace earthcc;

namespace {

/// Emits one lowered function, tracking outstanding split-phase operations
/// and splitting fibers at synchronization points.
class Emitter {
public:
  Emitter(const BytecodeFunction &BF, const BcBackendView &View)
      : BF(BF), View(View), Code(BF.Code) {}

  std::string run(ThreadedCInfo *Info) {
    OS << "THREADED " << BF.Fn->name() << "(";
    for (size_t I = 0; I != BF.ParamSlots.size(); ++I) {
      const Var *P = BF.Slots[BF.ParamSlots[I]].V;
      OS << (I ? ", " : "") << P->type()->str() << " " << P->name();
    }
    OS << ") {\n";
    for (const BcSlot &S : BF.Slots)
      if (S.V->kind() != VarKind::Param)
        OS << "  " << S.V->type()->str() << " " << S.V->name() << ";\n";
    OS << "  SLOT SYNC_SLOTS[];\n";
    OS << "\n  THREAD_0:\n";
    emitLevel(0, 2);
    OS << "  END_THREADED();\n}\n";
    if (Info) {
      Info->Threads = ThreadCount + 1;
      Info->SyncSlots = View.SyncSlotCount;
    }
    return OS.str();
  }

private:
  void indent(unsigned N) { OS << std::string(N, ' '); }

  unsigned slotAt(int32_t PC) const {
    assert(View.SyncSlotAt[PC] >= 0 && "instruction was not allocated a slot");
    return static_cast<unsigned>(View.SyncSlotAt[PC]);
  }

  /// Starts a new fiber because \p SyncedVars' transactions must complete.
  void splitThread(unsigned Ind, const std::vector<const Var *> &SyncedVars) {
    ++ThreadCount;
    indent(Ind);
    OS << "END_THREAD(); // fiber boundary\n";
    indent(Ind - 2 < 2 ? 2 : Ind - 2);
    OS << "THREAD_" << ThreadCount << ": // resumes when";
    for (const Var *V : SyncedVars)
      OS << " SLOT(" << Pending[V] << ")->" << V->name();
    OS << " arrive\n";
    for (const Var *V : SyncedVars)
      Pending.erase(V);
  }

  //===--------------------------------------------------------------------===
  // Operand and expression text.
  //===--------------------------------------------------------------------===

  static std::string constStr(const RtValue &C) {
    return C.K == RtValue::Kind::Int ? std::to_string(C.I)
                                     : std::to_string(C.D);
  }

  static std::string opndStr(const BcOperand &O) {
    return O.Kind == BcOperand::K::Slot ? O.V->name() : constStr(O.Const);
  }

  static std::string remoteMark(Locality Loc) {
    return Loc == Locality::Local ? "" : "{r}";
  }

  /// Rebuilds printRValue()'s text for the Assign at \p PC from the
  /// instruction fields and the view notes.
  std::string rvalueText(int32_t PC) const {
    const BcInsn &I = Code[PC];
    const BcBackendView::InsnNotes &N = View.Notes[PC];
    switch (static_cast<RValueKind>(I.RK)) {
    case RValueKind::Opnd:
      return opndStr(I.X);
    case RValueKind::Unary:
      return std::string(unaryOpName(static_cast<UnaryOp>(I.Sub))) +
             opndStr(I.X);
    case RValueKind::Binary:
      return opndStr(I.X) + " " +
             binaryOpName(static_cast<BinaryOp>(I.Sub)) + " " + opndStr(I.Y);
    case RValueKind::Load: {
      std::string Acc = N.RField.empty() ? "*" + N.AV->name()
                                         : N.AV->name() + "->" + N.RField;
      return Acc + remoteMark(static_cast<Locality>(N.RLoc));
    }
    case RValueKind::FieldRead:
      return N.AV->name() + "." + N.RField;
    case RValueKind::AddrOfField:
      return "&(" + N.AV->name() + "->" + N.RField + ")";
    }
    return "<bad rvalue>";
  }

  /// Rebuilds printLValue()'s text for the Assign at \p PC.
  std::string lvalueText(int32_t PC) const {
    const BcInsn &I = Code[PC];
    const BcBackendView::InsnNotes &N = View.Notes[PC];
    switch (static_cast<LValueKind>(I.LK)) {
    case LValueKind::Var:
      return N.DstV->name();
    case LValueKind::Store: {
      std::string Acc = N.LField.empty() ? "*" + N.DstV->name()
                                         : N.DstV->name() + "->" + N.LField;
      return Acc + remoteMark(static_cast<Locality>(I.Loc));
    }
    case LValueKind::FieldWrite:
      return N.DstV->name() + "." + N.LField;
    }
    return "<bad lvalue>";
  }

  /// Text of the condition encoded in the Br/LoopCond/ForallCond at \p PC.
  /// Pure shapes rebuild from the operands; impure conditions (BcBadCondRK
  /// carries no operands) use the view's pre-printed text.
  std::string condText(int32_t PC) const {
    const BcInsn &I = Code[PC];
    if (I.RK == BcBadCondRK)
      return View.Notes[PC].CondText;
    switch (static_cast<RValueKind>(I.RK)) {
    case RValueKind::Opnd:
      return opndStr(I.X);
    case RValueKind::Unary:
      return std::string(unaryOpName(static_cast<UnaryOp>(I.Sub))) +
             opndStr(I.X);
    case RValueKind::Binary:
      return opndStr(I.X) + " " +
             binaryOpName(static_cast<BinaryOp>(I.Sub)) + " " + opndStr(I.Y);
    default:
      return "<bad cond>";
    }
  }

  //===--------------------------------------------------------------------===
  // Pending-use collection (fiber-boundary detection).
  //===--------------------------------------------------------------------===

  /// Collects the pending variables the basic instruction at \p PC
  /// consumes, in operand order (duplicates kept: `x + x` waits twice).
  std::vector<const Var *> pendingUses(int32_t PC) {
    const BcInsn &I = Code[PC];
    const BcBackendView::InsnNotes &N = View.Notes[PC];
    std::vector<const Var *> Used;
    auto use = [&](const BcOperand &O) {
      if (O.Kind == BcOperand::K::Slot && O.V && Pending.count(O.V))
        Used.push_back(O.V);
    };
    auto useVar = [&](const Var *V) {
      if (V && Pending.count(V))
        Used.push_back(V);
    };
    switch (I.Op) {
    case BcOp::Assign: {
      switch (static_cast<RValueKind>(I.RK)) {
      case RValueKind::Opnd:
      case RValueKind::Unary:
        use(I.X);
        break;
      case RValueKind::Binary:
        use(I.X);
        use(I.Y);
        break;
      case RValueKind::Load:
      case RValueKind::FieldRead:
      case RValueKind::AddrOfField:
        useVar(N.AV);
        break;
      }
      const auto LK = static_cast<LValueKind>(I.LK);
      if (LK == LValueKind::Store || LK == LValueKind::FieldWrite)
        useVar(N.DstV);
      return Used;
    }
    case BcOp::Call:
      for (uint32_t A = 0; A != I.Words; ++A)
        use(BF.ArgPool[I.A + A]);
      use(I.Y);
      return Used;
    case BcOp::Return:
      use(I.X);
      return Used;
    case BcOp::BlkMov:
      useVar(N.AV);
      if (static_cast<BlkMovDir>(I.Sub) == BlkMovDir::WriteFromLocal)
        useVar(N.BV);
      return Used;
    case BcOp::Atomic:
      use(I.X);
      return Used;
    default:
      return Used;
    }
  }

  /// Pending variables a condition consumes. Impure conditions carry no
  /// operands and consume nothing (parity with the tree walk).
  std::vector<const Var *> condUses(int32_t PC) {
    const BcInsn &I = Code[PC];
    std::vector<const Var *> Used;
    if (I.RK == BcBadCondRK)
      return Used;
    auto use = [&](const BcOperand &O) {
      if (O.Kind == BcOperand::K::Slot && O.V && Pending.count(O.V))
        Used.push_back(O.V);
    };
    switch (static_cast<RValueKind>(I.RK)) {
    case RValueKind::Opnd:
    case RValueKind::Unary:
      use(I.X);
      break;
    case RValueKind::Binary:
      use(I.X);
      use(I.Y);
      break;
    default:
      break;
    }
    return Used;
  }

  void splitIfPending(const std::vector<const Var *> &Synced, unsigned Ind) {
    if (!Synced.empty())
      splitThread(Ind, Synced);
  }

  //===--------------------------------------------------------------------===
  // Stream traversal.
  //===--------------------------------------------------------------------===

  /// Emits one sequence level starting at \p PC and returns the pc after
  /// the EndSeq that terminates it. Constructs are consumed whole via their
  /// Enter tags; every other instruction at this level is a basic statement.
  int32_t emitLevel(int32_t PC, unsigned Ind) {
    while (true) {
      switch (Code[PC].Op) {
      case BcOp::EndSeq:
        return PC + 1;
      case BcOp::ImplicitRet:
        // A fiber region shaped as a bare basic/compound statement falls
        // directly into the frame pop (Simplify never produces this; the
        // lowering keeps the shape for parity with the AST walker).
        return PC;
      case BcOp::Enter:
        PC = emitConstruct(PC, Ind);
        break;
      case BcOp::ParSpawn:
        // A parallel sequence that *is* a fiber region (a branch of an
        // enclosing parallel sequence) has no Enter of its own: the spawned
        // fiber starts directly at its ParSpawn.
        emitPar(PC, Ind);
        PC += 2; // Skip the Join.
        break;
      default:
        emitBasic(PC, Ind);
        ++PC;
        break;
      }
    }
  }

  /// Emits the parallel sequence whose ParSpawn is at \p SpawnPC.
  void emitPar(int32_t SpawnPC, unsigned Ind) {
    const BcInsn &Spawn = Code[SpawnPC];
    indent(Ind);
    OS << "// parallel sequence: " << Spawn.Words << " tokens + join slot\n";
    unsigned Join = slotAt(SpawnPC);
    for (uint32_t Br = 0; Br != Spawn.Words; ++Br) {
      indent(Ind);
      OS << "TOKEN(branch, SLOT(" << Join << ")) {\n";
      emitLevel(BF.BranchPool[Spawn.B + Br], Ind + 2);
      indent(Ind);
      OS << "}\n";
    }
    indent(Ind);
    OS << "SYNC_JOIN(SLOT(" << Join << "), " << Spawn.Words << ");\n";
    splitThread(Ind, {});
  }

  /// Emits the construct whose Enter is at \p PC; returns the pc after it.
  int32_t emitConstruct(int32_t PC, unsigned Ind) {
    switch (static_cast<BcCtor>(Code[PC].Ctor)) {
    case BcCtor::Seq:
      // A nested sequential sequence: transparent in the emitted text.
      return emitLevel(PC + 1, Ind);

    case BcCtor::Par:
      // Enter, ParSpawn, Join; branches are out-of-line fiber regions.
      emitPar(PC + 1, Ind);
      return PC + 3;

    case BcCtor::If: {
      // Enter, Br, then..., ThenEnd, else..., ElseEnd, EndCompound.
      splitIfPending(condUses(PC + 1), Ind);
      indent(Ind);
      OS << "if (" << condText(PC + 1) << ") {\n";
      int32_t ElsePC = emitLevel(PC + 2, Ind + 2);
      bool ElseEmpty = Code[ElsePC].Op == BcOp::EndSeq;
      if (!ElseEmpty) {
        indent(Ind);
        OS << "} else {\n";
      }
      int32_t EndPC = emitLevel(ElsePC, Ind + 2); // The EndCompound.
      indent(Ind);
      OS << "}\n";
      return EndPC + 1;
    }

    case BcCtor::While: {
      // Enter, LoopCond, body..., BodyEnd; exit target is BodyEnd + 1.
      splitIfPending(condUses(PC + 1), Ind);
      indent(Ind);
      OS << "while (" << condText(PC + 1) << ") {\n";
      int32_t After = emitLevel(PC + 2, Ind + 2);
      indent(Ind);
      OS << "}\n";
      return After;
    }

    case BcCtor::DoWhile: {
      // Enter, Enter(body), body..., BodyEnd, LoopCond. The condition is
      // consumed before the body is entered, exactly like the tree walk.
      int32_t CondPC = bcSeqEnd(BF, PC + 2) + 1;
      splitIfPending(condUses(CondPC), Ind);
      indent(Ind);
      OS << "do {\n";
      emitLevel(PC + 2, Ind + 2);
      indent(Ind);
      OS << "} while (" << condText(CondPC) << ");\n";
      return CondPC + 1;
    }

    case BcCtor::Switch: {
      // Enter, Switch, cases..., default..., EndCompound.
      const BcInsn &Sw = Code[PC + 1];
      splitIfPending(
          [&] {
            std::vector<const Var *> Used;
            if (Sw.X.Kind == BcOperand::K::Slot && Sw.X.V &&
                Pending.count(Sw.X.V))
              Used.push_back(Sw.X.V);
            return Used;
          }(),
          Ind);
      indent(Ind);
      OS << "switch (" << opndStr(Sw.X) << ") {\n";
      for (uint32_t CI = 0; CI != Sw.Words; ++CI) {
        const auto &Case = BF.CasePool[Sw.B + CI];
        indent(Ind);
        OS << "case " << Case.first << ":\n";
        emitLevel(Case.second, Ind + 2);
        indent(Ind + 2);
        OS << "break;\n";
      }
      indent(Ind);
      OS << "default:\n";
      int32_t EndPC = emitLevel(Sw.A, Ind + 2); // The EndCompound.
      indent(Ind);
      OS << "}\n";
      return EndPC + 1;
    }

    case BcCtor::Forall: {
      // Enter, ForallInit, init..., InitEnd, ForallCond, step..., StepEnd,
      // Join; the body is an out-of-line fiber region at ForallCond.A.
      int32_t CondPC = bcSeqEnd(BF, PC + 2) + 1;
      splitIfPending(condUses(CondPC), Ind);
      unsigned Join = slotAt(PC + 1);
      indent(Ind);
      OS << "// forall driver: spawns one token per iteration\n";
      emitLevel(PC + 2, Ind); // Init, at the driver's own indent.
      indent(Ind);
      OS << "while (" << condText(CondPC) << ") {\n";
      indent(Ind + 2);
      OS << "TOKEN(iteration, SLOT(" << Join << ")) {\n";
      emitLevel(Code[CondPC].A, Ind + 4); // Body fiber region.
      indent(Ind + 2);
      OS << "}\n";
      int32_t JoinPC = emitLevel(CondPC + 1, Ind + 2); // Step -> the Join.
      indent(Ind);
      OS << "}\n";
      indent(Ind);
      OS << "SYNC_JOIN(SLOT(" << Join << "), ALL_ITERATIONS);\n";
      splitThread(Ind, {});
      return JoinPC + 1;
    }

    case BcCtor::None:
    case BcCtor::DoWhileBody:
      break;
    }
    assert(false && "untagged or interior Enter reached emitConstruct");
    return PC + 1;
  }

  //===--------------------------------------------------------------------===
  // Basic statements.
  //===--------------------------------------------------------------------===

  void emitBasic(int32_t PC, unsigned Ind) {
    // Fiber boundary: this statement consumes outstanding split-phase
    // results, so it belongs to a new thread triggered by their slots.
    splitIfPending(pendingUses(PC), Ind);

    const BcInsn &I = Code[PC];
    const BcBackendView::InsnNotes &N = View.Notes[PC];
    switch (I.Op) {
    case BcOp::Assign: {
      bool RemoteRead =
          static_cast<RValueKind>(I.RK) == RValueKind::Load &&
          static_cast<Locality>(N.RLoc) != Locality::Local;
      if (RemoteRead) {
        unsigned Slot = slotAt(PC);
        indent(Ind);
        OS << "GET_SYNC_L(" << N.AV->name() << " + " << I.Off << ", &"
           << N.DstV->name() << ", SLOT(" << Slot << ")); // " << N.AV->name()
           << "->" << (N.RField.empty() ? "*" : N.RField) << "\n";
        Pending[N.DstV] = Slot;
        return;
      }
      bool RemoteWrite = static_cast<LValueKind>(I.LK) == LValueKind::Store &&
                         static_cast<Locality>(I.Loc) != Locality::Local;
      if (RemoteWrite) {
        indent(Ind);
        OS << "DATA_SYNC_L(" << rvalueText(PC) << ", " << N.DstV->name()
           << " + " << static_cast<uint32_t>(I.B) << ", WSYNC); // "
           << N.DstV->name() << "->" << N.LField << "\n";
        return;
      }
      indent(Ind);
      OS << lvalueText(PC) << " = " << rvalueText(PC) << ";\n";
      return;
    }
    case BcOp::BlkMov: {
      unsigned Slot = slotAt(PC);
      indent(Ind);
      if (static_cast<BlkMovDir>(I.Sub) == BlkMovDir::ReadToLocal) {
        OS << "BLKMOV_SYNC(" << N.AV->name() << ", &" << N.BV->name() << ", "
           << I.Words * 8 << ", SLOT(" << Slot << "));\n";
        Pending[N.BV] = Slot;
      } else {
        OS << "BLKMOV_SYNC(&" << N.BV->name() << ", " << N.AV->name() << ", "
           << I.Words * 8 << ", WSYNC);\n";
      }
      return;
    }
    case BcOp::Call: {
      indent(Ind);
      if (static_cast<CallPlacement>(I.Place) != CallPlacement::Default) {
        unsigned Slot = slotAt(PC);
        OS << "INVOKE(";
        switch (static_cast<CallPlacement>(I.Place)) {
        case CallPlacement::OwnerOf:
          OS << "OWNER_OF(" << opndStr(I.Y) << ")";
          break;
        case CallPlacement::AtNode:
          OS << "NODE(" << opndStr(I.Y) << ")";
          break;
        default:
          OS << "HOME";
          break;
        }
        OS << ", " << N.CalleeName << "(";
        for (uint32_t A = 0; A != I.Words; ++A)
          OS << (A ? ", " : "") << opndStr(BF.ArgPool[I.A + A]);
        OS << ")";
        if (N.DstV) {
          OS << ", &" << N.DstV->name() << ", SLOT(" << Slot << ")";
          Pending[N.DstV] = Slot;
        }
        OS << ");\n";
        return;
      }
      if (N.DstV)
        OS << N.DstV->name() << " = ";
      OS << N.CalleeName << "(";
      for (uint32_t A = 0; A != I.Words; ++A)
        OS << (A ? ", " : "") << opndStr(BF.ArgPool[I.A + A]);
      OS << ");\n";
      return;
    }
    case BcOp::Return: {
      indent(Ind);
      OS << "RETURN(";
      if (I.X.Kind != BcOperand::K::None)
        OS << opndStr(I.X);
      OS << "); // settles WSYNC before signalling the caller\n";
      return;
    }
    case BcOp::Atomic: {
      indent(Ind);
      switch (static_cast<AtomicOp>(I.Sub)) {
      case AtomicOp::WriteTo:
        OS << "WRITETO_SYNC(&" << N.AV->name() << ", " << opndStr(I.X)
           << ", WSYNC);\n";
        return;
      case AtomicOp::AddTo:
        OS << "ADDTO_SYNC(&" << N.AV->name() << ", " << opndStr(I.X)
           << ", WSYNC);\n";
        return;
      case AtomicOp::ValueOf: {
        unsigned Slot = slotAt(PC);
        OS << "VALUEOF_SYNC(&" << N.AV->name() << ", &" << N.DstV->name()
           << ", SLOT(" << Slot << "));\n";
        Pending[N.DstV] = Slot;
        return;
      }
      }
      return;
    }
    default:
      assert(false && "control opcode reached emitBasic");
      return;
    }
  }

  const BytecodeFunction &BF;
  const BcBackendView &View;
  const std::vector<BcInsn> &Code; ///< The function's instruction stream.
  std::ostringstream OS;
  std::map<const Var *, unsigned> Pending;
  unsigned ThreadCount = 0;
};

} // namespace

std::string earthcc::emitThreadedC(const BytecodeModule &BM,
                                   const BytecodeFunction &BF,
                                   ThreadedCInfo *Info) {
  BcBackendView View = buildBackendView(BM, BF);
  return Emitter(BF, View).run(Info);
}

std::string earthcc::emitThreadedC(const Module &M, const Function &F,
                                   ThreadedCInfo *Info) {
  const BytecodeModule &BM = getOrLowerBytecode(M);
  const BytecodeFunction *BF = BM.function(&F);
  assert(BF && "function is not part of the lowered module");
  return emitThreadedC(BM, *BF, Info);
}

std::string earthcc::emitThreadedC(const BytecodeModule &BM) {
  std::string Out;
  for (const auto &BF : BM.Funcs)
    Out += emitThreadedC(BM, *BF) + "\n";
  return Out;
}

std::string earthcc::emitThreadedC(const Module &M) {
  return emitThreadedC(getOrLowerBytecode(M));
}
