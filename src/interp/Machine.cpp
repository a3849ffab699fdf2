//===- Machine.cpp - The simulated EARTH-MANNA machine ---------------------===//
//
// Part of the earthcc project.
//
// The machine's cold paths: construction, trace event emission, and run
// setup and teardown. Everything an engine calls per step is inline in
// Machine.h.
//
//===----------------------------------------------------------------------===//

#include "interp/Machine.h"

using namespace earthcc;
using namespace earthcc::interp;

Machine::Machine(const MachineConfig &Cfg)
    : Cfg(Cfg), Trc(Cfg.Trace), Prof(Cfg.Profiler),
      Mem(std::max(1u, Cfg.nodes())),
      Net(createNetworkModel(Cfg.Topo, Mem.numNodes())),
      EUClock(Mem.numNodes(), 0.0), LastFiber(Mem.numNodes(), nullptr) {}

Machine::~Machine() = default;

void Machine::traceSpan(const char *Name, const char *Cat, double Ts,
                        double Dur, unsigned Pid, uint32_t Tid,
                        std::vector<TraceEvent::Arg> Args) {
  TraceEvent E;
  E.Name = Name;
  E.Cat = Cat;
  E.Ph = 'X';
  E.TsNs = Ts;
  E.DurNs = Dur;
  E.Pid = Pid;
  E.Tid = Tid;
  E.Args = std::move(Args);
  Trc->event(E);
}

void Machine::traceInstant(const char *Name, const char *Cat, double Ts,
                           unsigned Pid, uint32_t Tid,
                           std::vector<TraceEvent::Arg> Args) {
  TraceEvent E;
  E.Name = Name;
  E.Cat = Cat;
  E.Ph = 'i';
  E.TsNs = Ts;
  E.Pid = Pid;
  E.Tid = Tid;
  E.Args = std::move(Args);
  Trc->event(E);
}

void Machine::traceClock(const char *Name, double Ts, unsigned Pid,
                         uint32_t Tid, double Value) {
  TraceEvent E;
  E.Name = Name;
  E.Cat = "clock";
  E.Ph = 'C';
  E.TsNs = Ts;
  E.Pid = Pid;
  E.Tid = Tid;
  E.Args.emplace_back("ns", static_cast<uint64_t>(Value));
  Trc->event(E);
}

const Function *Machine::entryFunction(const Module &M,
                                       const std::string &Entry,
                                       const std::vector<RtValue> &Args,
                                       RunResult &R) {
  const Function *EntryFn = M.findFunction(Entry);
  if (!EntryFn) {
    R.Error = "entry function '" + Entry + "' not found";
    return nullptr;
  }
  if (EntryFn->params().size() != Args.size()) {
    R.Error = "entry function expects " +
              std::to_string(EntryFn->params().size()) + " arguments, got " +
              std::to_string(Args.size());
    return nullptr;
  }
  return EntryFn;
}

void Machine::finishRun(RunResult &R) {
  if (!MainFiber->Done) {
    R.Error = "deadlock: entry function never completed";
    return;
  }
  if (Prof) {
    const std::vector<uint64_t> *PW = Net->transferWords();
    Prof->setNetwork(topologyName(Net->topology()), Net->linkStats(),
                     PW ? *PW : std::vector<uint64_t>{}, EndTime);
  }

  R.OK = true;
  R.TimeNs = EndTime;
  R.ExitValue = ExitVal;
  R.Counters = Ctr;
  R.Output = std::move(Output);
  R.StepsExecuted = Steps;
  for (unsigned N = 0; N != Mem.numNodes(); ++N)
    R.WordsPerNode.push_back(Mem.allocatedWords(N));
}
