//===- Main.cpp - End-to-end CoverMe campaign benchmark -------------------===//
///
/// \file
/// Runs whole CoverMe campaigns over the 14 embedded source subjects on one
/// of three workloads, checks every campaign's result digest against the
/// tree-walker reference, and prints the end-to-end metrics (untraced run)
/// or the per-layer attribution (traced run). See ../README.md.
///
///   campaignbench run --workload W --seed N --seconds S --trace 0|1
///                     [--refs FILE]... [--ref-cache FILE]
///                     [--trace-out FILE]
///   campaignbench reference --protocol powell|cmaes
///   campaignbench selftest
///
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Trace.h"

#include "core/Checkpoint.h"
#include "core/CoverMe.h"
#include "lang/Compiler.h"
#include "lang/Jit.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "lang/SourceSuite.h"
#include "lang/Vm.h"
#include "runtime/ExecutionContext.h"
#include "runtime/RepresentingFunction.h"
#include "runtime/SaturationTable.h"
#include "service/Session.h"


#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

using namespace coverme;
using namespace coverme::lang;
using namespace cb;

namespace {

//===----------------------------------------------------------------------===//
// Workloads and inputs
//===----------------------------------------------------------------------===//

enum class Protocol { Powell, CmaEs };

const char *protocolName(Protocol P) {
  return P == Protocol::Powell ? "powell" : "cmaes";
}

struct Workload {
  const char *Name;
  Protocol Proto;
  ExecutionTier Tier;
  /// Distinct campaign seeds per subject. A run executes every slot once,
  /// then repeats slots until --seconds have passed.
  unsigned Slots;
  bool Service;
  const char *Describe;
};

const Workload kWorkloads[] = {
    {"powell-vm", Protocol::Powell, ExecutionTier::Bytecode, 12, false,
     "basinhopping+powell n_start=500 n_iter=5, bytecode VM, engine "
     "threads=1, cold frontend per subject"},
    {"cmaes-jit", Protocol::CmaEs, ExecutionTier::Jit, 16, false,
     "cma-es, JIT tier, engine threads=1, cold frontend per subject"},
    {"service-jit", Protocol::Powell, ExecutionTier::Jit, 16, true,
     "service::Session, 1 worker, closed loop of 1 client with 1 job "
     "outstanding; jobs are basinhopping+powell on the JIT tier with "
     "engine threads=2"},
};

constexpr unsigned kSetupReps = 31;
// The service workload keeps two of the host's four threads busy and runs
// without a journal. With all four busy (two workers, two jobs outstanding)
// time stolen by other tenants of a shared host swung median job latency
// 2-4x between runs, and journal fsyncs made it follow the disk's latency.
// See README.md.
constexpr unsigned kServiceWorkers = 1;
constexpr unsigned kServiceOutstanding = 1;
constexpr unsigned kServiceEngineThreads = 2;
constexpr double kJobTimeoutS = 120.0;

uint64_t splitmix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// Campaign seeds come from a fixed pool whose tree-walker reference
/// digests ship in refs/digests.txt, so a run checks its results without
/// first spending minutes on the reference tier.
constexpr unsigned kPoolSize = 128;

uint64_t poolSeed(unsigned Index) {
  return splitmix64(0xc0e7e11eull + Index) >> 16;
}

/// The campaign seed of slot \p Slot under benchmark seed \p Seed: the
/// benchmark seed shuffles the pool, and slot K takes the Kth entry. Every
/// subject of a slot uses it; the reference table is keyed by it.
uint64_t campaignSeed(uint64_t Seed, unsigned Slot) {
  std::vector<unsigned> Order(kPoolSize);
  for (unsigned I = 0; I < kPoolSize; ++I)
    Order[I] = I;
  uint64_t State = Seed;
  for (unsigned I = kPoolSize - 1; I > 0; --I) {
    State = splitmix64(State);
    std::swap(Order[I], Order[State % (I + 1)]);
  }
  return poolSeed(Order[Slot % kPoolSize]);
}

CoverMeOptions campaignOptions(Protocol P, uint64_t Seed, unsigned Threads) {
  CoverMeOptions O; // paper defaults: n_start=500, n_iter=5, Powell
  if (P == Protocol::CmaEs)
    O.Backend = GlobalBackendKind::CmaEs;
  O.Seed = Seed;
  O.Threads = Threads;
  return O;
}

SourceProgramOptions compileOptions(const SourceBenchmark &B,
                                    ExecutionTier Tier) {
  SourceProgramOptions O;
  O.TotalLines = B.PaperLines;
  O.Tier = Tier;
  return O;
}

double seconds(int64_t Ns) { return static_cast<double>(Ns) * 1e-9; }

//===----------------------------------------------------------------------===//
// Reference digests
//===----------------------------------------------------------------------===//

std::string refKey(Protocol P, const std::string &Subject, uint64_t Seed) {
  return std::string(protocolName(P)) + " " + Subject + " " +
         std::to_string(Seed);
}

using RefTable = std::map<std::string, uint64_t>;

void loadRefs(const std::string &Path, RefTable &Refs) {
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream S(Line);
    std::string Proto, Subject, Digest;
    uint64_t Seed = 0;
    if (S >> Proto >> Subject >> Seed >> Digest)
      Refs[Proto + " " + Subject + " " + std::to_string(Seed)] =
          std::strtoull(Digest.c_str(), nullptr, 16);
  }
}

/// The reference digest: the same campaign on the tree-walker tier.
uint64_t referenceDigest(Protocol P, const SourceBenchmark &B, uint64_t Seed,
                         std::string &Err) {
  SourceProgram SP = compileSourceProgram(
      B.Source, B.Name, compileOptions(B, ExecutionTier::TreeWalker));
  if (!SP.success()) {
    Err = SP.diagnosticsText();
    return 0;
  }
  return resultDigest(CoverMe(SP.Prog, campaignOptions(P, Seed, 1)).run());
}

struct RefTask {
  Protocol Proto;
  unsigned Subject;
  uint64_t Seed;
  uint64_t Digest = 0;
  std::string Err;
};

/// Computes \p Tasks on up to four threads (each tree-walker program is
/// private to its task).
void computeRefs(std::vector<RefTask> &Tasks) {
  const auto &Suite = sourceSuite();
  std::atomic<size_t> Next{0};
  unsigned N = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < N; ++T)
    Threads.emplace_back([&] {
      for (size_t I; (I = Next.fetch_add(1)) < Tasks.size();) {
        RefTask &Task = Tasks[I];
        try {
          Task.Digest = referenceDigest(Task.Proto, Suite[Task.Subject],
                                        Task.Seed, Task.Err);
        } catch (const std::exception &E) {
          Task.Err = E.what();
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
}

//===----------------------------------------------------------------------===//
// Campaign records and per-layer tallies
//===----------------------------------------------------------------------===//

/// One campaign execution.
struct CampaignRun {
  unsigned Slot = 0;
  unsigned Subject = 0;
  bool Traced = false;
  double LatencyS = 0.0;  ///< CoverMe::run, or submit -> terminal.
  double CampaignS = 0.0; ///< CampaignResult::Seconds.
  uint64_t Evals = 0;
  double Coverage = 0.0;
  unsigned Committed = 0;
  uint64_t Digest = 0;
  bool Failed = false;
  std::string Error;
};

/// Per-layer sums over traced campaigns. Seconds are wall seconds: on a
/// campaign with T engine threads, thread time is divided by T, so that
/// core + optim + probes + batches + replays equals campaign wall.
struct LayerTally {
  double CampaignS = 0, CoreSelfS = 0, OptimSelfS = 0, ProbeS = 0,
         BatchS = 0, ReplayS = 0;
  uint64_t Probes = 0, ProbeSamples = 0, Batches = 0, BatchRows = 0,
           RoundsRun = 0, Committed = 0, Accepted = 0, Replays = 0;
  double ProbeSampleNs = 0, BatchNs = 0;
  std::vector<uint64_t> SubjectRounds =
      std::vector<uint64_t>(sourceSuite().size(), 0);
  std::vector<double> SubjectProbeNs =
      std::vector<double>(sourceSuite().size(), 0.0);
  std::vector<uint64_t> SubjectProbeSamples =
      std::vector<uint64_t>(sourceSuite().size(), 0);

  void add(unsigned Subject, CampaignCounters &C, double WallS,
           unsigned Threads) {
    double T = static_cast<double>(Threads);
    double Rounds = seconds(C.RoundNs.load()) / T;
    double Batch = seconds(C.BatchNs.load()) / T;
    // Count x sampled mean can overshoot the rounds' own time when the
    // sampled probes happen to be slow ones; probes run inside rounds.
    double Probe = std::min(C.probeNs() * 1e-9 / T,
                            std::max(0.0, Rounds - Batch));
    double Replay = seconds(C.ReplayNs.load()) / T;
    CampaignS += WallS;
    ProbeS += Probe;
    BatchS += Batch;
    ReplayS += Replay;
    OptimSelfS += Rounds - Probe - Batch;
    CoreSelfS += WallS - Rounds - Replay;
    Probes += C.Probes.load();
    ProbeSamples += C.ProbeSamples.load();
    ProbeSampleNs += static_cast<double>(C.ProbeSampleNs.load());
    Batches += C.Batches.load();
    BatchRows += C.BatchRows.load();
    BatchNs += static_cast<double>(C.BatchNs.load());
    RoundsRun += C.Rounds.load();
    Committed += C.Committed.load();
    Accepted += C.Accepted.load();
    Replays += C.Replays.load();
    SubjectRounds[Subject] += C.Rounds.load();
    SubjectProbeNs[Subject] += static_cast<double>(C.ProbeSampleNs.load());
    SubjectProbeSamples[Subject] += C.ProbeSamples.load();
  }
};

/// Service-layer observations of traced job passes.
struct ServiceTally {
  std::vector<double> OverheadMs;
  uint64_t Committed = 0; ///< From the session's progress callbacks.
};

/// What the calibration pass replays per subject: probe inputs sampled by
/// the traced passes, and the saturation state at the end of the first
/// traced campaign (covered arms plus arms marked infeasible).
struct SubjectSamples {
  std::vector<std::vector<double>> Inputs;
  std::vector<BranchRef> Saturated;
  bool HasState = false;

  void add(CampaignCounters &C, const Program &P, const CampaignResult &Res) {
    {
      std::lock_guard<std::mutex> Lock(C.InputsMutex);
      for (auto &X : C.Inputs)
        if (Inputs.size() < CampaignCounters::kMaxInputs)
          Inputs.push_back(X);
    }
    if (HasState)
      return;
    HasState = true;
    for (uint32_t Site = 0; Site < P.NumSites; ++Site)
      for (bool Outcome : {true, false})
        if (Res.Coverage.isCovered({Site, Outcome}))
          Saturated.push_back({Site, Outcome});
    Saturated.insert(Saturated.end(), Res.InfeasibleMarked.begin(),
                     Res.InfeasibleMarked.end());
  }
};
using SampledInputs = std::vector<SubjectSamples>;

void fillResult(CampaignRun &R, const CampaignResult &Res) {
  R.CampaignS = Res.Seconds;
  R.Evals = Res.Evaluations;
  R.Coverage = Res.BranchCoverage;
  R.Committed = Res.StartsUsed;
  R.Digest = resultDigest(Res);
  if (Res.Suspended) {
    R.Failed = true;
    R.Error = std::string("campaign stopped early: ") +
              stopReasonName(Res.Stop);
  }
}

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

/// Cold frontend for every subject on \p Tier.
std::vector<SourceProgram> compileSuite(ExecutionTier Tier, std::string &Err) {
  std::vector<SourceProgram> Out;
  for (const SourceBenchmark &B : sourceSuite()) {
    Out.push_back(
        compileSourceProgram(B.Source, B.Name, compileOptions(B, Tier)));
    if (!Out.back().success() && Err.empty())
      Err = B.Name + ": " + Out.back().diagnosticsText();
  }
  return Out;
}

/// Frontend phase times, summed over the suite, in seconds.
struct FrontendPhases {
  double Parse = 0, Sema = 0, Compile = 0, JitBuild = 0;
};

/// Times each public frontend phase for every subject, as spans under one
/// "frontend" span per subject.
FrontendPhases timeFrontend(ExecutionTier Tier, SpanLog *Log) {
  FrontendPhases P;
  for (const SourceBenchmark &B : sourceSuite()) {
    uint64_t Parent = Log ? Log->newId() : 0;
    auto Phase = [&](const char *Name, int64_t T0, int64_t T1) {
      if (!Log)
        return;
      Span S;
      S.Name = Name;
      S.Id = Log->newId();
      S.Parent = Parent;
      S.Thread = threadNumber();
      S.Start = T0;
      S.End = T1;
      S.Subject = B.Name;
      Log->add(std::move(S));
    };
    int64_t T0 = nowNs();
    ParseResult Parsed = parseTranslationUnit(B.Source);
    int64_t T1 = nowNs();
    std::vector<Diagnostic> Diags;
    analyze(*Parsed.TU, Diags);
    int64_t T2 = nowNs();
    bc::CompileResult Code = bc::compileUnit(*Parsed.TU);
    int64_t T3 = nowNs();
    std::shared_ptr<const bc::JitUnit> Jit;
    if (Tier == ExecutionTier::Jit && Code.success())
      Jit = bc::JitUnit::build(Code.Unit);
    int64_t T4 = nowNs();
    Phase("parse", T0, T1);
    Phase("sema", T1, T2);
    Phase("compile", T2, T3);
    if (Tier == ExecutionTier::Jit)
      Phase("jit_build", T3, T4);
    Phase("frontend", T0, T4);
    P.Parse += seconds(T1 - T0);
    P.Sema += seconds(T2 - T1);
    P.Compile += seconds(T3 - T2);
    if (Tier == ExecutionTier::Jit)
      P.JitBuild += seconds(T4 - T3);
  }
  return P;
}

JobRequest jobRequest(unsigned Subject, ExecutionTier Tier, uint64_t Seed,
                      unsigned NStart) {
  const SourceBenchmark &B = sourceSuite()[Subject];
  JobRequest Req;
  Req.Source = B.Source;
  Req.Entry = B.Name;
  Req.Compile = compileOptions(B, Tier);
  Req.Campaign =
      campaignOptions(Protocol::Powell, Seed, kServiceEngineThreads);
  if (NStart)
    Req.Campaign.NStart = NStart;
  return Req;
}

/// Constructs the session and warms its compiled-unit cache with a
/// one-round job per subject.
std::unique_ptr<Session> setupService(ExecutionTier Tier, std::string &Err) {
  SessionOptions SO;
  SO.Workers = kServiceWorkers;
  auto S = std::make_unique<Session>(SO);
  std::vector<uint64_t> Ids;
  for (unsigned I = 0; I < sourceSuite().size(); ++I)
    Ids.push_back(S->submit(jobRequest(I, Tier, 1, 1)));
  for (uint64_t Id : Ids) {
    JobStatus St;
    if (!Id || !S->wait(Id) || !S->status(Id, St) ||
        St.State != JobState::Done) {
      Err = "service warm-up job failed";
      break;
    }
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Passes: one slot's campaign over every subject
//===----------------------------------------------------------------------===//

/// Runs one campaign, traced when \p Log is non-null. \p Shared, when
/// given, guards \p Tally and \p Inputs against concurrent callers.
CampaignRun runCampaign(const Program &Prog, unsigned Subject,
                        const CoverMeOptions &Opts, unsigned Slot,
                        SpanLog *Log, LayerTally *Tally,
                        SampledInputs *Inputs, std::mutex *Shared = nullptr) {
  CampaignRun R;
  R.Slot = Slot;
  R.Subject = Subject;
  if (!Log) {
    int64_t T0 = nowNs();
    CampaignResult Res = CoverMe(Prog, Opts).run();
    R.LatencyS = seconds(nowNs() - T0);
    fillResult(R, Res);
    return R;
  }
  R.Traced = true;
  TracedProgram TP(Prog, *Log, sourceSuite()[Subject].Name);
  CoverMeOptions O = Opts;
  CampaignCounters *C = &TP.counters();
  O.OnRound = [C](const RoundLog &L) {
    C->Committed.fetch_add(1, std::memory_order_relaxed);
    if (L.Accepted)
      C->Accepted.fetch_add(1, std::memory_order_relaxed);
  };
  TP.beginCampaign();
  CampaignResult Res = CoverMe(TP.program(), O).run();
  R.LatencyS = TP.endCampaign();
  fillResult(R, Res);
  unsigned Threads = Prog.ThreadSafeBody ? std::max(1u, Opts.Threads) : 1u;
  std::unique_lock<std::mutex> Lock;
  if (Shared)
    Lock = std::unique_lock<std::mutex>(*Shared);
  (*Inputs)[Subject].add(*C, Prog, Res);
  Tally->add(Subject, *C, R.LatencyS, Threads);
  return R;
}

struct PassResult {
  std::vector<CampaignRun> Runs;
  double WallS = 0.0;
};

/// Every subject in suite order on the calling thread.
PassResult enginePass(const Workload &W, const std::vector<SourceProgram> &SPs,
                      uint64_t Seed, unsigned Slot, SpanLog *Log,
                      LayerTally *Tally, SampledInputs *Inputs) {
  PassResult P;
  int64_t T0 = nowNs();
  for (unsigned I = 0; I < SPs.size(); ++I)
    P.Runs.push_back(runCampaign(SPs[I].Prog, I,
                                 campaignOptions(W.Proto,
                                                 campaignSeed(Seed, Slot), 1),
                                 Slot, Log, Tally, Inputs));
  P.WallS = seconds(nowNs() - T0);
  return P;
}

/// The service pass: one client keeps kServiceOutstanding jobs in flight
/// until every subject's job has finished.
PassResult servicePass(const Workload &W, Session &S, uint64_t Seed,
                       unsigned Slot, SpanLog *Log, ServiceTally *Tally) {
  struct Pending {
    uint64_t Id;
    unsigned Subject;
    int64_t Submitted;
  };
  PassResult P;
  const unsigned N = static_cast<unsigned>(sourceSuite().size());
  std::vector<Pending> Out;
  std::atomic<uint64_t> Committed{0};
  JobProgressFn Progress = nullptr;
  if (Log)
    Progress = [&Committed](uint64_t, const RoundLog &) {
      Committed.fetch_add(1, std::memory_order_relaxed);
    };
  unsigned Next = 0;
  int64_t T0 = nowNs();
  auto Finish = [&](const Pending &J, bool TimedOut) {
    int64_t Done = nowNs();
    CampaignRun R;
    R.Slot = Slot;
    R.Subject = J.Subject;
    R.Traced = Log != nullptr;
    R.LatencyS = seconds(Done - J.Submitted);
    JobStatus St;
    CampaignResult Res;
    if (TimedOut) {
      S.cancel(J.Id);
      S.wait(J.Id);
      R.Failed = true;
      R.Error = "job timed out";
    } else if (!S.status(J.Id, St) || St.State != JobState::Done ||
               !S.result(J.Id, Res)) {
      R.Failed = true;
      R.Error = std::string("job ended ") + jobStateName(St.State) +
                (St.Error.empty() ? "" : ": " + St.Error);
    } else {
      fillResult(R, Res);
    }
    if (Log) {
      Span Job;
      Job.Name = "job";
      Job.Id = Log->newId();
      Job.Thread = threadNumber();
      Job.Start = J.Submitted;
      Job.End = Done;
      Job.Subject = sourceSuite()[J.Subject].Name;
      Log->add(std::move(Job));
      if (!R.Failed)
        Tally->OverheadMs.push_back((R.LatencyS - R.CampaignS) * 1e3);
    }
    P.Runs.push_back(std::move(R));
  };
  while (Next < N || !Out.empty()) {
    while (Out.size() < kServiceOutstanding && Next < N) {
      int64_t Now = nowNs();
      uint64_t Id = S.submit(
          jobRequest(Next, W.Tier, campaignSeed(Seed, Slot), 0), Progress);
      if (!Id) {
        CampaignRun R;
        R.Slot = Slot;
        R.Subject = Next;
        R.Failed = true;
        R.Error = "submit refused";
        P.Runs.push_back(std::move(R));
      } else {
        Out.push_back({Id, Next, Now});
      }
      ++Next;
    }
    if (Out.empty())
      continue;
    bool Any = false;
    for (size_t I = 0; I < Out.size();) {
      bool TimedOut = seconds(nowNs() - Out[I].Submitted) > kJobTimeoutS;
      if (TimedOut ||
          S.waitFor(Out[I].Id, 0.0) == Session::WaitOutcome::Terminal) {
        Finish(Out[I], TimedOut);
        Out.erase(Out.begin() + static_cast<long>(I));
        Any = true;
      } else {
        ++I;
      }
    }
    if (!Any)
      S.waitFor(Out.front().Id, 0.0005);
  }
  P.WallS = seconds(nowNs() - T0);
  if (Tally)
    Tally->Committed += Committed.load();
  return P;
}

/// Outside the session, the same job list with the same concurrency:
/// kServiceOutstanding client threads, each running CoverMe with
/// kServiceEngineThreads engine threads on a traced program. Session jobs compile their programs
/// privately, so this is where the traced run sees their rounds, probes,
/// batches and replays.
PassResult replicaPass(const std::vector<SourceProgram> &SPs, uint64_t Seed,
                       unsigned Slot, SpanLog &Log, LayerTally &Tally,
                       SampledInputs &Inputs) {
  PassResult P;
  std::mutex Mutex;
  std::atomic<unsigned> Next{0};
  int64_t T0 = nowNs();
  std::vector<std::thread> Clients;
  for (unsigned C = 0; C < kServiceOutstanding; ++C)
    Clients.emplace_back([&] {
      for (unsigned I; (I = Next.fetch_add(1)) < SPs.size();) {
        CoverMeOptions O = campaignOptions(
            Protocol::Powell, campaignSeed(Seed, Slot), kServiceEngineThreads);
        CampaignRun R;
        try {
          R = runCampaign(SPs[I].Prog, I, O, Slot, &Log, &Tally, &Inputs,
                          &Mutex);
        } catch (const std::exception &E) {
          R.Slot = Slot;
          R.Subject = I;
          R.Traced = true;
          R.Failed = true;
          R.Error = E.what();
        }
        std::lock_guard<std::mutex> Lock(Mutex);
        P.Runs.push_back(std::move(R));
      }
    });
  for (std::thread &T : Clients)
    T.join();
  P.WallS = seconds(nowNs() - T0);
  return P;
}

//===----------------------------------------------------------------------===//
// Calibration: hooks versus body on sampled probe inputs
//===----------------------------------------------------------------------===//

struct Calibration {
  double PlainNs = 0.0; ///< Bound body, no context installed.
  double FooRNs = 0.0;  ///< BoundRun::eval: beginRun + body with pen.
};

Calibration calibrate(const Program &P, const SubjectSamples &Samples) {
  Calibration Cal;
  const std::vector<std::vector<double>> &Inputs = Samples.Inputs;
  if (Inputs.empty())
    return Cal;
  SaturationTable Table(P.NumSites);
  for (BranchRef Ref : Samples.Saturated)
    Table.saturate(Ref);
  ExecutionContext Ctx(Table);
  RepresentingFunction FR(P, Ctx);
  std::vector<double> Plain, FooR;
  volatile double Sink = 0.0;
  for (int Block = 0; Block < 7; ++Block) {
    {
      Program::BoundBody B = P.bind();
      size_t Calls = 0;
      int64_t T0 = nowNs();
      while (nowNs() - T0 < 2000000 || Calls < 64)
        for (const auto &X : Inputs) {
          Sink = Sink + B.call(X.data());
          ++Calls;
        }
      Plain.push_back(static_cast<double>(nowNs() - T0) /
                      static_cast<double>(Calls));
    }
    {
      RepresentingFunction::BoundRun Run(FR);
      size_t Calls = 0;
      int64_t T0 = nowNs();
      while (nowNs() - T0 < 2000000 || Calls < 64)
        for (const auto &X : Inputs) {
          Sink = Sink + Run.eval(X.data(), X.size());
          ++Calls;
        }
      FooR.push_back(static_cast<double>(nowNs() - T0) /
                     static_cast<double>(Calls));
    }
  }
  Cal.PlainNs = median(Plain);
  Cal.FooRNs = median(FooR);
  return Cal;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  std::string Note;
};

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0.0;
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

void printMetrics(const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms)
    std::printf("  %-34s %16.6g %-6s %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Note.c_str());
}

void printResultLine(bool Correct, uint64_t Attempted, uint64_t Failed,
                     const std::vector<Metric> &Ms) {
  std::string Line = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Attempted) +
                     ", \"failed\": " + std::to_string(Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I < Ms.size(); ++I) {
    if (I)
      Line += ", ";
    Line += "\"" + Ms[I].Name + "\": {\"value\": " + jsonNumber(Ms[I].Value) +
            ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
}

/// Peak resident memory of this process image (VmHWM). ru_maxrss is not
/// used: Linux carries the parent's peak across fork and exec into it.
double peakRssMiB() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  return 0.0;
}

//===----------------------------------------------------------------------===//
// The run command
//===----------------------------------------------------------------------===//

struct RunArgs {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::vector<std::string> Refs;
  std::string RefCache;
  std::string TraceOut;
};

int runCommand(const RunArgs &A) {
  const Workload *W = nullptr;
  for (const Workload &Candidate : kWorkloads)
    if (A.Workload == Candidate.Name)
      W = &Candidate;
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s'\n", A.Workload.c_str());
    return 2;
  }
  const auto &Suite = sourceSuite();
  const unsigned NSub = static_cast<unsigned>(Suite.size());
  clockOverheadNs();
  std::printf("campaignbench  workload=%s seed=%" PRIu64
              " seconds=%g trace=%d\n  %s\n",
              W->Name, A.Seed, A.Seconds, A.Trace ? 1 : 0, W->Describe);

  // Set-up, several times; the last one is kept.
  std::string Err;
  std::vector<double> SetupS;
  std::vector<SourceProgram> SPs;
  std::unique_ptr<Session> Service;
  for (unsigned Rep = 0; Rep < kSetupReps && Err.empty(); ++Rep) {
    if (W->Service) {
      Service.reset();
      int64_t T0 = nowNs();
      Service = setupService(W->Tier, Err);
      SetupS.push_back(seconds(nowNs() - T0));
    } else {
      SPs.clear();
      int64_t T0 = nowNs();
      SPs = compileSuite(W->Tier, Err);
      SetupS.push_back(seconds(nowNs() - T0));
    }
  }
  if (!Err.empty()) {
    std::fprintf(stderr, "set-up failed: %s\n", Err.c_str());
    return 1;
  }

  SpanLog Log;
  LayerTally Layers;
  ServiceTally Jobs;
  SampledInputs Inputs(NSub);
  std::vector<FrontendPhases> Phases;
  std::vector<SourceProgram> ReplicaSPs;
  if (A.Trace) {
    for (unsigned Rep = 0; Rep < kSetupReps; ++Rep)
      Phases.push_back(timeFrontend(W->Tier, Rep == 0 ? &Log : nullptr));
    if (W->Service)
      ReplicaSPs = compileSuite(W->Tier, Err);
    if (!Err.empty()) {
      std::fprintf(stderr, "set-up failed: %s\n", Err.c_str());
      return 1;
    }
  }

  // The timed phase: every slot once, then repeats until the time is up.
  // A traced run pairs each traced pass with an untraced one of the same
  // slot; their difference is the tracing overhead.
  std::vector<CampaignRun> Runs;
  std::map<unsigned, std::vector<double>> SlotWall, TracedWall;
  unsigned Passes = 0;
  int64_t Start = nowNs();
  for (unsigned Step = 0;; ++Step) {
    unsigned Slot = Step % W->Slots;
    if (Step >= W->Slots && seconds(nowNs() - Start) >= A.Seconds)
      break;
    PassResult P = W->Service
                       ? servicePass(*W, *Service, A.Seed, Slot, nullptr,
                                     nullptr)
                       : enginePass(*W, SPs, A.Seed, Slot, nullptr, nullptr,
                                    nullptr);
    SlotWall[Slot].push_back(P.WallS);
    Runs.insert(Runs.end(), P.Runs.begin(), P.Runs.end());
    ++Passes;
    if (!A.Trace)
      continue;
    PassResult T = W->Service
                       ? servicePass(*W, *Service, A.Seed, Slot, &Log, &Jobs)
                       : enginePass(*W, SPs, A.Seed, Slot, &Log, &Layers,
                                    &Inputs);
    TracedWall[Slot].push_back(T.WallS);
    Runs.insert(Runs.end(), T.Runs.begin(), T.Runs.end());
    if (W->Service) {
      PassResult R = replicaPass(ReplicaSPs, A.Seed, Slot, Log, Layers, Inputs);
      Runs.insert(Runs.end(), R.Runs.begin(), R.Runs.end());
    }
  }
  double TimedS = seconds(nowNs() - Start);
  double PeakRss = peakRssMiB();
  CompiledUnitCache::Stats Cache;
  if (Service)
    Cache = Service->cacheStats();
  Service.reset(); // drains the session

  // Correctness: every execution against the tree-walker reference.
  RefTable Refs;
  for (const std::string &Path : A.Refs)
    loadRefs(Path, Refs);
  if (!A.RefCache.empty())
    loadRefs(A.RefCache, Refs);
  std::vector<RefTask> Missing;
  for (unsigned Slot = 0; Slot < W->Slots; ++Slot)
    for (unsigned I = 0; I < NSub; ++I)
      if (!Refs.count(refKey(W->Proto, Suite[I].Name,
                             campaignSeed(A.Seed, Slot))))
        Missing.push_back({W->Proto, I, campaignSeed(A.Seed, Slot), 0, {}});
  int64_t RefT0 = nowNs();
  computeRefs(Missing);
  double RefS = seconds(nowNs() - RefT0);
  if (!Missing.empty() && !A.RefCache.empty()) {
    std::ofstream Out(A.RefCache, std::ios::app);
    for (const RefTask &T : Missing)
      if (T.Err.empty())
        Out << protocolName(T.Proto) << ' ' << Suite[T.Subject].Name << ' '
              << T.Seed << ' ' << std::hex << T.Digest << std::dec << '\n';
  }
  for (const RefTask &T : Missing)
    if (T.Err.empty())
      Refs[refKey(T.Proto, Suite[T.Subject].Name, T.Seed)] = T.Digest;

  // Traced and untraced executions alike must reproduce the reference.
  for (CampaignRun &R : Runs) {
    if (R.Failed)
      continue;
    auto It = Refs.find(
        refKey(W->Proto, Suite[R.Subject].Name, campaignSeed(A.Seed, R.Slot)));
    if (It == Refs.end()) {
      R.Failed = true;
      R.Error = "no reference digest";
    } else if (It->second != R.Digest) {
      R.Failed = true;
      R.Error = "digest differs from the tree-walker reference";
    }
  }
  uint64_t Failed = 0;
  for (const CampaignRun &R : Runs)
    if (R.Failed) {
      ++Failed;
      if (Failed <= 5)
        std::printf("  FAILED %s slot %u: %s\n", Suite[R.Subject].Name.c_str(),
                    R.Slot, R.Error.c_str());
    }

  // One latency sample per distinct campaign (slot, subject): the median of
  // its repeats, so a burst of load on the host that slows one execution of
  // a ten-millisecond campaign does not move the percentiles. Evaluations
  // and coverage repeat exactly (the digests match the reference).
  std::map<std::pair<unsigned, unsigned>, std::vector<const CampaignRun *>>
      ByCampaign;
  for (const CampaignRun &R : Runs)
    if (!R.Traced && !R.Failed)
      ByCampaign[{R.Slot, R.Subject}].push_back(&R);
  std::vector<double> Latencies;
  std::vector<std::vector<double>> SubjLat(NSub);
  std::vector<double> SubjEvals(NSub), SubjCov(NSub);
  std::map<unsigned, double> SlotEvals;
  double EvalSum = 0.0, CoverageSum = 0.0;
  for (auto &[Key, Execs] : ByCampaign) {
    std::vector<double> L;
    for (const CampaignRun *R : Execs)
      L.push_back(R->LatencyS * 1e3);
    const CampaignRun &R = *Execs.front();
    double Evals = static_cast<double>(R.Evals);
    Latencies.push_back(median(L));
    SubjLat[R.Subject].push_back(median(L));
    SubjEvals[R.Subject] += Evals;
    SubjCov[R.Subject] += R.Coverage;
    SlotEvals[R.Slot] += Evals;
    EvalSum += Evals;
    CoverageSum += R.Coverage;
  }
  // Likewise a slot's pass wall is the median of its repeats, and the run
  // reports the median over its slots.
  double SlotWallSum = 0.0;
  std::vector<double> SlotWalls, SlotRates;
  for (auto &[Slot, Walls] : SlotWall) {
    double Wall = median(Walls);
    SlotWalls.push_back(Wall);
    SlotRates.push_back(SlotEvals[Slot] / Wall);
    SlotWallSum += Wall;
  }

  // Per-subject rows.
  std::printf("\n  %-10s %12s %7s %12s %9s\n", "subject", "evals/camp",
              "cov%", "campaign_ms", "ns/eval");
  std::vector<double> NsPerEval;
  for (unsigned I = 0; I < NSub; ++I) {
    double K = static_cast<double>(SubjLat[I].size());
    double TimeMs = 0.0;
    for (double Ms : SubjLat[I])
      TimeMs += Ms;
    double Ns = SubjEvals[I] > 0 ? TimeMs * 1e6 / SubjEvals[I] : 0.0;
    NsPerEval.push_back(Ns);
    std::printf("  %-10s %12.0f %7.2f %12.3f %9.1f\n", Suite[I].Name.c_str(),
                K ? SubjEvals[I] / K : 0.0, K ? 100.0 * SubjCov[I] / K : 0.0,
                median(SubjLat[I]), Ns);
  }
  size_t N = Latencies.size();
  double Campaigns = static_cast<double>(N);
  std::printf("  %-10s %12.0f %7.2f %12.3f %9.1f  (ns/eval: geomean %.1f)\n",
              "suite", Campaigns ? EvalSum / Campaigns : 0.0,
              Campaigns ? 100.0 * CoverageSum / Campaigns : 0.0,
              median(Latencies),
              EvalSum > 0 ? SlotWallSum * 1e9 / EvalSum : 0.0,
              geomean(NsPerEval));

  uint64_t Attempted = Runs.size();
  double Q90 = tailQuantile(N, 0.90);
  char Note[160];
  std::vector<Metric> E2E;
  std::snprintf(Note, sizeof Note,
                "median pass over %zu campaign seeds (%u passes in %.1f s)",
                SlotWalls.size(), Passes, TimedS);
  E2E.push_back({"wall_s", median(SlotWalls), "s", Note});
  E2E.push_back({"evals_per_s", median(SlotRates), "1/s",
                 "FOO_R evaluations over pass wall, median pass"});
  // Printed but left out of the result line: fail_rate reads 0 when all is
  // well, and the median latency amplifies a shared host's slow minutes
  // beyond the bound the benchmark could set (README.md).
  std::vector<Metric> Printed;
  std::snprintf(Note, sizeof Note,
                "Harrell-Davis q=0.50 over n=%zu campaigns (median of "
                "repeats)", N);
  Printed.push_back(
      {"latency_p50_ms", hdQuantile(Latencies, 0.5), "ms", Note});
  std::snprintf(Note, sizeof Note, "%" PRIu64 " failed of %" PRIu64
                " attempted", Failed, Attempted);
  Printed.push_back(
      {"fail_rate", Attempted ? static_cast<double>(Failed) / Attempted : 0.0,
       "ratio", Note});
  std::snprintf(Note, sizeof Note,
                "Harrell-Davis q=%.3f over n=%zu campaigns, %.0f beyond", Q90,
                N, (1.0 - Q90) * static_cast<double>(N));
  E2E.push_back({"latency_p90_ms", hdQuantile(Latencies, Q90), "ms", Note});
  std::snprintf(Note, sizeof Note, "mean over n=%zu campaigns", N);
  E2E.push_back({"branch_coverage",
                 Campaigns ? 100.0 * CoverageSum / Campaigns : 0.0, "%", Note});
  std::snprintf(Note, sizeof Note, "median of %u set-ups", kSetupReps);
  E2E.push_back({"setup_s", median(SetupS), "s", Note});
  E2E.push_back({"peak_rss_mb", PeakRss, "MiB", "VmHWM"});
  std::printf("\nend-to-end%s\n",
              A.Trace ? " (untraced passes of a traced run)" : "");
  printMetrics(E2E);
  printMetrics(Printed);
  std::printf("  references: %zu computed in %.1f s (tree-walker)\n",
              Missing.size(), RefS);

  if (!A.Trace) {
    printResultLine(Failed == 0, Attempted, Failed, E2E);
    return 0;
  }

  // Per-layer attribution from the traced passes.
  double TracedPasses = 0;
  double Overhead = 0.0;
  for (auto &[Slot, Walls] : TracedWall) {
    TracedPasses += static_cast<double>(Walls.size());
    Overhead += median(Walls) - median(SlotWall[Slot]);
  }
  double TP = TracedPasses > 0 ? TracedPasses : 1.0;
  double SlotsSeen =
      TracedWall.empty() ? 1.0 : static_cast<double>(TracedWall.size());
  FrontendPhases Ph;
  {
    std::vector<double> Pa, Se, Co, Ji;
    for (const FrontendPhases &F : Phases) {
      Pa.push_back(F.Parse);
      Se.push_back(F.Sema);
      Co.push_back(F.Compile);
      Ji.push_back(F.JitBuild);
    }
    Ph.Parse = median(Pa);
    Ph.Sema = median(Se);
    Ph.Compile = median(Co);
    Ph.JitBuild = median(Ji);
  }
  const std::vector<SourceProgram> &Progs = W->Service ? ReplicaSPs : SPs;
  uint64_t JitBytes = 0;
  unsigned JitFns = 0;
  for (const SourceProgram &SP : Progs)
    if (SP.Jit) {
      JitBytes += SP.Jit->codeBytes();
      JitFns += SP.Jit->jittedCount();
    }

  // Batch backend per subject, from this thread's Vm for the unit.
  std::map<std::string, double> Backends = {
      {"jit-wide", 0}, {"vm-wide", 0}, {"scalar-jit", 0}, {"scalar", 0}};
  std::vector<std::string> SubjBackend(NSub, "-");
  for (unsigned I = 0; I < NSub; ++I) {
    const SourceProgram &SP = Progs[I];
    if (!SP.Code)
      continue;
    int Idx = SP.Code->functionIndex(Suite[I].Name);
    if (Idx < 0)
      continue;
    bc::Vm &V = bc::threadLocalVm(SP.Code, InterpOptions(), SP.Jit);
    SubjBackend[I] = V.batchBackendName(static_cast<unsigned>(Idx));
    Backends[SubjBackend[I]] +=
        static_cast<double>(Layers.SubjectRounds[I]) / TP;
  }

  // Calibration on the sampled probe inputs.
  std::vector<double> PlainNs, FooRNs, FooROverPlain;
  std::printf("\nper subject (traced)\n  %-10s %-10s %9s %9s %9s %7s\n",
              "subject", "backend", "probe_ns", "plain_ns", "foo_r_ns",
              "pen%");
  for (unsigned I = 0; I < NSub; ++I) {
    Calibration Cal = calibrate(Progs[I].Prog, Inputs[I]);
    if (Cal.PlainNs > 0) {
      PlainNs.push_back(Cal.PlainNs);
      FooRNs.push_back(Cal.FooRNs);
      FooROverPlain.push_back(Cal.FooRNs / Cal.PlainNs);
    }
    double Probe = Layers.SubjectProbeSamples[I]
                       ? Layers.SubjectProbeNs[I] /
                             static_cast<double>(Layers.SubjectProbeSamples[I])
                       : 0.0;
    std::printf("  %-10s %-10s %9.1f %9.1f %9.1f %7.1f\n",
                Suite[I].Name.c_str(), SubjBackend[I].c_str(), Probe,
                Cal.PlainNs, Cal.FooRNs,
                Cal.FooRNs > 0 ? 100.0 * (Cal.FooRNs - Cal.PlainNs) / Cal.FooRNs
                               : 0.0);
    if (Suite[I].Name == "tanh")
      std::printf("  %-10s cross-check: FOO_R %.1f ns vs plain %.1f ns; the "
                  "ROADMAP's tanh bench lane gives 179 vs 56 ns (JIT), "
                  "232 vs 168 ns (VM)\n",
                  "", Cal.FooRNs, Cal.PlainNs);
  }
  std::printf("  %-10s FOO_R/plain ratio: geomean %.2fx over %zu subjects\n",
              "suite", geomean(FooROverPlain), FooROverPlain.size());

  auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0.0; };
  auto PerPass = [TP](double X) { return X / TP; };
  auto D = [](uint64_t X) { return static_cast<double>(X); };
  double PlainG = geomean(PlainNs), FooRG = geomean(FooRNs);
  const char *Pass = "per pass";
  const char *Cold = "suite, cold";
  const char *CacheNote = "Session::cacheStats, whole run";
  std::vector<Metric> PL = {
      {"lang.parse_ms", Ph.Parse * 1e3, "ms", Cold},
      {"lang.sema_ms", Ph.Sema * 1e3, "ms", Cold},
      {"lang.compile_ms", Ph.Compile * 1e3, "ms", Cold},
      {"lang.jit_build_ms", Ph.JitBuild * 1e3, "ms", Cold},
      {"lang.jit_code_bytes", D(JitBytes), "bytes", "suite"},
      {"lang.jit_fns", D(JitFns), "count", "suite"},
      {"lang.plain_ns", PlainG, "ns", "geomean over subjects"}};
  for (auto &[Name, Count] : Backends)
    PL.push_back({"lang.batch_backend." + Name, Count, "count",
                  "bindings per pass"});
  PL.insert(
      PL.end(),
      {{"runtime.probes", PerPass(D(Layers.Probes)), "count", Pass},
       {"runtime.probe_ns", Ratio(Layers.ProbeSampleNs, D(Layers.ProbeSamples)),
        "ns", "sampled 1 in 16"},
       {"runtime.probe_s", PerPass(Layers.ProbeS), "s", Pass},
       {"runtime.foo_r_ns", FooRG, "ns", "geomean over subjects"},
       {"runtime.pen_ns", FooRG - PlainG, "ns", "foo_r_ns - plain_ns"},
       {"runtime.batch_calls", PerPass(D(Layers.Batches)), "count", Pass},
       {"runtime.batch_rows_per_call",
        Ratio(D(Layers.BatchRows), D(Layers.Batches)), "rows", ""},
       {"runtime.batch_row_ns", Ratio(Layers.BatchNs, D(Layers.BatchRows)),
        "ns", ""},
       {"runtime.batch_s", PerPass(Layers.BatchS), "s", Pass},
       {"optim.rounds_run", PerPass(D(Layers.RoundsRun)), "count", Pass},
       {"optim.evals_per_round",
        Ratio(D(Layers.Probes + Layers.BatchRows), D(Layers.RoundsRun)),
        "count", ""},
       {"optim.self_s", PerPass(Layers.OptimSelfS), "s", Pass},
       {"core.campaign_s", PerPass(Layers.CampaignS), "s", Pass},
       {"core.self_s", PerPass(Layers.CoreSelfS), "s", Pass},
       {"core.rounds_committed", PerPass(D(Layers.Committed)), "count", Pass},
       {"core.accept_ratio", Ratio(D(Layers.Accepted), D(Layers.Committed)),
        "ratio", ""},
       {"core.speculation_waste",
        Layers.RoundsRun ? 1.0 - Ratio(D(Layers.Committed), D(Layers.RoundsRun))
                         : 0.0,
        "ratio", "1 - committed/run"},
       {"core.replays", PerPass(D(Layers.Replays)), "count", Pass},
       {"core.replay_s", PerPass(Layers.ReplayS), "s", Pass},
       {"service.cache_hit_ratio",
        Ratio(D(Cache.Hits), D(Cache.Hits + Cache.Misses)), "ratio",
        CacheNote},
       {"service.compile_s", Cache.CompileSeconds, "s", CacheNote},
       {"service.overhead_ms", median(Jobs.OverheadMs), "ms",
        "median job: submit->terminal - CampaignResult::Seconds"},
       {"trace.overhead_s", Overhead / SlotsSeen, "s",
        "traced - untraced pass wall, per pass"}});

  std::printf("\nper layer (traced passes: %.0f)\n", TracedPasses);
  printMetrics(PL);
  double Parts = Layers.CoreSelfS + Layers.OptimSelfS + Layers.ProbeS +
                 Layers.BatchS + Layers.ReplayS;
  auto Share = [&](double X) { return 100.0 * Ratio(X, Layers.CampaignS); };
  std::printf("  partition of campaign wall %.4f s: core %.1f%%, optim %.1f%%,"
              " probes %.1f%%, batches %.1f%%, replays %.1f%% (sum %.4f s)\n",
              Layers.CampaignS, Share(Layers.CoreSelfS),
              Share(Layers.OptimSelfS), Share(Layers.ProbeS),
              Share(Layers.BatchS), Share(Layers.ReplayS), Parts);
  if (W->Service) {
    std::printf("  session progress callbacks: %" PRIu64
                " rounds committed (replica: %" PRIu64 ")\n",
                Jobs.Committed, Layers.Committed);
    std::printf("  (service-jit: rounds, probes, batches and replays come from "
                "the replica passes: the same jobs run by CoverMe outside the "
                "session with the same concurrency)\n");
  }
  if (!A.TraceOut.empty()) {
    if (Log.write(A.TraceOut))
      std::printf("  trace: %zu spans written to %s (%" PRIu64
                  " past the cap not kept)\n",
                  Log.size(), A.TraceOut.c_str(), Log.dropped());
    else
      std::printf("  trace: could not write %s\n", A.TraceOut.c_str());
  }
  printResultLine(Failed == 0, Attempted, Failed, PL);
  return 0;
}

//===----------------------------------------------------------------------===//
// reference and selftest commands
//===----------------------------------------------------------------------===//

/// Prints the reference digests of the whole campaign-seed pool.
int referenceCommand(Protocol P) {
  const auto &Suite = sourceSuite();
  std::vector<RefTask> Tasks;
  for (unsigned Index = 0; Index < kPoolSize; ++Index)
    for (unsigned I = 0; I < Suite.size(); ++I)
      Tasks.push_back({P, I, poolSeed(Index), 0, {}});
  computeRefs(Tasks);
  for (const RefTask &T : Tasks) {
    if (!T.Err.empty()) {
      std::fprintf(stderr, "%s: %s\n", Suite[T.Subject].Name.c_str(),
                   T.Err.c_str());
      return 1;
    }
    std::printf("%s %s %" PRIu64 " %" PRIx64 "\n", protocolName(P),
                Suite[T.Subject].Name.c_str(), T.Seed, T.Digest);
  }
  return 0;
}

/// Transparency: a traced campaign matches its untraced twin, and the
/// traced counts repeat exactly on the Threads=1 workloads.
int selftestCommand() {
  const auto &Suite = sourceSuite();
  unsigned Failures = 0;
  auto Check = [&Failures](bool Ok, const std::string &What) {
    if (!Ok) {
      ++Failures;
      std::printf("FAIL %s\n", What.c_str());
    }
  };
  for (const Workload &W : kWorkloads) {
    if (W.Service)
      continue;
    std::string Err;
    std::vector<SourceProgram> SPs = compileSuite(W.Tier, Err);
    Check(Err.empty(), std::string(W.Name) + " compiles: " + Err);
    if (!Err.empty())
      continue;
    for (unsigned I = 0; I < SPs.size(); ++I) {
      const std::string Tag = std::string(W.Name) + " " + Suite[I].Name;
      CoverMeOptions O = campaignOptions(W.Proto, campaignSeed(1, 0), 1);
      CampaignRun Plain =
          runCampaign(SPs[I].Prog, I, O, 0, nullptr, nullptr, nullptr);
      SpanLog Log;
      SampledInputs Inputs(SPs.size());
      LayerTally T1, T2;
      CampaignRun A =
          runCampaign(SPs[I].Prog, I, O, 0, &Log, &T1, &Inputs);
      CampaignRun B =
          runCampaign(SPs[I].Prog, I, O, 0, &Log, &T2, &Inputs);
      Check(A.Digest == Plain.Digest && B.Digest == Plain.Digest,
            Tag + ": traced digest equals untraced digest");
      Check(A.Evals == Plain.Evals, Tag + ": traced evaluations equal");
      Check(T1.Probes + T1.BatchRows == A.Evals,
            Tag + ": probes + batch rows equal evaluations");
      Check(T1.RoundsRun == A.Committed && T1.Committed == A.Committed,
            Tag + ": rounds run = rounds committed = starts used");
      Check(T1.Replays == T1.Committed,
            Tag + ": one replay per committed round");
      Check(T1.Probes == T2.Probes && T1.RoundsRun == T2.RoundsRun &&
                T1.Committed == T2.Committed && T1.Batches == T2.Batches &&
                T1.BatchRows == T2.BatchRows && T1.Replays == T2.Replays,
            Tag + ": traced counts repeat exactly");
      double Parts =
          T1.CoreSelfS + T1.OptimSelfS + T1.ProbeS + T1.BatchS + T1.ReplayS;
      Check(std::abs(Parts - T1.CampaignS) <= 1e-9 * (1.0 + T1.CampaignS) &&
                T1.CoreSelfS >= 0.0 && T1.OptimSelfS >= -1e-6,
            Tag + ": self times partition campaign wall");
    }
  }
  std::printf("selftest: %s (%u failures)\n", Failures ? "FAIL" : "PASS",
              Failures);
  return Failures ? 1 : 0;
}

bool parseU64(const char *S, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || !End || *End || End == S)
    return false;
  Out = V;
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: campaignbench run --workload powell-vm|cmaes-jit|"
               "service-jit --seed N --seconds S --trace 0|1 [--refs FILE]... "
               "[--ref-cache FILE] [--trace-out FILE]\n"
               "       campaignbench reference --protocol powell|cmaes\n"
               "       campaignbench selftest\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Cmd = Argv[1];
  if (Cmd == "selftest")
    return selftestCommand();
  std::map<std::string, std::vector<std::string>> Flags;
  for (int I = 2; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag.rfind("--", 0) != 0 || I + 1 >= Argc)
      return usage();
    Flags[Flag.substr(2)].push_back(Argv[++I]);
  }
  auto One = [&Flags](const char *Name) -> const char * {
    auto It = Flags.find(Name);
    return It == Flags.end() ? nullptr : It->second.back().c_str();
  };
  if (Cmd == "reference") {
    const char *Proto = One("protocol");
    if (!Proto || (std::strcmp(Proto, "powell") && std::strcmp(Proto, "cmaes")))
      return usage();
    return referenceCommand(std::strcmp(Proto, "powell") ? Protocol::CmaEs
                                                         : Protocol::Powell);
  }
  uint64_t Seed = 0;
  if (!One("seed") || !parseU64(One("seed"), Seed))
    return usage();
  if (Cmd != "run" || !One("workload") || !One("seconds") || !One("trace"))
    return usage();
  RunArgs A;
  A.Workload = One("workload");
  A.Seed = Seed;
  A.Seconds = std::atof(One("seconds"));
  A.Trace = std::strcmp(One("trace"), "0") != 0;
  if (Flags.count("refs"))
    A.Refs = Flags["refs"];
  if (One("ref-cache"))
    A.RefCache = One("ref-cache");
  if (One("trace-out"))
    A.TraceOut = One("trace-out");
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  return runCommand(A);
}
