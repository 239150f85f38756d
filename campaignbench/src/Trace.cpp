//===- Trace.cpp - Outside-in span recording for the campaign benchmark ---===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>

using namespace cb;
using coverme::Program;

int64_t cb::clockOverheadNs() {
  static const int64_t Overhead = [] {
    std::vector<int64_t> Samples;
    for (int I = 0; I < 2001; ++I) {
      int64_t T0 = nowNs();
      int64_t T1 = nowNs();
      Samples.push_back(T1 - T0);
    }
    std::nth_element(Samples.begin(), Samples.begin() + 1000, Samples.end());
    return Samples[1000];
  }();
  return Overhead;
}

uint32_t cb::threadNumber() {
  static std::atomic<uint32_t> Next{0};
  thread_local uint32_t Mine = Next.fetch_add(1, std::memory_order_relaxed);
  return Mine;
}

void SpanLog::add(Span S) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Spans.size() >= kMaxSpans) {
    ++Dropped;
    return;
  }
  Spans.push_back(std::move(S));
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans.size();
}

uint64_t SpanLog::dropped() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Dropped;
}

bool SpanLog::write(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  int64_t Epoch = INT64_MAX;
  for (const Span &S : Spans)
    Epoch = std::min(Epoch, S.Start);
  for (const Span &S : Spans) {
    std::fprintf(F,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"thread\":%u,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"subject\":\"%s\"",
                 S.Name, static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent), S.Thread,
                 static_cast<long long>(S.Start - Epoch),
                 static_cast<long long>(S.End - Epoch), S.Subject.c_str());
    if (S.Probes || S.Batches)
      std::fprintf(F,
                   ",\"probes\":%llu,\"probe_ns\":%.0f,\"batches\":%llu,"
                   "\"batch_rows\":%llu,\"batch_ns\":%.0f",
                   static_cast<unsigned long long>(S.Probes), S.ProbeNs,
                   static_cast<unsigned long long>(S.Batches),
                   static_cast<unsigned long long>(S.BatchRows), S.BatchNs);
    std::fputs("}\n", F);
  }
  return std::fclose(F) == 0;
}

double CampaignCounters::probeNs() const {
  uint64_t Samples = ProbeSamples.load();
  if (!Samples)
    return 0.0;
  return static_cast<double>(Probes.load()) *
         static_cast<double>(ProbeSampleNs.load()) /
         static_cast<double>(Samples);
}

namespace {

/// The calling thread's open round. A BoundBody produced by the traced
/// Binder points here; BoundRun keeps it on the binding thread.
struct RoundState {
  Program::BoundBody Inner;
  CampaignCounters *C = nullptr;
  SpanLog *Log = nullptr;
  std::shared_ptr<const std::string> Subject;
  unsigned Arity = 0;
  int64_t Overhead = 0;
  bool Open = false;
  uint64_t Id = 0;
  int64_t Start = 0;
  int64_t LastTimedEnd = 0;
  uint64_t Probes = 0;
  uint64_t Samples = 0;
  uint64_t AfterTimed = 0; ///< Untimed probes since the last timed call.
  int64_t SampleNs = 0;
  uint64_t Batches = 0;
  uint64_t Rows = 0;
  int64_t BatchNs = 0;
  unsigned Tick = 0; ///< Thread-wide sampling phase; spans rounds.
  std::vector<double> Captured;

  void open(const Program::BoundBody &B, CampaignCounters *Counters,
            SpanLog *L, std::shared_ptr<const std::string> Subj, unsigned N,
            int64_t Now) {
    Inner = B;
    C = Counters;
    Log = L;
    Subject = std::move(Subj);
    Arity = N;
    Overhead = clockOverheadNs();
    Open = true;
    Id = L->newId();
    Start = Now;
    LastTimedEnd = 0;
    Probes = Samples = AfterTimed = Batches = Rows = 0;
    SampleNs = BatchNs = 0;
    Captured.clear();
  }

  void capture(const double *Args) {
    if (Captured.size() < 4 * static_cast<size_t>(Arity))
      Captured.insert(Captured.end(), Args, Args + Arity);
  }

  /// Ends the round at its last probe: the last timed call's end plus the
  /// untimed probes after it at the round's sampled mean. Time the worker
  /// then spends waiting for its commit slot is the engine's, not the
  /// minimizer's.
  void close(int64_t Now) {
    Open = false;
    double MeanProbe =
        Samples ? static_cast<double>(SampleNs) / static_cast<double>(Samples)
                : 0.0;
    int64_t End = Now;
    if (LastTimedEnd)
      End = std::min<int64_t>(
          Now, LastTimedEnd + static_cast<int64_t>(
                                  static_cast<double>(AfterTimed) * MeanProbe));
    End = std::max(End, Start);
    C->Rounds.fetch_add(1, std::memory_order_relaxed);
    C->RoundNs.fetch_add(End - Start, std::memory_order_relaxed);
    C->Probes.fetch_add(Probes, std::memory_order_relaxed);
    C->ProbeSamples.fetch_add(Samples, std::memory_order_relaxed);
    C->ProbeSampleNs.fetch_add(SampleNs, std::memory_order_relaxed);
    C->Batches.fetch_add(Batches, std::memory_order_relaxed);
    C->BatchRows.fetch_add(Rows, std::memory_order_relaxed);
    C->BatchNs.fetch_add(BatchNs, std::memory_order_relaxed);
    if (!Captured.empty() && Arity) {
      std::lock_guard<std::mutex> Lock(C->InputsMutex);
      for (size_t I = 0; I + Arity <= Captured.size() &&
                         C->Inputs.size() < CampaignCounters::kMaxInputs;
           I += Arity)
        C->Inputs.emplace_back(Captured.begin() + I,
                               Captured.begin() + I + Arity);
    }
    Span S;
    S.Name = "round";
    S.Id = Id;
    S.Parent = C->CampaignSpan;
    S.Thread = threadNumber();
    S.Start = Start;
    S.End = End;
    S.Subject = *Subject;
    S.Probes = Probes;
    S.ProbeNs = static_cast<double>(Probes) * MeanProbe;
    S.Batches = Batches;
    S.BatchRows = Rows;
    S.BatchNs = static_cast<double>(BatchNs);
    Log->add(std::move(S));
  }

  ~RoundState() {
    // Engine pool threads exit with their last round still open.
    if (Open)
      close(nowNs());
  }
};

thread_local RoundState Tls;

double tracedInvoke(void *State, uint64_t, const double *Args) {
  RoundState &R = *static_cast<RoundState *>(State);
  ++R.Probes;
  if (++R.Tick % kProbeSampleEvery != 0) {
    ++R.AfterTimed;
    return R.Inner.call(Args);
  }
  int64_t T0 = nowNs();
  double V = R.Inner.call(Args);
  int64_t T1 = nowNs();
  R.SampleNs += std::max<int64_t>(0, T1 - T0 - R.Overhead);
  ++R.Samples;
  R.LastTimedEnd = T1;
  R.AfterTimed = 0;
  R.capture(Args);
  if (R.Log->wantProbeSpan()) {
    Span S;
    S.Name = "probe";
    S.Id = R.Log->newId();
    S.Parent = R.Id;
    S.Thread = threadNumber();
    S.Start = T0;
    S.End = T1;
    R.Log->add(std::move(S));
  }
  return V;
}

void tracedBatch(void *State, uint64_t, const double *Xs, size_t Count,
                 size_t N, double *Out) {
  RoundState &R = *static_cast<RoundState *>(State);
  int64_t T0 = nowNs();
  R.Inner.InvokeBatch(R.Inner.State, R.Inner.Imm, Xs, Count, N, Out);
  int64_t T1 = nowNs();
  ++R.Batches;
  R.Rows += Count;
  R.BatchNs += std::max<int64_t>(0, T1 - T0 - R.Overhead);
  R.LastTimedEnd = T1;
  R.AfterTimed = 0;
  if (Count)
    R.capture(Xs);
}

} // namespace

TracedProgram::TracedProgram(const Program &Orig, SpanLog &Log,
                             std::string Name)
    : Prog(Orig), Counters(std::make_shared<CampaignCounters>()), Log(Log),
      Subject(std::make_shared<const std::string>(std::move(Name))) {
  auto Base = std::make_shared<const Program>(Orig);
  CampaignCounters *C = Counters.get();
  SpanLog *L = &Log;
  auto Subj = Subject;
  Prog.RawBody = nullptr;
  Prog.Binder = [Base, C, L, Subj]() {
    int64_t Now = nowNs();
    if (Tls.Open)
      Tls.close(Now);
    Program::BoundBody Inner = Base->bind();
    Tls.open(Inner, C, L, Subj, Base->Arity, Now);
    Program::BoundBody Wrapped;
    Wrapped.Invoke = &tracedInvoke;
    Wrapped.InvokeBatch = Inner.InvokeBatch ? &tracedBatch : nullptr;
    Wrapped.State = &Tls;
    return Wrapped;
  };
  Prog.Body = [Base, C, L, Subj](const double *Args) {
    int64_t T0 = nowNs();
    if (Tls.Open)
      Tls.close(T0);
    double V = Base->Body(Args);
    int64_t T1 = nowNs();
    C->Replays.fetch_add(1, std::memory_order_relaxed);
    C->ReplayNs.fetch_add(T1 - T0, std::memory_order_relaxed);
    Span S;
    S.Name = "replay";
    S.Id = L->newId();
    S.Parent = C->CampaignSpan;
    S.Thread = threadNumber();
    S.Start = T0;
    S.End = T1;
    S.Subject = *Subj;
    L->add(std::move(S));
    return V;
  };
}

void TracedProgram::beginCampaign() {
  Counters->CampaignSpan = Log.newId();
  CampaignStart = nowNs();
}

double TracedProgram::endCampaign() {
  int64_t End = nowNs();
  if (Tls.Open && Tls.C == Counters.get())
    Tls.close(End);
  Span S;
  S.Name = "campaign";
  S.Id = Counters->CampaignSpan;
  S.Thread = threadNumber();
  S.Start = CampaignStart;
  S.End = End;
  S.Subject = *Subject;
  Log.add(std::move(S));
  return static_cast<double>(End - CampaignStart) * 1e-9;
}
