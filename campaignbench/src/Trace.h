//===- Trace.h - Outside-in span recording for the campaign benchmark -----===//
///
/// \file
/// The benchmark attributes campaign wall time to the library's layers
/// without touching library code. It times its own calls into each layer's
/// public functions, and it wraps a copy of each Program's Binder and Body:
///
///   * one Binder call opens one minimization round (optim);
///   * every BoundBody::Invoke is one scalar FOO_R probe (runtime), of
///     which one in kProbeSampleEvery is timed;
///   * every BoundBody::InvokeBatch is one batched probe call, always timed;
///   * every Body call during a campaign is a commit-time replay (core).
///
/// The wrappers forward to the original entries unchanged, so a traced
/// campaign computes the same result digest as an untraced one. Spans stay
/// in memory and are written as JSON lines when the benchmark ends.
///
//===----------------------------------------------------------------------===//

#ifndef CAMPAIGNBENCH_TRACE_H
#define CAMPAIGNBENCH_TRACE_H

#include "runtime/Program.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cb {

/// Monotonic nanoseconds.
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Cost of one timed interval's clock reads, subtracted from sampled
/// probe and batch times. Measured once at start-up.
int64_t clockOverheadNs();

/// Every Nth scalar probe on a thread is timed; the rest only counted.
constexpr unsigned kProbeSampleEvery = 16;

/// One recorded interval. Round spans carry their probe and batch
/// aggregates, because one suite pass makes millions of probes.
struct Span {
  const char *Name = "";
  uint64_t Id = 0;
  uint64_t Parent = 0;
  uint32_t Thread = 0;
  int64_t Start = 0;
  int64_t End = 0;
  std::string Subject;
  uint64_t Probes = 0;
  double ProbeNs = 0.0; ///< Estimated: count x sampled mean.
  uint64_t Batches = 0;
  uint64_t BatchRows = 0;
  double BatchNs = 0.0;
};

/// The in-memory span store. Thread-safe.
class SpanLog {
public:
  uint64_t newId() { return NextId.fetch_add(1, std::memory_order_relaxed); }
  void add(Span S);
  /// Sampled probe spans are capped; beyond the cap they are only counted
  /// in their round.
  bool wantProbeSpan() {
    return ProbeSpans.fetch_add(1, std::memory_order_relaxed) < kMaxProbeSpans;
  }
  size_t size() const;
  /// Spans not kept because the log was full.
  uint64_t dropped() const;
  /// Writes every span as one JSON object per line. Times are relative to
  /// the earliest span start.
  bool write(const std::string &Path) const;

private:
  static constexpr uint64_t kMaxProbeSpans = 20000;
  /// Bounds the log's memory; counts and times are aggregated elsewhere.
  static constexpr size_t kMaxSpans = 200000;
  mutable std::mutex Mutex;
  std::vector<Span> Spans;
  uint64_t Dropped = 0;
  std::atomic<uint64_t> NextId{1};
  std::atomic<uint64_t> ProbeSpans{0};
};

/// Small dense thread number for spans.
uint32_t threadNumber();

/// Aggregates of one traced campaign, shared by the campaign's engine
/// worker threads.
struct CampaignCounters {
  std::atomic<uint64_t> Probes{0};
  std::atomic<uint64_t> ProbeSamples{0};
  std::atomic<int64_t> ProbeSampleNs{0};
  std::atomic<uint64_t> Batches{0};
  std::atomic<uint64_t> BatchRows{0};
  std::atomic<int64_t> BatchNs{0};
  std::atomic<uint64_t> Rounds{0};
  std::atomic<int64_t> RoundNs{0};
  std::atomic<uint64_t> Replays{0};
  std::atomic<int64_t> ReplayNs{0};
  std::atomic<uint64_t> Committed{0};
  std::atomic<uint64_t> Accepted{0};
  uint64_t CampaignSpan = 0; ///< Parent of rounds and replays.

  /// Probe inputs sampled for the hooks-versus-body calibration.
  std::mutex InputsMutex;
  std::vector<std::vector<double>> Inputs;
  static constexpr size_t kMaxInputs = 64;

  /// Estimated time of all scalar probes: count x sampled mean.
  double probeNs() const;
};

/// A traced copy of one Program for one campaign. The copy's Binder and
/// Body forward to the original ones and record rounds, probes, batches
/// and replays into counters() and the span log.
class TracedProgram {
public:
  TracedProgram(const coverme::Program &Orig, SpanLog &Log,
                std::string Subject);

  const coverme::Program &program() const { return Prog; }
  CampaignCounters &counters() { return *Counters; }

  /// Opens the campaign span; rounds and replays become its children.
  void beginCampaign();
  /// Closes the calling thread's open round, if any, and the campaign span.
  /// Returns the campaign span's wall seconds.
  double endCampaign();
  uint64_t campaignSpan() const { return Counters->CampaignSpan; }

private:
  coverme::Program Prog;
  std::shared_ptr<CampaignCounters> Counters;
  SpanLog &Log;
  std::shared_ptr<const std::string> Subject;
  int64_t CampaignStart = 0;
};

} // namespace cb

#endif // CAMPAIGNBENCH_TRACE_H
