//===- perfbench/src/Trace.h - Span recorder and layer wrappers -*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Outside-in tracing for the end-to-end benchmark. Every span is opened
/// and closed by the benchmark's own code around a call into one of the
/// program's public interfaces:
///
///   - TimedTraceSink forwards the sim::TraceSink set on a sim::Device;
///   - ToolProxy / AnalysisProxy forward a Tool and its DeviceAnalysis;
///   - CaptureSink is the ReportSink reports are written into;
///   - StepClock is the dl::Executor step listener.
///
/// Spans live in per-thread logs in memory and are folded into per-name
/// totals and per-layer self times once a round has ended and every
/// thread that recorded into them has been joined.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "dl/Schedule.h"
#include "pasta/Tool.h"
#include "sim/Trace.h"
#include "support/ReportSink.h"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// The repository's modules, used as the layers time is attributed to.
enum class Layer : std::uint8_t { Dl, Sim, Pasta, Tools, Support, Serve };
constexpr std::size_t NumLayers = 6;

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One closed (or still open, End == 0) span.
struct Span {
  std::int64_t Start = 0;
  std::int64_t End = 0;
  std::uint32_t Parent = 0; ///< Index + 1 in the same thread log; 0 = root.
  std::uint32_t Iter = 0;   ///< Model iteration current when it opened.
  std::uint16_t Name = 0;
};

/// Per-name totals over every thread.
struct NameTotals {
  double TotalS = 0.0;
  double SelfS = 0.0;
  std::uint64_t Count = 0;
};

/// What one traced round folds down to.
struct TraceSummary {
  std::map<std::string, NameTotals> ByName;
  /// Self time per layer on the timeline thread only. UnattributedS is
  /// WallS minus the timeline's root spans, so these add up to WallS by
  /// construction.
  std::array<double, NumLayers> LayerSelfS{};
  double UnattributedS = 0.0;
  double WallS = 0.0;
  std::size_t Spans = 0;
  /// Spans left open, children not inside their parent, and timeline
  /// root spans that overlap the previous root or fall outside the
  /// round. Any of these makes the self times above meaningless.
  std::size_t MalformedSpans = 0;
};

/// Process-wide span recorder. Disabled (every call a no-op) unless a
/// traced round is running.
class SpanRecorder {
public:
  static SpanRecorder &instance();

  /// Registers \p Name under \p L; returns its id. Idempotent.
  std::uint16_t intern(const std::string &Name, Layer L);

  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }
  /// Suspends recording inside a round (for work outside the timed
  /// phases) and resumes it.
  void setPaused(bool Paused) {
    Enabled.store(!Paused, std::memory_order_release);
  }
  /// Starts recording; the calling thread becomes the timeline thread.
  void startRound();
  /// Stops recording and folds every thread's spans into a summary;
  /// \p WallNs is the round's wall time on the timeline thread. Call
  /// only once every other thread that recorded has been joined.
  TraceSummary finishRound(std::int64_t WallNs);

  void begin(std::uint16_t Name);
  void end();
  void setIteration(std::uint32_t Iter) {
    CurrentIter.store(Iter, std::memory_order_relaxed);
  }

  /// Writes the last round's spans (thread, name, start, end, parent,
  /// iteration) as tab-separated text; false when \p Path cannot be
  /// opened.
  bool dump(const std::string &Path) const;

private:
  struct ThreadLog {
    std::vector<Span> Spans;
    std::vector<std::uint32_t> Open;
    /// Set when the recording thread exits. Its spans are still folded
    /// by finishRound(); startRound() then frees the log.
    std::atomic<bool> Exited{false};
  };
  ThreadLog &log();

  std::atomic<bool> Enabled{false};
  std::atomic<std::uint32_t> CurrentIter{0};
  mutable std::mutex Mu;
  std::vector<std::pair<std::string, Layer>> Names;
  std::vector<std::shared_ptr<ThreadLog>> Logs;
  ThreadLog *Timeline = nullptr;
  std::int64_t RoundStart = 0;
};

/// RAII span around one call.
class ScopedSpan {
public:
  explicit ScopedSpan(std::uint16_t Name)
      : Active(SpanRecorder::instance().enabled()) {
    if (Active)
      SpanRecorder::instance().begin(Name);
  }
  ~ScopedSpan() {
    if (Active)
      SpanRecorder::instance().end();
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  bool Active;
};

/// Forwarding sim::TraceSink: spans every call into the wrapped sink
/// (the session's event processor) and counts what sim delivers.
class TimedTraceSink : public pasta::sim::TraceSink {
public:
  explicit TimedTraceSink(pasta::sim::TraceSink &Inner);

  void onKernelBegin(const pasta::sim::LaunchInfo &Info) override;
  void onAccessBatch(const pasta::sim::LaunchInfo &Info,
                     const pasta::sim::MemAccessRecord *Records,
                     std::size_t Count) override;
  void onInstrMix(const pasta::sim::LaunchInfo &Info,
                  const pasta::sim::InstrMix &Mix) override;
  void onKernelEnd(const pasta::sim::LaunchInfo &Info,
                   const pasta::sim::TraceTimeBreakdown &Breakdown) override;

  std::uint64_t records() const { return Records; }
  std::uint64_t batches() const { return Batches; }

private:
  pasta::sim::TraceSink &Inner;
  std::uint16_t SpanName;
  std::uint64_t Records = 0;
  std::uint64_t Batches = 0;
};

/// Forwarding DeviceAnalysis: spans each processRecords chunk (run on the
/// analysis thread pool, or inline on the calling thread).
class AnalysisProxy : public pasta::DeviceAnalysis {
public:
  AnalysisProxy(pasta::DeviceAnalysis &Inner, const std::string &Label,
                std::atomic<std::uint64_t> &Records);
  void processRecords(const pasta::sim::LaunchInfo &Info,
                      const pasta::sim::MemAccessRecord *Records,
                      std::size_t Count) override;

private:
  pasta::DeviceAnalysis &Inner;
  std::uint16_t SpanName;
  std::atomic<std::uint64_t> &RecordCount;
};

/// Forwarding Tool: same name, subscription, requirements and reports as
/// the wrapped tool; every hook runs inside a span. \p Label is the
/// tool's registry name, which tells apart tools sharing a report name
/// (working_set and working_set_host both report as "working_set").
class ToolProxy : public pasta::Tool {
public:
  ToolProxy(std::unique_ptr<pasta::Tool> Inner, const std::string &Label);

  std::string name() const override { return Inner->name(); }
  pasta::Subscription subscription() override { return Inner->subscription(); }
  pasta::CapabilitySet requirements() override {
    return Inner->requirements();
  }
  void onStart() override;
  void onFinish() override;
  void onAttach(pasta::EventProcessor &Processor) override;

  void onEvent(const pasta::Event &E) override;
  void onKernelLaunch(const pasta::Event &E) override;
  void onKernelComplete(const pasta::Event &E) override;
  void onMemoryAlloc(const pasta::Event &E) override;
  void onMemoryFree(const pasta::Event &E) override;
  void onMemoryCopy(const pasta::Event &E) override;
  void onMemorySet(const pasta::Event &E) override;
  void onSynchronization(const pasta::Event &E) override;
  void onBatchMemoryOp(const pasta::Event &E) override;
  void onOperatorStart(const pasta::Event &E) override;
  void onOperatorEnd(const pasta::Event &E) override;
  void onTensorAlloc(const pasta::Event &E) override;
  void onTensorReclaim(const pasta::Event &E) override;

  void onAccessBatch(const pasta::sim::LaunchInfo &Info,
                     const pasta::sim::MemAccessRecord *Records,
                     std::size_t Count) override;
  pasta::DeviceAnalysis *deviceAnalysis() override;
  void onInstrMix(const pasta::sim::LaunchInfo &Info,
                  const pasta::sim::InstrMix &Mix) override;
  void onKernelTraceEnd(const pasta::sim::LaunchInfo &Info,
                        const pasta::sim::TraceTimeBreakdown &B) override;

  void writeReport(std::FILE *Out) override;
  void report(pasta::ReportSink &Sink) override;

  /// Records the tool labelled \p Label has reduced, through either
  /// record path.
  static std::uint64_t recordsSeen(const std::string &Label);
  static void resetCounts();

private:
  std::unique_ptr<pasta::Tool> Inner;
  std::uint16_t HookSpan;
  std::uint16_t ReportSpan;
  std::atomic<std::uint64_t> *Records;
  std::unique_ptr<AnalysisProxy> Analysis;
};

/// Registers "perfbench.<T>" in the tool registry for each \p Names entry:
/// a factory that wraps the built-in tool T in a ToolProxy, so sessions
/// that only take tool names (the aggregator's tenants) run proxies too.
void registerProxyTools(const std::vector<std::string> &Names);

/// The ReportSink reports are written into. Renders them as JSON in
/// memory (the bytes a user would write out) and keeps a canonical copy
/// for the correctness checks.
class CaptureSink : public pasta::ReportSink {
public:
  struct Report {
    std::string Tool;
    std::vector<std::pair<std::string, std::string>> Metrics;
    std::string Text;
  };

  void beginReport(const std::string &ToolName) override;
  void metric(const std::string &Key, std::uint64_t Value) override;
  void metric(const std::string &Key, double Value) override;
  void metric(const std::string &Key, const std::string &Value) override;
  void text(const std::string &Body) override;
  void endReport() override;
  void close() override;

  std::size_t bytes() const { return Json.str().size(); }
  const std::vector<Report> &reports() const { return Reports; }

private:
  pasta::JsonReportSink Json;
  std::vector<Report> Reports;
};

/// Canonical text of \p Reports: one "[tool]" line per report, then
/// "key=value" lines and an FNV-1a hash of the free-form text.
std::string canonical(const std::vector<CaptureSink::Report> &Reports);

/// dl::Executor step listener: per-iteration wall times, step counts and,
/// when tracing, one span per step (kernel steps under sim, the rest
/// under dl).
class StepClock {
public:
  StepClock();
  /// Feeds one step; installed via Executor::setStepListener.
  void onStep(const pasta::dl::Step &S);
  /// Closes the last step's span; call once the executor returns.
  void close();

  std::int64_t firstStepNs() const { return FirstStepNs; }
  std::uint64_t steps() const { return Steps; }
  std::uint64_t iterations() const { return IterationsDone; }
  /// Milliseconds per completed iteration (IterBegin -> IterEnd).
  const std::vector<double> &iterationMs() const { return IterMs; }

private:
  std::uint16_t KernelSpan;
  std::uint16_t StepSpan;
  bool SpanOpen = false;
  std::int64_t FirstStepNs = 0;
  std::int64_t IterStartNs = 0;
  std::uint64_t Steps = 0;
  std::uint64_t IterationsDone = 0;
  std::vector<double> IterMs;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
