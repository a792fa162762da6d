//===- perfbench/src/Trace.cpp - Span recorder and layer wrappers --------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

using namespace pasta;

namespace perfbench {

//===----------------------------------------------------------------------===
// SpanRecorder
//===----------------------------------------------------------------------===

SpanRecorder &SpanRecorder::instance() {
  static SpanRecorder Recorder;
  return Recorder;
}

std::uint16_t SpanRecorder::intern(const std::string &Name, Layer L) {
  std::lock_guard<std::mutex> Lock(Mu);
  for (std::size_t I = 0; I < Names.size(); ++I)
    if (Names[I].first == Name)
      return static_cast<std::uint16_t>(I);
  Names.emplace_back(Name, L);
  return static_cast<std::uint16_t>(Names.size() - 1);
}

SpanRecorder::ThreadLog &SpanRecorder::log() {
  // The thread and the recorder share the log; the thread marks it
  // exited when it ends, so the recorder can free it once folded.
  struct Owner {
    std::shared_ptr<ThreadLog> Log;
    ~Owner() {
      if (Log)
        Log->Exited.store(true, std::memory_order_release);
    }
  };
  thread_local Owner Mine;
  if (!Mine.Log) {
    std::lock_guard<std::mutex> Lock(Mu);
    Mine.Log = std::make_shared<ThreadLog>();
    Logs.push_back(Mine.Log);
  }
  return *Mine.Log;
}

void SpanRecorder::startRound() {
  Timeline = &log();
  {
    // Rounds start new lane, client and daemon threads, so the logs of
    // the last round's threads are freed here; live threads keep their
    // buffers, which hold at most one round's spans.
    std::lock_guard<std::mutex> Lock(Mu);
    Logs.erase(std::remove_if(Logs.begin(), Logs.end(),
                              [](const std::shared_ptr<ThreadLog> &L) {
                                return L->Exited.load(
                                    std::memory_order_acquire);
                              }),
               Logs.end());
    for (std::shared_ptr<ThreadLog> &L : Logs) {
      L->Spans.clear();
      L->Open.clear();
    }
  }
  RoundStart = nowNs();
  Enabled.store(true, std::memory_order_release);
}

void SpanRecorder::begin(std::uint16_t Name) {
  ThreadLog &L = log();
  Span S;
  S.Start = nowNs();
  S.Parent = L.Open.empty() ? 0 : L.Open.back() + 1;
  S.Iter = CurrentIter.load(std::memory_order_relaxed);
  S.Name = Name;
  L.Open.push_back(static_cast<std::uint32_t>(L.Spans.size()));
  L.Spans.push_back(S);
}

void SpanRecorder::end() {
  ThreadLog &L = log();
  if (L.Open.empty())
    return;
  L.Spans[L.Open.back()].End = nowNs();
  L.Open.pop_back();
}

TraceSummary SpanRecorder::finishRound(std::int64_t WallNs) {
  Enabled.store(false, std::memory_order_release);
  const std::int64_t RoundEnd = nowNs();
  std::lock_guard<std::mutex> Lock(Mu);
  TraceSummary Sum;
  Sum.WallS = static_cast<double>(WallNs) * 1e-9;
  double RootS = 0.0;
  for (const std::shared_ptr<ThreadLog> &L : Logs) {
    const std::vector<Span> &Spans = L->Spans;
    // Self time = own duration minus the direct children's durations,
    // which holds only while every span is closed and every child lies
    // inside its parent: count the spans for which it does not.
    std::vector<std::int64_t> Self(Spans.size());
    for (std::size_t I = 0; I < Spans.size(); ++I)
      Self[I] = Spans[I].End - Spans[I].Start;
    std::int64_t PrevRootEnd = RoundStart;
    for (const Span &S : Spans) {
      bool Bad = S.End < S.Start || S.Start < RoundStart || S.End > RoundEnd;
      if (S.Parent) {
        const Span &P = Spans[S.Parent - 1];
        Bad |= S.Start < P.Start || S.End > P.End;
        Self[S.Parent - 1] -= S.End - S.Start;
      } else if (L.get() == Timeline) {
        Bad |= S.Start < PrevRootEnd;
        PrevRootEnd = S.End;
      }
      Sum.MalformedSpans += Bad;
    }
    for (std::size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      const auto &[Name, SpanLayer] = Names[S.Name];
      NameTotals &T = Sum.ByName[Name];
      T.TotalS += static_cast<double>(S.End - S.Start) * 1e-9;
      T.SelfS += static_cast<double>(Self[I]) * 1e-9;
      ++T.Count;
      if (L.get() != Timeline)
        continue;
      Sum.LayerSelfS[static_cast<std::size_t>(SpanLayer)] +=
          static_cast<double>(Self[I]) * 1e-9;
      if (!S.Parent)
        RootS += static_cast<double>(S.End - S.Start) * 1e-9;
    }
    Sum.Spans += Spans.size();
  }
  Sum.UnattributedS = Sum.WallS - RootS;
  return Sum;
}

bool SpanRecorder::dump(const std::string &Path) const {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  std::lock_guard<std::mutex> Lock(Mu);
  std::fprintf(Out, "thread\tname\tstart_ns\tend_ns\tparent\titer\n");
  for (std::size_t T = 0; T < Logs.size(); ++T)
    for (const Span &S : Logs[T]->Spans)
      std::fprintf(Out, "%zu\t%s\t%" PRId64 "\t%" PRId64 "\t%u\t%u\n", T,
                   Names[S.Name].first.c_str(), S.Start - RoundStart,
                   S.End - RoundStart, S.Parent, S.Iter);
  return std::fclose(Out) == 0;
}

//===----------------------------------------------------------------------===
// TimedTraceSink
//===----------------------------------------------------------------------===

TimedTraceSink::TimedTraceSink(sim::TraceSink &Inner)
    : Inner(Inner),
      SpanName(SpanRecorder::instance().intern("pasta.sink", Layer::Pasta)) {}

void TimedTraceSink::onKernelBegin(const sim::LaunchInfo &Info) {
  ScopedSpan S(SpanName);
  Inner.onKernelBegin(Info);
}

void TimedTraceSink::onAccessBatch(const sim::LaunchInfo &Info,
                                   const sim::MemAccessRecord *Recs,
                                   std::size_t Count) {
  Records += Count;
  ++Batches;
  ScopedSpan S(SpanName);
  Inner.onAccessBatch(Info, Recs, Count);
}

void TimedTraceSink::onInstrMix(const sim::LaunchInfo &Info,
                                const sim::InstrMix &Mix) {
  ScopedSpan S(SpanName);
  Inner.onInstrMix(Info, Mix);
}

void TimedTraceSink::onKernelEnd(const sim::LaunchInfo &Info,
                                 const sim::TraceTimeBreakdown &Breakdown) {
  ScopedSpan S(SpanName);
  Inner.onKernelEnd(Info, Breakdown);
}

//===----------------------------------------------------------------------===
// ToolProxy / AnalysisProxy
//===----------------------------------------------------------------------===

namespace {
std::mutex CountersMu;
std::map<std::string, std::unique_ptr<std::atomic<std::uint64_t>>> Counters;

std::atomic<std::uint64_t> &recordCounter(const std::string &ToolName) {
  std::lock_guard<std::mutex> Lock(CountersMu);
  auto &Slot = Counters[ToolName];
  if (!Slot)
    Slot = std::make_unique<std::atomic<std::uint64_t>>(0);
  return *Slot;
}
} // namespace

AnalysisProxy::AnalysisProxy(DeviceAnalysis &Inner, const std::string &Label,
                             std::atomic<std::uint64_t> &Records)
    : Inner(Inner),
      SpanName(SpanRecorder::instance().intern("tools." + Label + ".analysis",
                                               Layer::Tools)),
      RecordCount(Records) {}

void AnalysisProxy::processRecords(const sim::LaunchInfo &Info,
                                   const sim::MemAccessRecord *Records,
                                   std::size_t Count) {
  RecordCount.fetch_add(Count, std::memory_order_relaxed);
  ScopedSpan S(SpanName);
  Inner.processRecords(Info, Records, Count);
}

ToolProxy::ToolProxy(std::unique_ptr<Tool> Wrapped, const std::string &Label)
    : Inner(std::move(Wrapped)),
      HookSpan(SpanRecorder::instance().intern("tools." + Label + ".hook",
                                               Layer::Tools)),
      ReportSpan(SpanRecorder::instance().intern("tools." + Label + ".report",
                                                 Layer::Tools)),
      Records(&recordCounter(Label)) {
  // A tool's reducer is fixed when it is constructed, so one proxy
  // serves every batch.
  if (DeviceAnalysis *A = Inner->deviceAnalysis())
    Analysis = std::make_unique<AnalysisProxy>(*A, Label, *Records);
}

std::uint64_t ToolProxy::recordsSeen(const std::string &Label) {
  return recordCounter(Label).load(std::memory_order_relaxed);
}

void ToolProxy::resetCounts() {
  std::lock_guard<std::mutex> Lock(CountersMu);
  for (auto &Entry : Counters)
    Entry.second->store(0, std::memory_order_relaxed);
}

#define PERFBENCH_FORWARD_EVENT(Hook)                                          \
  void ToolProxy::Hook(const Event &E) {                                       \
    ScopedSpan S(HookSpan);                                                    \
    Inner->Hook(E);                                                            \
  }
PERFBENCH_FORWARD_EVENT(onEvent)
PERFBENCH_FORWARD_EVENT(onKernelLaunch)
PERFBENCH_FORWARD_EVENT(onKernelComplete)
PERFBENCH_FORWARD_EVENT(onMemoryAlloc)
PERFBENCH_FORWARD_EVENT(onMemoryFree)
PERFBENCH_FORWARD_EVENT(onMemoryCopy)
PERFBENCH_FORWARD_EVENT(onMemorySet)
PERFBENCH_FORWARD_EVENT(onSynchronization)
PERFBENCH_FORWARD_EVENT(onBatchMemoryOp)
PERFBENCH_FORWARD_EVENT(onOperatorStart)
PERFBENCH_FORWARD_EVENT(onOperatorEnd)
PERFBENCH_FORWARD_EVENT(onTensorAlloc)
PERFBENCH_FORWARD_EVENT(onTensorReclaim)
#undef PERFBENCH_FORWARD_EVENT

void ToolProxy::onStart() {
  ScopedSpan S(HookSpan);
  Inner->onStart();
}

void ToolProxy::onFinish() {
  ScopedSpan S(HookSpan);
  Inner->onFinish();
}

void ToolProxy::onAttach(EventProcessor &Processor) {
  Inner->onAttach(Processor);
}

void ToolProxy::onAccessBatch(const sim::LaunchInfo &Info,
                              const sim::MemAccessRecord *Recs,
                              std::size_t Count) {
  Records->fetch_add(Count, std::memory_order_relaxed);
  ScopedSpan S(HookSpan);
  Inner->onAccessBatch(Info, Recs, Count);
}

DeviceAnalysis *ToolProxy::deviceAnalysis() { return Analysis.get(); }

void ToolProxy::onInstrMix(const sim::LaunchInfo &Info,
                           const sim::InstrMix &Mix) {
  ScopedSpan S(HookSpan);
  Inner->onInstrMix(Info, Mix);
}

void ToolProxy::onKernelTraceEnd(const sim::LaunchInfo &Info,
                                 const sim::TraceTimeBreakdown &B) {
  ScopedSpan S(HookSpan);
  Inner->onKernelTraceEnd(Info, B);
}

void ToolProxy::writeReport(std::FILE *Out) {
  ScopedSpan S(ReportSpan);
  Inner->writeReport(Out);
}

void ToolProxy::report(ReportSink &Sink) {
  ScopedSpan S(ReportSpan);
  Inner->report(Sink);
}

void registerProxyTools(const std::vector<std::string> &Names) {
  for (const std::string &Name : Names)
    ToolRegistry::instance().registerTool("perfbench." + Name, [Name] {
      return std::make_unique<ToolProxy>(ToolRegistry::instance().create(Name),
                                         Name);
    });
}

//===----------------------------------------------------------------------===
// CaptureSink
//===----------------------------------------------------------------------===

void CaptureSink::beginReport(const std::string &ToolName) {
  Json.beginReport(ToolName);
  Reports.push_back({ToolName, {}, {}});
}

void CaptureSink::metric(const std::string &Key, std::uint64_t Value) {
  Json.metric(Key, Value);
  Reports.back().Metrics.emplace_back(Key, std::to_string(Value));
}

void CaptureSink::metric(const std::string &Key, double Value) {
  Json.metric(Key, Value);
  char Num[64];
  std::snprintf(Num, sizeof(Num), "%.17g", Value);
  Reports.back().Metrics.emplace_back(Key, Num);
}

void CaptureSink::metric(const std::string &Key, const std::string &Value) {
  Json.metric(Key, Value);
  Reports.back().Metrics.emplace_back(Key, Value);
}

void CaptureSink::text(const std::string &Body) {
  Json.text(Body);
  Reports.back().Text += Body;
}

void CaptureSink::endReport() { Json.endReport(); }

void CaptureSink::close() { Json.close(); }

std::string canonical(const std::vector<CaptureSink::Report> &Reports) {
  std::string Out;
  for (const CaptureSink::Report &R : Reports) {
    Out += "[" + R.Tool + "]\n";
    for (const auto &[Key, Value] : R.Metrics)
      Out += Key + "=" + Value + "\n";
    std::uint64_t Hash = 1469598103934665603ull;
    for (unsigned char C : R.Text)
      Hash = (Hash ^ C) * 1099511628211ull;
    char Hex[32];
    std::snprintf(Hex, sizeof(Hex), "%016" PRIx64, Hash);
    Out += std::string("text.fnv1a=") + Hex + "\n";
  }
  return Out;
}

//===----------------------------------------------------------------------===
// StepClock
//===----------------------------------------------------------------------===

StepClock::StepClock()
    : KernelSpan(SpanRecorder::instance().intern("sim.kernel", Layer::Sim)),
      StepSpan(SpanRecorder::instance().intern("dl.step", Layer::Dl)) {}

void StepClock::onStep(const dl::Step &S) {
  std::int64_t Now = nowNs();
  if (Steps++ == 0)
    FirstStepNs = Now;
  if (S.Kind == dl::StepKind::IterBegin) {
    IterStartNs = Now;
  } else if (S.Kind == dl::StepKind::IterEnd) {
    IterMs.push_back(static_cast<double>(Now - IterStartNs) * 1e-6);
    ++IterationsDone;
  }
  SpanRecorder &Rec = SpanRecorder::instance();
  if (!Rec.enabled())
    return;
  if (S.Kind == dl::StepKind::IterBegin)
    Rec.setIteration(static_cast<std::uint32_t>(IterationsDone + 1));
  if (SpanOpen)
    Rec.end();
  Rec.begin(S.Kind == dl::StepKind::Kernel ? KernelSpan : StepSpan);
  SpanOpen = true;
}

void StepClock::close() {
  if (SpanOpen)
    SpanRecorder::instance().end();
  SpanOpen = false;
}

} // namespace perfbench
