//===- perfbench/src/Workloads.cpp - The benchmark's workloads -----------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "dl/Executor.h"
#include "dl/Models.h"
#include "pasta/Session.h"
#include "serve/Aggregator.h"
#include "tools/StreamForwardTool.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

using namespace pasta;

namespace perfbench {

namespace {

const std::vector<std::string> CoarseTools = {
    "kernel_frequency", "op_kernel_map", "mem_usage_timeline"};
const std::vector<std::string> RecordTools = {"working_set",
                                              "working_set_host"};

double seconds(std::int64_t Ns) { return static_cast<double>(Ns) * 1e-9; }

double cpuSeconds() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_utime.tv_sec + Usage.ru_stime.tv_sec) +
         static_cast<double>(Usage.ru_utime.tv_usec + Usage.ru_stime.tv_usec) *
             1e-6;
}

/// Span names of the phases the round itself brackets.
struct PhaseSpans {
  std::uint16_t DlBuild, DlRun, SessionBuild, Finish, Teardown, ReportWrite,
      ServeStart, ServeDrain;

  static const PhaseSpans &get() {
    static const PhaseSpans Spans = [] {
      SpanRecorder &R = SpanRecorder::instance();
      return PhaseSpans{R.intern("dl.build", Layer::Dl),
                        R.intern("dl.run", Layer::Dl),
                        R.intern("pasta.session_build", Layer::Pasta),
                        R.intern("pasta.finish", Layer::Pasta),
                        R.intern("pasta.teardown", Layer::Pasta),
                        R.intern("support.report_write", Layer::Support),
                        R.intern("serve.start", Layer::Serve),
                        R.intern("serve.drain", Layer::Serve)};
    }();
    return Spans;
  }
};

/// Opens a span that is closed explicitly, for phases whose end is not
/// the end of a C++ scope.
void beginSpan(std::uint16_t Name) {
  if (SpanRecorder::instance().enabled())
    SpanRecorder::instance().begin(Name);
}
void endSpan() {
  if (SpanRecorder::instance().enabled())
    SpanRecorder::instance().end();
}

std::string referencePath(const RunContext &Ctx, const WorkloadSpec &Spec) {
  return Ctx.ReferenceDir + "/" + Spec.Model +
         (Spec.Training ? "-training-" : "-inference-") +
         std::to_string(Spec.Iterations) + ".txt";
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

dl::Program buildProgram(const WorkloadSpec &Spec) {
  dl::ScheduleBuilder::Options Opts;
  // Every workload runs on the A100 preset, whose runtime lowers to
  // cuDNN-flavored kernels.
  Opts.Flavor = dl::KernelFlavor::Cudnn;
  Opts.Training = Spec.Training;
  Opts.Iterations = Spec.Iterations;
  return dl::buildModelProgram(Spec.Model, Opts);
}

/// Device-analysis pool width. With one worker, parallelFor runs the
/// device-resident reducer inline on the delivering thread. A fanned-out
/// pool makes every record batch wait for thread wake-ups, and on a
/// shared 4-thread virtual machine that wait, not the program, set the
/// run-to-run spread of the records workload's wall-clock metrics
/// (0.36-0.44 of the median with 2 workers against 0.04-0.08 inline).
constexpr std::size_t AnalysisThreads = 1;

SessionBuilder baseBuilder(const WorkloadSpec &Spec) {
  SessionBuilder B;
  B.backend("cs-gpu")
      .gpu("A100")
      .model(Spec.Model)
      .training(Spec.Training)
      .iterations(Spec.Iterations)
      .analysisThreads(AnalysisThreads);
  return B;
}

/// Runs \p Program on \p S with \p Clock as the executor's step
/// listener. Session::runProgram installs only a pre-kernel hook (the
/// UVM prefetcher), which the listener leaves in place.
dl::RunStats runProgram(Session &S, const dl::Program &Program,
                        StepClock &Clock) {
  beginSpan(PhaseSpans::get().DlRun);
  dl::RunStats Stats = S.runProgram(Program, 0, [&Clock](dl::Executor &E) {
    E.setStepListener([&Clock](const dl::Step &Step) { Clock.onStep(Step); });
  });
  Clock.close();
  endSpan();
  return Stats;
}

void addProcessorStats(LayerCounts &C, const ProcessorStats &S) {
  C.Events += S.EventsProcessed;
  C.RecordsDelivered += S.RecordsDelivered;
  C.QueueSpins += S.QueueSpins;
  C.QueueParks += S.QueueParks;
  C.MaxQueueDepth = std::max(C.MaxQueueDepth, S.MaxQueueDepth);
  C.Flushes += S.FlushCount;
  C.EventsDropped += S.EventsDropped;
  C.ArenaHits += S.ArenaHits;
  C.ArenaPayloads += S.ArenaPayloads;
}

/// Metric value of \p Key in the first report named \p Tool.
const std::string *findMetric(const std::vector<CaptureSink::Report> &Reports,
                              const std::string &Tool,
                              const std::string &Key) {
  for (const CaptureSink::Report &R : Reports) {
    if (R.Tool != Tool)
      continue;
    for (const auto &[K, V] : R.Metrics)
      if (K == Key)
        return &V;
    return nullptr;
  }
  return nullptr;
}

/// records: the device-resident and host-side reducers must agree on
/// every metric but analysis_mode.
bool reducersAgree(const std::vector<CaptureSink::Report> &Reports,
                   std::string &Problem) {
  if (Reports.size() != 2) {
    Problem = "expected 2 reports, got " + std::to_string(Reports.size());
    return false;
  }
  auto Strip = [](const CaptureSink::Report &R) {
    auto M = R.Metrics;
    M.erase(std::remove_if(M.begin(), M.end(),
                           [](const auto &KV) {
                             return KV.first == "analysis_mode";
                           }),
            M.end());
    return M;
  };
  if (Strip(Reports[0]) != Strip(Reports[1])) {
    Problem = "working_set and working_set_host disagree";
    return false;
  }
  return true;
}

/// fleet: the merged tenant's kernel_frequency counts are exactly
/// \p Clients times the single-session reference.
bool mergedCountsMatch(const std::vector<CaptureSink::Report> &Merged,
                       const std::string &Reference, int Clients,
                       std::string &Problem) {
  std::istringstream In(Reference);
  std::string Line;
  bool InSection = false;
  std::size_t Checked = 0;
  while (std::getline(In, Line)) {
    if (!Line.empty() && Line[0] == '[') {
      InSection = Line == "[kernel_frequency]";
      continue;
    }
    std::size_t Eq = Line.find('=');
    if (!InSection || Eq == std::string::npos)
      continue;
    std::string Key = Line.substr(0, Eq);
    if (Key != "total_launches" && Key != "distinct_kernels" &&
        Key.rfind("launches.", 0) != 0)
      continue;
    std::uint64_t Want = std::stoull(Line.substr(Eq + 1));
    if (Key != "distinct_kernels")
      Want *= static_cast<std::uint64_t>(Clients);
    const std::string *Got = findMetric(Merged, "kernel_frequency", Key);
    if (!Got || *Got != std::to_string(Want)) {
      Problem = "merged kernel_frequency " + Key + " is " +
                (Got ? *Got : std::string("missing")) + ", want " +
                std::to_string(Want);
      return false;
    }
    ++Checked;
  }
  if (Checked == 0) {
    Problem = "reference has no kernel_frequency counts";
    return false;
  }
  return true;
}

std::vector<std::string> sessionTools(const WorkloadSpec &Spec, bool Traced) {
  std::vector<std::string> Names;
  for (const std::string &T : Spec.Tools)
    Names.push_back(Traced ? "perfbench." + T : T);
  return Names;
}

/// records / events: one profiled session.
RoundResult runLocal(const WorkloadSpec &Spec, const RunContext &Ctx,
                     bool Traced, std::string *CanonicalOut) {
  const PhaseSpans &N = PhaseSpans::get();
  SpanRecorder &Rec = SpanRecorder::instance();
  RoundResult R;
  R.Attempted = 1;
  R.Traced = Traced;
  if (Traced) {
    ToolProxy::resetCounts();
    Rec.startRound();
  }

  // Every set-up starts from a trimmed heap, as in a fresh process;
  // otherwise it reuses pages the previous round freed or not,
  // depending on how the allocator left them.
  malloc_trim(0);
  std::int64_t T0 = nowNs();
  dl::Program Program;
  {
    ScopedSpan S(N.DlBuild);
    Program = buildProgram(Spec);
  }
  // Declared before the session so it outlives every use the session's
  // devices make of it.
  std::unique_ptr<TimedTraceSink> Timed;
  std::unique_ptr<Session> Sess;
  SessionError Err;
  {
    ScopedSpan S(N.SessionBuild);
    SessionBuilder B = baseBuilder(Spec);
    for (const std::string &Name : sessionTools(Spec, Traced))
      B.tool(Name);
    if (Spec.Lanes > 0)
      B.asyncEvents(true).dispatchThreads(Spec.Lanes);
    Sess = B.build(Err);
  }
  if (!Sess) {
    if (Traced)
      Rec.finishRound(nowNs() - T0);
    R.Failed = 1;
    R.Problem = "session build failed: " + Err.message();
    return R;
  }
  if (Traced) {
    sim::Device &Dev = Sess->system().device(0);
    if (sim::TraceSink *Inner = Dev.traceSink()) {
      Timed = std::make_unique<TimedTraceSink>(*Inner);
      Dev.setTraceSink(Timed.get());
    }
  }
  std::int64_t T1 = nowNs();
  R.SetupS = seconds(T1 - T0);

  StepClock Clock;
  double Cpu0 = cpuSeconds();
  dl::RunStats Stats = runProgram(*Sess, Program, Clock);
  std::int64_t TLast = nowNs();
  {
    ScopedSpan S(N.Finish);
    Sess->finish();
  }
  CaptureSink Reports;
  {
    ScopedSpan S(N.ReportWrite);
    Sess->writeReports(Reports);
  }
  std::int64_t TRep = nowNs();
  R.CpuS = cpuSeconds() - Cpu0;

  LayerCounts &C = R.Counts;
  C.Steps = Clock.steps();
  C.Iterations = Clock.iterations();
  C.ReportBytes = Reports.bytes();
  addProcessorStats(C, Sess->processor().stats());
  if (Timed) {
    C.SimRecords = Timed->records();
    C.SimBatches = Timed->batches();
  }

  std::int64_t TTear = nowNs();
  {
    ScopedSpan S(N.Teardown);
    Sess.reset();
  }
  std::int64_t TEnd = nowNs();

  R.RunS = seconds(TRep - Clock.firstStepNs());
  R.ReportLagS = seconds(TRep - TLast);
  R.WallS = seconds((TRep - T0) + (TEnd - TTear));
  R.Kernels = Stats.KernelsLaunched;
  R.IterMs = Clock.iterationMs();
  if (Traced) {
    R.Trace = Rec.finishRound((TRep - T0) + (TEnd - TTear));
    for (const std::string &T : Spec.Tools)
      C.ToolRecords.emplace_back(T, ToolProxy::recordsSeen(T));
  }
  C.AnalysisThreads = AnalysisThreads;

  // Checks: every clock above has stopped.
  std::string Canon = canonical(Reports.reports());
  bool Ok = true;
  if (Spec.Name == "records")
    Ok = reducersAgree(Reports.reports(), R.Problem);
  if (Ok && Stats.KernelsLaunched != Program.numKernels()) {
    Ok = false;
    R.Problem = "launched " + std::to_string(Stats.KernelsLaunched) +
                " of " + std::to_string(Program.numKernels()) + " kernels";
  }
  if (Ok && CanonicalOut) {
    *CanonicalOut = Canon;
  } else if (Ok) {
    std::string Want;
    if (!readFile(referencePath(Ctx, Spec), Want)) {
      Ok = false;
      R.Problem = "missing reference " + referencePath(Ctx, Spec);
    } else if (Want != Canon) {
      Ok = false;
      R.Problem = "reports differ from " + referencePath(Ctx, Spec);
    }
  }
  R.Failed = Ok ? 0 : 1;
  return R;
}

/// fleet: Clients sessions stream into one tenant of an embedded
/// aggregator; the first client runs on this thread, the others on
/// their own.
RoundResult runFleet(const WorkloadSpec &Spec, const RunContext &Ctx,
                     std::uint64_t Round, bool Traced) {
  const PhaseSpans &N = PhaseSpans::get();
  SpanRecorder &Rec = SpanRecorder::instance();
  const std::size_t Clients = static_cast<std::size_t>(Spec.Clients);
  RoundResult R;
  R.Attempted = Clients;
  R.Traced = Traced;
  // The seed drives only what the benchmark generates: the tenant name
  // and the stagger before the second client starts.
  std::mt19937_64 Rng(Ctx.Seed * 1000003u + Round);
  const std::string Tenant =
      "fleet-" + std::to_string(Ctx.Seed) + "-" + std::to_string(Round);
  std::vector<int> StaggerUs(Clients, 0);
  for (std::size_t I = 1; I < Clients; ++I)
    StaggerUs[I] = static_cast<int>(Rng() % 2000);

  serve::ServeOptions SO;
  SO.SocketPath = Ctx.OutDir + "/fleet-" + std::to_string(::getpid()) + ".sock";
  SO.ToolNames = sessionTools(Spec, Traced);
  SO.ReportDir = Ctx.OutDir;
  SO.Format = "json";
  SO.Lanes = Spec.Lanes;
  if (Traced) {
    ToolProxy::resetCounts();
    Rec.startRound();
  }

  auto Fail = [&](const std::string &Problem) {
    if (Traced)
      Rec.finishRound(1);
    R.Failed = Clients;
    R.Problem = Problem;
    return R;
  };

  malloc_trim(0); // as in runLocal
  std::int64_t T0 = nowNs();
  SessionError Err;
  std::unique_ptr<serve::Aggregator> Agg;
  bool Started;
  {
    ScopedSpan S(N.ServeStart);
    Agg = std::make_unique<serve::Aggregator>(SO);
    Started = Agg->start(Err);
  }
  if (!Started)
    return Fail("aggregator start failed: " + Err.message());
  dl::Program Program;
  {
    ScopedSpan S(N.DlBuild);
    Program = buildProgram(Spec);
  }
  std::vector<std::unique_ptr<Session>> Sessions;
  for (std::size_t I = 0; I < Clients; ++I) {
    ScopedSpan S(N.SessionBuild);
    SessionBuilder B = baseBuilder(Spec);
    B.connect(SO.SocketPath).tenant(Tenant);
    Sessions.push_back(B.build(Err));
    if (!Sessions.back())
      return Fail("client build failed: " + Err.message());
  }
  std::int64_t T1 = nowNs();
  R.SetupS = seconds(T1 - T0);

  std::vector<StepClock> Clocks(Clients);
  std::vector<std::int64_t> Done(Clients, 0);
  std::vector<std::uint64_t> Launched(Clients, 0);
  auto RunClient = [&](std::size_t I) {
    if (StaggerUs[I] > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(StaggerUs[I]));
    Launched[I] = runProgram(*Sessions[I], Program, Clocks[I]).KernelsLaunched;
    ScopedSpan S(N.Finish);
    Sessions[I]->finish();
    Done[I] = nowNs();
  };
  double Cpu0 = cpuSeconds();
  std::vector<std::thread> Threads;
  for (std::size_t I = 1; I < Clients; ++I)
    Threads.emplace_back(RunClient, I);
  RunClient(0);
  for (std::thread &T : Threads)
    T.join();
  std::int64_t TLast = *std::max_element(Done.begin(), Done.end());

  bool Drained = false;
  {
    // Wait for the daemon to account for every stream, then shut it
    // down, which finishes the tenant and writes the merged rollup.
    ScopedSpan S(N.ServeDrain);
    std::int64_t Deadline = nowNs() + 30'000'000'000;
    while (nowNs() < Deadline) {
      serve::AggregatorStats AS = Agg->stats();
      if (AS.CleanStreams + AS.CorruptStreams + AS.RejectedStreams +
              AS.SuspendedStreams + AS.AbortedStreams >=
          Clients) {
        Drained = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    Agg->requestStop();
    Agg->wait();
  }
  std::int64_t TRep = nowNs();
  R.CpuS = cpuSeconds() - Cpu0;

  LayerCounts &C = R.Counts;
  std::int64_t FirstStep = Clocks[0].firstStepNs();
  for (std::size_t I = 0; I < Clients; ++I) {
    const StepClock &Clock = Clocks[I];
    FirstStep = std::min(FirstStep, Clock.firstStepNs());
    R.IterMs.insert(R.IterMs.end(), Clock.iterationMs().begin(),
                    Clock.iterationMs().end());
    R.Kernels += Launched[I];
    C.Steps += Clock.steps();
    C.Iterations += Clock.iterations();
    addProcessorStats(C, Sessions[I]->processor().stats());
    if (auto *Fwd =
            Sessions[I]->toolAs<tools::StreamForwardTool>("stream_forward")) {
      const serve::TraceStreamSinkStats &SS = Fwd->sinkStats();
      C.FramesSent += SS.FramesSent;
      C.PayloadBytes += SS.PayloadBytesSent;
      C.SendBlocked += SS.SendBlocked;
      C.Acks += SS.AcksReceived;
    }
  }
  serve::AggregatorStats AS = Agg->stats();
  C.CleanStreams = AS.CleanStreams;
  C.RejectedStreams = AS.RejectedStreams;
  C.CorruptStreams = AS.CorruptStreams;
  C.IngestWindowS = seconds(TRep - FirstStep);
  // The merged report is taken for the checks only: keep its tool
  // report() calls off the trace.
  Rec.setPaused(true);
  CaptureSink Merged;
  if (serve::Tenant *T = Agg->registry().find(Tenant)) {
    addProcessorStats(C, T->session().processor().stats());
    {
      std::lock_guard<std::mutex> Lock(T->mutex());
      C.EventsAdmitted = T->stats().EventsAdmitted;
    }
    Agg->registry().writeTenantReport(*T, Merged, /*Final=*/true);
  }
  C.ReportBytes = Merged.bytes();
  Rec.setPaused(!Traced);

  std::int64_t TTear = nowNs();
  {
    ScopedSpan S(N.Teardown);
    Sessions.clear();
    Agg.reset();
  }
  std::int64_t TEnd = nowNs();
  std::remove((SO.ReportDir + "/" + Tenant + ".json").c_str());

  R.RunS = seconds(TRep - FirstStep);
  R.ReportLagS = seconds(TRep - TLast);
  R.WallS = seconds((TRep - T0) + (TEnd - TTear));
  if (Traced)
    R.Trace = Rec.finishRound((TRep - T0) + (TEnd - TTear));
  C.AnalysisThreads = AnalysisThreads;

  // Checks: every clock above has stopped.
  std::string Want;
  WorkloadSpec Single = Spec;
  Single.Clients = 0;
  std::uint64_t Failed = Clients > AS.CleanStreams ? Clients - AS.CleanStreams
                                                   : 0;
  if (!Drained)
    R.Problem = "aggregator did not account for every stream";
  else if (Failed)
    R.Problem = std::to_string(AS.CleanStreams) + " clean, " +
                std::to_string(AS.RejectedStreams) + " rejected, " +
                std::to_string(AS.CorruptStreams) + " corrupt streams";
  else if (R.Kernels != Program.numKernels() * Clients)
    R.Problem = "launched " + std::to_string(R.Kernels) + " kernels";
  else if (!readFile(referencePath(Ctx, Single), Want))
    R.Problem = "missing reference " + referencePath(Ctx, Single);
  else
    mergedCountsMatch(Merged.reports(), Want, Spec.Clients, R.Problem);
  // A wrong merged report fails every stream merged into it.
  R.Failed = R.Problem.empty() ? 0 : Failed ? Failed : Clients;
  return R;
}

} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {"records", "events",
                                                 "fleet"};
  return Names;
}

const std::vector<std::string> &allToolNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> All = RecordTools;
    All.insert(All.end(), CoarseTools.begin(), CoarseTools.end());
    return All;
  }();
  return Names;
}

bool workloadByName(const std::string &Name, bool Smoke, WorkloadSpec &Out) {
  WorkloadSpec S;
  S.Name = Name;
  if (Name == "records") {
    S.Model = "alexnet";
    S.Iterations = 100;
    S.Tools = RecordTools;
  } else if (Name == "events") {
    S.Model = "bert";
    S.Training = true;
    S.Iterations = 100;
    S.Tools = CoarseTools;
    S.Lanes = 2;
  } else if (Name == "fleet") {
    S.Model = "bert";
    S.Training = true;
    S.Iterations = 100;
    S.Tools = CoarseTools;
    S.Lanes = 2;
    S.Clients = 2;
  } else {
    return false;
  }
  if (Smoke)
    S.Iterations = 2;
  Out = S;
  return true;
}

RoundResult runRound(const WorkloadSpec &Spec, const RunContext &Ctx,
                     std::uint64_t Round, bool Traced) {
  if (Spec.Clients > 0)
    return runFleet(Spec, Ctx, Round, Traced);
  return runLocal(Spec, Ctx, Traced, nullptr);
}

bool writeReferences(const RunContext &Ctx, bool Smoke, std::string &Problem) {
  for (const char *Name : {"records", "events"}) {
    WorkloadSpec Spec;
    workloadByName(Name, Smoke, Spec);
    // The reference comes from the plainest pipeline: synchronous, one
    // lane, no wrappers.
    Spec.Lanes = 0;
    std::string Canon;
    RoundResult R =
        runLocal(Spec, Ctx, /*Traced=*/false, &Canon);
    if (R.Failed) {
      Problem = Name + std::string(": ") + R.Problem;
      return false;
    }
    std::string Path = referencePath(Ctx, Spec);
    std::ofstream Out(Path, std::ios::binary);
    Out << Canon;
    if (!Out) {
      Problem = "cannot write " + Path;
      return false;
    }
  }
  return true;
}

} // namespace perfbench
