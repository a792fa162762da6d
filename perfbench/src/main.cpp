//===- perfbench/src/main.cpp - End-to-end profiling benchmark -----------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload in a closed loop for a fixed time and prints its
/// metrics; the last stdout line is one JSON object:
///
///   perfbench --workload records|events|fleet --seed N --seconds S
///             --trace 0|1 --reference-dir DIR --out-dir DIR [--verbose]
///   perfbench --smoke --reference-dir DIR --out-dir DIR
///   perfbench --make-reference --reference-dir DIR --out-dir DIR
///
/// --trace 0 reports the end-to-end metrics from untraced rounds.
/// --trace 1 alternates untraced and traced rounds and reports the
/// per-layer metrics of the traced ones (means per round), plus the
/// tracing overhead, and writes the last traced round's spans to
/// <out-dir>/spans-<workload>.tsv. Exits 1 when any correctness check
/// failed.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

struct Args {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  bool Smoke = false;
  bool MakeReference = false;
  bool Verbose = false;
  std::string ReferenceDir;
  std::string OutDir;
};

[[noreturn]] void usage(const std::string &Problem) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload records|events|fleet --seed N "
               "--seconds S --trace 0|1 --reference-dir DIR --out-dir DIR "
               "[--verbose]\n"
               "       perfbench --smoke|--make-reference --reference-dir DIR "
               "--out-dir DIR\n",
               Problem.c_str());
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--smoke") {
      A.Smoke = true;
      continue;
    }
    if (Flag == "--make-reference") {
      A.MakeReference = true;
      continue;
    }
    if (Flag == "--verbose") {
      A.Verbose = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage("missing value for " + Flag);
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Value;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
      if (*End)
        usage("bad --seed " + Value);
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      if (*End || !(A.Seconds > 0.0))
        usage("bad --seconds " + Value);
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        usage("--trace takes 0 or 1");
      A.Trace = Value == "1";
    } else if (Flag == "--reference-dir") {
      A.ReferenceDir = Value;
    } else if (Flag == "--out-dir") {
      A.OutDir = Value;
    } else {
      usage("unknown flag " + Flag);
    }
  }
  if (A.ReferenceDir.empty() || A.OutDir.empty())
    usage("--reference-dir and --out-dir are required");
  return A;
}

/// Linear-interpolated percentile; 0 for an empty sample.
double percentile(std::vector<double> V, double Pct) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Rank = Pct / 100.0 * static_cast<double>(V.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Rank);
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Rank - static_cast<double>(Lo));
}

double median(std::vector<double> V) { return percentile(std::move(V), 50.0); }

/// Peak resident memory of this process image. VmHWM, unlike
/// getrusage's ru_maxrss, does not carry over the RSS of the process
/// that exec'd us.
double peakRssMiB() {
  std::FILE *Status = std::fopen("/proc/self/status", "r");
  if (!Status)
    return 0.0;
  char Line[256];
  double KiB = 0.0;
  while (std::fgets(Line, sizeof(Line), Status))
    if (std::sscanf(Line, "VmHWM: %lf kB", &KiB) == 1)
      break;
  std::fclose(Status);
  return KiB / 1024.0;
}

/// Restricts this thread, and so every thread started after it, to the
/// highest-numbered CPU this process may use; returns that CPU, or -1.
/// On a shared virtual machine the async pipelines' speed otherwise
/// depends on how many of the other CPUs are idle at the time: lanes
/// that spin on idle CPUs slow the producer, so the same program ran up
/// to 40% faster while unrelated load kept those CPUs busy. On one CPU
/// every run works the same way, and spinning costs CPU time instead.
int pinToOneCpu() {
  cpu_set_t Allowed;
  if (sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
    return -1;
  for (int Cpu = CPU_SETSIZE - 1; Cpu >= 0; --Cpu) {
    if (!CPU_ISSET(Cpu, &Allowed))
      continue;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpu, &One);
    return sched_setaffinity(0, sizeof(One), &One) == 0 ? Cpu : -1;
  }
  return -1;
}

struct Metric {
  std::string Name;
  std::string Unit;
  double Value;
  std::string Note;
};

struct RunOutcome {
  std::vector<RoundResult> Untraced;
  std::vector<RoundResult> Traced;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
};

/// Runs rounds of \p Spec for about \p Seconds: a new round starts only
/// while it is expected to end no later than half a round past the
/// deadline. With \p Trace, rounds alternate untraced / traced and at
/// least one of each runs. A \p Full run (not the smoke test) first runs
/// one untimed round of the two-iteration program.
RunOutcome runFor(const WorkloadSpec &Spec, const RunContext &Ctx,
                  double Seconds, bool Trace, bool Full, bool Verbose) {
  RunOutcome Out;
  auto Account = [&](RoundResult R) {
    if (Verbose)
      std::fprintf(stderr,
                   "round %zu%s: setup %.4f s, run %.4f s, lag %.3f ms, "
                   "cpu %.3f s, iter p50 %.3f ms\n",
                   Out.Untraced.size() + Out.Traced.size(),
                   R.Traced ? " (traced)" : "", R.SetupS, R.RunS,
                   R.ReportLagS * 1e3, R.CpuS, percentile(R.IterMs, 50.0));
    Out.Attempted += R.Attempted;
    Out.Failed += R.Failed;
    if (!R.Problem.empty())
      std::fprintf(stderr, "perfbench: %s round failed: %s\n",
                   Spec.Name.c_str(), R.Problem.c_str());
    (R.Traced ? Out.Traced : Out.Untraced).push_back(std::move(R));
  };
  std::uint64_t Round = 0;
  if (Full) {
    // Lets lazy registries and allocator caches fill before timing.
    WorkloadSpec Small;
    workloadByName(Spec.Name, /*Smoke=*/true, Small);
    RoundResult R = runRound(Small, Ctx, Round++, false);
    if (R.Failed)
      Account(std::move(R));
  }
  const std::int64_t Start = nowNs();
  const std::int64_t HardStop = Start + 150'000'000'000;
  std::vector<double> RoundS;
  for (;;) {
    bool Traced = Trace && Out.Untraced.size() > Out.Traced.size();
    std::int64_t RoundStart = nowNs();
    Account(runRound(Spec, Ctx, Round++, Traced));
    std::int64_t Now = nowNs();
    RoundS.push_back(static_cast<double>(Now - RoundStart) * 1e-9);
    bool Enough = !Trace || (!Out.Traced.empty() && !Out.Untraced.empty());
    double Projected =
        static_cast<double>(Now - Start) * 1e-9 + median(RoundS) / 2;
    if (Now >= HardStop || (Enough && Projected >= Seconds))
      break;
  }
  return Out;
}

std::vector<Metric> endToEnd(const RunOutcome &Out) {
  // Every timing is a per-round value, reported as the median over the
  // run's rounds, so a host disturbance that hits a minority of rounds
  // does not move it. Iteration percentiles are taken within a round
  // (at least 100 iterations, so p90 has 10 samples beyond it).
  std::vector<double> Setup, Kps, Lag, Cpu, P50, P90;
  std::size_t Iters = 0;
  for (const RoundResult &R : Out.Untraced) {
    Setup.push_back(R.SetupS);
    if (R.RunS > 0.0)
      Kps.push_back(static_cast<double>(R.Kernels) / R.RunS);
    Lag.push_back(R.ReportLagS * 1e3);
    Cpu.push_back(R.CpuS);
    P50.push_back(percentile(R.IterMs, 50.0));
    P90.push_back(percentile(R.IterMs, 90.0));
    Iters = std::max(Iters, R.IterMs.size());
  }
  std::string Rounds =
      "median of " + std::to_string(Out.Untraced.size()) + " rounds";
  std::string IterNote = Rounds + " of " + std::to_string(Iters) +
                         " iterations";
  return {
      {"setup_s", "s", median(Setup), Rounds},
      {"kernels_per_s", "1/s", median(Kps), Rounds},
      {"iter_ms.p50", "ms", median(P50), IterNote},
      {"iter_ms.p90", "ms", median(P90), IterNote},
      {"report_lag_ms", "ms", median(Lag), Rounds},
      {"cpu_s", "s", median(Cpu), Rounds},
      {"peak_rss_mb", "MiB", peakRssMiB(), "process peak"},
  };
}

std::vector<Metric> perLayer(const RunOutcome &Out) {
  const double N = static_cast<double>(std::max<std::size_t>(
      Out.Traced.size(), 1));
  auto Mean = [&](auto Get) {
    double Sum = 0.0;
    for (const RoundResult &R : Out.Traced)
      Sum += static_cast<double>(Get(R));
    return Sum / N;
  };
  auto Total = [&](const std::string &Name) {
    return Mean([&](const RoundResult &R) {
      auto It = R.Trace.ByName.find(Name);
      return It == R.Trace.ByName.end() ? 0.0 : It->second.TotalS;
    });
  };
  auto SelfOf = [&](const std::string &Name) {
    return Mean([&](const RoundResult &R) {
      auto It = R.Trace.ByName.find(Name);
      return It == R.Trace.ByName.end() ? 0.0 : It->second.SelfS;
    });
  };
  auto Calls = [&](const std::string &Name) {
    return Mean([&](const RoundResult &R) {
      auto It = R.Trace.ByName.find(Name);
      return It == R.Trace.ByName.end() ? 0.0
                                        : static_cast<double>(It->second.Count);
    });
  };
  auto LayerSelf = [&](Layer L) {
    return Mean([&](const RoundResult &R) {
      return R.Trace.LayerSelfS[static_cast<std::size_t>(L)];
    });
  };
  auto Ratio = [](double Num, double Den) { return Den > 0.0 ? Num / Den : 0.0; };
#define PB_COUNT(Field) Mean([](const RoundResult &R) { return R.Counts.Field; })

  std::vector<Metric> M;
  M.push_back({"dl.build_s", "s", Total("dl.build"), ""});
  M.push_back({"dl.steps", "count", PB_COUNT(Steps), ""});
  M.push_back({"dl.iters", "count", PB_COUNT(Iterations), ""});
  M.push_back({"dl.self_s", "s", LayerSelf(Layer::Dl), ""});

  double SimRecords = PB_COUNT(SimRecords);
  double SimSelf = LayerSelf(Layer::Sim);
  M.push_back({"sim.records", "count", SimRecords, ""});
  M.push_back({"sim.record_batches", "count", PB_COUNT(SimBatches), ""});
  M.push_back({"sim.self_s", "s", SimSelf, ""});
  M.push_back({"sim.records_per_s", "1/s", Ratio(SimRecords, SimSelf), ""});

  double SinkS = Total("pasta.sink");
  M.push_back({"pasta.sink_s", "s", SinkS, ""});
  M.push_back({"pasta.sink_self_s", "s", SelfOf("pasta.sink"), ""});
  M.push_back({"pasta.events", "count", PB_COUNT(Events), ""});
  M.push_back({"pasta.records_delivered", "count", PB_COUNT(RecordsDelivered),
               ""});
  M.push_back({"pasta.queue_spins", "count", PB_COUNT(QueueSpins), ""});
  M.push_back({"pasta.queue_parks", "count", PB_COUNT(QueueParks), ""});
  M.push_back({"pasta.max_queue_depth", "count", PB_COUNT(MaxQueueDepth), ""});
  M.push_back({"pasta.flushes", "count", PB_COUNT(Flushes), ""});
  M.push_back({"pasta.events_dropped", "count", PB_COUNT(EventsDropped), ""});
  double Hits = PB_COUNT(ArenaHits);
  M.push_back({"pasta.arena_hit_ratio", "ratio",
               Ratio(Hits, Hits + PB_COUNT(ArenaPayloads)),
               "base: arena hits + payloads"});
  M.push_back({"pasta.finish_s", "s", Total("pasta.finish"), ""});
  M.push_back({"pasta.self_s", "s", LayerSelf(Layer::Pasta), ""});

  double PoolBusy = 0.0;
  for (const std::string &T : allToolNames()) {
    std::string P = "tools." + T;
    double Analysis = Total(P + ".analysis");
    double HookS = Total(P + ".hook") + Analysis;
    PoolBusy += Analysis;
    M.push_back({P + ".hook_s", "s", HookS, ""});
    M.push_back({P + ".calls", "count",
                 Calls(P + ".hook") + Calls(P + ".analysis"), ""});
    M.push_back({P + ".report_s", "s", Total(P + ".report"), ""});
    if (T == "working_set" || T == "working_set_host") {
      double Recs = Mean([&](const RoundResult &R) {
        for (const auto &[Name, Count] : R.Counts.ToolRecords)
          if (Name == T)
            return static_cast<double>(Count);
        return 0.0;
      });
      M.push_back({P + ".records_per_s", "1/s", Ratio(Recs, HookS), ""});
    }
  }
  M.push_back({"tools.self_s", "s", LayerSelf(Layer::Tools), ""});

  M.push_back({"support.pool_busy_s", "s", PoolBusy, ""});
  M.push_back({"support.pool_efficiency", "ratio",
               Ratio(PoolBusy, SinkS * PB_COUNT(AnalysisThreads)),
               "base: pasta.sink_s x analysis threads"});
  M.push_back({"support.report_write_s", "s", Total("support.report_write"),
               ""});
  M.push_back({"support.report_bytes", "bytes", PB_COUNT(ReportBytes), ""});
  M.push_back({"support.self_s", "s", LayerSelf(Layer::Support), ""});

  double Admitted = PB_COUNT(EventsAdmitted);
  M.push_back({"serve.frames_sent", "count", PB_COUNT(FramesSent), ""});
  M.push_back({"serve.payload_bytes", "bytes", PB_COUNT(PayloadBytes), ""});
  M.push_back({"serve.send_blocked", "count", PB_COUNT(SendBlocked), ""});
  M.push_back({"serve.acks", "count", PB_COUNT(Acks), ""});
  M.push_back({"serve.events_admitted", "count", Admitted, ""});
  M.push_back({"serve.ingest_eps", "1/s",
               Ratio(Admitted, PB_COUNT(IngestWindowS)),
               "base: first client step -> rollup written"});
  M.push_back({"serve.drain_s", "s", Total("serve.drain"), ""});
  M.push_back({"serve.clean_streams", "count", PB_COUNT(CleanStreams), ""});
  M.push_back({"serve.rejected_streams", "count", PB_COUNT(RejectedStreams),
               ""});
  M.push_back({"serve.corrupt_streams", "count", PB_COUNT(CorruptStreams), ""});
  M.push_back({"serve.self_s", "s", LayerSelf(Layer::Serve), ""});
#undef PB_COUNT

  std::vector<double> TracedWall, PlainWall;
  for (const RoundResult &R : Out.Traced)
    TracedWall.push_back(R.WallS);
  for (const RoundResult &R : Out.Untraced)
    PlainWall.push_back(R.WallS);
  M.push_back({"unattributed_s", "s",
               Mean([](const RoundResult &R) { return R.Trace.UnattributedS; }),
               ""});
  M.push_back({"trace.wall_s", "s",
               Mean([](const RoundResult &R) { return R.Trace.WallS; }),
               "layer self times + unattributed_s"});
  M.push_back({"trace.overhead", "ratio",
               Ratio(median(TracedWall), median(PlainWall)) - 1.0,
               "traced / untraced round wall - 1"});
  M.push_back({"trace.spans", "count",
               Mean([](const RoundResult &R) {
                 return static_cast<double>(R.Trace.Spans);
               }),
               ""});
  return M;
}

/// Malformed spans over the traced rounds, plus rounds whose root
/// spans add up to more than the timed phases (negative unattributed
/// time). The layer self times plus unattributed_s equal the wall time
/// by construction; they are meaningful only when this is 0.
std::size_t malformedSpans(const RunOutcome &Out) {
  std::size_t Bad = 0;
  for (const RoundResult &R : Out.Traced)
    Bad += R.Trace.MalformedSpans + (R.Trace.UnattributedS < 0.0 ? 1 : 0);
  return Bad;
}

void printMetrics(const std::vector<Metric> &Metrics) {
  for (const Metric &M : Metrics)
    std::printf("  %-36s %14.6g %-6s %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Note.c_str());
}

std::string resultJson(bool Correct, const RunOutcome &Out,
                       const std::vector<Metric> &Metrics) {
  std::string J = std::string("{\"correct\": ") + (Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(Out.Attempted) +
                  ", \"failed\": " + std::to_string(Out.Failed) +
                  ", \"metrics\": {";
  for (std::size_t I = 0; I < Metrics.size(); ++I) {
    char Num[64];
    double V = std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0.0;
    std::snprintf(Num, sizeof(Num), "%.17g", V);
    J += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " + Num +
         ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  }
  return J + "}}";
}

int runSmoke(const RunContext &Ctx) {
  bool AllOk = true;
  for (const std::string &Name : workloadNames()) {
    WorkloadSpec Spec;
    workloadByName(Name, /*Smoke=*/true, Spec);
    RunOutcome Out = runFor(Spec, Ctx, 0.0, /*Trace=*/true, /*Full=*/false,
                            /*Verbose=*/false);
    std::size_t Bad = malformedSpans(Out);
    bool Ok = Out.Failed == 0 && Bad == 0;
    AllOk &= Ok;
    std::printf("smoke %-8s %s  (%llu attempted, %llu failed, "
                "%zu malformed spans)\n",
                Name.c_str(), Ok ? "ok" : "FAILED",
                static_cast<unsigned long long>(Out.Attempted),
                static_cast<unsigned long long>(Out.Failed), Bad);
    printMetrics(endToEnd(Out));
    printMetrics(perLayer(Out));
  }
  return AllOk ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  // Before anything starts a thread, so that every thread inherits it.
  const int Cpu = pinToOneCpu();
  Args A = parseArgs(Argc, Argv);
  registerProxyTools(allToolNames());
  RunContext Ctx;
  Ctx.ReferenceDir = A.ReferenceDir;
  Ctx.OutDir = A.OutDir;
  Ctx.Seed = A.Seed;

  if (A.MakeReference) {
    std::string Problem;
    for (bool Smoke : {true, false})
      if (!writeReferences(Ctx, Smoke, Problem)) {
        std::fprintf(stderr, "perfbench: %s\n", Problem.c_str());
        return 1;
      }
    return 0;
  }
  if (A.Smoke)
    return runSmoke(Ctx);

  WorkloadSpec Spec;
  if (!workloadByName(A.Workload, /*Smoke=*/false, Spec))
    usage("unknown workload '" + A.Workload + "'");
  RunOutcome Out = runFor(Spec, Ctx, A.Seconds, A.Trace, /*Full=*/true, A.Verbose);

  std::vector<Metric> Metrics = A.Trace ? perLayer(Out) : endToEnd(Out);
  bool Correct = Out.Failed == 0;
  std::printf("perfbench workload=%s seed=%llu trace=%d rounds=%zu+%zu "
              "hardware_threads=%u pinned_cpu=%d build_type=%s\n",
              Spec.Name.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Trace ? 1 : 0, Out.Untraced.size(), Out.Traced.size(),
              std::thread::hardware_concurrency(), Cpu, PERFBENCH_BUILD_TYPE);
  printMetrics(Metrics);
  std::printf("  %-36s %14.6g %-6s (%llu failed / %llu attempted)\n",
              "failed_ratio",
              Out.Attempted ? static_cast<double>(Out.Failed) /
                                  static_cast<double>(Out.Attempted)
                            : 0.0,
              "ratio", static_cast<unsigned long long>(Out.Failed),
              static_cast<unsigned long long>(Out.Attempted));
  if (A.Trace) {
    std::size_t Bad = malformedSpans(Out);
    std::printf("  span check: %zu malformed spans (open, outside their "
                "parent or the round, overlapping roots)\n",
                Bad);
    Correct &= Bad == 0;
    // The last traced round's spans, written once measuring is over.
    std::string SpansPath = A.OutDir + "/spans-" + Spec.Name + ".tsv";
    if (SpanRecorder::instance().dump(SpansPath))
      std::printf("  spans of the last traced round: %s\n", SpansPath.c_str());
    else
      std::fprintf(stderr, "perfbench: cannot write %s\n", SpansPath.c_str());
  }
  std::printf("%s\n", resultJson(Correct, Out, Metrics).c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
