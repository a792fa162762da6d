//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three closed-loop workloads and one "round" of each: set up, run
/// the model program, finish, write reports, tear down. A round reports
/// its timings, its counters and whether its outputs were correct;
/// checking runs after the round's clocks have stopped.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Static definition of one workload.
struct WorkloadSpec {
  std::string Name;
  std::string Model;
  bool Training = false;
  int Iterations = 1;
  /// Tools attached to each session (on fleet: to the aggregator tenant).
  std::vector<std::string> Tools;
  /// Async dispatch lanes (0 = synchronous pipeline). On fleet this is
  /// the aggregator tenant's lane count; the clients run synchronously.
  std::size_t Lanes = 0;
  /// Client sessions streaming into one aggregator tenant (0 = none).
  int Clients = 0;
};

/// Looks up "records", "events" or "fleet"; \p Smoke shrinks the
/// program to two iterations. False when \p Name is unknown.
bool workloadByName(const std::string &Name, bool Smoke, WorkloadSpec &Out);
const std::vector<std::string> &workloadNames();
/// Every tool any workload attaches, in a fixed order.
const std::vector<std::string> &allToolNames();

/// Where a round finds its reference reports and writes its files.
struct RunContext {
  std::string ReferenceDir;
  std::string OutDir;
  std::uint64_t Seed = 0;
};

/// Counters a traced round collects at the layer boundaries.
struct LayerCounts {
  std::uint64_t Steps = 0;
  std::uint64_t Iterations = 0;
  std::uint64_t SimRecords = 0;
  std::uint64_t SimBatches = 0;
  std::uint64_t Events = 0;
  std::uint64_t RecordsDelivered = 0;
  std::uint64_t QueueSpins = 0;
  std::uint64_t QueueParks = 0;
  std::uint64_t MaxQueueDepth = 0;
  std::uint64_t Flushes = 0;
  std::uint64_t EventsDropped = 0;
  std::uint64_t ArenaHits = 0;
  std::uint64_t ArenaPayloads = 0;
  std::uint64_t ReportBytes = 0;
  std::uint64_t AnalysisThreads = 0;
  std::uint64_t FramesSent = 0;
  std::uint64_t PayloadBytes = 0;
  std::uint64_t SendBlocked = 0;
  std::uint64_t Acks = 0;
  std::uint64_t EventsAdmitted = 0;
  std::uint64_t CleanStreams = 0;
  std::uint64_t RejectedStreams = 0;
  std::uint64_t CorruptStreams = 0;
  /// First client step -> merged rollup written (fleet only).
  double IngestWindowS = 0.0;
  std::vector<std::pair<std::string, std::uint64_t>> ToolRecords;
};

/// Outcome of one round.
struct RoundResult {
  double SetupS = 0.0;
  /// First executor step -> every report written.
  double RunS = 0.0;
  /// Last workload step -> reports (fleet: merged rollup) written.
  double ReportLagS = 0.0;
  /// Process CPU (user + sys) over the run phase.
  double CpuS = 0.0;
  /// Every timed phase, set-up and teardown included, checks excluded.
  double WallS = 0.0;
  std::uint64_t Kernels = 0;
  std::vector<double> IterMs;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::string Problem;
  bool Traced = false;
  TraceSummary Trace;
  LayerCounts Counts;
};

/// Runs one round of \p Spec; with \p Traced, under the span recorder
/// and the layer wrappers.
RoundResult runRound(const WorkloadSpec &Spec, const RunContext &Ctx,
                     std::uint64_t Round, bool Traced);

/// Writes the reference reports the correctness checks compare against:
/// the records program's reports and the events program's reports from
/// a synchronous single-lane run. False with \p Problem on failure.
bool writeReferences(const RunContext &Ctx, bool Smoke, std::string &Problem);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
