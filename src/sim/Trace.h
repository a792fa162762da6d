//===- sim/Trace.h - Instrumentation trace interfaces -----------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract between the simulated device and profiling clients
/// (Sanitizer-, NVBit- and ROCprofiler-style layers): a DeviceTraceConfig
/// saying what to instrument and which analysis model pays for it, a
/// TraceSink receiving the generated records, and the per-launch cost
/// breakdown (execution / collection / transfer / analysis) that paper
/// Fig. 10 reports.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_SIM_TRACE_H
#define PASTA_SIM_TRACE_H

#include "sim/Kernel.h"
#include "support/Units.h"

#include <cstddef>
#include <cstdint>

namespace pasta {
namespace sim {

/// Identity of one kernel launch as seen by instrumentation clients.
struct LaunchInfo {
  const KernelDesc *Desc = nullptr;
  /// Monotonic per-device launch index ("grid id" in the paper's
  /// START_GRID_ID/END_GRID_ID range filters).
  std::uint64_t GridId = 0;
  int DeviceIndex = 0;
  std::uint32_t StreamId = 0;
  SimTime LaunchTime = 0;
};

/// One sampled memory-access trace record. A record stands for
/// \c Multiplicity real 32-byte accesses (sampling keeps host-side work
/// tractable; the cost model always charges for the real volume).
struct MemAccessRecord {
  DeviceAddr Address = 0;
  std::uint32_t Bytes = 0;
  std::uint32_t Multiplicity = 1;
  std::uint32_t FlatThreadId = 0;
  AccessKind Kind = AccessKind::Load;
  MemSpace Space = MemSpace::Global;
};

/// Dynamic instruction mix of one launch (full-coverage backends see it).
struct InstrMix {
  std::uint64_t GlobalLoads = 0;
  std::uint64_t GlobalStores = 0;
  std::uint64_t SharedAccesses = 0;
  std::uint64_t Barriers = 0;
  std::uint64_t ComputeInstrs = 0;

  std::uint64_t total() const {
    return GlobalLoads + GlobalStores + SharedAccesses + Barriers +
           ComputeInstrs;
  }
};

/// Where trace records get analyzed (paper Fig. 2).
enum class AnalysisModel {
  /// Fig. 2a: device buffer fills, kernel stalls, host fetches and a single
  /// CPU thread analyzes (Sanitizer MemoryTracker / NVBit MemTrace).
  HostSide,
  /// Fig. 2b: PASTA's GPU-resident collect-and-analyze; only a small
  /// result buffer returns to the host at kernel completion.
  DeviceResident,
};

/// What a profiling client asked the device to instrument.
struct DeviceTraceConfig {
  /// Instrument global/shared memory operations.
  bool TraceMemory = false;
  /// NVBit-style: instrument every SASS instruction, not just memory ops
  /// (raises record volume by the kernel's ComputeInstrsPerAccess factor).
  bool TraceAllInstructions = false;
  /// Pay the SASS dump+parse cost on first encounter of each module.
  bool PaySassParseCost = false;
  /// Use NVBit trampolines (full register save/restore) instead of
  /// Sanitizer patches for the per-operation collection cost.
  bool UseNvbitTrampoline = false;
  AnalysisModel Model = AnalysisModel::HostSide;
  /// Device trace-buffer capacity in records for the host-side model;
  /// each fill forces a stall-fetch-reset round trip.
  std::uint64_t DeviceBufferRecords = 1u << 20;
  /// Fraction of real accesses represented in generated records (the
  /// paper artifact's ACCEL_PROF_ENV_SAMPLE_RATE escape hatch; costs
  /// scale down with it).
  double SampleRate = 1.0;
  /// One sampled MemAccessRecord is emitted per this many bytes of dynamic
  /// access volume (wall-clock knob for the reproduction; the simulated
  /// cost model always charges the real per-access volume).
  std::uint64_t RecordGranularityBytes = 4096;
};

/// Per-launch simulated time split; paper Fig. 10's four components.
struct TraceTimeBreakdown {
  SimTime Execution = 0;
  SimTime Collection = 0;
  SimTime Transfer = 0;
  SimTime Analysis = 0;

  SimTime total() const {
    return Execution + Collection + Transfer + Analysis;
  }

  TraceTimeBreakdown &operator+=(const TraceTimeBreakdown &Other) {
    Execution += Other.Execution;
    Collection += Other.Collection;
    Transfer += Other.Transfer;
    Analysis += Other.Analysis;
    return *this;
  }
};

/// Receiver for instrumentation data generated during kernel execution.
/// Implemented by the vendor profiling layers, which forward into PASTA.
class TraceSink {
public:
  virtual ~TraceSink();

  /// Called before the first record batch of a launch.
  virtual void onKernelBegin(const LaunchInfo &Info) { (void)Info; }

  /// Delivers one batch of sampled memory-access records. The pointer is
  /// valid only for the duration of the call.
  virtual void onAccessBatch(const LaunchInfo &Info,
                             const MemAccessRecord *Records,
                             std::size_t Count) {
    (void)Info;
    (void)Records;
    (void)Count;
  }

  /// Delivers the dynamic instruction mix (full-coverage backends only).
  virtual void onInstrMix(const LaunchInfo &Info, const InstrMix &Mix) {
    (void)Info;
    (void)Mix;
  }

  /// Called after the last batch with the launch's cost breakdown.
  virtual void onKernelEnd(const LaunchInfo &Info,
                           const TraceTimeBreakdown &Breakdown) {
    (void)Info;
    (void)Breakdown;
  }
};

} // namespace sim
} // namespace pasta

#endif // PASTA_SIM_TRACE_H
