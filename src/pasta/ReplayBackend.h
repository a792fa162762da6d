//===- pasta/ReplayBackend.h - Trace-replay backend -------------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fifth registered PlatformBackend: instead of observing a live
/// vendor runtime, "replay" re-admits a captured binary trace
/// (TraceReader) through the normal EventQueue/EventProcessor path —
/// capture once on a GPU host, analyze anywhere. Vendor-facing duties
/// (standing up the simulated runtime) are delegated to an inner "none"
/// backend so a replay session still builds a complete sim::System;
/// events, however, come from the trace, not from instrumentation.
///
/// Replay runs at full speed by default, or in scaled time
/// (SessionBuilder::replaySpeed / accelprof --replay-speed): a speed of
/// 1.0 reproduces the captured event spacing on the wall clock, 2.0
/// replays twice as fast. The trace is fully validated at session build
/// time (prepare()), so a corrupt file fails before any tool runs.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_PASTA_REPLAYBACKEND_H
#define PASTA_PASTA_REPLAYBACKEND_H

#include "pasta/Backend.h"
#include "pasta/TraceReader.h"

#include <cstdint>
#include <memory>
#include <string>

namespace pasta {

class EventProcessor;

/// Counters from one replay pump (fills the session's RunStats).
struct ReplayStats {
  std::uint64_t EventsReplayed = 0;
  std::uint64_t KernelLaunches = 0;
  std::uint64_t FirstTimestamp = 0;
  std::uint64_t LastTimestamp = 0;
};

/// PlatformBackend that replays a captured trace.
class ReplayBackend : public PlatformBackend {
public:
  /// \p Inner is a "none"-flavor backend for \p Vendor; it provides the
  /// runtime/attach plumbing so replay sessions share every other code
  /// path with live ones.
  ReplayBackend(sim::VendorKind Vendor,
                std::unique_ptr<PlatformBackend> Inner);

  std::string name() const override { return "replay"; }
  sim::VendorKind vendor() const override { return Vendor; }
  CapabilitySet capabilities() const override {
    return Inner->capabilities();
  }

  /// Defined out-of-line: dl::DeviceApi is only forward-declared here.
  std::unique_ptr<dl::DeviceApi> createRuntime(sim::System &System,
                                               int DeviceIndex) override;

  void attach(EventHandler &Handler, int DeviceIndex,
              const CapabilitySet &Enabled,
              const TraceOptions &Opts) override {
    Inner->attach(Handler, DeviceIndex, Enabled, Opts);
  }

  /// Points the backend at \p TracePath; \p Speed scales event pacing
  /// (0 = full speed, 1.0 = captured wall-clock spacing).
  void configure(std::string TracePath, double Speed);

  /// Opens and fully validates the trace. Called during session
  /// initialization so corruption fails at build() time.
  bool prepare(SessionError &Err);

  /// The validated trace summary (valid after prepare()).
  const TraceInfo &traceInfo() const { return Reader.info(); }
  const std::string &tracePath() const { return TracePath; }

  /// Pumps every trace event through \p Processor (on the calling
  /// thread; the processor applies its configured sync/async admission),
  /// honoring the configured speed. Each payload definition is interned
  /// into the processor's arena as it is decoded, so per-event admission
  /// is refcount bumps. False when prepare() has not validated a trace.
  bool replayInto(EventProcessor &Processor, ReplayStats &Stats,
                  SessionError &Err);

private:
  sim::VendorKind Vendor;
  std::unique_ptr<PlatformBackend> Inner;
  std::string TracePath;
  double Speed = 0.0;
  TraceReader Reader;
};

} // namespace pasta

#endif // PASTA_PASTA_REPLAYBACKEND_H
