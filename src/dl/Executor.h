//===- dl/Executor.h - Program executor -------------------------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Executor replays a lowered Program against a vendor backend: it
/// allocates tensors through the CachingAllocator, launches kernels
/// through the DeviceApi, and fires the framework callbacks
/// (reportMemoryUsage / RecordFunction) that PASTA's event handler
/// consumes. It runs the Program's Head, its one lowered Iteration
/// Iterations times and its Tail; at each iteration it gives the
/// iteration's tensors that iteration's ids and names, so callbacks,
/// listeners and hooks see the same stream a fully unrolled schedule
/// would produce. A pre-kernel hook lets UVM prefetchers (paper §V-C)
/// inject prefetch calls with full knowledge of the upcoming kernel's
/// tensors.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_DL_EXECUTOR_H
#define PASTA_DL_EXECUTOR_H

#include "dl/Allocator.h"
#include "dl/Backend.h"
#include "dl/Callbacks.h"
#include "dl/Schedule.h"
#include "sim/Trace.h"

#include <functional>
#include <memory>
#include <vector>

namespace pasta {
namespace dl {

/// Executor configuration.
struct ExecutorOptions {
  /// Draw pool segments from managed (UVM) memory; required for the
  /// oversubscription experiments.
  bool Managed = false;
  /// Release cached segments when the run finishes.
  bool EmptyCacheAtEnd = true;
};

/// Summary of one Program run.
struct RunStats {
  SimTime StartTime = 0;
  SimTime EndTime = 0;
  std::uint64_t KernelsLaunched = 0;
  sim::TraceTimeBreakdown Breakdown;
  SimTime UvmStallTime = 0;
  std::uint64_t PeakAllocated = 0;
  std::uint64_t PeakReserved = 0;

  SimTime wallTime() const { return EndTime - StartTime; }
};

/// Replays Programs; one executor per (backend, pool) pair.
class Executor {
public:
  /// Called immediately before each kernel launch with the resolved
  /// descriptor and the schedule step it came from (tensor ids as in the
  /// current iteration).
  using PreKernelHook =
      std::function<void(const sim::KernelDesc &, const Step &, Executor &)>;
  /// Observes every step (markers included) before it executes.
  using StepListener = std::function<void(const Step &)>;

  Executor(DeviceApi &Api, CallbackRegistry &Callbacks,
           ExecutorOptions Opts = ExecutorOptions());

  void setPreKernelHook(PreKernelHook Hook) {
    this->Hook = std::move(Hook);
  }
  void setStepListener(StepListener Listener) {
    this->Listener = std::move(Listener);
  }

  /// Runs \p Prog to completion and returns the summary.
  RunStats run(const Program &Prog);

  CachingAllocator &allocator() { return Allocator; }
  DeviceApi &api() { return Api; }
  CallbackRegistry &callbacks() { return Callbacks; }

private:
  void runSteps(const Program &Prog, const std::vector<Step> &Steps,
                RunStats &Stats);
  /// Gives the iteration tensors iteration \p Iter's ids and names.
  void beginIteration(const Program &Prog, int Iter);
  /// \p S as observers see it: iteration tensor ids shifted to the
  /// current iteration's.
  const Step &observed(const Program &Prog, const Step &S);
  void execAlloc(const Program &Prog, SymTensor T);
  void execFree(SymTensor T);
  void execKernel(const Step &S, const Step &Seen, RunStats &Stats);
  void fireRecordFunction(const Step &S, bool IsBegin);

  DeviceApi &Api;
  CallbackRegistry &Callbacks;
  ExecutorOptions Opts;
  CachingAllocator Allocator;
  PreKernelHook Hook;
  StepListener Listener;
  /// Live tensor table, indexed by iteration-0 SymTensor.
  std::vector<TensorInfo> Tensors;
  /// iterationShift() of the iteration being replayed.
  std::uint64_t Shift = 0;
  /// Backing store of observed() for shifted steps.
  Step Shifted;
};

} // namespace dl
} // namespace pasta

#endif // PASTA_DL_EXECUTOR_H
