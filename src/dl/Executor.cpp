//===- dl/Executor.cpp ----------------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "dl/Executor.h"

#include "support/ErrorHandling.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>

using namespace pasta;
using namespace pasta::dl;

Executor::Executor(DeviceApi &Api, CallbackRegistry &Callbacks,
                   ExecutorOptions Opts)
    : Api(Api), Callbacks(Callbacks), Opts(Opts),
      Allocator(Api, Opts.Managed) {}

void Executor::execAlloc(const Program &Prog, SymTensor T) {
  TensorInfo &Info = Tensors[T];
  if (Info.Address != 0)
    reportFatalError(format("tensor allocated twice: %s (id %llu)",
                            Info.Name.c_str(),
                            static_cast<unsigned long long>(Info.Id)));
  sim::DeviceAddr Addr = Allocator.allocate(std::max<std::uint64_t>(
      Prog.Tensors[T].bytes(), 1));
  if (Addr == 0)
    reportFatalError(format("device out of memory allocating tensor %s "
                            "(%llu bytes)",
                            Info.Name.c_str(),
                            static_cast<unsigned long long>(
                                Prog.Tensors[T].bytes())));
  Info.Address = Addr;

  MemoryUsageReport Report;
  Report.Tensor = &Info;
  Report.SizeDelta = static_cast<std::int64_t>(Info.bytes());
  Report.TotalAllocated = Allocator.stats().Allocated;
  Report.TotalReserved = Allocator.stats().Reserved;
  Report.DeviceIndex = Api.deviceIndex();
  Report.Timestamp = Api.device().clock().now();
  Callbacks.reportMemoryUsage(Report);
}

void Executor::execFree(SymTensor T) {
  TensorInfo &Info = Tensors[T];
  assert(Info.Address != 0 && "freeing unallocated tensor");

  MemoryUsageReport Report;
  Report.Tensor = &Info;
  Report.SizeDelta = -static_cast<std::int64_t>(Info.bytes());
  Report.DeviceIndex = Api.deviceIndex();
  Report.Timestamp = Api.device().clock().now();

  Allocator.free(Info.Address);
  Info.Address = 0;
  Report.TotalAllocated = Allocator.stats().Allocated;
  Report.TotalReserved = Allocator.stats().Reserved;
  Callbacks.reportMemoryUsage(Report);
}

void Executor::execKernel(const Step &S, const Step &Seen, RunStats &Stats) {
  sim::KernelDesc Desc;
  Desc.Name = S.Kernel.Name;
  std::uint64_t Threads = std::max<std::uint64_t>(S.Kernel.Threads, 32);
  Desc.Block.X = 256;
  Desc.Grid.X = static_cast<unsigned>(
      std::min<std::uint64_t>((Threads + 255) / 256, 1u << 26));
  Desc.Flops = S.Kernel.Flops;
  Desc.BarriersPerBlock = S.Kernel.BarriersPerBlock;
  Desc.StaticInstrs = S.Kernel.StaticInstrs;

  for (const KernelUse &Use : S.Kernel.Uses) {
    const TensorInfo &Info = Tensors[Use.Tensor];
    sim::DeviceAddr Addr = Info.Address;
    std::uint64_t Bytes = Info.bytes();
    assert(Addr != 0 && "kernel operand not allocated");
    sim::AccessSegment Seg;
    Seg.Base = Addr;
    Seg.Extent = Bytes;
    Seg.AccessBytes = static_cast<std::uint64_t>(
        static_cast<double>(Bytes) * std::max(Use.Reuse, 0.0));
    Seg.Kind = Use.Kind;
    Seg.Space = sim::MemSpace::Global;
    Desc.Segments.push_back(Seg);
  }

  if (Hook)
    Hook(Desc, Seen, *this);

  sim::LaunchResult Result;
  Api.launchKernel(Desc, &Result);
  ++Stats.KernelsLaunched;
  Stats.Breakdown += Result.Breakdown;
  Stats.UvmStallTime += Result.UvmStallTime;
}

void Executor::fireRecordFunction(const Step &S, bool IsBegin) {
  if (Callbacks.empty())
    return;
  RecordFunctionData Data;
  Data.OpName = S.Name;
  Data.LayerName = S.LayerName;
  Data.Phase = S.Phase;
  Data.IsBegin = IsBegin;
  Data.DeviceIndex = Api.deviceIndex();
  Data.Timestamp = Api.device().clock().now();
  Data.PythonStack = S.PythonStack;
  Callbacks.recordFunction(Data);
}

const Step &Executor::observed(const Program &Prog, const Step &S) {
  if (Shift == 0)
    return S;
  bool Touches = Prog.isIterationTensor(S.Tensor);
  for (const KernelUse &Use : S.Kernel.Uses)
    Touches |= Prog.isIterationTensor(Use.Tensor);
  if (!Touches)
    return S;
  auto Rebase = [&](SymTensor &T) {
    if (Prog.isIterationTensor(T))
      T = static_cast<SymTensor>(T + Shift);
  };
  Shifted = S;
  Rebase(Shifted.Tensor);
  for (KernelUse &Use : Shifted.Kernel.Uses)
    Rebase(Use.Tensor);
  return Shifted;
}

void Executor::beginIteration(const Program &Prog, int Iter) {
  Shift = Prog.iterationShift(Iter);
  for (std::uint32_t I = 0; I < Prog.IterTensors; ++I) {
    SymTensor T = Prog.IterFirst + I;
    TensorInfo &Info = Tensors[T];
    assert(Info.Address == 0 && "tensor outlived its iteration");
    Info.Id = T + Shift;
    if (Prog.Tensors[T].IterPos != std::string::npos)
      Info.Name = Prog.Tensors[T].nameAt(Iter);
  }
}

void Executor::runSteps(const Program &Prog, const std::vector<Step> &Steps,
                        RunStats &Stats) {
  for (const Step &S : Steps) {
    // What listeners and hooks see; execution itself works on the
    // iteration-0 ids that index Tensors.
    const Step &Seen = Listener || Hook ? observed(Prog, S) : S;
    if (Listener)
      Listener(Seen);
    switch (S.Kind) {
    case StepKind::Alloc:
      execAlloc(Prog, S.Tensor);
      break;
    case StepKind::Free:
      execFree(S.Tensor);
      break;
    case StepKind::Kernel:
      execKernel(S, Seen, Stats);
      break;
    case StepKind::OpBegin:
      fireRecordFunction(S, /*IsBegin=*/true);
      break;
    case StepKind::OpEnd:
      fireRecordFunction(S, /*IsBegin=*/false);
      break;
    case StepKind::CopyH2D:
      Api.copyToDevice(S.Bytes);
      break;
    case StepKind::CopyD2H:
      Api.copyToHost(S.Bytes);
      break;
    case StepKind::LayerBegin:
    case StepKind::LayerEnd:
    case StepKind::PhaseBegin:
    case StepKind::PhaseEnd:
    case StepKind::IterBegin:
    case StepKind::IterEnd:
      break; // markers are for listeners only
    }
  }
}

RunStats Executor::run(const Program &Prog) {
  RunStats Stats;
  Stats.StartTime = Api.device().clock().now();

  // Fresh tensor table mirroring the program declarations.
  Tensors.clear();
  Tensors.resize(Prog.Tensors.size());
  for (std::size_t I = 0; I < Prog.Tensors.size(); ++I) {
    TensorInfo &Info = Tensors[I];
    Info.Id = I;
    Info.Name = Prog.Tensors[I].Name;
    Info.Shape = Prog.Tensors[I].Shape;
    Info.Type = Prog.Tensors[I].Type;
    Info.Role = Prog.Tensors[I].Role;
    Info.DeviceIndex = Api.deviceIndex();
  }

  Shift = 0;
  runSteps(Prog, Prog.Head, Stats);
  for (int Iter = 0; Iter < Prog.Iterations; ++Iter) {
    beginIteration(Prog, Iter);
    runSteps(Prog, Prog.Iteration, Stats);
  }
  Shift = 0;
  runSteps(Prog, Prog.Tail, Stats);

  Api.synchronize();
  Stats.EndTime = Api.device().clock().now();
  Stats.PeakAllocated = Allocator.stats().PeakAllocated;
  Stats.PeakReserved = Allocator.stats().PeakReserved;
  if (Opts.EmptyCacheAtEnd)
    Allocator.emptyCache();
  return Stats;
}
