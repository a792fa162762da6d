//===- dl/Schedule.h - Lowered execution schedule ---------------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Program is the lowered schedule of one workload run: tensor
/// allocations/frees with exact lifetimes, operator boundaries and kernel
/// launches with per-tensor access descriptions. Every training or
/// inference iteration of a model is step-for-step the same, so a Program
/// holds one lowered iteration and a replay count rather than N copies:
///
///   Head        weight allocations + staging, optimizer-state allocations
///   Iteration   IterBegin .. IterEnd, lowered once, replayed Iterations times
///   Tail        frees of the persistent tensors
///
/// Iteration k differs from iteration 0 only in its tensor identities:
/// its ids are shifted by iterationShift(k), and names that carry the
/// iteration number (mini-batch inputs, "<name>.iter<k>") carry k. Model
/// builders produce Programs; the Executor replays them against a
/// DeviceApi + CachingAllocator, which is where all runtime events spring
/// from.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_DL_SCHEDULE_H
#define PASTA_DL_SCHEDULE_H

#include "dl/Callbacks.h"
#include "dl/Tensor.h"
#include "sim/Kernel.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pasta {
namespace dl {

/// Index into Program::Tensors.
using SymTensor = std::uint32_t;
inline constexpr SymTensor NoTensor = ~0u;

/// Compile-time tensor declaration.
struct TensorDecl {
  /// The name in iteration 0.
  std::string Name;
  TensorShape Shape;
  DataType Type = DataType::F32;
  TensorRole Role = TensorRole::Activation;
  /// Offset of the iteration number ('0') in Name, or npos when the name
  /// does not carry one.
  std::size_t IterPos = std::string::npos;

  std::uint64_t bytes() const {
    return Shape.numel() * dataTypeBytes(Type);
  }

  /// The name this tensor carries in iteration \p Iter.
  std::string nameAt(int Iter) const {
    if (IterPos == std::string::npos)
      return Name;
    return Name.substr(0, IterPos) + std::to_string(Iter) +
           Name.substr(IterPos + 1);
  }
};

/// One tensor operand of a scheduled kernel.
struct KernelUse {
  SymTensor Tensor = NoTensor;
  sim::AccessKind Kind = sim::AccessKind::Load;
  /// Dynamic access volume as a multiple of the tensor's size (GEMM tiles
  /// re-read inputs; elementwise kernels have Reuse == 1).
  double Reuse = 1.0;
};

/// One kernel launch in the schedule.
struct KernelStep {
  std::string Name;
  std::vector<KernelUse> Uses;
  double Flops = 0.0;
  /// Logical work items; the executor derives grid/block from it.
  std::uint64_t Threads = 0;
  std::uint32_t BarriersPerBlock = 1;
  std::uint64_t StaticInstrs = 512;
};

/// Schedule step kinds.
enum class StepKind : std::uint8_t {
  OpBegin,    ///< at::RecordFunction begin (Name/Layer/Phase/PythonStack).
  OpEnd,      ///< at::RecordFunction end.
  Alloc,      ///< Allocate Program::Tensors[Tensor].
  Free,       ///< Free it.
  Kernel,     ///< Launch Kernel.
  LayerBegin, ///< Layer boundary (pasta annotation candidates).
  LayerEnd,
  PhaseBegin, ///< Forward / Backward / Optimizer phase boundary.
  PhaseEnd,
  CopyH2D,    ///< Host-to-device bulk copy of Bytes (input staging).
  CopyD2H,    ///< Device-to-host copy (loss readback, outputs).
  IterBegin,  ///< Iteration boundary (benches segment timelines by it).
  IterEnd,
};

/// One step of the lowered schedule (tagged union kept flat for locality).
struct Step {
  StepKind Kind = StepKind::Kernel;
  /// OpBegin/OpEnd: operator name; Layer*: layer name; Phase*: unused.
  std::string Name;
  std::string LayerName;
  ExecPhase Phase = ExecPhase::Forward;
  SymTensor Tensor = NoTensor;
  std::uint64_t Bytes = 0;
  KernelStep Kernel;
  /// Simulated Python frames (innermost first) for OpBegin steps.
  std::vector<std::string> PythonStack;
};

/// A lowered workload: Head, then Iteration replayed Iterations times,
/// then Tail (see the file comment). Immutable once built; executors on
/// different threads may replay one Program concurrently.
struct Program {
  std::string ModelName;
  bool Training = false;
  int Iterations = 1;
  /// Declarations with iteration-0 ids: the persistent tensors declared
  /// before the iteration, the iteration's own tensors
  /// [IterFirst, IterFirst + IterTensors), then the optimizer state the
  /// first iteration declares.
  std::vector<TensorDecl> Tensors;
  std::vector<Step> Head;
  std::vector<Step> Iteration;
  std::vector<Step> Tail;
  SymTensor IterFirst = 0;
  std::uint32_t IterTensors = 0;
  std::uint64_t KernelsPerIteration = 0;

  std::uint64_t numKernels() const {
    return KernelsPerIteration * static_cast<std::uint64_t>(Iterations);
  }

  bool isIterationTensor(SymTensor T) const {
    return T >= IterFirst && T - IterFirst < IterTensors;
  }

  /// Id offset of iteration \p Iter's tensors. Ids are contiguous per
  /// iteration; the optimizer state declared during iteration 0 sits
  /// between iteration 0 and iteration 1.
  std::uint64_t iterationShift(int Iter) const {
    if (Iter == 0)
      return 0;
    std::uint64_t Persistent = Tensors.size() - (IterFirst + IterTensors);
    return static_cast<std::uint64_t>(Iter) * IterTensors + Persistent;
  }
};

} // namespace dl
} // namespace pasta

#endif // PASTA_DL_SCHEDULE_H
