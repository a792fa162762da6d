//===- tests/dl_executor_test.cpp - executor + megatron tests -------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "cuda/CudaRuntime.h"
#include "dl/Executor.h"
#include "dl/Megatron.h"
#include "dl/Models.h"
#include "sim/System.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

using namespace pasta;
using namespace pasta::dl;

namespace {

class ExecutorTest : public ::testing::Test {
protected:
  ExecutorTest()
      : System(sim::a100Spec()), Runtime(System), Api(Runtime, 0) {}

  Program smallProgram(bool Training = false) {
    ScheduleBuilder::Options Opts;
    Opts.Training = Training;
    Opts.Iterations = 1;
    return buildModelProgram("resnet18", Opts);
  }

  sim::System System;
  cuda::CudaRuntime Runtime;
  CudaDeviceApi Api;
  CallbackRegistry Callbacks;
};

} // namespace

TEST_F(ExecutorTest, RunsProgramToCompletion) {
  Program Prog = smallProgram();
  Executor Exec(Api, Callbacks);
  RunStats Stats = Exec.run(Prog);
  EXPECT_EQ(Stats.KernelsLaunched, Prog.numKernels());
  EXPECT_GT(Stats.wallTime(), 0u);
  EXPECT_GT(Stats.PeakAllocated, 0u);
  EXPECT_GE(Stats.PeakReserved, Stats.PeakAllocated);
}

TEST_F(ExecutorTest, FiresFrameworkCallbacks) {
  int TensorEvents = 0, OpBegins = 0, OpEnds = 0;
  Callbacks.addMemoryUsageCallback(
      [&](const MemoryUsageReport &) { ++TensorEvents; });
  Callbacks.addRecordFunctionCallback([&](const RecordFunctionData &Data) {
    (Data.IsBegin ? OpBegins : OpEnds)++;
  });
  Executor Exec(Api, Callbacks);
  Exec.run(smallProgram());
  EXPECT_GT(TensorEvents, 100);
  EXPECT_GT(OpBegins, 50);
  EXPECT_EQ(OpBegins, OpEnds);
}

TEST_F(ExecutorTest, MemoryUsageReportsBalance) {
  std::int64_t Outstanding = 0;
  std::uint64_t LastAllocated = 0;
  Callbacks.addMemoryUsageCallback([&](const MemoryUsageReport &Report) {
    Outstanding += Report.SizeDelta;
    LastAllocated = Report.TotalAllocated;
  });
  Executor Exec(Api, Callbacks);
  Exec.run(smallProgram());
  EXPECT_EQ(Outstanding, 0) << "alloc/reclaim deltas must balance";
  EXPECT_EQ(LastAllocated, 0u);
}

TEST_F(ExecutorTest, OperatorCallbacksCarryPythonStacks) {
  bool SawStack = false;
  Callbacks.addRecordFunctionCallback([&](const RecordFunctionData &Data) {
    if (Data.IsBegin && !Data.PythonStack.empty())
      SawStack = true;
  });
  Executor Exec(Api, Callbacks);
  Exec.run(smallProgram());
  EXPECT_TRUE(SawStack);
}

TEST_F(ExecutorTest, PreKernelHookSeesResolvedSegments) {
  Executor Exec(Api, Callbacks);
  int Hooks = 0;
  Exec.setPreKernelHook([&](const sim::KernelDesc &Desc, const Step &S,
                            Executor &) {
    ++Hooks;
    EXPECT_EQ(S.Kind, StepKind::Kernel);
    for (const sim::AccessSegment &Seg : Desc.Segments)
      EXPECT_NE(Seg.Base, 0u);
  });
  Program Prog = smallProgram();
  Exec.run(Prog);
  EXPECT_EQ(Hooks, static_cast<int>(Prog.numKernels()));
}

TEST_F(ExecutorTest, StepListenerSeesMarkers) {
  Executor Exec(Api, Callbacks);
  int Layers = 0, Iters = 0;
  Exec.setStepListener([&](const Step &S) {
    if (S.Kind == StepKind::LayerBegin)
      ++Layers;
    if (S.Kind == StepKind::IterBegin)
      ++Iters;
  });
  Exec.run(smallProgram());
  EXPECT_GT(Layers, 5);
  EXPECT_EQ(Iters, 1);
}

TEST_F(ExecutorTest, DeterministicAcrossRuns) {
  Program Prog = smallProgram();
  auto Run = [&] {
    sim::System LocalSystem(sim::a100Spec());
    cuda::CudaRuntime LocalRuntime(LocalSystem);
    CudaDeviceApi LocalApi(LocalRuntime, 0);
    CallbackRegistry LocalCallbacks;
    Executor Exec(LocalApi, LocalCallbacks);
    return Exec.run(Prog);
  };
  RunStats A = Run();
  RunStats B = Run();
  EXPECT_EQ(A.wallTime(), B.wallTime());
  EXPECT_EQ(A.PeakAllocated, B.PeakAllocated);
}

TEST_F(ExecutorTest, TrainingPeaksExceedInference) {
  Executor InferExec(Api, Callbacks);
  RunStats Infer = InferExec.run(smallProgram(false));
  Executor TrainExec(Api, Callbacks);
  RunStats Train = TrainExec.run(smallProgram(true));
  EXPECT_GT(Train.PeakAllocated, Infer.PeakAllocated);
}

TEST_F(ExecutorTest, ManagedRunMatchesKernelCount) {
  ExecutorOptions Opts;
  Opts.Managed = true;
  Executor Exec(Api, Callbacks, Opts);
  Program Prog = smallProgram();
  RunStats Stats = Exec.run(Prog);
  EXPECT_EQ(Stats.KernelsLaunched, Prog.numKernels());
}

//===----------------------------------------------------------------------===//
// Megatron (Fig. 15 premises)
//===----------------------------------------------------------------------===//

namespace {

std::uint64_t peakAllocated(const Program &Prog, sim::System &/*System*/,
                            cuda::CudaRuntime &Runtime, int Device) {
  CudaDeviceApi Api(Runtime, Device);
  CallbackRegistry Callbacks;
  Executor Exec(Api, Callbacks);
  return Exec.run(Prog).PeakAllocated;
}

} // namespace

TEST(MegatronTest, BuildsTwoRanks) {
  MegatronConfig Config;
  auto Programs = buildMegatronGpt2(ParallelStrategy::Data, Config);
  ASSERT_EQ(Programs.size(), 2u);
  EXPECT_GT(Programs[0].numKernels(), 100u);
}

TEST(MegatronTest, DataParallelRanksIdentical) {
  MegatronConfig Config;
  auto Programs = buildMegatronGpt2(ParallelStrategy::Data, Config);
  EXPECT_EQ(Programs[0].numKernels(), Programs[1].numKernels());
  EXPECT_EQ(Programs[0].Tensors.size(), Programs[1].Tensors.size());
}

TEST(MegatronTest, TensorParallelHalvesPeak) {
  MegatronConfig Config;
  sim::System System({sim::a100Spec(), sim::a100Spec()});
  cuda::CudaRuntime Runtime(System);
  auto Dp = buildMegatronGpt2(ParallelStrategy::Data, Config);
  auto Tp = buildMegatronGpt2(ParallelStrategy::Tensor, Config);
  std::uint64_t DpPeak = peakAllocated(Dp[0], System, Runtime, 0);
  std::uint64_t TpPeak = peakAllocated(Tp[0], System, Runtime, 1);
  EXPECT_LT(TpPeak, DpPeak * 3 / 4) << "TP should shard weights";
  EXPECT_GT(TpPeak, DpPeak / 4);
}

TEST(MegatronTest, PipelineRanksAsymmetric) {
  MegatronConfig Config;
  sim::System System({sim::a100Spec(), sim::a100Spec()});
  cuda::CudaRuntime Runtime(System);
  auto Pp = buildMegatronGpt2(ParallelStrategy::Pipeline, Config);
  std::uint64_t Rank0 = peakAllocated(Pp[0], System, Runtime, 0);
  std::uint64_t Rank1 = peakAllocated(Pp[1], System, Runtime, 1);
  // GPU 1 carries the LM head, logits and loss tail (paper §V-D2).
  EXPECT_GT(Rank1, Rank0);
}

TEST(MegatronTest, TensorParallelEmitsAllReduce) {
  MegatronConfig Config;
  auto Tp = buildMegatronGpt2(ParallelStrategy::Tensor, Config);
  int AllReduceLayers = 0;
  for (const Step &S : Tp[0].Iteration)
    if (S.Kind == StepKind::LayerBegin &&
        S.Name.find("allreduce") != std::string::npos)
      ++AllReduceLayers;
  EXPECT_GE(AllReduceLayers, 2 * 24) << "two all-reduces per layer";
}

TEST(MegatronTest, StrategyNames) {
  EXPECT_STREQ(parallelStrategyName(ParallelStrategy::Data), "DP");
  EXPECT_STREQ(parallelStrategyName(ParallelStrategy::Tensor), "TP");
  EXPECT_STREQ(parallelStrategyName(ParallelStrategy::Pipeline), "PP");
}

//===----------------------------------------------------------------------===//
// Iteration replay (one lowered iteration, Program::Iterations runs)
//===----------------------------------------------------------------------===//

namespace {

/// Everything a run emits, in order: listener steps, hook steps, memory
/// reports and operator callbacks, one line each.
std::vector<std::string> runTranscript(const Program &Prog) {
  sim::System System(sim::a100Spec());
  cuda::CudaRuntime Runtime(System);
  CudaDeviceApi Api(Runtime, 0);
  CallbackRegistry Callbacks;
  std::vector<std::string> Lines;
  Callbacks.addMemoryUsageCallback([&](const MemoryUsageReport &R) {
    Lines.push_back("mem " + std::to_string(R.Tensor->Id) + " " +
                    R.Tensor->Name + " " + std::to_string(R.SizeDelta) +
                    " @" + std::to_string(R.Tensor->Address) + " t" +
                    std::to_string(R.Timestamp));
  });
  Callbacks.addRecordFunctionCallback([&](const RecordFunctionData &D) {
    Lines.push_back("op " + D.OpName + " " + D.LayerName + " " +
                    std::to_string(D.IsBegin) + " t" +
                    std::to_string(D.Timestamp));
  });
  Executor Exec(Api, Callbacks);
  auto StepLine = [](const char *Tag, const Step &S) {
    std::string Line = std::string(Tag) + std::to_string(int(S.Kind)) +
                       " " + S.Name + " " + std::to_string(S.Tensor);
    for (const KernelUse &Use : S.Kernel.Uses)
      Line += " " + std::to_string(Use.Tensor);
    return Line;
  };
  Exec.setStepListener(
      [&](const Step &S) { Lines.push_back(StepLine("step ", S)); });
  Exec.setPreKernelHook([&](const sim::KernelDesc &, const Step &S,
                            Executor &) {
    Lines.push_back(StepLine("hook ", S));
  });
  RunStats Stats = Exec.run(Prog);
  Lines.push_back("kernels " + std::to_string(Stats.KernelsLaunched) +
                  " end " + std::to_string(Stats.EndTime));
  return Lines;
}

std::uint64_t kernelsLaunched(const Program &Prog) {
  sim::System System(sim::a100Spec());
  cuda::CudaRuntime Runtime(System);
  CudaDeviceApi Api(Runtime, 0);
  CallbackRegistry Callbacks;
  Executor Exec(Api, Callbacks);
  return Exec.run(Prog).KernelsLaunched;
}

} // namespace

TEST(ProgramReplayTest, NumKernelsMatchesLaunchedKernels) {
  for (const ModelConfig &Config : modelZoo())
    for (bool Training : {false, true})
      for (int Iterations : {1, 3}) {
        ScheduleBuilder::Options Opts;
        Opts.Training = Training;
        Opts.Iterations = Iterations;
        Program Prog = buildModelProgram(Config, Opts);
        EXPECT_EQ(Prog.numKernels(), kernelsLaunched(Prog))
            << Config.Name << (Training ? " train x" : " infer x")
            << Iterations;
      }
  for (ParallelStrategy Strategy :
       {ParallelStrategy::Data, ParallelStrategy::Tensor,
        ParallelStrategy::Pipeline})
    for (const Program &Prog : buildMegatronGpt2(Strategy, {}))
      EXPECT_EQ(Prog.numKernels(), kernelsLaunched(Prog)) << Prog.ModelName;
}

TEST(ProgramReplayTest, ReplayedIterationsRenumberTensors) {
  ScheduleBuilder::Options Opts;
  Opts.Training = true;
  Opts.Iterations = 3;
  Program Prog = buildModelProgram("alexnet", Opts);
  sim::System System(sim::a100Spec());
  cuda::CudaRuntime Runtime(System);
  CudaDeviceApi Api(Runtime, 0);
  CallbackRegistry Callbacks;
  // Allocation order within an iteration, per iteration.
  std::vector<std::vector<std::pair<TensorId, std::string>>> Allocs(3);
  int Iter = -1;
  Callbacks.addMemoryUsageCallback([&](const MemoryUsageReport &R) {
    if (R.SizeDelta > 0 && Iter >= 0)
      Allocs[Iter].emplace_back(R.Tensor->Id, R.Tensor->Name);
  });
  Executor Exec(Api, Callbacks);
  Exec.setStepListener([&](const Step &S) {
    if (S.Kind == StepKind::IterBegin)
      ++Iter;
  });
  Exec.run(Prog);
  ASSERT_EQ(Iter, 2);
  ASSERT_FALSE(Allocs[0].empty());
  // Iteration 1 starts after iteration 0's tensors and the momentum
  // buffers iteration 0 declared; each later iteration follows on.
  std::uint64_t PerIter = Prog.IterTensors;
  std::uint64_t Momentum = Prog.Tensors.size() - Prog.IterFirst - PerIter;
  EXPECT_GT(Momentum, 0u);
  for (int K = 1; K < 3; ++K) {
    ASSERT_EQ(Allocs[K].size(), Allocs[0].size());
    for (std::size_t I = 0; I < Allocs[0].size(); ++I) {
      EXPECT_EQ(Allocs[K][I].first,
                Allocs[0][I].first + K * PerIter + Momentum);
      std::string Expected = Allocs[0][I].second;
      std::size_t Pos = Expected.find(".iter0");
      if (Pos != std::string::npos)
        Expected.replace(Pos, 6, ".iter" + std::to_string(K));
      EXPECT_EQ(Allocs[K][I].second, Expected);
    }
  }
  EXPECT_EQ(Allocs[2].front().second, "images.iter2");
}

TEST(ProgramReplayTest, SharedProgramRunsConcurrently) {
  // Two executors replay one const Program on two threads, as the fleet
  // workload's client sessions do; each must see the sequential run.
  ScheduleBuilder::Options Opts;
  Opts.Training = true;
  Opts.Iterations = 2;
  const Program Prog = buildModelProgram("resnet18", Opts);
  std::vector<std::string> Sequential = runTranscript(Prog);
  std::vector<std::string> A, B;
  std::thread TA([&] { A = runTranscript(Prog); });
  std::thread TB([&] { B = runTranscript(Prog); });
  TA.join();
  TB.join();
  EXPECT_TRUE(A == Sequential);
  EXPECT_TRUE(B == Sequential);
}
