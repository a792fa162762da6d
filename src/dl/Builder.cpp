//===- dl/Builder.cpp -----------------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "dl/Builder.h"

#include "support/ErrorHandling.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace pasta;
using namespace pasta::dl;

/// Caps GEMM input re-read factors so dynamic access volumes stay within
/// a realistic multiple of the footprint (shared-memory tiling bounds
/// re-reads on real hardware too).
static double tileReuse(std::int64_t Dim) {
  double Reuse = static_cast<double>(Dim) / 64.0;
  return std::clamp(Reuse, 1.0, 32.0);
}

ScheduleBuilder::ScheduleBuilder(std::string ModelName, Options Opts)
    : ModelName(std::move(ModelName)), Opts(Opts) {
  Prog.ModelName = this->ModelName;
  Prog.Training = Opts.Training;
  Prog.Iterations = Opts.Iterations;
  // Persistent BLAS workspace: cuBLASLt reserves a larger fused-epilogue
  // workspace than rocBLAS — one source of the NVIDIA-vs-AMD peak-usage
  // difference the paper observes in Fig. 14.
  std::int64_t WorkspaceElems =
      Opts.Flavor == KernelFlavor::Cudnn ? (32ll * 1024 * 1024 / 4)
                                         : (8ll * 1024 * 1024 / 4);
  weight("blas_workspace", TensorShape({WorkspaceElems}));
}

SymTensor ScheduleBuilder::declare(const std::string &Name, TensorShape Shape,
                                   DataType Type, TensorRole Role,
                                   std::size_t IterPos) {
  TensorDecl Decl;
  Decl.Name = Name;
  Decl.Shape = std::move(Shape);
  Decl.Type = Type;
  Decl.Role = Role;
  Decl.IterPos = IterPos;
  Prog.Tensors.push_back(std::move(Decl));
  GradOf.push_back(NoTensor);
  return static_cast<SymTensor>(Prog.Tensors.size() - 1);
}

SymTensor ScheduleBuilder::weight(const std::string &Name, TensorShape Shape,
                                  DataType Type) {
  assert(!InIteration && !Lowered && "declare weights before the iteration");
  SymTensor W = declare(Name, std::move(Shape), Type, TensorRole::Weight);
  PersistentWeights.push_back(W);

  Step Alloc;
  Alloc.Kind = StepKind::Alloc;
  Alloc.Tensor = W;
  Prog.Head.push_back(std::move(Alloc));

  Step Stage;
  Stage.Kind = StepKind::CopyH2D;
  Stage.Bytes = Prog.Tensors[W].bytes();
  Prog.Head.push_back(std::move(Stage));
  return W;
}

void ScheduleBuilder::beginIteration() {
  assert(!InIteration && "nested iteration");
  if (Lowered)
    reportFatalError("a Program lowers one iteration; replay it with "
                     "ScheduleBuilder::Options::Iterations");
  InIteration = true;
  Prog.IterFirst = static_cast<SymTensor>(Prog.Tensors.size());
  Ops.clear();
  NumForwardOps = 0;
}

SymTensor ScheduleBuilder::input(const std::string &Name, TensorShape Shape,
                                 DataType Type) {
  assert(InIteration && "input() outside an iteration");
  // "<name>.iter0": the executor renumbers the 0 per replayed iteration.
  std::string Prefix = Name + ".iter";
  SymTensor T = declare(Prefix + "0", std::move(Shape), Type,
                        TensorRole::Input, Prefix.size());
  OpIR Op;
  Op.OpName = "aten::copy_";
  Op.LayerName = "input";
  Op.Outputs = {T};
  Op.Flops = 0;
  Op.H2DBytes = Prog.Tensors[T].bytes();
  // Lowering turns H2DBytes into a CopyH2D step after the allocation.
  KernelStep Copy;
  Copy.Name = elementwiseKernelName("direct_copy_kernel");
  Copy.Uses = {{T, sim::AccessKind::Store, 1.0}};
  Copy.Threads = Prog.Tensors[T].Shape.numel();
  Op.Kernels.push_back(std::move(Copy));
  pushOp(std::move(Op));
  return T;
}

SymTensor ScheduleBuilder::pushOp(OpIR Op) {
  assert(InIteration && "ops only valid inside an iteration");
  if (Op.LayerName.empty())
    Op.LayerName = CurrentLayer;
  SymTensor Out = Op.Outputs.empty() ? NoTensor : Op.Outputs.front();
  Ops.push_back(std::move(Op));
  if (Ops.back().Phase == ExecPhase::Forward)
    NumForwardOps = Ops.size();
  return Out;
}

//===----------------------------------------------------------------------===//
// Kernel naming / construction helpers
//===----------------------------------------------------------------------===//

std::string ScheduleBuilder::gemmKernelName(std::int64_t M, std::int64_t N,
                                            std::int64_t K,
                                            const char *Trans) const {
  bool Large = M * N >= (1 << 20) || K >= 2048;
  if (Opts.Flavor == KernelFlavor::Cudnn)
    return Large ? format("ampere_sgemm_128x64_%s", Trans)
                 : format("ampere_sgemm_32x128_%s", Trans);
  return Large ? format("Cijk_Ailk_Bljk_SB_MT128x64_%s", Trans)
               : format("Cijk_Ailk_Bljk_SB_MT64x32_%s", Trans);
}

std::string
ScheduleBuilder::elementwiseKernelName(const char *What) const {
  if (Opts.Flavor == KernelFlavor::Cudnn)
    return format("at::native::vectorized_elementwise_kernel<4, %s>", What);
  return format("at::native::elementwise_kernel<512, 1, %s>", What);
}

KernelStep ScheduleBuilder::makeGemmKernel(const std::string &Name,
                                           SymTensor A, SymTensor B,
                                           SymTensor C, std::int64_t M,
                                           std::int64_t N, std::int64_t K,
                                           std::vector<SymTensor> ExtraReads) {
  (void)K;
  KernelStep Kernel;
  Kernel.Name = Name;
  Kernel.Uses.push_back({A, sim::AccessKind::Load, tileReuse(N)});
  Kernel.Uses.push_back({B, sim::AccessKind::Load, tileReuse(M)});
  Kernel.Uses.push_back({C, sim::AccessKind::Store, 1.0});
  for (SymTensor Extra : ExtraReads)
    Kernel.Uses.push_back({Extra, sim::AccessKind::Load, 1.0});
  Kernel.Flops = 2.0 * static_cast<double>(M) * static_cast<double>(N) *
                 static_cast<double>(K);
  Kernel.Threads = static_cast<std::uint64_t>(M) * static_cast<std::uint64_t>(N);
  Kernel.BarriersPerBlock = 16; // tiled GEMMs synchronize per K-tile
  Kernel.StaticInstrs = 2048;
  return Kernel;
}

KernelStep ScheduleBuilder::makeElementwiseKernel(
    const std::string &Name, std::vector<SymTensor> Reads,
    std::vector<SymTensor> Writes, double FlopsPerElt) {
  KernelStep Kernel;
  Kernel.Name = Name;
  std::uint64_t Elems = 0;
  for (SymTensor T : Reads)
    Kernel.Uses.push_back({T, sim::AccessKind::Load, 1.0});
  for (SymTensor T : Writes) {
    Kernel.Uses.push_back({T, sim::AccessKind::Store, 1.0});
    Elems = std::max(Elems, Prog.Tensors[T].Shape.numel());
  }
  Kernel.Flops = FlopsPerElt * static_cast<double>(Elems);
  Kernel.Threads = Elems;
  Kernel.BarriersPerBlock = 0;
  Kernel.StaticInstrs = 256;
  return Kernel;
}

//===----------------------------------------------------------------------===//
// NN primitives
//===----------------------------------------------------------------------===//

SymTensor ScheduleBuilder::linear(const std::string &Layer, SymTensor X,
                                  SymTensor W, SymTensor Bias,
                                  std::int64_t OutFeatures) {
  const TensorShape &InShape = Prog.Tensors[X].Shape;
  assert(InShape.rank() >= 2 && "linear input must be at least 2-D");
  std::int64_t K = InShape.dim(InShape.rank() - 1);
  std::int64_t M = static_cast<std::int64_t>(InShape.numel()) / K;

  std::vector<std::int64_t> OutDims = InShape.dims();
  OutDims.back() = OutFeatures;
  SymTensor Y = declare(Layer + ".out", TensorShape(OutDims), DataType::F32,
                        TensorRole::Activation);

  OpIR Op;
  Op.OpName = "aten::linear";
  Op.LayerName = Layer;
  Op.Bwd = BackwardKind::Gemm;
  Op.ActInputs = {X};
  Op.Weights = {W};
  if (Bias != NoTensor)
    Op.Weights.push_back(Bias);
  Op.Outputs = {Y};
  Op.M = M;
  Op.N = OutFeatures;
  Op.K = K;

  if (Opts.Flavor == KernelFlavor::Cudnn) {
    // cuBLASLt epilogue fuses the bias add into the GEMM.
    std::vector<SymTensor> Extra;
    if (Bias != NoTensor)
      Extra.push_back(Bias);
    Op.Kernels.push_back(makeGemmKernel(
        gemmKernelName(M, OutFeatures, K, "nn"), X, W, Y, M, OutFeatures, K,
        Extra));
  } else {
    Op.Kernels.push_back(makeGemmKernel(
        gemmKernelName(M, OutFeatures, K, "nn"), X, W, Y, M, OutFeatures, K));
    if (Bias != NoTensor)
      Op.Kernels.push_back(makeElementwiseKernel(
          elementwiseKernelName("BiasAddFunctor"), {Bias}, {Y}));
  }
  Op.Flops = Op.Kernels.front().Flops;
  return pushOp(std::move(Op));
}

SymTensor ScheduleBuilder::conv2d(const std::string &Layer, SymTensor X,
                                  SymTensor W, SymTensor Bias,
                                  std::int64_t OutChannels,
                                  std::int64_t KernelSize,
                                  std::int64_t Stride, std::int64_t Padding,
                                  bool FuseRelu) {
  const TensorShape &In = Prog.Tensors[X].Shape;
  assert(In.rank() == 4 && "conv2d input must be NCHW");
  std::int64_t N = In.dim(0), C = In.dim(1), H = In.dim(2), Wd = In.dim(3);
  std::int64_t OutH = (H + 2 * Padding - KernelSize) / Stride + 1;
  std::int64_t OutW = (Wd + 2 * Padding - KernelSize) / Stride + 1;
  SymTensor Y =
      declare(Layer + ".out", TensorShape({N, OutChannels, OutH, OutW}),
              DataType::F32, TensorRole::Activation);

  if (KernelSize == 1) {
    // 1x1 convolutions lower directly to GEMM without im2col.
    OpIR Op;
    Op.OpName = "aten::conv2d";
    Op.LayerName = Layer;
    Op.Bwd = BackwardKind::Gemm;
    Op.ActInputs = {X};
    Op.Weights = {W};
    if (Bias != NoTensor)
      Op.Weights.push_back(Bias);
    Op.Outputs = {Y};
    Op.M = N * OutH * OutW;
    Op.N = OutChannels;
    Op.K = C;
    std::vector<SymTensor> Extra;
    if (Opts.Flavor == KernelFlavor::Cudnn && Bias != NoTensor)
      Extra.push_back(Bias);
    Op.Kernels.push_back(makeGemmKernel(
        gemmKernelName(Op.M, Op.N, Op.K, "nn"), X, W, Y, Op.M, Op.N, Op.K,
        Extra));
    Op.Flops = Op.Kernels.front().Flops;
    pushOp(std::move(Op));
    return FuseRelu ? relu(Layer + ".relu", Y) : Y;
  }

  bool Winograd = Opts.Flavor == KernelFlavor::Cudnn && KernelSize == 3 &&
                  Stride == 1;
  if (Winograd) {
    // Fused Winograd conv (+bias, +ReLU) — one kernel, modest workspace.
    OpIR Op;
    Op.OpName = "aten::conv2d";
    Op.LayerName = Layer;
    Op.Bwd = BackwardKind::Gemm;
    Op.ActInputs = {X};
    Op.Weights = {W};
    if (Bias != NoTensor)
      Op.Weights.push_back(Bias);
    Op.Outputs = {Y};
    Op.M = N * OutH * OutW;
    Op.N = OutChannels;
    Op.K = C * KernelSize * KernelSize;

    KernelStep Kernel;
    Kernel.Name = FuseRelu
                      ? "cudnn::winograd_nonfused::winogradForwardFused_relu"
                      : "cudnn::winograd_nonfused::winogradForwardData";
    Kernel.Uses.push_back({X, sim::AccessKind::Load, 2.25});
    Kernel.Uses.push_back(
        {W, sim::AccessKind::Load, tileReuse(Op.M / 16)});
    Kernel.Uses.push_back({Y, sim::AccessKind::Store, 1.0});
    if (Bias != NoTensor)
      Kernel.Uses.push_back({Bias, sim::AccessKind::Load, 1.0});
    Kernel.Flops = 2.0 * static_cast<double>(Op.M) *
                   static_cast<double>(Op.N) * static_cast<double>(Op.K) /
                   2.25; // Winograd arithmetic saving
    Kernel.Threads = static_cast<std::uint64_t>(Op.M) *
                     static_cast<std::uint64_t>(OutChannels) / 4;
    Kernel.BarriersPerBlock = 8;
    Kernel.StaticInstrs = 4096;
    Op.Kernels.push_back(std::move(Kernel));
    Op.Flops = Op.Kernels.front().Flops;
    return pushOp(std::move(Op));
  }

  // im2col + GEMM path. The column buffer is the famous giant workspace
  // (paper Fig. 7's at::native::im2col_kernel is among the hottest).
  std::int64_t M = N * OutH * OutW;
  std::int64_t K = C * KernelSize * KernelSize;
  SymTensor Col = declare(Layer + ".im2col", TensorShape({M, K}),
                          DataType::F32, TensorRole::Workspace);

  OpIR Im2col;
  Im2col.OpName = "aten::im2col";
  Im2col.LayerName = Layer;
  Im2col.Bwd = BackwardKind::Im2col;
  Im2col.ActInputs = {X};
  Im2col.Outputs = {Col};
  {
    KernelStep Kernel;
    Kernel.Name = Opts.Flavor == KernelFlavor::Cudnn
                      ? "at::native::im2col_kernel"
                      : "miopen::Im2Col";
    double ExpandFactor =
        static_cast<double>(KernelSize * KernelSize) /
        static_cast<double>(Stride * Stride);
    Kernel.Uses.push_back(
        {X, sim::AccessKind::Load, std::max(1.0, ExpandFactor)});
    Kernel.Uses.push_back({Col, sim::AccessKind::Store, 1.0});
    Kernel.Threads = static_cast<std::uint64_t>(M) *
                     static_cast<std::uint64_t>(K) / 4;
    Kernel.Flops = static_cast<double>(M) * static_cast<double>(K);
    Kernel.StaticInstrs = 384;
    Im2col.Kernels.push_back(std::move(Kernel));
  }
  Im2col.Flops = Im2col.Kernels.front().Flops;
  pushOp(std::move(Im2col));

  OpIR Gemm;
  Gemm.OpName = "aten::conv2d";
  Gemm.LayerName = Layer;
  Gemm.Bwd = BackwardKind::Gemm;
  Gemm.ActInputs = {Col};
  Gemm.Weights = {W};
  if (Bias != NoTensor)
    Gemm.Weights.push_back(Bias);
  Gemm.Outputs = {Y};
  Gemm.M = M;
  Gemm.N = OutChannels;
  Gemm.K = K;
  bool FusedEpilogue = Opts.Flavor == KernelFlavor::Cudnn;
  {
    std::vector<SymTensor> Extra;
    if (FusedEpilogue && Bias != NoTensor)
      Extra.push_back(Bias);
    Gemm.Kernels.push_back(
        makeGemmKernel(gemmKernelName(M, OutChannels, K, "nn"), Col, W, Y, M,
                       OutChannels, K, Extra));
  }
  Gemm.Flops = Gemm.Kernels.front().Flops;
  pushOp(std::move(Gemm));

  SymTensor Out = Y;
  if (!FusedEpilogue && Bias != NoTensor) {
    OpIR BiasOp;
    BiasOp.OpName = "aten::add_";
    BiasOp.LayerName = Layer;
    BiasOp.Bwd = BackwardKind::None; // bias grad folded into wgrad
    BiasOp.Weights = {Bias};
    BiasOp.ActInputs = {Y};
    BiasOp.Outputs = {};
    BiasOp.Kernels.push_back(makeElementwiseKernel(
        elementwiseKernelName("BiasAddFunctor"), {Bias, Y}, {Y}));
    pushOp(std::move(BiasOp));
  }
  if (FuseRelu && !FusedEpilogue)
    Out = relu(Layer + ".relu", Y);
  else if (FuseRelu && FusedEpilogue && !Winograd)
    Out = relu(Layer + ".relu", Y);
  return Out;
}

SymTensor ScheduleBuilder::relu(const std::string &Layer, SymTensor X) {
  SymTensor Y = declare(Layer + ".out", Prog.Tensors[X].Shape,
                        DataType::F32, TensorRole::Activation);
  OpIR Op;
  Op.OpName = "aten::relu";
  Op.LayerName = Layer;
  Op.Bwd = BackwardKind::Elementwise;
  Op.ActInputs = {X};
  Op.Outputs = {Y};
  Op.Kernels.push_back(makeElementwiseKernel(
      elementwiseKernelName("threshold_kernel_impl"), {X}, {Y}));
  Op.Flops = Op.Kernels.front().Flops;
  return pushOp(std::move(Op));
}

SymTensor ScheduleBuilder::gelu(const std::string &Layer, SymTensor X) {
  SymTensor Y = declare(Layer + ".out", Prog.Tensors[X].Shape,
                        DataType::F32, TensorRole::Activation);
  OpIR Op;
  Op.OpName = "aten::gelu";
  Op.LayerName = Layer;
  Op.Bwd = BackwardKind::Elementwise;
  Op.ActInputs = {X};
  Op.Outputs = {Y};
  Op.Kernels.push_back(makeElementwiseKernel(
      elementwiseKernelName("GeluCUDAKernelImpl"), {X}, {Y}, 8.0));
  Op.Flops = Op.Kernels.front().Flops;
  return pushOp(std::move(Op));
}

SymTensor ScheduleBuilder::add(const std::string &Layer, SymTensor A,
                               SymTensor B) {
  SymTensor Y = declare(Layer + ".out", Prog.Tensors[A].Shape,
                        DataType::F32, TensorRole::Activation);
  OpIR Op;
  Op.OpName = "aten::add";
  Op.LayerName = Layer;
  Op.Bwd = BackwardKind::Elementwise;
  Op.ActInputs = {A, B};
  Op.Outputs = {Y};
  Op.Kernels.push_back(makeElementwiseKernel(
      elementwiseKernelName("CUDAFunctor_add"), {A, B}, {Y}));
  Op.Flops = Op.Kernels.front().Flops;
  return pushOp(std::move(Op));
}

SymTensor ScheduleBuilder::dropout(const std::string &Layer, SymTensor X,
                                   double P) {
  (void)P;
  if (!Opts.Training)
    return X; // eval() short-circuits dropout, as PyTorch does
  SymTensor Mask = declare(Layer + ".mask", Prog.Tensors[X].Shape,
                           DataType::F32, TensorRole::Activation);
  SymTensor Y = declare(Layer + ".out", Prog.Tensors[X].Shape,
                        DataType::F32, TensorRole::Activation);
  OpIR Op;
  Op.OpName = "aten::dropout";
  Op.LayerName = Layer;
  Op.Bwd = BackwardKind::Elementwise;
  Op.ActInputs = {X};
  Op.Outputs = {Y, Mask};
  Op.Kernels.push_back(makeElementwiseKernel(
      elementwiseKernelName("fused_dropout_kernel_vec"), {X}, {Y, Mask},
      4.0));
  Op.Flops = Op.Kernels.front().Flops;
  pushOp(std::move(Op));
  return Y;
}

SymTensor ScheduleBuilder::maxPool2d(const std::string &Layer, SymTensor X,
                                     std::int64_t Kernel,
                                     std::int64_t Stride) {
  const TensorShape &In = Prog.Tensors[X].Shape;
  assert(In.rank() == 4 && "maxPool2d input must be NCHW");
  std::int64_t OutH = (In.dim(2) - Kernel) / Stride + 1;
  std::int64_t OutW = (In.dim(3) - Kernel) / Stride + 1;
  SymTensor Y =
      declare(Layer + ".out", TensorShape({In.dim(0), In.dim(1), OutH, OutW}),
              DataType::F32, TensorRole::Activation);
  OpIR Op;
  Op.OpName = "aten::max_pool2d";
  Op.LayerName = Layer;
  Op.Bwd = BackwardKind::Pool;
  Op.ActInputs = {X};
  Op.Outputs = {Y};
  KernelStep K2;
  K2.Name = Opts.Flavor == KernelFlavor::Cudnn
                ? "at::native::max_pool_forward_nchw"
                : "miopen::MaxPoolFwdNCHW";
  K2.Uses = {{X, sim::AccessKind::Load, 1.0}, {Y, sim::AccessKind::Store, 1.0}};
  K2.Threads = Prog.Tensors[Y].Shape.numel();
  K2.Flops = static_cast<double>(K2.Threads) *
             static_cast<double>(Kernel * Kernel);
  Op.Kernels.push_back(std::move(K2));
  Op.Flops = Op.Kernels.front().Flops;
  return pushOp(std::move(Op));
}

SymTensor ScheduleBuilder::adaptiveAvgPool2d(const std::string &Layer,
                                             SymTensor X,
                                             std::int64_t OutHW) {
  const TensorShape &In = Prog.Tensors[X].Shape;
  SymTensor Y = declare(Layer + ".out",
                        TensorShape({In.dim(0), In.dim(1), OutHW, OutHW}),
                        DataType::F32, TensorRole::Activation);
  OpIR Op;
  Op.OpName = "aten::adaptive_avg_pool2d";
  Op.LayerName = Layer;
  Op.Bwd = BackwardKind::Pool;
  Op.ActInputs = {X};
  Op.Outputs = {Y};
  KernelStep K;
  K.Name = "at::native::adaptive_average_pool";
  K.Uses = {{X, sim::AccessKind::Load, 1.0}, {Y, sim::AccessKind::Store, 1.0}};
  K.Threads = Prog.Tensors[Y].Shape.numel();
  K.Flops = static_cast<double>(In.numel());
  Op.Kernels.push_back(std::move(K));
  Op.Flops = Op.Kernels.front().Flops;
  return pushOp(std::move(Op));
}

SymTensor ScheduleBuilder::batchNorm2d(const std::string &Layer, SymTensor X,
                                       SymTensor Scale, SymTensor Bias) {
  SymTensor Y = declare(Layer + ".out", Prog.Tensors[X].Shape,
                        DataType::F32, TensorRole::Activation);
  OpIR Op;
  Op.OpName = "aten::batch_norm";
  Op.LayerName = Layer;
  Op.Bwd = BackwardKind::BatchNorm;
  Op.ActInputs = {X};
  Op.Weights = {Scale, Bias};
  Op.Outputs = {Y};

  bool Cudnn = Opts.Flavor == KernelFlavor::Cudnn;
  if (Opts.Training) {
    KernelStep Stats;
    Stats.Name = Cudnn
                     ? "at::native::batch_norm_collect_statistics_kernel"
                     : "miopen::BatchNormFwdTrainSpatialStats";
    Stats.Uses = {{X, sim::AccessKind::Load, 1.0}};
    Stats.Threads = Prog.Tensors[X].Shape.numel() / 32;
    Stats.Flops = static_cast<double>(Prog.Tensors[X].Shape.numel()) * 2;
    Stats.BarriersPerBlock = 6;
    Op.Kernels.push_back(std::move(Stats));
  }
  KernelStep Transform;
  Transform.Name = Cudnn ? "at::native::batch_norm_transform_input_kernel"
                         : "miopen::BatchNormFwdTrainSpatialTransform";
  Transform.Uses = {{X, sim::AccessKind::Load, 1.0},
                    {Scale, sim::AccessKind::Load, 1.0},
                    {Bias, sim::AccessKind::Load, 1.0},
                    {Y, sim::AccessKind::Store, 1.0}};
  Transform.Threads = Prog.Tensors[X].Shape.numel();
  Transform.Flops = static_cast<double>(Transform.Threads) * 4;
  Op.Kernels.push_back(std::move(Transform));
  Op.Flops = Op.Kernels.back().Flops;
  return pushOp(std::move(Op));
}

SymTensor ScheduleBuilder::layerNorm(const std::string &Layer, SymTensor X,
                                     SymTensor Scale, SymTensor Bias) {
  SymTensor Y = declare(Layer + ".out", Prog.Tensors[X].Shape,
                        DataType::F32, TensorRole::Activation);
  OpIR Op;
  Op.OpName = "aten::layer_norm";
  Op.LayerName = Layer;
  Op.Bwd = BackwardKind::LayerNorm;
  Op.ActInputs = {X};
  Op.Weights = {Scale, Bias};
  Op.Outputs = {Y};
  bool Cudnn = Opts.Flavor == KernelFlavor::Cudnn;
  if (Cudnn) {
    KernelStep K;
    K.Name = "at::native::vectorized_layer_norm_kernel";
    K.Uses = {{X, sim::AccessKind::Load, 1.0},
              {Scale, sim::AccessKind::Load, 1.0},
              {Bias, sim::AccessKind::Load, 1.0},
              {Y, sim::AccessKind::Store, 1.0}};
    K.Threads = Prog.Tensors[X].Shape.numel();
    K.Flops = static_cast<double>(K.Threads) * 6;
    K.BarriersPerBlock = 4;
    Op.Kernels.push_back(std::move(K));
  } else {
    // MIOpen-flavour decomposition: statistics then normalization, with a
    // materialized saved-stats workspace (extra alloc/free events — one
    // source of Fig. 14's higher AMD event count).
    const TensorShape &XShape = Prog.Tensors[X].Shape;
    std::int64_t Rows = static_cast<std::int64_t>(
        XShape.numel() / XShape.dim(XShape.rank() - 1));
    SymTensor Saved = declare(Layer + ".saved_stats",
                              TensorShape({2, Rows}), DataType::F32,
                              TensorRole::Workspace);
    Op.Outputs.push_back(Saved);
    KernelStep Stats;
    Stats.Name = "at::native::RowwiseMomentsCUDAKernel";
    Stats.Uses = {{X, sim::AccessKind::Load, 1.0},
                  {Saved, sim::AccessKind::Store, 1.0}};
    Stats.Threads = Prog.Tensors[X].Shape.numel() / 32;
    Stats.Flops = static_cast<double>(Prog.Tensors[X].Shape.numel()) * 2;
    Stats.BarriersPerBlock = 6;
    Op.Kernels.push_back(std::move(Stats));
    KernelStep Norm;
    Norm.Name = "at::native::LayerNormForwardCUDAKernel";
    Norm.Uses = {{X, sim::AccessKind::Load, 1.0},
                 {Scale, sim::AccessKind::Load, 1.0},
                 {Bias, sim::AccessKind::Load, 1.0},
                 {Y, sim::AccessKind::Store, 1.0}};
    Norm.Threads = Prog.Tensors[X].Shape.numel();
    Norm.Flops = static_cast<double>(Norm.Threads) * 4;
    Op.Kernels.push_back(std::move(Norm));
  }
  Op.Flops = Op.Kernels.back().Flops;
  return pushOp(std::move(Op));
}

SymTensor ScheduleBuilder::softmax(const std::string &Layer, SymTensor X) {
  SymTensor Y = declare(Layer + ".out", Prog.Tensors[X].Shape,
                        DataType::F32, TensorRole::Activation);
  OpIR Op;
  Op.OpName = "aten::softmax";
  Op.LayerName = Layer;
  Op.Bwd = BackwardKind::Softmax;
  Op.ActInputs = {X};
  Op.Outputs = {Y};
  KernelStep K;
  K.Name = Opts.Flavor == KernelFlavor::Cudnn
               ? "at::native::softmax_warp_forward"
               : "at::native::cunn_SoftMaxForward";
  K.Uses = {{X, sim::AccessKind::Load, 2.0},
            {Y, sim::AccessKind::Store, 1.0}};
  K.Threads = Prog.Tensors[X].Shape.numel();
  K.Flops = static_cast<double>(K.Threads) * 6;
  K.BarriersPerBlock = 4;
  Op.Kernels.push_back(std::move(K));
  Op.Flops = Op.Kernels.front().Flops;
  return pushOp(std::move(Op));
}

SymTensor ScheduleBuilder::embedding(const std::string &Layer, SymTensor Ids,
                                     SymTensor Table) {
  const TensorShape &IdShape = Prog.Tensors[Ids].Shape;
  const TensorShape &TableShape = Prog.Tensors[Table].Shape;
  std::vector<std::int64_t> OutDims = IdShape.dims();
  OutDims.push_back(TableShape.dim(TableShape.rank() - 1));
  SymTensor Y = declare(Layer + ".out", TensorShape(OutDims), DataType::F32,
                        TensorRole::Activation);
  OpIR Op;
  Op.OpName = "aten::embedding";
  Op.LayerName = Layer;
  Op.Bwd = BackwardKind::Embedding;
  Op.ActInputs = {Ids};
  Op.Weights = {Table};
  Op.Outputs = {Y};
  KernelStep K;
  K.Name = "at::native::indexSelectLargeIndex";
  double TableFraction =
      std::min(1.0, static_cast<double>(Prog.Tensors[Y].bytes()) /
                        static_cast<double>(Prog.Tensors[Table].bytes()));
  K.Uses = {{Ids, sim::AccessKind::Load, 1.0},
            {Table, sim::AccessKind::Load, TableFraction},
            {Y, sim::AccessKind::Store, 1.0}};
  K.Threads = Prog.Tensors[Y].Shape.numel();
  K.Flops = 0;
  Op.Kernels.push_back(std::move(K));
  return pushOp(std::move(Op));
}

SymTensor ScheduleBuilder::batchedMatmul(const std::string &Layer,
                                         SymTensor A, SymTensor B,
                                         std::int64_t Batch, std::int64_t M,
                                         std::int64_t N, std::int64_t K,
                                         TensorShape OutShape) {
  SymTensor Y = declare(Layer + ".out", std::move(OutShape), DataType::F32,
                        TensorRole::Activation);
  OpIR Op;
  Op.OpName = "aten::bmm";
  Op.LayerName = Layer;
  Op.Bwd = BackwardKind::Gemm;
  Op.ActInputs = {A, B};
  Op.Outputs = {Y};
  Op.M = Batch * M;
  Op.N = N;
  Op.K = K;
  KernelStep Kernel = makeGemmKernel(
      Opts.Flavor == KernelFlavor::Cudnn
          ? format("ampere_sgemm_64x64_nn_batched_%lldx",
                   static_cast<long long>(Batch))
          : format("Cijk_Ailk_Bljk_SB_MT64x64_GB%lld",
                   static_cast<long long>(Batch)),
      A, B, Y, M, N, K);
  Kernel.Flops *= static_cast<double>(Batch);
  Kernel.Threads *= static_cast<std::uint64_t>(Batch);
  Op.Kernels.push_back(std::move(Kernel));
  Op.Flops = Op.Kernels.front().Flops;
  return pushOp(std::move(Op));
}

SymTensor ScheduleBuilder::permute(const std::string &Layer, SymTensor X,
                                   TensorShape Out) {
  SymTensor Y = declare(Layer + ".out", std::move(Out), DataType::F32,
                        TensorRole::Activation);
  OpIR Op;
  Op.OpName = "aten::permute";
  Op.LayerName = Layer;
  Op.Bwd = BackwardKind::Elementwise;
  Op.ActInputs = {X};
  Op.Outputs = {Y};
  Op.Kernels.push_back(makeElementwiseKernel(
      elementwiseKernelName("direct_copy_kernel"), {X}, {Y}, 0.0));
  return pushOp(std::move(Op));
}

SymTensor ScheduleBuilder::crossEntropyLoss(const std::string &Layer,
                                            SymTensor Logits,
                                            SymTensor Targets) {
  SymTensor Loss = declare(Layer + ".loss", TensorShape({1}), DataType::F32,
                           TensorRole::Activation);
  OpIR Op;
  Op.OpName = "aten::cross_entropy_loss";
  Op.LayerName = Layer;
  Op.Bwd = BackwardKind::Loss;
  Op.ActInputs = {Logits, Targets};
  Op.Outputs = {Loss};
  KernelStep LogSoftmax;
  LogSoftmax.Name = "at::native::cunn_SoftMaxForward<LogSoftMaxForwardEpilogue>";
  LogSoftmax.Uses = {{Logits, sim::AccessKind::Load, 2.0}};
  LogSoftmax.Threads = Prog.Tensors[Logits].Shape.numel();
  LogSoftmax.Flops = static_cast<double>(LogSoftmax.Threads) * 5;
  Op.Kernels.push_back(std::move(LogSoftmax));
  KernelStep Nll;
  Nll.Name = "at::native::nll_loss_forward_reduce_cuda_kernel_2d";
  Nll.Uses = {{Logits, sim::AccessKind::Load, 1.0},
              {Targets, sim::AccessKind::Load, 1.0},
              {Loss, sim::AccessKind::Store, 1.0}};
  Nll.Threads = Prog.Tensors[Targets].Shape.numel();
  Nll.Flops = static_cast<double>(Nll.Threads);
  Op.Kernels.push_back(std::move(Nll));
  Op.Flops = Op.Kernels.front().Flops;
  return pushOp(std::move(Op));
}

SymTensor ScheduleBuilder::reshape(SymTensor X, TensorShape NewShape) {
  assert(NewShape.numel() == Prog.Tensors[X].Shape.numel() &&
         "reshape must preserve element count");
  // Views share storage: declare an alias so kernels can reference the
  // new shape while lifetime analysis sees the base tensor.
  TensorDecl Decl;
  Decl.Name = Prog.Tensors[X].Name + ".view";
  Decl.Shape = std::move(NewShape);
  Decl.Type = Prog.Tensors[X].Type;
  Decl.Role = Prog.Tensors[X].Role;
  Decl.IterPos = Prog.Tensors[X].IterPos;
  Prog.Tensors.push_back(std::move(Decl));
  GradOf.push_back(NoTensor);
  SymTensor Alias = static_cast<SymTensor>(Prog.Tensors.size() - 1);
  Aliases[Alias] = resolveAlias(X);
  return Alias;
}

void ScheduleBuilder::beginLayer(const std::string &Name) {
  CurrentLayer = Name;
}

void ScheduleBuilder::endLayer() { CurrentLayer.clear(); }

SymTensor ScheduleBuilder::resolveAlias(SymTensor T) const {
  auto It = Aliases.find(T);
  return It == Aliases.end() ? T : It->second;
}

//===----------------------------------------------------------------------===//
// Backward synthesis
//===----------------------------------------------------------------------===//

SymTensor ScheduleBuilder::gradTensor(SymTensor T) {
  // Always declares a FRESH gradient buffer for one producer; setGrad()
  // merges multiple producers (fan-out in the forward graph) by emitting
  // accumulation ops.
  T = resolveAlias(T);
  const TensorDecl &Decl = Prog.Tensors[T];
  return declare(Decl.Name + ".grad", Decl.Shape, Decl.Type,
                 TensorRole::Gradient, Decl.IterPos);
}

void ScheduleBuilder::setGrad(SymTensor T, SymTensor Grad,
                              const std::string &Layer) {
  T = resolveAlias(T);
  if (GradOf[T] == NoTensor) {
    GradOf[T] = Grad;
    return;
  }
  // Fan-out in the forward graph (residual branches): accumulate the new
  // contribution into the existing gradient in place.
  OpIR Acc;
  Acc.OpName = "aten::add_";
  Acc.LayerName = Layer;
  Acc.Phase = ExecPhase::Backward;
  Acc.ActInputs = {Grad, GradOf[T]};
  Acc.Outputs = {};
  Acc.Kernels.push_back(makeElementwiseKernel(
      elementwiseKernelName("CUDAFunctor_add"), {Grad, GradOf[T]},
      {GradOf[T]}));
  Ops.push_back(std::move(Acc));
}

void ScheduleBuilder::synthesizeBackward() {
  // Walk forward ops in reverse. Each op consumes the (fully accumulated)
  // gradient of its output and produces fresh gradients of its activation
  // inputs and weights, which setGrad() merges on fan-out.
  std::size_t NumFwd = Ops.size();
  for (std::size_t Idx = NumFwd; Idx-- > 0;) {
    // Copy: synthesized ops append to Ops; earlier indexes stay valid.
    OpIR Fwd = Ops[Idx];
    if (Fwd.Phase != ExecPhase::Forward || Fwd.Bwd == BackwardKind::None)
      continue;

    std::string Layer = Fwd.LayerName;
    OpIR Bwd;
    Bwd.OpName = Fwd.OpName + "_backward";
    Bwd.LayerName = Layer;
    Bwd.Phase = ExecPhase::Backward;
    /// (target tensor, fresh grad) pairs registered after the op lands.
    std::vector<std::pair<SymTensor, SymTensor>> Produced;

    if (Fwd.Bwd == BackwardKind::Loss) {
      SymTensor Logits = resolveAlias(Fwd.ActInputs[0]);
      SymTensor GradLogits = gradTensor(Logits);
      Produced.emplace_back(Logits, GradLogits);
      Bwd.ActInputs = {Fwd.ActInputs[0], Fwd.ActInputs[1]};
      Bwd.Outputs = {GradLogits};
      KernelStep K;
      K.Name = "at::native::nll_loss_backward_reduce_cuda_kernel_2d";
      K.Uses = {{Fwd.ActInputs[0], sim::AccessKind::Load, 1.0},
                {Fwd.ActInputs[1], sim::AccessKind::Load, 1.0},
                {GradLogits, sim::AccessKind::Store, 1.0}};
      K.Threads = Prog.Tensors[GradLogits].Shape.numel();
      K.Flops = static_cast<double>(K.Threads) * 3;
      Bwd.Kernels.push_back(std::move(K));
      Ops.push_back(std::move(Bwd));
      for (auto &[T, G] : Produced)
        setGrad(T, G, Layer);
      continue;
    }

    if (Fwd.Outputs.empty())
      continue;
    SymTensor Out = resolveAlias(Fwd.Outputs[0]);
    SymTensor GradOut = GradOf[Out];
    if (GradOut == NoTensor)
      continue; // Dead branch: nothing downstream needed this output.

    Bwd.ActInputs.push_back(GradOut);

    switch (Fwd.Bwd) {
    case BackwardKind::Gemm: {
      // dgrad: gradIn = gradOut @ W^T ; wgrad: gradW = gradOut^T @ actIn.
      SymTensor ActIn = resolveAlias(Fwd.ActInputs[0]);
      bool NeedDgrad = Prog.Tensors[ActIn].Role != TensorRole::Input;
      SymTensor W = Fwd.Weights.empty() ? NoTensor : Fwd.Weights[0];
      if (NeedDgrad && W != NoTensor) {
        SymTensor GradIn = gradTensor(ActIn);
        Produced.emplace_back(ActIn, GradIn);
        Bwd.Outputs.push_back(GradIn);
        Bwd.Weights.push_back(W);
        Bwd.ActInputs.push_back(Fwd.ActInputs[0]);
        Bwd.Kernels.push_back(makeGemmKernel(
            gemmKernelName(Fwd.M, Fwd.K, Fwd.N, "nt"), GradOut, W, GradIn,
            Fwd.M, Fwd.K, Fwd.N));
      } else if (NeedDgrad && W == NoTensor && Fwd.ActInputs.size() >= 2) {
        // Batched matmul of two activations: both get gradients.
        SymTensor A = resolveAlias(Fwd.ActInputs[0]);
        SymTensor B = resolveAlias(Fwd.ActInputs[1]);
        SymTensor GradA = gradTensor(A);
        SymTensor GradB = gradTensor(B);
        Produced.emplace_back(A, GradA);
        Produced.emplace_back(B, GradB);
        Bwd.Outputs.push_back(GradA);
        Bwd.Outputs.push_back(GradB);
        Bwd.ActInputs.push_back(Fwd.ActInputs[0]);
        Bwd.ActInputs.push_back(Fwd.ActInputs[1]);
        Bwd.Kernels.push_back(makeGemmKernel(
            gemmKernelName(Fwd.M, Fwd.K, Fwd.N, "nt"), GradOut, B, GradA,
            Fwd.M, Fwd.K, Fwd.N));
        Bwd.Kernels.push_back(makeGemmKernel(
            gemmKernelName(Fwd.K, Fwd.N, Fwd.M, "tn"), A, GradOut, GradB,
            Fwd.K, Fwd.N, Fwd.M));
      }
      if (W != NoTensor) {
        SymTensor GradW = gradTensor(W);
        Produced.emplace_back(W, GradW);
        Bwd.Outputs.push_back(GradW);
        Bwd.ActInputs.push_back(Fwd.ActInputs[0]);
        Bwd.Kernels.push_back(makeGemmKernel(
            gemmKernelName(Fwd.N, Fwd.K, Fwd.M, "tn"), GradOut,
            Fwd.ActInputs[0], GradW, Fwd.N, Fwd.K, Fwd.M));
        // Bias gradient rides along as a column reduction.
        if (Fwd.Weights.size() >= 2) {
          SymTensor GradBias = gradTensor(Fwd.Weights[1]);
          Produced.emplace_back(resolveAlias(Fwd.Weights[1]), GradBias);
          Bwd.Outputs.push_back(GradBias);
          KernelStep Reduce;
          Reduce.Name = "at::native::reduce_kernel<512, 1, ReduceAdd>";
          Reduce.Uses = {{GradOut, sim::AccessKind::Load, 1.0},
                         {GradBias, sim::AccessKind::Store, 1.0}};
          Reduce.Threads = Prog.Tensors[GradOut].Shape.numel() / 32;
          Reduce.Flops =
              static_cast<double>(Prog.Tensors[GradOut].Shape.numel());
          Bwd.Kernels.push_back(std::move(Reduce));
        }
      }
      break;
    }
    case BackwardKind::Im2col: {
      SymTensor ActIn = resolveAlias(Fwd.ActInputs[0]);
      if (Prog.Tensors[ActIn].Role == TensorRole::Input)
        break;
      SymTensor GradIn = gradTensor(ActIn);
      Produced.emplace_back(ActIn, GradIn);
      Bwd.Outputs.push_back(GradIn);
      KernelStep K;
      K.Name = Opts.Flavor == KernelFlavor::Cudnn
                   ? "at::native::col2im_kernel"
                   : "miopen::Col2Im";
      K.Uses = {{GradOut, sim::AccessKind::Load, 1.0},
                {GradIn, sim::AccessKind::Store, 1.0}};
      K.Threads = Prog.Tensors[GradIn].Shape.numel();
      K.Flops = static_cast<double>(Prog.Tensors[GradOut].Shape.numel());
      Bwd.Kernels.push_back(std::move(K));
      break;
    }
    case BackwardKind::Elementwise: {
      for (SymTensor In : Fwd.ActInputs) {
        SymTensor Base = resolveAlias(In);
        if (Prog.Tensors[Base].Role == TensorRole::Input)
          continue;
        SymTensor GradIn = gradTensor(Base);
        Produced.emplace_back(Base, GradIn);
        Bwd.Outputs.push_back(GradIn);
        Bwd.ActInputs.push_back(In);
        Bwd.Kernels.push_back(makeElementwiseKernel(
            elementwiseKernelName(
                (Fwd.OpName + "_backward_functor").c_str()),
            {GradOut, In}, {GradIn}));
      }
      break;
    }
    case BackwardKind::Pool: {
      SymTensor ActIn = resolveAlias(Fwd.ActInputs[0]);
      SymTensor GradIn = gradTensor(ActIn);
      Produced.emplace_back(ActIn, GradIn);
      Bwd.Outputs.push_back(GradIn);
      Bwd.ActInputs.push_back(Fwd.ActInputs[0]);
      KernelStep K;
      K.Name = Opts.Flavor == KernelFlavor::Cudnn
                   ? "at::native::max_pool_backward_nchw"
                   : "miopen::MaxPoolBwdNCHW";
      K.Uses = {{GradOut, sim::AccessKind::Load, 1.0},
                {Fwd.ActInputs[0], sim::AccessKind::Load, 1.0},
                {GradIn, sim::AccessKind::Store, 1.0}};
      K.Threads = Prog.Tensors[GradIn].Shape.numel();
      K.Flops = static_cast<double>(K.Threads);
      Bwd.Kernels.push_back(std::move(K));
      break;
    }
    case BackwardKind::BatchNorm:
    case BackwardKind::LayerNorm: {
      bool IsBatch = Fwd.Bwd == BackwardKind::BatchNorm;
      SymTensor ActIn = resolveAlias(Fwd.ActInputs[0]);
      SymTensor GradIn = gradTensor(ActIn);
      SymTensor GradScale = gradTensor(Fwd.Weights[0]);
      SymTensor GradBias = gradTensor(Fwd.Weights[1]);
      Produced.emplace_back(ActIn, GradIn);
      Produced.emplace_back(resolveAlias(Fwd.Weights[0]), GradScale);
      Produced.emplace_back(resolveAlias(Fwd.Weights[1]), GradBias);
      Bwd.Outputs = {GradIn, GradScale, GradBias};
      Bwd.ActInputs.push_back(Fwd.ActInputs[0]);
      Bwd.Weights = Fwd.Weights;
      KernelStep Reduce;
      Reduce.Name = IsBatch
                        ? "at::native::batch_norm_backward_reduce_kernel"
                        : "at::native::layer_norm_grad_input_kernel";
      Reduce.Uses = {{GradOut, sim::AccessKind::Load, 1.0},
                     {Fwd.ActInputs[0], sim::AccessKind::Load, 1.0},
                     {GradScale, sim::AccessKind::Store, 1.0},
                     {GradBias, sim::AccessKind::Store, 1.0}};
      Reduce.Threads = Prog.Tensors[ActIn].Shape.numel() / 32;
      Reduce.Flops =
          static_cast<double>(Prog.Tensors[ActIn].Shape.numel()) * 2;
      Reduce.BarriersPerBlock = 6;
      Bwd.Kernels.push_back(std::move(Reduce));
      KernelStep Apply;
      Apply.Name = IsBatch ? "at::native::batch_norm_backward_elemt_kernel"
                           : "at::native::GammaBetaBackwardCUDAKernel";
      Apply.Uses = {{GradOut, sim::AccessKind::Load, 1.0},
                    {Fwd.ActInputs[0], sim::AccessKind::Load, 1.0},
                    {GradIn, sim::AccessKind::Store, 1.0}};
      Apply.Threads = Prog.Tensors[ActIn].Shape.numel();
      Apply.Flops = static_cast<double>(Apply.Threads) * 5;
      Bwd.Kernels.push_back(std::move(Apply));
      break;
    }
    case BackwardKind::Softmax: {
      SymTensor ActIn = resolveAlias(Fwd.ActInputs[0]);
      SymTensor GradIn = gradTensor(ActIn);
      Produced.emplace_back(ActIn, GradIn);
      Bwd.Outputs.push_back(GradIn);
      Bwd.ActInputs.push_back(Fwd.Outputs[0]); // needs forward output
      KernelStep K;
      K.Name = Opts.Flavor == KernelFlavor::Cudnn
                   ? "at::native::softmax_warp_backward"
                   : "at::native::cunn_SoftMaxBackward";
      K.Uses = {{GradOut, sim::AccessKind::Load, 1.0},
                {Fwd.Outputs[0], sim::AccessKind::Load, 1.0},
                {GradIn, sim::AccessKind::Store, 1.0}};
      K.Threads = Prog.Tensors[GradIn].Shape.numel();
      K.Flops = static_cast<double>(K.Threads) * 4;
      K.BarriersPerBlock = 4;
      Bwd.Kernels.push_back(std::move(K));
      break;
    }
    case BackwardKind::Embedding: {
      SymTensor Table = resolveAlias(Fwd.Weights[0]);
      SymTensor GradTable = gradTensor(Table);
      Produced.emplace_back(Table, GradTable);
      Bwd.Outputs.push_back(GradTable);
      Bwd.ActInputs.push_back(Fwd.ActInputs[0]); // ids
      KernelStep K;
      K.Name = "at::native::embedding_dense_backward_kernel";
      K.Uses = {{GradOut, sim::AccessKind::Load, 1.0},
                {Fwd.ActInputs[0], sim::AccessKind::Load, 1.0},
                {GradTable, sim::AccessKind::Store, 1.0}};
      K.Threads = Prog.Tensors[GradOut].Shape.numel();
      K.Flops = static_cast<double>(K.Threads);
      Bwd.Kernels.push_back(std::move(K));
      break;
    }
    case BackwardKind::None:
    case BackwardKind::Loss:
      break;
    }

    if (Bwd.Kernels.empty())
      continue;
    double Flops = 0;
    for (const KernelStep &K : Bwd.Kernels)
      Flops += K.Flops;
    Bwd.Flops = Flops;
    Ops.push_back(std::move(Bwd));
    for (auto &[T, G] : Produced)
      setGrad(T, G, Layer);
  }
}

void ScheduleBuilder::synthesizeOptimizer() {
  // SGD-with-momentum step over every weight that received a gradient,
  // batched like PyTorch's foreach/multi_tensor_apply (32 params/kernel).
  static constexpr std::size_t ParamsPerKernel = 32;
  std::vector<SymTensor> Pending;
  for (SymTensor W : PersistentWeights)
    if (GradOf[W] != NoTensor)
      Pending.push_back(W);
  if (Pending.empty())
    return;

  // Momentum buffers are persistent: allocated once, ahead of the
  // replayed iterations.
  for (SymTensor W : Pending) {
    SymTensor M = declare(Prog.Tensors[W].Name + ".momentum",
                          Prog.Tensors[W].Shape, Prog.Tensors[W].Type,
                          TensorRole::OptState);
    WeightMomentum.emplace_back(W, M);
  }

  for (std::size_t Begin = 0; Begin < Pending.size();
       Begin += ParamsPerKernel) {
    std::size_t End = std::min(Begin + ParamsPerKernel, Pending.size());
    OpIR Op;
    Op.OpName = "optim::sgd_step";
    Op.LayerName = "optimizer";
    Op.Phase = ExecPhase::Optimizer;
    KernelStep K;
    K.Name = "at::native::multi_tensor_apply_kernel<SGDMomentum>";
    std::uint64_t Elems = 0;
    for (std::size_t I = Begin; I < End; ++I) {
      auto [W, M] = WeightMomentum[I];
      SymTensor G = GradOf[W];
      Op.Weights.push_back(W);
      Op.ActInputs.push_back(G);
      K.Uses.push_back({G, sim::AccessKind::Load, 1.0});
      K.Uses.push_back({W, sim::AccessKind::Store, 1.0});
      K.Uses.push_back({M, sim::AccessKind::Store, 1.0});
      Elems += Prog.Tensors[W].Shape.numel();
    }
    K.Threads = Elems;
    K.Flops = static_cast<double>(Elems) * 4;
    Op.Kernels.push_back(std::move(K));
    Op.Flops = Op.Kernels.front().Flops;
    Ops.push_back(std::move(Op));
  }
}

//===----------------------------------------------------------------------===//
// Lowering
//===----------------------------------------------------------------------===//

std::vector<std::string>
ScheduleBuilder::pythonStackFor(const OpIR &Op) const {
  std::vector<std::string> Stack;
  if (Op.Phase == ExecPhase::Forward) {
    Stack.push_back(
        format("torch/nn/modules/functional.py:421 def %s()",
               Op.OpName.c_str()));
    Stack.push_back("torch/nn/modules/module.py:1527 def _call_impl()");
    Stack.push_back("torch/nn/modules/module.py:1518 def "
                    "_wrapped_call_impl()");
    Stack.push_back(format("models/%s/model.py:88 def forward()  # %s",
                           ModelName.c_str(), Op.LayerName.c_str()));
    Stack.push_back(format("models/%s/run_%s.py:146 def run()",
                           ModelName.c_str(), ModelName.c_str()));
  } else if (Op.Phase == ExecPhase::Backward) {
    Stack.push_back(
        "torch/autograd/graph.py:768 def _engine_run_backward()");
    Stack.push_back("torch/_tensor.py:522 def backward()");
    Stack.push_back(format("models/%s/train.py:93 def train_step()",
                           ModelName.c_str()));
  } else {
    Stack.push_back("torch/optim/sgd.py:80 def step()");
    Stack.push_back(format("models/%s/train.py:97 def train_step()",
                           ModelName.c_str()));
  }
  Stack.push_back(format("models/%s/run_%s.py:177 def <module>()",
                         ModelName.c_str(), ModelName.c_str()));
  return Stack;
}

void ScheduleBuilder::lowerIteration() {
  // Last use per storage tensor across this iteration's ops (inputs and
  // outputs both count: e.g. softmax backward re-reads a forward output).
  std::unordered_map<SymTensor, std::size_t> LastUse;
  for (std::size_t I = 0; I < Ops.size(); ++I) {
    for (SymTensor T : Ops[I].ActInputs)
      LastUse[resolveAlias(T)] = I;
    for (SymTensor T : Ops[I].Outputs)
      LastUse[resolveAlias(T)] = I;
    for (const KernelStep &K : Ops[I].Kernels)
      for (const KernelUse &U : K.Uses)
        LastUse[resolveAlias(U.Tensor)] = I;
  }

  auto IsIterationScoped = [&](SymTensor T) {
    TensorRole Role = Prog.Tensors[T].Role;
    return Role != TensorRole::Weight && Role != TensorRole::OptState;
  };

  Step Iter;
  Iter.Kind = StepKind::IterBegin;
  Prog.Iteration.push_back(Iter);

  std::vector<SymTensor> Alive;
  std::string OpenLayer;
  bool PhaseOpen = false;
  ExecPhase CurrentPhase = ExecPhase::Forward;

  auto CloseLayer = [&] {
    if (OpenLayer.empty())
      return;
    Step S;
    S.Kind = StepKind::LayerEnd;
    S.Name = OpenLayer;
    Prog.Iteration.push_back(std::move(S));
    OpenLayer.clear();
  };
  auto ClosePhase = [&] {
    if (!PhaseOpen)
      return;
    CloseLayer();
    Step S;
    S.Kind = StepKind::PhaseEnd;
    S.Phase = CurrentPhase;
    Prog.Iteration.push_back(std::move(S));
    PhaseOpen = false;
  };

  for (std::size_t I = 0; I < Ops.size(); ++I) {
    const OpIR &Op = Ops[I];

    if (!PhaseOpen || Op.Phase != CurrentPhase) {
      ClosePhase();
      CurrentPhase = Op.Phase;
      Step S;
      S.Kind = StepKind::PhaseBegin;
      S.Phase = CurrentPhase;
      Prog.Iteration.push_back(std::move(S));
      PhaseOpen = true;
    }
    if (Op.LayerName != OpenLayer) {
      CloseLayer();
      if (!Op.LayerName.empty()) {
        Step S;
        S.Kind = StepKind::LayerBegin;
        S.Name = Op.LayerName;
        Prog.Iteration.push_back(std::move(S));
        OpenLayer = Op.LayerName;
      }
    }

    Step Begin;
    Begin.Kind = StepKind::OpBegin;
    Begin.Name = Op.OpName;
    Begin.LayerName = Op.LayerName;
    Begin.Phase = Op.Phase;
    Begin.PythonStack = pythonStackFor(Op);
    Prog.Iteration.push_back(std::move(Begin));

    for (SymTensor T : Op.Outputs) {
      SymTensor Base = resolveAlias(T);
      if (Base != T)
        continue; // views allocate nothing
      Step Alloc;
      Alloc.Kind = StepKind::Alloc;
      Alloc.Tensor = Base;
      Prog.Iteration.push_back(std::move(Alloc));
      Alive.push_back(Base);
    }

    if (Op.H2DBytes > 0) {
      Step Copy;
      Copy.Kind = StepKind::CopyH2D;
      Copy.Bytes = Op.H2DBytes;
      Prog.Iteration.push_back(std::move(Copy));
    }

    for (const KernelStep &K : Op.Kernels) {
      Step S;
      S.Kind = StepKind::Kernel;
      S.Name = K.Name;
      S.LayerName = Op.LayerName;
      S.Phase = Op.Phase;
      S.Kernel = K;
      // Kernels must reference storage tensors, not views: the executor
      // resolves operands to device addresses.
      for (KernelUse &U : S.Kernel.Uses)
        U.Tensor = resolveAlias(U.Tensor);
      Prog.Iteration.push_back(std::move(S));
    }

    Step End;
    End.Kind = StepKind::OpEnd;
    End.Name = Op.OpName;
    End.LayerName = Op.LayerName;
    End.Phase = Op.Phase;
    Prog.Iteration.push_back(std::move(End));

    // Free iteration-scoped tensors whose last use just executed.
    for (auto It = Alive.begin(); It != Alive.end();) {
      SymTensor T = *It;
      auto Found = LastUse.find(T);
      bool Dead = Found != LastUse.end() && Found->second == I &&
                  IsIterationScoped(T);
      if (!Dead) {
        ++It;
        continue;
      }
      Step FreeStep;
      FreeStep.Kind = StepKind::Free;
      FreeStep.Tensor = T;
      Prog.Iteration.push_back(std::move(FreeStep));
      It = Alive.erase(It);
    }
  }
  ClosePhase();

  // Anything still alive (e.g. final logits in inference) dies with the
  // iteration.
  for (SymTensor T : Alive) {
    if (!IsIterationScoped(T))
      continue;
    Step FreeStep;
    FreeStep.Kind = StepKind::Free;
    FreeStep.Tensor = T;
    Prog.Iteration.push_back(std::move(FreeStep));
  }

  Step IterEnd;
  IterEnd.Kind = StepKind::IterEnd;
  Prog.Iteration.push_back(IterEnd);
}

void ScheduleBuilder::endIteration() {
  assert(InIteration && "endIteration without beginIteration");
  if (Opts.Training)
    synthesizeBackward();
  // Everything declared so far belongs to the iteration; the momentum
  // buffers synthesizeOptimizer() declares next are persistent.
  Prog.IterTensors =
      static_cast<std::uint32_t>(Prog.Tensors.size() - Prog.IterFirst);
  if (Opts.Training)
    synthesizeOptimizer();
  // Momentum buffers are allocated once, before the first iteration
  // references them.
  for (auto &[W, M] : WeightMomentum) {
    Step Alloc;
    Alloc.Kind = StepKind::Alloc;
    Alloc.Tensor = M;
    Prog.Head.push_back(std::move(Alloc));
  }
  lowerIteration();
  Ops.clear();
  InIteration = false;
  Lowered = true;
}

Program ScheduleBuilder::finish() {
  assert(!InIteration && "finish() inside an iteration");
  // Release persistent state at program end.
  for (auto &[W, M] : WeightMomentum) {
    Step FreeStep;
    FreeStep.Kind = StepKind::Free;
    FreeStep.Tensor = M;
    Prog.Tail.push_back(std::move(FreeStep));
  }
  for (SymTensor W : PersistentWeights) {
    Step FreeStep;
    FreeStep.Kind = StepKind::Free;
    FreeStep.Tensor = W;
    Prog.Tail.push_back(std::move(FreeStep));
  }
  Prog.KernelsPerIteration = static_cast<std::uint64_t>(
      std::count_if(Prog.Iteration.begin(), Prog.Iteration.end(),
                    [](const Step &S) { return S.Kind == StepKind::Kernel; }));
  return std::move(Prog);
}
