//===- dl/Builder.h - Model schedule builder --------------------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ScheduleBuilder turns model definitions into lowered Programs: the
/// persistent tensors, one iteration lowered once, and the count the
/// Executor replays it (see Schedule.h). Model zoo code calls NN-level
/// helpers (conv2d, linear, attention blocks are composed in Models.cpp
/// from these primitives) between one beginIteration/endIteration pair;
/// the builder
///
///  * decomposes each primitive into backend-flavoured kernels (cuDNN-like
///    fusion vs MIOpen-like decomposition — the divergence paper Fig. 14
///    observes),
///  * synthesizes the backward pass and optimizer step for training runs,
///  * computes tensor lifetimes (activations die after their last use,
///    which for training is their consuming backward op), and
///  * emits operator/layer/phase boundaries with simulated Python stacks
///    so PASTA's DL-framework events have realistic payloads.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_DL_BUILDER_H
#define PASTA_DL_BUILDER_H

#include "dl/Backend.h"
#include "dl/Schedule.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace pasta {
namespace dl {

/// How a primitive op's backward pass is synthesized.
enum class BackwardKind : std::uint8_t {
  None,
  Gemm,       ///< dgrad + wgrad GEMMs.
  Im2col,     ///< col2im.
  Elementwise,///< single pointwise backward kernel.
  Pool,
  BatchNorm,
  LayerNorm,
  Softmax,
  Embedding,  ///< wgrad only.
  Loss,       ///< produces the seed gradient.
};

/// Builds one Program. See file comment for responsibilities.
class ScheduleBuilder {
public:
  struct Options {
    KernelFlavor Flavor = KernelFlavor::Cudnn;
    bool Training = false;
    /// How many times the Executor replays the one lowered iteration.
    int Iterations = 1;
  };

  ScheduleBuilder(std::string ModelName, Options Opts);

  //===--------------------------------------------------------------------===
  // Declarations (before the iteration)
  //===--------------------------------------------------------------------===

  /// Declares a persistent parameter tensor (allocated up front).
  SymTensor weight(const std::string &Name, TensorShape Shape,
                   DataType Type = DataType::F32);

  //===--------------------------------------------------------------------===
  // Iteration control: a Program has exactly one lowered iteration.
  //===--------------------------------------------------------------------===

  void beginIteration();
  /// Declares + stages (H2D copy) a fresh mini-batch tensor.
  SymTensor input(const std::string &Name, TensorShape Shape,
                  DataType Type = DataType::F32);
  /// Closes the iteration: emits backward + optimizer when training, then
  /// frees every remaining iteration-scoped tensor, and lowers it.
  void endIteration();

  //===--------------------------------------------------------------------===
  // NN primitives (between beginIteration/endIteration)
  //===--------------------------------------------------------------------===

  /// y = x @ W^T (+ bias). cuDNN flavour fuses the bias into the GEMM
  /// epilogue; MIOpen flavour emits a separate bias kernel.
  SymTensor linear(const std::string &Layer, SymTensor X, SymTensor W,
                   SymTensor Bias, std::int64_t OutFeatures);

  /// NCHW convolution. 3x3/stride-1 convs take the fused Winograd path on
  /// the cuDNN flavour; everything else is im2col + GEMM (+ bias/act).
  SymTensor conv2d(const std::string &Layer, SymTensor X, SymTensor W,
                   SymTensor Bias, std::int64_t OutChannels,
                   std::int64_t KernelSize, std::int64_t Stride,
                   std::int64_t Padding, bool FuseRelu);

  SymTensor relu(const std::string &Layer, SymTensor X);
  SymTensor gelu(const std::string &Layer, SymTensor X);
  SymTensor add(const std::string &Layer, SymTensor A, SymTensor B);
  SymTensor dropout(const std::string &Layer, SymTensor X, double P);
  SymTensor maxPool2d(const std::string &Layer, SymTensor X,
                      std::int64_t Kernel, std::int64_t Stride);
  SymTensor adaptiveAvgPool2d(const std::string &Layer, SymTensor X,
                              std::int64_t OutHW);
  SymTensor batchNorm2d(const std::string &Layer, SymTensor X,
                        SymTensor Scale, SymTensor Bias);
  SymTensor layerNorm(const std::string &Layer, SymTensor X,
                      SymTensor Scale, SymTensor Bias);
  SymTensor softmax(const std::string &Layer, SymTensor X);
  /// Gather rows of \p Table by \p Ids.
  SymTensor embedding(const std::string &Layer, SymTensor Ids,
                      SymTensor Table);
  /// Batched Q@K^T or P@V matmul over \p Batch independent matrices.
  SymTensor batchedMatmul(const std::string &Layer, SymTensor A, SymTensor B,
                          std::int64_t Batch, std::int64_t M, std::int64_t N,
                          std::int64_t K, TensorShape OutShape);
  /// Permute/reshape materialized as a copy kernel.
  SymTensor permute(const std::string &Layer, SymTensor X, TensorShape Out);
  /// Reduces logits + targets to a scalar loss (backward seed).
  SymTensor crossEntropyLoss(const std::string &Layer, SymTensor Logits,
                             SymTensor Targets);

  /// Reshape-only view (no kernel, no new storage).
  SymTensor reshape(SymTensor X, TensorShape NewShape);

  /// Marks layer boundaries (emitted as LayerBegin/LayerEnd steps).
  void beginLayer(const std::string &Name);
  void endLayer();

  //===--------------------------------------------------------------------===
  // Finalization
  //===--------------------------------------------------------------------===

  Program finish();

  const TensorDecl &decl(SymTensor T) const { return Prog.Tensors[T]; }
  KernelFlavor flavor() const { return Opts.Flavor; }
  bool training() const { return Opts.Training; }

private:
  /// Builder-internal operator record; lowered to Steps at endIteration.
  struct OpIR {
    std::string OpName;
    std::string LayerName;
    ExecPhase Phase = ExecPhase::Forward;
    BackwardKind Bwd = BackwardKind::None;
    std::vector<SymTensor> ActInputs; ///< consumed activations/workspaces
    std::vector<SymTensor> Weights;
    std::vector<SymTensor> Outputs;   ///< produced activations
    std::vector<KernelStep> Kernels;
    double Flops = 0.0;
    /// GEMM geometry, recorded for backward synthesis.
    std::int64_t M = 0, N = 0, K = 0;
    /// Host-to-device staging bytes (input ops).
    std::uint64_t H2DBytes = 0;
  };

  SymTensor declare(const std::string &Name, TensorShape Shape,
                    DataType Type, TensorRole Role,
                    std::size_t IterPos = std::string::npos);

  /// Appends a forward OpIR (and remembers it for backward synthesis).
  SymTensor pushOp(OpIR Op);

  /// GEMM kernel naming per flavour and problem size.
  std::string gemmKernelName(std::int64_t M, std::int64_t N, std::int64_t K,
                             const char *Trans) const;
  std::string elementwiseKernelName(const char *What) const;

  KernelStep makeGemmKernel(const std::string &Name, SymTensor A, SymTensor B,
                            SymTensor C, std::int64_t M, std::int64_t N,
                            std::int64_t K,
                            std::vector<SymTensor> ExtraReads = {});
  KernelStep makeElementwiseKernel(const std::string &Name,
                                   std::vector<SymTensor> Reads,
                                   std::vector<SymTensor> Writes,
                                   double FlopsPerElt = 1.0);

  /// Synthesizes backward OpIRs for the recorded forward ops of the
  /// iteration, then the optimizer step; appends them to Ops.
  void synthesizeBackward();
  void synthesizeOptimizer();

  /// Lowers the iteration's OpIR list into Program::Iteration with
  /// lifetime analysis.
  void lowerIteration();

  std::vector<std::string> pythonStackFor(const OpIR &Op) const;

  /// Follows view aliases to the owning storage tensor.
  SymTensor resolveAlias(SymTensor T) const;

  /// Declares (or returns) the gradient tensor of \p T.
  SymTensor gradTensor(SymTensor T);

  /// Registers \p Grad as the gradient of \p T, emitting an accumulation
  /// op when a gradient already exists (residual branches).
  void setGrad(SymTensor T, SymTensor Grad, const std::string &Layer);

  std::string ModelName;
  Options Opts;
  Program Prog;
  /// Ops of the iteration (forward + synthesized backward/opt).
  std::vector<OpIR> Ops;
  /// Index of the forward-op subrange of Ops (before backward synthesis).
  std::size_t NumForwardOps = 0;
  /// Gradient tensor of each forward tensor (training).
  std::vector<SymTensor> GradOf;
  /// Momentum state per weight (training).
  std::vector<std::pair<SymTensor, SymTensor>> WeightMomentum;
  std::vector<SymTensor> PersistentWeights;
  /// View tensors -> owning storage tensor.
  std::unordered_map<SymTensor, SymTensor> Aliases;
  std::string CurrentLayer;
  bool InIteration = false;
  /// The one iteration has been lowered.
  bool Lowered = false;
};

} // namespace dl
} // namespace pasta

#endif // PASTA_DL_BUILDER_H
