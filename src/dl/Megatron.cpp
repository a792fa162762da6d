//===- dl/Megatron.cpp ----------------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "dl/Megatron.h"

#include "dl/Builder.h"
#include "support/ErrorHandling.h"
#include "support/Format.h"

#include <cassert>

using namespace pasta;
using namespace pasta::dl;

const char *pasta::dl::parallelStrategyName(ParallelStrategy Strategy) {
  switch (Strategy) {
  case ParallelStrategy::Data:
    return "DP";
  case ParallelStrategy::Tensor:
    return "TP";
  case ParallelStrategy::Pipeline:
    return "PP";
  }
  return "?";
}

namespace {

/// Per-layer weights; shapes depend on the tensor-parallel shard factor.
struct LayerWeights {
  SymTensor QkvW, QkvB, ProjW, ProjB;
  SymTensor Ln1Scale, Ln1Bias, Ln2Scale, Ln2Bias;
  SymTensor Fc1W, Fc1B, Fc2W, Fc2B;
};

LayerWeights declLayer(ScheduleBuilder &B, const std::string &Name,
                       std::int64_t Hidden, std::int64_t Shard) {
  LayerWeights W;
  // Column-parallel QKV/FC1, row-parallel Proj/FC2 (Megatron's split).
  W.QkvW = B.weight(Name + ".qkv.weight",
                    TensorShape({3 * Hidden / Shard, Hidden}));
  W.QkvB = B.weight(Name + ".qkv.bias", TensorShape({3 * Hidden / Shard}));
  W.ProjW = B.weight(Name + ".proj.weight",
                     TensorShape({Hidden, Hidden / Shard}));
  W.ProjB = B.weight(Name + ".proj.bias", TensorShape({Hidden}));
  W.Ln1Scale = B.weight(Name + ".ln1.weight", TensorShape({Hidden}));
  W.Ln1Bias = B.weight(Name + ".ln1.bias", TensorShape({Hidden}));
  W.Ln2Scale = B.weight(Name + ".ln2.weight", TensorShape({Hidden}));
  W.Ln2Bias = B.weight(Name + ".ln2.bias", TensorShape({Hidden}));
  W.Fc1W = B.weight(Name + ".fc1.weight",
                    TensorShape({4 * Hidden / Shard, Hidden}));
  W.Fc1B = B.weight(Name + ".fc1.bias", TensorShape({4 * Hidden / Shard}));
  W.Fc2W = B.weight(Name + ".fc2.weight",
                    TensorShape({Hidden, 4 * Hidden / Shard}));
  W.Fc2B = B.weight(Name + ".fc2.bias", TensorShape({Hidden}));
  return W;
}

/// Emits an NCCL-style all-reduce over \p T (communication kernel reading
/// and writing the tensor, plus a small latency-bound launch).
void allReduce(ScheduleBuilder &B, const std::string &Name, SymTensor T) {
  // Modeled as an in-place elementwise pass over the buffer; NCCL ring
  // all-reduce moves 2(n-1)/n of the data per rank, which for n=2 is 1x.
  B.beginLayer(Name);
  // An elementwise op re-using the builder machinery keeps the tensor
  // alive through the communication point.
  SymTensor Reduced = B.add(Name, T, T);
  (void)Reduced;
}

/// One transformer layer; \p Shard > 1 emits TP all-reduces.
SymTensor transformerLayer(ScheduleBuilder &B, const std::string &Name,
                           SymTensor X, const LayerWeights &W,
                           const MegatronConfig &C, std::int64_t Shard) {
  std::int64_t HeadsLocal = C.Heads / Shard;
  std::int64_t HeadDim = C.Hidden / C.Heads;
  std::int64_t LocalHidden = C.Hidden / Shard;
  std::int64_t Batch = C.MicroBatch;
  std::int64_t Seq = C.Seq;

  B.beginLayer(Name + ".attn");
  SymTensor Norm = B.layerNorm(Name + ".ln1", X, W.Ln1Scale, W.Ln1Bias);
  SymTensor Qkv =
      B.linear(Name + ".qkv", Norm, W.QkvW, W.QkvB, 3 * LocalHidden);
  SymTensor Q = B.permute(Name + ".q", Qkv,
                          TensorShape({Batch * HeadsLocal, Seq, HeadDim}));
  SymTensor K = B.permute(Name + ".k", Qkv,
                          TensorShape({Batch * HeadsLocal, Seq, HeadDim}));
  SymTensor V = B.permute(Name + ".v", Qkv,
                          TensorShape({Batch * HeadsLocal, Seq, HeadDim}));
  SymTensor Scores =
      B.batchedMatmul(Name + ".qk", Q, K, Batch * HeadsLocal, Seq, Seq,
                      HeadDim, TensorShape({Batch * HeadsLocal, Seq, Seq}));
  SymTensor Probs = B.softmax(Name + ".softmax", Scores);
  SymTensor Ctx =
      B.batchedMatmul(Name + ".pv", Probs, V, Batch * HeadsLocal, Seq,
                      HeadDim, Seq,
                      TensorShape({Batch * HeadsLocal, Seq, HeadDim}));
  SymTensor Merged =
      B.permute(Name + ".merge", Ctx,
                TensorShape({Batch, Seq, LocalHidden}));
  SymTensor AttnOut =
      B.linear(Name + ".proj", Merged, W.ProjW, W.ProjB, C.Hidden);
  if (Shard > 1)
    allReduce(B, Name + ".attn_allreduce", AttnOut);
  SymTensor Res1 = B.add(Name + ".residual1", AttnOut, X);

  B.beginLayer(Name + ".mlp");
  SymTensor Norm2 = B.layerNorm(Name + ".ln2", Res1, W.Ln2Scale, W.Ln2Bias);
  SymTensor Up =
      B.linear(Name + ".fc1", Norm2, W.Fc1W, W.Fc1B, 4 * C.Hidden / Shard);
  SymTensor Act = B.gelu(Name + ".gelu", Up);
  SymTensor Down = B.linear(Name + ".fc2", Act, W.Fc2W, W.Fc2B, C.Hidden);
  if (Shard > 1)
    allReduce(B, Name + ".mlp_allreduce", Down);
  return B.add(Name + ".residual2", Down, Res1);
}

Program buildRank(ParallelStrategy Strategy, const MegatronConfig &C,
                  int Rank) {
  ScheduleBuilder::Options Opts;
  Opts.Flavor = KernelFlavor::Cudnn;
  Opts.Training = true;
  Opts.Iterations = C.Iterations;
  ScheduleBuilder B(format("megatron_gpt2_345m_%s_rank%d",
                           parallelStrategyName(Strategy), Rank),
                    Opts);

  std::int64_t Shard = Strategy == ParallelStrategy::Tensor ? C.NumGpus : 1;
  std::int64_t FirstLayer = 0, NumLayers = C.Layers;
  bool HasEmbedding = true, HasHead = true;
  if (Strategy == ParallelStrategy::Pipeline) {
    // Split at the midpoint of the transformer block stack (paper §V-D2).
    NumLayers = C.Layers / C.NumGpus;
    FirstLayer = Rank * NumLayers;
    HasEmbedding = Rank == 0;
    HasHead = Rank == C.NumGpus - 1;
  }

  SymTensor Wte = NoTensor, Wpe = NoTensor;
  if (HasEmbedding) {
    Wte = B.weight("wte", TensorShape({C.Vocab, C.Hidden}));
    Wpe = B.weight("wpe", TensorShape({C.Seq, C.Hidden}));
  }
  std::vector<LayerWeights> Layers;
  for (std::int64_t L = 0; L < NumLayers; ++L)
    Layers.push_back(declLayer(
        B, format("h.%lld", (long long)(FirstLayer + L)), C.Hidden, Shard));
  SymTensor LnfScale = NoTensor, LnfBias = NoTensor, HeadW = NoTensor;
  if (HasHead) {
    LnfScale = B.weight("ln_f.weight", TensorShape({C.Hidden}));
    LnfBias = B.weight("ln_f.bias", TensorShape({C.Hidden}));
    // TP shards the (tied) LM head over the vocab dimension.
    HeadW = B.weight("lm_head.weight",
                     TensorShape({C.Vocab / Shard, C.Hidden}));
  }
  // Persistent communication buckets — the longer-lived tensors the paper
  // notes distinguish Megatron-LM's memory behaviour (§V-D2).
  SymTensor CommBucket = B.weight(
      "comm.grad_bucket",
      TensorShape({Strategy == ParallelStrategy::Data ? 64 * 1024 * 1024
                                                      : 16 * 1024 * 1024}));

  B.beginIteration();
  SymTensor X;
  if (HasEmbedding) {
    SymTensor Ids = B.input("input_ids", TensorShape({C.MicroBatch, C.Seq}),
                            DataType::I64);
    B.beginLayer("embeddings");
    SymTensor Tok = B.embedding("wte", Ids, Wte);
    SymTensor Pos = B.embedding("wpe", Ids, Wpe);
    X = B.add("embed_add", Tok, Pos);
  } else {
    // Pipeline boundary: activations arrive from the previous stage.
    X = B.input("pp_recv_activation",
                TensorShape({C.MicroBatch, C.Seq, C.Hidden}));
  }

  for (std::int64_t L = 0; L < NumLayers; ++L)
    X = transformerLayer(
        B, format("h.%lld", (long long)(FirstLayer + L)), X, Layers[L], C,
        Shard);

  if (HasHead) {
    B.beginLayer("lm_head");
    X = B.layerNorm("ln_f", X, LnfScale, LnfBias);
    SymTensor Logits = B.linear("lm_head", X, HeadW, NoTensor,
                                C.Vocab / Shard);
    SymTensor Targets = B.input(
        "labels", TensorShape({C.MicroBatch, C.Seq}), DataType::I64);
    B.crossEntropyLoss("loss", Logits, Targets);
  } else {
    // Pipeline boundary: ship activations to the next stage. The send
    // is modeled as a device-to-device style copy kernel over X.
    B.beginLayer("pp_send");
    B.permute("pp_send_activation", X,
              TensorShape({C.MicroBatch, C.Seq, C.Hidden}));
  }
  B.endIteration();
  (void)CommBucket;
  return B.finish();
}

} // namespace

std::vector<Program>
pasta::dl::buildMegatronGpt2(ParallelStrategy Strategy,
                             const MegatronConfig &Config) {
  assert(Config.NumGpus == 2 && "the mini-Megatron models exactly 2 GPUs");
  assert(Config.Layers % Config.NumGpus == 0 &&
         "pipeline split requires an even layer count");
  std::vector<Program> Programs;
  for (int Rank = 0; Rank < Config.NumGpus; ++Rank)
    Programs.push_back(buildRank(Strategy, Config, Rank));
  return Programs;
}
