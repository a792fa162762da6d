//===- dl/Models.cpp ------------------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "dl/Models.h"

#include "support/ErrorHandling.h"
#include "support/Format.h"

#include <cassert>

using namespace pasta;
using namespace pasta::dl;

const std::vector<ModelConfig> &pasta::dl::modelZoo() {
  static const std::vector<ModelConfig> Zoo = {
      {"alexnet", "AN", "CNN", 8, 128, 80, 60},
      {"resnet18", "RN-18", "CNN", 18, 32, 20, 7},
      {"resnet34", "RN-34", "CNN", 34, 32, 20, 7},
      {"gpt2", "GPT-2", "Transformer", 12, 8, 3, 3},
      {"bert", "BERT", "Transformer", 12, 16, 2, 1},
      {"whisper", "Whisper", "Transformer", 12, 16, 1, 1},
  };
  return Zoo;
}

const ModelConfig &pasta::dl::modelConfigByName(const std::string &Name) {
  for (const ModelConfig &Config : modelZoo())
    if (Config.Name == Name || Config.Abbrev == Name)
      return Config;
  reportFatalError("unknown model: " + Name);
}

//===----------------------------------------------------------------------===//
// CNN builders
//===----------------------------------------------------------------------===//

namespace {

/// Weight handles for one convolution (+ optional batch norm).
struct ConvW {
  SymTensor W = NoTensor;
  SymTensor B = NoTensor;
  SymTensor BnScale = NoTensor;
  SymTensor BnBias = NoTensor;
};

ConvW declConv(ScheduleBuilder &B, const std::string &Name,
               std::int64_t OutC, std::int64_t InC, std::int64_t K,
               bool WithBias, bool WithBn) {
  ConvW W;
  W.W = B.weight(Name + ".weight", TensorShape({OutC, InC, K, K}));
  if (WithBias)
    W.B = B.weight(Name + ".bias", TensorShape({OutC}));
  if (WithBn) {
    W.BnScale = B.weight(Name + ".bn.weight", TensorShape({OutC}));
    W.BnBias = B.weight(Name + ".bn.bias", TensorShape({OutC}));
  }
  return W;
}

struct LinearW {
  SymTensor W = NoTensor;
  SymTensor B = NoTensor;
};

LinearW declLinear(ScheduleBuilder &B, const std::string &Name,
                   std::int64_t OutF, std::int64_t InF) {
  LinearW W;
  W.W = B.weight(Name + ".weight", TensorShape({OutF, InF}));
  W.B = B.weight(Name + ".bias", TensorShape({OutF}));
  return W;
}

Program buildAlexNet(const ModelConfig &Config,
                     ScheduleBuilder::Options Opts) {
  ScheduleBuilder B("alexnet", Opts);
  std::int64_t Batch = Config.BatchSize;

  ConvW C1 = declConv(B, "features.0", 64, 3, 11, true, false);
  ConvW C2 = declConv(B, "features.3", 192, 64, 5, true, false);
  ConvW C3 = declConv(B, "features.6", 384, 192, 3, true, false);
  ConvW C4 = declConv(B, "features.8", 256, 384, 3, true, false);
  ConvW C5 = declConv(B, "features.10", 256, 256, 3, true, false);
  LinearW F1 = declLinear(B, "classifier.1", 4096, 256 * 6 * 6);
  LinearW F2 = declLinear(B, "classifier.4", 4096, 4096);
  LinearW F3 = declLinear(B, "classifier.6", 1000, 4096);

  B.beginIteration();
  SymTensor X = B.input("images", TensorShape({Batch, 3, 224, 224}));

  B.beginLayer("features.0");
  X = B.conv2d("features.0", X, C1.W, C1.B, 64, 11, 4, 2, true);
  X = B.maxPool2d("features.2", X, 3, 2);
  B.beginLayer("features.3");
  X = B.conv2d("features.3", X, C2.W, C2.B, 192, 5, 1, 2, true);
  X = B.maxPool2d("features.5", X, 3, 2);
  B.beginLayer("features.6");
  X = B.conv2d("features.6", X, C3.W, C3.B, 384, 3, 1, 1, true);
  B.beginLayer("features.8");
  X = B.conv2d("features.8", X, C4.W, C4.B, 256, 3, 1, 1, true);
  B.beginLayer("features.10");
  X = B.conv2d("features.10", X, C5.W, C5.B, 256, 3, 1, 1, true);
  X = B.maxPool2d("features.12", X, 3, 2);

  B.beginLayer("classifier");
  X = B.reshape(X, TensorShape({Batch, 256 * 6 * 6}));
  X = B.dropout("classifier.0", X, 0.5);
  X = B.linear("classifier.1", X, F1.W, F1.B, 4096);
  X = B.relu("classifier.2", X);
  X = B.dropout("classifier.3", X, 0.5);
  X = B.linear("classifier.4", X, F2.W, F2.B, 4096);
  X = B.relu("classifier.5", X);
  SymTensor Logits = B.linear("classifier.6", X, F3.W, F3.B, 1000);
  B.endLayer();

  if (Opts.Training) {
    SymTensor Targets =
        B.input("targets", TensorShape({Batch}), DataType::I64);
    B.crossEntropyLoss("loss", Logits, Targets);
  }
  B.endIteration();
  return B.finish();
}

/// One ResNet basic block (two 3x3 convs + optional downsample).
SymTensor basicBlock(ScheduleBuilder &B, const std::string &Name,
                     SymTensor X, const ConvW &Conv1, const ConvW &Conv2,
                     const ConvW *Down, std::int64_t Channels,
                     std::int64_t Stride) {
  B.beginLayer(Name);
  SymTensor Identity = X;
  SymTensor Y =
      B.conv2d(Name + ".conv1", X, Conv1.W, NoTensor, Channels, 3, Stride,
               1, false);
  Y = B.batchNorm2d(Name + ".bn1", Y, Conv1.BnScale, Conv1.BnBias);
  Y = B.relu(Name + ".relu1", Y);
  Y = B.conv2d(Name + ".conv2", Y, Conv2.W, NoTensor, Channels, 3, 1, 1,
               false);
  Y = B.batchNorm2d(Name + ".bn2", Y, Conv2.BnScale, Conv2.BnBias);
  if (Down) {
    Identity = B.conv2d(Name + ".downsample", X, Down->W, NoTensor,
                        Channels, 1, Stride, 0, false);
    Identity = B.batchNorm2d(Name + ".downsample.bn", Identity,
                             Down->BnScale, Down->BnBias);
  }
  Y = B.add(Name + ".add", Y, Identity);
  Y = B.relu(Name + ".relu2", Y);
  return Y;
}

Program buildResNet(const ModelConfig &Config, ScheduleBuilder::Options Opts,
                    const std::vector<int> &BlocksPerStage) {
  ScheduleBuilder B(Config.Name, Opts);
  std::int64_t Batch = Config.BatchSize;
  const std::int64_t StageChannels[4] = {64, 128, 256, 512};

  ConvW Stem = declConv(B, "conv1", 64, 3, 7, false, true);
  struct BlockW {
    ConvW Conv1, Conv2;
    ConvW Down;
    bool HasDown = false;
  };
  std::vector<std::vector<BlockW>> Stages;
  std::int64_t InC = 64;
  for (int Stage = 0; Stage < 4; ++Stage) {
    std::vector<BlockW> Blocks;
    std::int64_t C = StageChannels[Stage];
    for (int Blk = 0; Blk < BlocksPerStage[Stage]; ++Blk) {
      BlockW W;
      std::string Name = format("layer%d.%d", Stage + 1, Blk);
      W.Conv1 = declConv(B, Name + ".conv1", C, Blk == 0 ? InC : C, 3,
                         false, true);
      W.Conv2 = declConv(B, Name + ".conv2", C, C, 3, false, true);
      if (Blk == 0 && (Stage > 0 || InC != C)) {
        W.Down = declConv(B, Name + ".downsample", C, InC, 1, false, true);
        W.HasDown = true;
      }
      Blocks.push_back(W);
    }
    InC = C;
    Stages.push_back(std::move(Blocks));
  }
  LinearW Fc = declLinear(B, "fc", 1000, 512);

  B.beginIteration();
  SymTensor X = B.input("images", TensorShape({Batch, 3, 224, 224}));

  B.beginLayer("stem");
  X = B.conv2d("conv1", X, Stem.W, NoTensor, 64, 7, 2, 3, false);
  X = B.batchNorm2d("bn1", X, Stem.BnScale, Stem.BnBias);
  X = B.relu("relu", X);
  X = B.maxPool2d("maxpool", X, 3, 2);

  for (int Stage = 0; Stage < 4; ++Stage) {
    for (std::size_t Blk = 0; Blk < Stages[Stage].size(); ++Blk) {
      const BlockW &W = Stages[Stage][Blk];
      std::string Name = format("layer%d.%zu", Stage + 1, Blk);
      std::int64_t Stride = (Stage > 0 && Blk == 0) ? 2 : 1;
      X = basicBlock(B, Name, X, W.Conv1, W.Conv2,
                     W.HasDown ? &W.Down : nullptr,
                     StageChannels[Stage], Stride);
    }
  }

  B.beginLayer("head");
  X = B.adaptiveAvgPool2d("avgpool", X, 1);
  X = B.reshape(X, TensorShape({Batch, 512}));
  SymTensor Logits = B.linear("fc", X, Fc.W, Fc.B, 1000);
  B.endLayer();

  if (Opts.Training) {
    SymTensor Targets =
        B.input("targets", TensorShape({Batch}), DataType::I64);
    B.crossEntropyLoss("loss", Logits, Targets);
  }
  B.endIteration();
  return B.finish();
}

//===----------------------------------------------------------------------===//
// Transformer builders
//===----------------------------------------------------------------------===//

struct AttnW {
  LinearW Qkv; ///< fused QKV (self) or Q-only (cross)
  LinearW Kv;  ///< cross-attention K/V projection from the encoder
  LinearW Proj;
  SymTensor LnScale = NoTensor;
  SymTensor LnBias = NoTensor;
};

struct FfnW {
  LinearW Up, Down;
  SymTensor LnScale = NoTensor;
  SymTensor LnBias = NoTensor;
};

AttnW declAttn(ScheduleBuilder &B, const std::string &Name,
               std::int64_t Hidden, bool Cross) {
  AttnW W;
  if (Cross) {
    W.Qkv = declLinear(B, Name + ".q", Hidden, Hidden);
    W.Kv = declLinear(B, Name + ".kv", 2 * Hidden, Hidden);
  } else {
    W.Qkv = declLinear(B, Name + ".qkv", 3 * Hidden, Hidden);
  }
  W.Proj = declLinear(B, Name + ".proj", Hidden, Hidden);
  W.LnScale = B.weight(Name + ".ln.weight", TensorShape({Hidden}));
  W.LnBias = B.weight(Name + ".ln.bias", TensorShape({Hidden}));
  return W;
}

FfnW declFfn(ScheduleBuilder &B, const std::string &Name,
             std::int64_t Hidden, std::int64_t Inner) {
  FfnW W;
  W.Up = declLinear(B, Name + ".fc1", Inner, Hidden);
  W.Down = declLinear(B, Name + ".fc2", Hidden, Inner);
  W.LnScale = B.weight(Name + ".ln.weight", TensorShape({Hidden}));
  W.LnBias = B.weight(Name + ".ln.bias", TensorShape({Hidden}));
  return W;
}

/// Pre-LN multi-head attention block with residual. \p Memory (encoder
/// states) switches it to cross-attention.
SymTensor attention(ScheduleBuilder &B, const std::string &Name,
                    SymTensor X, const AttnW &W, std::int64_t Batch,
                    std::int64_t Seq, std::int64_t Hidden,
                    std::int64_t Heads, SymTensor Memory = NoTensor,
                    std::int64_t MemSeq = 0) {
  B.beginLayer(Name);
  std::int64_t HeadDim = Hidden / Heads;
  SymTensor Norm = B.layerNorm(Name + ".ln", X, W.LnScale, W.LnBias);

  SymTensor Q, K, V;
  std::int64_t KvSeq = Memory == NoTensor ? Seq : MemSeq;
  if (Memory == NoTensor) {
    SymTensor Qkv = B.linear(Name + ".qkv", Norm, W.Qkv.W, W.Qkv.B,
                             3 * Hidden);
    Q = B.permute(Name + ".q_perm", Qkv,
                  TensorShape({Batch * Heads, Seq, HeadDim}));
    K = B.permute(Name + ".k_perm", Qkv,
                  TensorShape({Batch * Heads, Seq, HeadDim}));
    V = B.permute(Name + ".v_perm", Qkv,
                  TensorShape({Batch * Heads, Seq, HeadDim}));
  } else {
    SymTensor Qp = B.linear(Name + ".q", Norm, W.Qkv.W, W.Qkv.B, Hidden);
    SymTensor Kv =
        B.linear(Name + ".kv", Memory, W.Kv.W, W.Kv.B, 2 * Hidden);
    Q = B.permute(Name + ".q_perm", Qp,
                  TensorShape({Batch * Heads, Seq, HeadDim}));
    K = B.permute(Name + ".k_perm", Kv,
                  TensorShape({Batch * Heads, KvSeq, HeadDim}));
    V = B.permute(Name + ".v_perm", Kv,
                  TensorShape({Batch * Heads, KvSeq, HeadDim}));
  }

  SymTensor Scores = B.batchedMatmul(
      Name + ".qk", Q, K, Batch * Heads, Seq, KvSeq, HeadDim,
      TensorShape({Batch * Heads, Seq, KvSeq}));
  // Attention-probability dropout is intentionally omitted: storing the
  // mask doubles per-layer attention memory and pushes training
  // footprints far beyond the paper's Table V regime.
  SymTensor Probs = B.softmax(Name + ".softmax", Scores);
  SymTensor Ctx = B.batchedMatmul(
      Name + ".pv", Probs, V, Batch * Heads, Seq, HeadDim, KvSeq,
      TensorShape({Batch * Heads, Seq, HeadDim}));
  SymTensor Merged = B.permute(Name + ".merge", Ctx,
                               TensorShape({Batch, Seq, Hidden}));
  SymTensor Out = B.linear(Name + ".proj", Merged, W.Proj.W, W.Proj.B,
                           Hidden);
  return B.add(Name + ".residual", Out, X);
}

SymTensor ffn(ScheduleBuilder &B, const std::string &Name, SymTensor X,
              const FfnW &W, std::int64_t Hidden, std::int64_t Inner) {
  B.beginLayer(Name);
  SymTensor Norm = B.layerNorm(Name + ".ln", X, W.LnScale, W.LnBias);
  SymTensor Up = B.linear(Name + ".fc1", Norm, W.Up.W, W.Up.B, Inner);
  SymTensor Act = B.gelu(Name + ".gelu", Up);
  SymTensor Down = B.linear(Name + ".fc2", Act, W.Down.W, W.Down.B, Hidden);
  return B.add(Name + ".residual", Down, X);
}

Program buildGpt2(const ModelConfig &Config, ScheduleBuilder::Options Opts) {
  ScheduleBuilder B("gpt2", Opts);
  const std::int64_t Batch = Config.BatchSize;
  const std::int64_t Seq = 1024, Hidden = 768, Heads = 12, Layers = 12;
  const std::int64_t Vocab = 50257;

  SymTensor Wte = B.weight("wte", TensorShape({Vocab, Hidden}));
  SymTensor Wpe = B.weight("wpe", TensorShape({Seq, Hidden}));
  std::vector<AttnW> Attn;
  std::vector<FfnW> Ffn;
  for (std::int64_t L = 0; L < Layers; ++L) {
    Attn.push_back(declAttn(B, format("h.%lld.attn", (long long)L), Hidden,
                            /*Cross=*/false));
    Ffn.push_back(declFfn(B, format("h.%lld.mlp", (long long)L), Hidden,
                          4 * Hidden));
  }
  SymTensor LnfScale = B.weight("ln_f.weight", TensorShape({Hidden}));
  SymTensor LnfBias = B.weight("ln_f.bias", TensorShape({Hidden}));
  LinearW Head = declLinear(B, "lm_head", Vocab, Hidden);

  B.beginIteration();
  SymTensor Ids =
      B.input("input_ids", TensorShape({Batch, Seq}), DataType::I64);
  B.beginLayer("embeddings");
  SymTensor X = B.embedding("wte", Ids, Wte);
  SymTensor Pos = B.embedding("wpe", Ids, Wpe);
  X = B.add("embed_add", X, Pos);

  for (std::int64_t L = 0; L < Layers; ++L) {
    X = attention(B, format("h.%lld.attn", (long long)L), X, Attn[L],
                  Batch, Seq, Hidden, Heads);
    X = ffn(B, format("h.%lld.mlp", (long long)L), X, Ffn[L], Hidden,
            4 * Hidden);
  }

  B.beginLayer("lm_head");
  X = B.layerNorm("ln_f", X, LnfScale, LnfBias);
  SymTensor Logits = B.linear("lm_head", X, Head.W, NoTensor, Vocab);
  B.endLayer();

  if (Opts.Training) {
    SymTensor Targets =
        B.input("labels", TensorShape({Batch, Seq}), DataType::I64);
    B.crossEntropyLoss("loss", Logits, Targets);
  }
  B.endIteration();
  return B.finish();
}

Program buildBert(const ModelConfig &Config, ScheduleBuilder::Options Opts) {
  ScheduleBuilder B("bert", Opts);
  const std::int64_t Batch = Config.BatchSize;
  const std::int64_t Seq = 128, Hidden = 768, Heads = 12, Layers = 12;
  const std::int64_t Vocab = 30522;

  SymTensor WordEmb = B.weight("embeddings.word", TensorShape({Vocab, Hidden}));
  SymTensor PosEmb = B.weight("embeddings.pos", TensorShape({512, Hidden}));
  SymTensor EmbLnScale = B.weight("embeddings.ln.weight", TensorShape({Hidden}));
  SymTensor EmbLnBias = B.weight("embeddings.ln.bias", TensorShape({Hidden}));
  std::vector<AttnW> Attn;
  std::vector<FfnW> Ffn;
  for (std::int64_t L = 0; L < Layers; ++L) {
    Attn.push_back(declAttn(B, format("encoder.%lld.attn", (long long)L),
                            Hidden, false));
    Ffn.push_back(declFfn(B, format("encoder.%lld.ffn", (long long)L),
                          Hidden, 4 * Hidden));
  }
  LinearW Pooler = declLinear(B, "pooler", Hidden, Hidden);
  LinearW Classifier = declLinear(B, "classifier", 2, Hidden);

  B.beginIteration();
  SymTensor Ids =
      B.input("input_ids", TensorShape({Batch, Seq}), DataType::I64);
  B.beginLayer("embeddings");
  SymTensor X = B.embedding("word_embeddings", Ids, WordEmb);
  SymTensor Pos = B.embedding("position_embeddings", Ids, PosEmb);
  X = B.add("embed_add", X, Pos);
  X = B.layerNorm("embeddings.ln", X, EmbLnScale, EmbLnBias);

  for (std::int64_t L = 0; L < Layers; ++L) {
    X = attention(B, format("encoder.%lld.attn", (long long)L), X,
                  Attn[L], Batch, Seq, Hidden, Heads);
    X = ffn(B, format("encoder.%lld.ffn", (long long)L), X, Ffn[L],
            Hidden, 4 * Hidden);
  }

  B.beginLayer("head");
  SymTensor Pooled = B.linear("pooler", X, Pooler.W, Pooler.B, Hidden);
  Pooled = B.reshape(Pooled, TensorShape({Batch, Seq, Hidden}));
  SymTensor Logits =
      B.linear("classifier", Pooled, Classifier.W, Classifier.B, 2);
  B.endLayer();

  if (Opts.Training) {
    SymTensor Targets = B.input("labels", TensorShape({Batch, Seq}),
                                DataType::I64);
    B.crossEntropyLoss("loss", Logits, Targets);
  }
  B.endIteration();
  return B.finish();
}

Program buildWhisper(const ModelConfig &Config,
                     ScheduleBuilder::Options Opts) {
  ScheduleBuilder B("whisper", Opts);
  const std::int64_t Batch = Config.BatchSize;
  // Whisper-small geometry, with the encoder sequence halved (15 s of
  // audio instead of 30 s) to keep attention-score footprints in the same
  // regime as the paper's Table V (documented in EXPERIMENTS.md).
  const std::int64_t EncSeq = 750, DecSeq = 112;
  const std::int64_t Hidden = 768, Heads = 12, Layers = 12;
  const std::int64_t Vocab = 51865, MelBins = 80;

  LinearW Stem1 = declLinear(B, "encoder.conv1", Hidden, MelBins * 3);
  LinearW Stem2 = declLinear(B, "encoder.conv2", Hidden, Hidden * 3);
  SymTensor EncPos = B.weight("encoder.pos", TensorShape({EncSeq, Hidden}));
  SymTensor DecEmb = B.weight("decoder.embed", TensorShape({Vocab, Hidden}));
  SymTensor DecPos = B.weight("decoder.pos", TensorShape({DecSeq, Hidden}));

  std::vector<AttnW> EncAttn;
  std::vector<FfnW> EncFfn;
  std::vector<AttnW> DecSelf, DecCross;
  std::vector<FfnW> DecFfn;
  for (std::int64_t L = 0; L < Layers; ++L) {
    EncAttn.push_back(declAttn(B, format("encoder.%lld.attn", (long long)L),
                               Hidden, false));
    EncFfn.push_back(declFfn(B, format("encoder.%lld.ffn", (long long)L),
                             Hidden, 4 * Hidden));
    DecSelf.push_back(declAttn(B, format("decoder.%lld.self", (long long)L),
                               Hidden, false));
    DecCross.push_back(declAttn(B, format("decoder.%lld.cross", (long long)L),
                                Hidden, true));
    DecFfn.push_back(declFfn(B, format("decoder.%lld.ffn", (long long)L),
                             Hidden, 4 * Hidden));
  }
  LinearW Head = declLinear(B, "proj_out", Vocab, Hidden);

  B.beginIteration();
  // Mel frames arrive pre-patched into stem GEMM inputs.
  SymTensor Mel = B.input("mel", TensorShape({Batch, EncSeq, MelBins * 3}));
  B.beginLayer("encoder.stem");
  SymTensor Enc = B.linear("encoder.conv1", Mel, Stem1.W, Stem1.B, Hidden);
  Enc = B.gelu("encoder.conv1.gelu", Enc);
  SymTensor EncPatch =
      B.reshape(Enc, TensorShape({Batch, EncSeq / 3, Hidden * 3}));
  Enc = B.linear("encoder.conv2", EncPatch, Stem2.W, Stem2.B, Hidden);
  Enc = B.gelu("encoder.conv2.gelu", Enc);
  // conv2 has stride 2 in the real model; keep EncSeq for simplicity of
  // shape bookkeeping (documented substitution).
  Enc = B.reshape(Enc, TensorShape({Batch, EncSeq / 3, Hidden}));
  std::int64_t ESeq = EncSeq / 3;
  SymTensor PosIds =
      B.input("enc_pos_ids", TensorShape({Batch, ESeq}), DataType::I64);
  SymTensor Pos = B.embedding("encoder.pos", PosIds, EncPos);
  Enc = B.add("encoder.pos_add", Enc, Pos);

  for (std::int64_t L = 0; L < Layers; ++L) {
    Enc = attention(B, format("encoder.%lld.attn", (long long)L), Enc,
                    EncAttn[L], Batch, ESeq, Hidden, Heads);
    Enc = ffn(B, format("encoder.%lld.ffn", (long long)L), Enc, EncFfn[L],
              Hidden, 4 * Hidden);
  }

  B.beginLayer("decoder.embed");
  SymTensor Tokens =
      B.input("tokens", TensorShape({Batch, DecSeq}), DataType::I64);
  SymTensor Dec = B.embedding("decoder.embed", Tokens, DecEmb);
  SymTensor DPosIds =
      B.input("dec_pos_ids", TensorShape({Batch, DecSeq}), DataType::I64);
  SymTensor DPos = B.embedding("decoder.pos", DPosIds, DecPos);
  Dec = B.add("decoder.pos_add", Dec, DPos);

  for (std::int64_t L = 0; L < Layers; ++L) {
    Dec = attention(B, format("decoder.%lld.self", (long long)L), Dec,
                    DecSelf[L], Batch, DecSeq, Hidden, Heads);
    Dec = attention(B, format("decoder.%lld.cross", (long long)L), Dec,
                    DecCross[L], Batch, DecSeq, Hidden, Heads, Enc, ESeq);
    Dec = ffn(B, format("decoder.%lld.ffn", (long long)L), Dec, DecFfn[L],
              Hidden, 4 * Hidden);
  }

  B.beginLayer("proj_out");
  SymTensor Logits = B.linear("proj_out", Dec, Head.W, NoTensor, Vocab);
  B.endLayer();

  if (Opts.Training) {
    SymTensor Targets = B.input("labels", TensorShape({Batch, DecSeq}),
                                DataType::I64);
    B.crossEntropyLoss("loss", Logits, Targets);
  }
  B.endIteration();
  return B.finish();
}

} // namespace

Program pasta::dl::buildModelProgram(const ModelConfig &Config,
                                     ScheduleBuilder::Options Opts) {
  if (Opts.Iterations <= 0)
    Opts.Iterations = Opts.Training ? Config.TrainingIterations
                                    : Config.InferenceIterations;
  if (Config.Name == "alexnet")
    return buildAlexNet(Config, Opts);
  if (Config.Name == "resnet18")
    return buildResNet(Config, Opts, {2, 2, 2, 2});
  if (Config.Name == "resnet34")
    return buildResNet(Config, Opts, {3, 4, 6, 3});
  if (Config.Name == "gpt2")
    return buildGpt2(Config, Opts);
  if (Config.Name == "bert")
    return buildBert(Config, Opts);
  if (Config.Name == "whisper")
    return buildWhisper(Config, Opts);
  reportFatalError("no builder for model: " + Config.Name);
}

Program pasta::dl::buildModelProgram(const std::string &Name,
                                     ScheduleBuilder::Options Opts) {
  return buildModelProgram(modelConfigByName(Name), Opts);
}
