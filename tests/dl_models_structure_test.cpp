//===- tests/dl_models_structure_test.cpp - model zoo structure -----------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Checks that each zoo entry's lowered Program reflects the architecture
// the paper's Table IV describes (layer counts, characteristic kernels,
// batch sizes) and that kernel counts land near Table V's totals.
//
//===----------------------------------------------------------------------===//

#include "dl/Models.h"

#include <gtest/gtest.h>

#include <set>

using namespace pasta;
using namespace pasta::dl;

namespace {

Program build(const char *Name, bool Training = false, int Iters = 1) {
  ScheduleBuilder::Options Opts;
  Opts.Training = Training;
  Opts.Iterations = Iters;
  return buildModelProgram(Name, Opts);
}

std::set<std::string> layerNames(const Program &Prog) {
  std::set<std::string> Names;
  for (const Step &S : Prog.Iteration)
    if (S.Kind == StepKind::LayerBegin)
      Names.insert(S.Name);
  return Names;
}

/// First \p Components dot-separated components of every layer name.
std::set<std::string> layerPrefixes(const Program &Prog, int Components) {
  std::set<std::string> Out;
  for (const std::string &Name : layerNames(Prog)) {
    std::size_t Pos = 0;
    int Seen = 0;
    while (Pos < Name.size() && Seen < Components) {
      Pos = Name.find('.', Pos);
      if (Pos == std::string::npos) {
        Pos = Name.size();
        break;
      }
      ++Seen;
      if (Seen < Components)
        ++Pos;
    }
    Out.insert(Name.substr(0, Pos));
  }
  return Out;
}

std::uint64_t countKernelsMatching(const Program &Prog,
                                   const std::string &Needle) {
  std::uint64_t Count = 0;
  for (const Step &S : Prog.Iteration)
    if (S.Kind == StepKind::Kernel &&
        S.Kernel.Name.find(Needle) != std::string::npos)
      ++Count;
  return Count;
}

} // namespace

TEST(ModelStructureTest, AlexNetHasFiveConvsThreeFcs) {
  Program Prog = build("alexnet");
  auto Layers = layerPrefixes(Prog, 2);
  for (const char *Layer : {"features.0", "features.3", "features.6",
                            "features.8", "features.10", "classifier.1",
                            "classifier.4", "classifier.6"})
    EXPECT_TRUE(Layers.count(Layer)) << Layer;
  // conv1 (11x11) and conv2 (5x5) go through im2col; the 3x3 convs take
  // the Winograd path on the cuDNN flavour.
  EXPECT_EQ(countKernelsMatching(Prog, "im2col_kernel"), 2u);
  EXPECT_EQ(countKernelsMatching(Prog, "winograd"), 3u);
  EXPECT_EQ(countKernelsMatching(Prog, "max_pool_forward"), 3u);
}

TEST(ModelStructureTest, AlexNetBatchSizeIs128) {
  Program Prog = build("alexnet");
  bool Found = false;
  for (const TensorDecl &Decl : Prog.Tensors)
    if (Decl.Role == TensorRole::Input && Decl.Shape.rank() == 4) {
      EXPECT_EQ(Decl.Shape.dim(0), 128);
      Found = true;
    }
  EXPECT_TRUE(Found);
}

TEST(ModelStructureTest, ResNetBlockCounts) {
  // ResNet18: stages of 2/2/2/2 basic blocks; ResNet34: 3/4/6/3.
  Program R18 = build("resnet18");
  Program R34 = build("resnet34");
  auto CountBlocks = [](const Program &Prog, int Stage) {
    std::string Prefix = "layer" + std::to_string(Stage) + ".";
    int Blocks = 0;
    for (const std::string &Name : layerPrefixes(Prog, 2))
      if (Name.rfind(Prefix, 0) == 0)
        ++Blocks;
    return Blocks;
  };
  EXPECT_EQ(CountBlocks(R18, 1), 2);
  EXPECT_EQ(CountBlocks(R18, 4), 2);
  EXPECT_EQ(CountBlocks(R34, 2), 4);
  EXPECT_EQ(CountBlocks(R34, 3), 6);
}

TEST(ModelStructureTest, ResNetDownsampleOnlyAtStageEntries) {
  Program Prog = build("resnet18");
  // 3 downsample 1x1 convs (stages 2-4) -> 3 small GEMMs named per the
  // 1x1 path, each preceded by no im2col.
  std::uint64_t Downsamples = 0;
  for (const Step &S : Prog.Iteration)
    if (S.Kind == StepKind::LayerBegin &&
        S.Name.find(".0") != std::string::npos)
      ++Downsamples;
  EXPECT_GE(Downsamples, 3u);
}

TEST(ModelStructureTest, Gpt2TwelveDecoderLayers) {
  Program Prog = build("gpt2");
  auto Layers = layerPrefixes(Prog, 3);
  int AttnLayers = 0, MlpLayers = 0;
  for (const std::string &Name : Layers) {
    if (Name.size() >= 5 && Name.compare(Name.size() - 5, 5, ".attn") == 0)
      ++AttnLayers;
    if (Name.size() >= 4 && Name.compare(Name.size() - 4, 4, ".mlp") == 0)
      ++MlpLayers;
  }
  EXPECT_EQ(AttnLayers, 12);
  EXPECT_EQ(MlpLayers, 12);
  // Causal LM: softmax per layer, one LM-head GEMM over the vocab.
  EXPECT_EQ(countKernelsMatching(Prog, "softmax_warp_forward"), 12u);
}

TEST(ModelStructureTest, Gpt2LogitsShape) {
  Program Prog = build("gpt2");
  bool Found = false;
  for (const TensorDecl &Decl : Prog.Tensors)
    if (Decl.Name == "lm_head.out") {
      ASSERT_EQ(Decl.Shape.rank(), 3u);
      EXPECT_EQ(Decl.Shape.dim(0), 8);     // batch (Table IV)
      EXPECT_EQ(Decl.Shape.dim(1), 1024);  // sequence
      EXPECT_EQ(Decl.Shape.dim(2), 50257); // vocab
      Found = true;
    }
  EXPECT_TRUE(Found);
}

TEST(ModelStructureTest, BertEncoderOnly) {
  Program Prog = build("bert");
  auto Layers = layerPrefixes(Prog, 3);
  int Encoder = 0;
  for (const std::string &Name : Layers)
    if (Name.rfind("encoder.", 0) == 0 && Name.find('.', 8) != std::string::npos)
      ++Encoder;
  EXPECT_EQ(Encoder, 24) << "12 attention + 12 FFN sublayers";
  auto Coarse = layerPrefixes(Prog, 1);
  EXPECT_TRUE(Coarse.count("embeddings"));
  EXPECT_TRUE(Coarse.count("pooler") || Coarse.count("classifier") ||
              Coarse.count("head"));
  // No decoder / cross-attention in BERT.
  for (const std::string &Name : Layers)
    EXPECT_EQ(Name.find("decoder"), std::string::npos) << Name;
}

TEST(ModelStructureTest, WhisperEncoderDecoderWithCrossAttention) {
  Program Prog = build("whisper");
  auto Layers = layerPrefixes(Prog, 3);
  int Cross = 0, Self = 0;
  for (const std::string &Name : Layers) {
    if (Name.size() >= 6 && Name.compare(Name.size() - 6, 6, ".cross") == 0)
      ++Cross;
    if (Name.size() >= 5 && Name.compare(Name.size() - 5, 5, ".self") == 0)
      ++Self;
  }
  EXPECT_EQ(Cross, 12) << "one cross-attention per decoder layer";
  EXPECT_EQ(Self, 12);
}

TEST(ModelStructureTest, TrainingEmitsBackwardGemmsAndOptimizer) {
  Program Prog = build("bert", /*Training=*/true);
  EXPECT_GT(countKernelsMatching(Prog, "_nt"), 0u) << "dgrad GEMMs";
  EXPECT_GT(countKernelsMatching(Prog, "_tn"), 0u) << "wgrad GEMMs";
  EXPECT_GT(countKernelsMatching(Prog, "multi_tensor_apply"), 0u);
  EXPECT_GT(countKernelsMatching(Prog, "nll_loss_backward"), 0u);
}

TEST(ModelStructureTest, KernelCountsNearTableV) {
  // Totals at default iteration counts must land within 35% of the
  // paper's Table V inference counts.
  const std::map<std::string, std::uint64_t> Paper = {
      {"alexnet", 1428}, {"resnet18", 1497}, {"resnet34", 2657},
      {"gpt2", 583},     {"bert", 487},      {"whisper", 663}};
  for (const ModelConfig &Config : modelZoo()) {
    ScheduleBuilder::Options Opts;
    Opts.Iterations = 0; // default
    std::uint64_t Ours = buildModelProgram(Config, Opts).numKernels();
    double PaperCount = static_cast<double>(Paper.at(Config.Name));
    EXPECT_NEAR(static_cast<double>(Ours), PaperCount, PaperCount * 0.35)
        << Config.Name;
  }
}

TEST(ModelStructureTest, WeightsStagedBeforeFirstIteration) {
  Program Prog = build("bert");
  // Every weight Alloc must precede the first IterBegin: the Head holds
  // no iteration marker, and no later step allocates a weight.
  for (const Step &S : Prog.Head)
    EXPECT_NE(S.Kind, StepKind::IterBegin);
  ASSERT_FALSE(Prog.Iteration.empty());
  EXPECT_EQ(Prog.Iteration.front().Kind, StepKind::IterBegin);
  for (const std::vector<Step> *Steps : {&Prog.Iteration, &Prog.Tail})
    for (const Step &S : *Steps)
      if (S.Kind == StepKind::Alloc) {
        EXPECT_NE(Prog.Tensors[S.Tensor].Role, TensorRole::Weight)
            << Prog.Tensors[S.Tensor].Name;
      }
}
