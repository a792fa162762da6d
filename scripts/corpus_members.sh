# Trace-corpus membership (tests/corpus/), sourced by
# scripts/capture_corpus.sh, which regenerates the corpus, and by
# scripts/check_corpus_capture.sh, which re-captures it live and
# byte-compares. The sourcing script defines
#
#   capture <name> "<tool> <tool>..." <capture flags and model...>
#
# and runs accelprof as `accelprof -b cs-gpu -g A100 --capture
# <name>.trace <flags and model...>`. Adding a line here is the whole
# corpus-growth step (tests/corpus/README.md).
#
# Membership: one small CNN, two transformer workloads (bert, and gpt2
# standing in for the Megatron-class decoders built by
# src/dl/Megatron.cpp), and a UVM-heavy managed capture. Every trace
# carries goldens for at least two tools; the first tool of each trace
# additionally pins the csv and text sinks so all three ReportSink
# formats are regression-anchored.

# AlexNet inference, 2 iterations: small enough to check in (~40 KiB),
# rich enough to exercise every payload table (kernels, op names,
# layer names).
capture alexnet_a100_2iter "kernel_frequency op_kernel_map" \
  --iters 2 alexnet

# BERT inference: the encoder-transformer workload from the model zoo
# (deep schedule, many distinct kernels).
capture bert_a100_1iter "kernel_frequency op_kernel_map" \
  --iters 1 bert

# GPT-2 inference: decoder transformer, standing in for the
# Megatron-class workloads (the Megatron schedule builder reuses the
# same GPT-2 blocks).
capture gpt2_a100_1iter "kernel_frequency op_kernel_map" \
  --iters 1 gpt2

# UVM-heavy: managed allocations route through the UVM model, so this
# trace carries migration/advice traffic the flat captures never see.
capture alexnet_a100_uvm "mem_usage_timeline barrier_stall" \
  --iters 2 --managed alexnet
