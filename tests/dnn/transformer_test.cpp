#include "dnn/transformer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "dnn/workload.hpp"

namespace optiplet::dnn {
namespace {

/// Indices of the kAttention layers of `model`, execution order.
std::vector<const Layer*> attention_layers(const Model& model) {
  std::vector<const Layer*> out;
  for (const Layer& l : model.layers()) {
    if (l.kind == LayerKind::kAttention) {
      out.push_back(&l);
    }
  }
  return out;
}

TEST(Transformer, TinyGptParameterCountIsTokenIndependent) {
  // Hand-derived from the block structure (per block: 2 LayerNorms, four
  // d x d projections with bias, d x d_ff + d_ff x d FFN with bias; plus
  // the final LayerNorm): 8 * 3,152,384 + 1,024 = 25,220,096 — ~25.2M,
  // the "small GPT" scale. Weights are shared across tokens, so the count
  // must not depend on the sequence length the graph is built at.
  const TransformerSpec spec = tiny_gpt_spec();
  const Model at16 = make_prefill_graph(spec, 16);
  const Model at256 = make_prefill_graph(spec, 256);
  EXPECT_EQ(at16.total_params(), 25220096u);
  EXPECT_EQ(at256.total_params(), at16.total_params());
  // A decode step holds the same trained weights.
  EXPECT_EQ(make_decode_graph(spec, 64).total_params(),
            at16.total_params());
}

TEST(Transformer, CausalAttentionMacAccounting) {
  const TransformerSpec spec = tiny_gpt_spec();
  const std::uint64_t d = spec.d_model;
  // Prefill over S tokens with an empty KV cache: token i attends i + 1
  // positions, so attended = S(S+1)/2; QK^T and AV each cost d MACs per
  // attended position.
  const std::uint32_t S = 96;
  // Named models: the layer pointers must not outlive a temporary.
  const Model prefill = make_prefill_graph(spec, S);
  for (const Layer* attn : attention_layers(prefill)) {
    EXPECT_EQ(attn->mac_count,
              2ull * (static_cast<std::uint64_t>(S) * (S + 1) / 2) * d);
    EXPECT_EQ(attn->extra_stream_values, 0u);
    EXPECT_EQ(attn->heads, spec.heads);
  }
  // Decode: one fresh token over `kv` cached positions attends kv + 1.
  const std::uint32_t kv = 200;
  const Model decode = make_decode_graph(spec, kv);
  for (const Layer* attn : attention_layers(decode)) {
    EXPECT_EQ(attn->mac_count, 2ull * (kv + 1) * d);
    // The cached K and V vectors stream in from memory.
    EXPECT_EQ(attn->extra_stream_values, 2ull * kv * d);
  }
}

TEST(Transformer, KvCacheReadLandsInWorkloadTraffic) {
  // The *only* difference between a decode step at kv and at 0 is the
  // cached-context attention: kv extra attended positions (2*kv*d MACs)
  // and the 2*kv*d-value KV read per block. Both must land in the
  // workload totals exactly — this is what makes decode bandwidth-bound
  // while its MAC count stays tiny.
  const TransformerSpec spec = tiny_gpt_spec();
  const unsigned bits = 8;
  const std::uint32_t kv = 512;
  const Workload cold = compute_workload(make_decode_graph(spec, 0), bits);
  const Workload warm = compute_workload(make_decode_graph(spec, kv), bits);
  const std::uint64_t per_block = 2ull * kv * spec.d_model;
  EXPECT_EQ(warm.total_macs - cold.total_macs, spec.blocks * per_block);
  EXPECT_EQ(warm.total_activation_bits - cold.total_activation_bits,
            spec.blocks * per_block * bits);
  // Weight traffic is identical: a decode step re-streams the same full
  // weight set no matter how long the context is.
  EXPECT_EQ(warm.total_weight_bits, cold.total_weight_bits);
}

TEST(Transformer, KvBytesPerToken) {
  const TransformerSpec spec = tiny_gpt_spec();
  // K and V, one d_model vector per block: 2 * 8 * 512 bytes at 8 bits.
  EXPECT_EQ(kv_bytes_per_token(spec, 8), 8192u);
  // Sub-byte precision rounds the footprint up to whole bytes.
  EXPECT_EQ(kv_bytes_per_token(spec, 4), 4096u);
  TransformerSpec odd = spec;
  odd.d_model = 3;
  odd.blocks = 1;
  EXPECT_EQ(kv_bytes_per_token(odd, 4), (2ull * 3 * 4 + 7) / 8);
}

TEST(Transformer, ContextWindowIsEnforced) {
  const TransformerSpec spec = tiny_gpt_spec();
  EXPECT_NO_THROW((void)make_prefill_graph(spec, spec.max_context));
  EXPECT_THROW((void)make_prefill_graph(spec, spec.max_context + 1),
               std::invalid_argument);
  // A decode step's total context is kv + 1.
  EXPECT_NO_THROW((void)make_decode_graph(spec, spec.max_context - 1));
  EXPECT_THROW((void)make_decode_graph(spec, spec.max_context),
               std::invalid_argument);
  EXPECT_THROW((void)make_prefill_graph(spec, 0), std::invalid_argument);
}

}  // namespace
}  // namespace optiplet::dnn
