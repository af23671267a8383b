//! # mcfuser-workloads — the paper's evaluation workloads
//!
//! * [`gemm_chains`] — the batch GEMM chains G1–G12 of **Table II**,
//!   plus the 4-GEMM MLP chain/graph exercising the N-operator
//!   partitioner;
//! * [`attention`] — the self-attention modules S1–S9 of **Table III**
//!   (BERT, ViT, MLP-Mixer shapes) and their masked (decoder-style)
//!   variants;
//! * [`bert`] — end-to-end BERT encoder graphs (Fig. 9) plus ViT and
//!   MLP-Mixer blocks;
//! * [`decoder`] — autoregressive decoder graphs: KV-cache attention
//!   (prefill + single-token decode, optional grouped-query heads) and
//!   the GEMV-shaped chains where the memory-bound gate flips hard
//!   toward fusion;
//! * [`families`] — the model chain families the static-verifier sweep
//!   and the launch census draw from.

#![warn(missing_docs)]

pub mod attention;
pub mod bert;
pub mod decoder;
pub mod families;
pub mod gemm_chains;

pub use attention::{
    attention_network, attention_suite, attention_workload, masked_attention_graph,
    masked_attention_workload, TABLE_III,
};
pub use bert::{bert_base, bert_graph, bert_large, bert_small, mixer_block, vit_block, BertConfig};
pub use decoder::{
    decode_attention_chain, decode_ffn_chain, decoder_forward_graph, decoder_step_graph,
    DecoderConfig,
};
pub use families::model_chain_families;
pub use gemm_chains::{gemm_chain_suite, gemm_chain_workload, mlp4_chain, mlp4_graph, TABLE_II};
