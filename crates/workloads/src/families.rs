//! The model chain families the static-verifier sweep (`verify_smoke`)
//! and the launch census test draw candidates from: the chains the
//! partitioner cuts out of several BERT, ViT and MLP-Mixer shapes, and
//! the decoder's grouped-query GEMV chains.

use mcfuser_ir::{partition, ChainSpec, Graph};
use mcfuser_sim::DeviceSpec;

use crate::{
    bert_graph, decode_attention_chain, decode_ffn_chain, mixer_block, vit_block, BertConfig,
    DecoderConfig,
};

/// `(family, chains)` for BERT, ViT, MLP-Mixer and decoder GQA, each
/// pooling several shape variants, partitioned for `dev`.
pub fn model_chain_families(dev: &DeviceSpec) -> Vec<(&'static str, Vec<ChainSpec>)> {
    let chains_of = |g: &Graph| -> Vec<ChainSpec> {
        partition(g, dev)
            .chains
            .into_iter()
            .map(|fc| fc.chain)
            .collect()
    };
    let mut bert_chains = Vec::new();
    for (seq, hidden, heads, inter) in [
        (64, 128, 4, 512),
        (128, 128, 4, 512),
        (256, 256, 8, 1024),
        (512, 256, 4, 512),
    ] {
        bert_chains.extend(chains_of(&bert_graph(
            &format!("bert-s{seq}-h{hidden}"),
            &BertConfig {
                layers: 1,
                hidden,
                heads,
                seq,
                intermediate: inter,
            },
        )));
    }
    let mut vit_chains = Vec::new();
    for (patches, hidden, heads) in [(64, 128, 4), (196, 256, 8), (256, 128, 4), (576, 256, 4)] {
        vit_chains.extend(chains_of(&vit_block(patches, hidden, heads)));
    }
    let mut mixer_chains = Vec::new();
    for (tokens, channels, th, ch) in [
        (64, 128, 256, 512),
        (196, 256, 128, 1024),
        (256, 128, 512, 256),
    ] {
        mixer_chains.extend(chains_of(&mixer_block(tokens, channels, th, ch)));
    }
    let mut decoder_chains = Vec::new();
    for hidden in [128u64, 256] {
        let gqa = DecoderConfig {
            hidden,
            intermediate: 2 * hidden,
            ..DecoderConfig::gpt_mini_gqa()
        };
        decoder_chains.push(decode_ffn_chain(&format!("gqa-h{hidden}-ffn"), &gqa));
        for t_b in [32u64, 64, 128, 256, 512, 1024] {
            decoder_chains.push(decode_attention_chain(
                &format!("gqa-h{hidden}-attn-t{t_b}"),
                &gqa,
                t_b,
            ));
        }
    }
    vec![
        ("bert", bert_chains),
        ("vit", vit_chains),
        ("mixer", mixer_chains),
        ("decoder_gqa", decoder_chains),
    ]
}
