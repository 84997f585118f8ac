//! # nlidb-neural
//!
//! Neural network layers built on [`nlidb_tensor`], providing every
//! architectural piece the paper's models need:
//!
//! - [`linear::Linear`] / [`linear::Mlp`] — affine layers and the §IV-D
//!   value-detection MLP shape.
//! - [`embedding::Embedding`] / [`embedding::CharCnn`] — the word embedder
//!   of §IV-B(i): pre-trained word vectors concatenated with a multi-width
//!   character convolution.
//! - [`lstm::LstmCell`] / [`lstm::Lstm`] — the §IV-B(ii) stacked
//!   (bi-directional) LSTM sequence models with per-layer affine inputs.
//! - [`gru::GruCell`] / [`gru::BiGru`] — the §V-B seq2seq encoder stack.
//! - [`attention::BahdanauAttention`] — additive attention used by both the
//!   §IV-B(iii) classifier head and the §V-B decoder (whose raw scores also
//!   feed the copy mechanism).
//!
//! Layers register their parameters in a shared
//! [`nlidb_tensor::ParamStore`] under a caller-chosen prefix and are pure
//! functions of the graph thereafter, so models compose freely and
//! checkpointing is a single store serialization.

#![warn(missing_docs)]

pub mod attention;
pub mod embedding;
pub mod gru;
pub mod linear;
pub mod lstm;

pub use attention::{AttentionOut, BahdanauAttention};
pub use embedding::{CharCnn, Embedding};
pub use gru::{run_gru, BiGru, GruCell};
pub use linear::{Activation, Linear, Mlp};
pub use lstm::{run_lstm, Lstm, LstmCell};
