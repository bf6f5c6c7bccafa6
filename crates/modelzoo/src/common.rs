//! Shared scaffolding for model builders.

use cgraph::{build_training_step, Graph, TensorId};
use serde::{Deserialize, Serialize};
use symath::{Bindings, Expr, Symbol};

/// The name of the subbatch-size symbol every model graph is parameterized
/// over. Bind it (via [`ModelGraph::bindings_with_batch`]) to evaluate costs
/// at a concrete subbatch size.
pub const BATCH_SYM: &str = "b";

/// The five DL domains studied in the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Domain {
    /// Word language modeling (LSTM, Fig 2).
    WordLm,
    /// Character language modeling (recurrent highway network, Fig 3).
    CharLm,
    /// Neural machine translation (enc/dec + attention, Fig 4).
    Nmt,
    /// Speech recognition (enc/dec + attention, Fig 5).
    Speech,
    /// Image classification (ResNet, Fig 1).
    ImageClassification,
}

impl Domain {
    /// All domains in the paper's table order.
    pub const ALL: [Domain; 5] = [
        Domain::WordLm,
        Domain::CharLm,
        Domain::Nmt,
        Domain::Speech,
        Domain::ImageClassification,
    ];

    /// The paper's row label.
    pub fn label(&self) -> &'static str {
        match self {
            Domain::WordLm => "Word LMs (LSTM)",
            Domain::CharLm => "Character LMs (RHN)",
            Domain::Nmt => "NMT (enc/dec+attn)",
            Domain::Speech => "Speech Recogn. (enc/dec+attn)",
            Domain::ImageClassification => "Image Classification (ResNet)",
        }
    }

    /// Short machine-friendly key.
    pub fn key(&self) -> &'static str {
        match self {
            Domain::WordLm => "wordlm",
            Domain::CharLm => "charlm",
            Domain::Nmt => "nmt",
            Domain::Speech => "speech",
            Domain::ImageClassification => "resnet",
        }
    }
}

/// A built model: the forward graph (optionally extended to a full training
/// step), its loss, and the symbols it is parameterized over.
#[derive(Clone, Debug)]
pub struct ModelGraph {
    /// The compute graph.
    pub graph: Graph,
    /// Scalar loss tensor.
    pub loss: TensorId,
    /// Which domain this instance belongs to.
    pub domain: Domain,
    /// Whether backward + update phases have been appended.
    pub is_training: bool,
    /// Per-sample sequence length (1 for image models): the number of
    /// recurrent unroll steps this graph was built with.
    pub seq_len: u64,
    /// Training-set samples consumed per batch element per step — the
    /// predicted tokens of an LM sequence (`q`), the target tokens of a
    /// translation, or 1 for an image classifier. Used for epoch accounting.
    pub labels_per_sample: u64,
}

impl ModelGraph {
    /// Append backward and SGD-update phases (idempotent guard: panics if
    /// already a training graph).
    pub fn into_training(mut self) -> ModelGraph {
        assert!(!self.is_training, "graph is already a training graph");
        build_training_step(&mut self.graph, self.loss)
            .expect("model graphs must be differentiable");
        self.is_training = true;
        self
    }

    /// The batch symbol shared by all models.
    pub fn batch_symbol(&self) -> Symbol {
        Symbol::new(BATCH_SYM)
    }

    /// Bindings with the subbatch size set to `b`.
    pub fn bindings_with_batch(&self, b: u64) -> Bindings {
        Bindings::new().with(BATCH_SYM, b as f64)
    }

    /// Training samples consumed per step at subbatch `b`
    /// (`b · labels_per_sample`).
    pub fn samples_per_step(&self, b: u64) -> f64 {
        (b * self.labels_per_sample) as f64
    }

    /// Trainable parameter count (independent of batch size). Goes through
    /// the hash-consed [`Graph::params_id`](cgraph::Graph) so repeated
    /// queries of the same model family hit the cached batch program.
    pub fn param_count(&self) -> u64 {
        self.graph
            .params_id()
            .eval_u64(&Bindings::new())
            .expect("parameter shapes must not depend on the batch symbol")
    }
}

/// The shared batch-dimension expression.
pub fn batch() -> Expr {
    Expr::sym(BATCH_SYM)
}
