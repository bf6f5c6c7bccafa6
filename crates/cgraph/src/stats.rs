//! Whole-graph algorithmic cost queries.
//!
//! These implement the paper's §2.1 quantities for an entire training-step
//! graph: algorithmic FLOPs, algorithmic bytes accessed, algorithmic IO, and
//! the derived operational intensity. Everything is symbolic; bind a
//! [`symath::Bindings`] to obtain numbers.

use symath::{eval_point, Bindings, Expr, ExprId, UnboundSymbol};

use crate::graph::Graph;
use crate::op::{op_bytes, op_flops, Op, Phase};
use crate::tensor::{Tensor, TensorKind};

/// Symbolic cost summary of a graph.
#[derive(Clone, Debug)]
pub struct GraphStats {
    /// Algorithmic FLOPs per training step (all phases).
    pub flops: Expr,
    /// Forward-phase FLOPs only.
    pub flops_forward: Expr,
    /// Backward-phase FLOPs only.
    pub flops_backward: Expr,
    /// Weight-update-phase FLOPs only (optimizer ops).
    pub flops_update: Expr,
    /// Algorithmic bytes read + written per training step.
    pub bytes: Expr,
    /// Bytes read only.
    pub bytes_read: Expr,
    /// Bytes written only.
    pub bytes_written: Expr,
    /// Trainable parameter count.
    pub params: Expr,
    /// Algorithmic IO: bytes of training data consumed per step.
    pub io: Expr,
}

impl GraphStats {
    /// Operational intensity `flops / bytes` as a symbolic expression.
    pub fn operational_intensity(&self) -> Expr {
        self.flops.clone() / self.bytes.clone()
    }

    /// Evaluate all quantities under `bindings`.
    pub fn eval(&self, bindings: &Bindings) -> Result<NumericStats, UnboundSymbol> {
        Ok(NumericStats {
            flops: self.flops.eval(bindings)?,
            flops_forward: self.flops_forward.eval(bindings)?,
            flops_backward: self.flops_backward.eval(bindings)?,
            flops_update: self.flops_update.eval(bindings)?,
            bytes: self.bytes.eval(bindings)?,
            bytes_read: self.bytes_read.eval(bindings)?,
            bytes_written: self.bytes_written.eval(bindings)?,
            params: self.params.eval(bindings)?,
            io: self.io.eval(bindings)?,
        })
    }

    /// The forward-only view, or `None` if any training phase carries cost.
    ///
    /// The guard is structural: `symath` keeps expressions canonical, so a
    /// backward/update total is zero iff the graph has no priced op in that
    /// phase. Inference paths that call this on a training-step graph get
    /// `None` instead of silently mixed phases.
    pub fn forward_view(&self) -> Option<ForwardStats> {
        if !self.flops_backward.is_zero() || !self.flops_update.is_zero() {
            return None;
        }
        Some(ForwardStats {
            flops: self.flops_forward.clone(),
            bytes: self.bytes.clone(),
            bytes_read: self.bytes_read.clone(),
            bytes_written: self.bytes_written.clone(),
            params: self.params.clone(),
            io: self.io.clone(),
        })
    }
}

/// Forward-only (inference) cost view of a graph.
///
/// Inference reports must not leak training phases: there are no
/// `flops_backward`/`flops_update` fields to mis-read here, and the view is
/// only constructible (via [`GraphStats::forward_view`]) when both training
/// phases are exactly zero — a forward-only build. `flops` is taken from the
/// forward phase, and the byte totals are the graph totals, which on a
/// forward-only graph are forward bytes by construction.
#[derive(Clone, Debug)]
pub struct ForwardStats {
    /// Algorithmic FLOPs per forward pass.
    pub flops: Expr,
    /// Algorithmic bytes read + written per forward pass.
    pub bytes: Expr,
    /// Bytes read only.
    pub bytes_read: Expr,
    /// Bytes written only.
    pub bytes_written: Expr,
    /// Parameter count (elements of all weight tensors).
    pub params: Expr,
    /// Algorithmic IO: bytes of input tensors consumed per pass.
    pub io: Expr,
}

impl ForwardStats {
    /// Operational intensity `flops / bytes` as a symbolic expression.
    pub fn operational_intensity(&self) -> Expr {
        self.flops.clone() / self.bytes.clone()
    }

    /// Evaluate all quantities under `bindings`.
    pub fn eval(&self, bindings: &Bindings) -> Result<NumericForwardStats, UnboundSymbol> {
        Ok(NumericForwardStats {
            flops: self.flops.eval(bindings)?,
            bytes: self.bytes.eval(bindings)?,
            bytes_read: self.bytes_read.eval(bindings)?,
            bytes_written: self.bytes_written.eval(bindings)?,
            params: self.params.eval(bindings)?,
            io: self.io.eval(bindings)?,
        })
    }
}

/// [`ForwardStats`] over hash-consed ids — the representation the inference
/// sweep engine caches per model family (see [`InternedGraphStats`] for the
/// training-step counterpart and the bit-identity contract).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InternedForwardStats {
    /// Algorithmic FLOPs per forward pass.
    pub flops: ExprId,
    /// Algorithmic bytes read + written per forward pass.
    pub bytes: ExprId,
    /// Bytes read only.
    pub bytes_read: ExprId,
    /// Bytes written only.
    pub bytes_written: ExprId,
    /// Parameter count.
    pub params: ExprId,
    /// Input bytes consumed per pass.
    pub io: ExprId,
}

impl InternedForwardStats {
    /// Materialize the tree-expression view.
    pub fn view(&self) -> ForwardStats {
        ForwardStats {
            flops: (*self.flops.expr()).clone(),
            bytes: (*self.bytes.expr()).clone(),
            bytes_read: (*self.bytes_read.expr()).clone(),
            bytes_written: (*self.bytes_written.expr()).clone(),
            params: (*self.params.expr()).clone(),
            io: (*self.io.expr()).clone(),
        }
    }

    /// Substitute integer bindings exactly in every field (memoized).
    pub fn bind_all(&self, bindings: &Bindings) -> InternedForwardStats {
        InternedForwardStats {
            flops: self.flops.bind_all(bindings),
            bytes: self.bytes.bind_all(bindings),
            bytes_read: self.bytes_read.bind_all(bindings),
            bytes_written: self.bytes_written.bind_all(bindings),
            params: self.params.bind_all(bindings),
            io: self.io.bind_all(bindings),
        }
    }

    /// Evaluate all quantities at one point through one batch program over
    /// every field. Bit-identical to [`ForwardStats::eval`] on the viewed
    /// expressions, including the first error in field order.
    pub fn eval(&self, bindings: &Bindings) -> Result<NumericForwardStats, UnboundSymbol> {
        let fields = [
            self.flops,
            self.bytes,
            self.bytes_read,
            self.bytes_written,
            self.params,
            self.io,
        ];
        let v = eval_point(&fields, bindings)?;
        Ok(NumericForwardStats {
            flops: v[0],
            bytes: v[1],
            bytes_read: v[2],
            bytes_written: v[3],
            params: v[4],
            io: v[5],
        })
    }
}

/// Numeric forward-only cost summary (see [`ForwardStats`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NumericForwardStats {
    /// Algorithmic FLOPs per forward pass.
    pub flops: f64,
    /// Algorithmic bytes accessed per forward pass.
    pub bytes: f64,
    /// Bytes read.
    pub bytes_read: f64,
    /// Bytes written.
    pub bytes_written: f64,
    /// Parameters.
    pub params: f64,
    /// Input bytes per pass.
    pub io: f64,
}

impl NumericForwardStats {
    /// Operational intensity `flops / bytes` (FLOP/B).
    pub fn operational_intensity(&self) -> f64 {
        self.flops / self.bytes
    }
}

/// [`GraphStats`] with every quantity as a hash-consed [`ExprId`]: cheap to
/// clone and compare, with memoized substitution ([`bind_all`]) and batch-VM
/// evaluation ([`eval`]) that is bit-identical to the tree walk. This is the
/// representation the sweep engine caches per model family.
///
/// [`bind_all`]: InternedGraphStats::bind_all
/// [`eval`]: InternedGraphStats::eval
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InternedGraphStats {
    /// Algorithmic FLOPs per training step (all phases).
    pub flops: ExprId,
    /// Forward-phase FLOPs only.
    pub flops_forward: ExprId,
    /// Backward-phase FLOPs only.
    pub flops_backward: ExprId,
    /// Weight-update-phase FLOPs only (optimizer ops).
    pub flops_update: ExprId,
    /// Algorithmic bytes read + written per training step.
    pub bytes: ExprId,
    /// Bytes read only.
    pub bytes_read: ExprId,
    /// Bytes written only.
    pub bytes_written: ExprId,
    /// Trainable parameter count.
    pub params: ExprId,
    /// Algorithmic IO: bytes of training data consumed per step.
    pub io: ExprId,
}

impl InternedGraphStats {
    /// Apply a function to every field.
    fn map(&self, mut f: impl FnMut(ExprId) -> ExprId) -> InternedGraphStats {
        InternedGraphStats {
            flops: f(self.flops),
            flops_forward: f(self.flops_forward),
            flops_backward: f(self.flops_backward),
            flops_update: f(self.flops_update),
            bytes: f(self.bytes),
            bytes_read: f(self.bytes_read),
            bytes_written: f(self.bytes_written),
            params: f(self.params),
            io: f(self.io),
        }
    }

    /// Materialize the tree-expression view.
    pub fn view(&self) -> GraphStats {
        GraphStats {
            flops: (*self.flops.expr()).clone(),
            flops_forward: (*self.flops_forward.expr()).clone(),
            flops_backward: (*self.flops_backward.expr()).clone(),
            flops_update: (*self.flops_update.expr()).clone(),
            bytes: (*self.bytes.expr()).clone(),
            bytes_read: (*self.bytes_read.expr()).clone(),
            bytes_written: (*self.bytes_written.expr()).clone(),
            params: (*self.params.expr()).clone(),
            io: (*self.io.expr()).clone(),
        }
    }

    /// Substitute integer bindings exactly in every field (memoized).
    pub fn bind_all(&self, bindings: &Bindings) -> InternedGraphStats {
        self.map(|e| e.bind_all(bindings))
    }

    /// Evaluate all quantities at one point through one batch program over
    /// every field. Bit-identical to [`GraphStats::eval`] on the viewed
    /// expressions, including the first error in field order.
    pub fn eval(&self, bindings: &Bindings) -> Result<NumericStats, UnboundSymbol> {
        let fields = [
            self.flops,
            self.flops_forward,
            self.flops_backward,
            self.flops_update,
            self.bytes,
            self.bytes_read,
            self.bytes_written,
            self.params,
            self.io,
        ];
        let v = eval_point(&fields, bindings)?;
        Ok(NumericStats {
            flops: v[0],
            flops_forward: v[1],
            flops_backward: v[2],
            flops_update: v[3],
            bytes: v[4],
            bytes_read: v[5],
            bytes_written: v[6],
            params: v[7],
            io: v[8],
        })
    }

    /// Interned counterpart of [`GraphStats::forward_view`]: `None` unless
    /// both training-phase ids are the canonical zero (structural equality on
    /// hash-consed ids makes the guard O(1)).
    pub fn forward_view(&self) -> Option<InternedForwardStats> {
        if !self.flops_backward.is_zero() || !self.flops_update.is_zero() {
            return None;
        }
        Some(InternedForwardStats {
            flops: self.flops_forward,
            bytes: self.bytes,
            bytes_read: self.bytes_read,
            bytes_written: self.bytes_written,
            params: self.params,
            io: self.io,
        })
    }
}

/// Numeric cost summary (see [`GraphStats`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NumericStats {
    /// Algorithmic FLOPs per training step.
    pub flops: f64,
    /// Forward-phase FLOPs.
    pub flops_forward: f64,
    /// Backward-phase FLOPs.
    pub flops_backward: f64,
    /// Weight-update-phase FLOPs (optimizer ops).
    pub flops_update: f64,
    /// Algorithmic bytes accessed per step.
    pub bytes: f64,
    /// Bytes read.
    pub bytes_read: f64,
    /// Bytes written.
    pub bytes_written: f64,
    /// Trainable parameters.
    pub params: f64,
    /// Training-data bytes per step.
    pub io: f64,
}

impl NumericStats {
    /// Operational intensity `flops / bytes` (FLOP/B).
    pub fn operational_intensity(&self) -> f64 {
        self.flops / self.bytes
    }

    /// Numeric counterpart of [`GraphStats::forward_view`]: `None` unless
    /// backward and update FLOPs are exactly `0.0`.
    pub fn forward_view(&self) -> Option<NumericForwardStats> {
        if self.flops_backward != 0.0 || self.flops_update != 0.0 {
            return None;
        }
        Some(NumericForwardStats {
            flops: self.flops_forward,
            bytes: self.bytes,
            bytes_read: self.bytes_read,
            bytes_written: self.bytes_written,
            params: self.params,
            io: self.io,
        })
    }
}

/// Whether `FRONTIER_STATS_ORACLE=unfolded` forces the brute-force stats
/// path (checked once per process — flipping the variable mid-run would
/// otherwise poison caches keyed on the expressions).
fn oracle_unfolded() -> bool {
    use std::sync::OnceLock;
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| std::env::var("FRONTIER_STATS_ORACLE").as_deref() == Ok("unfolded"))
}

impl Graph {
    fn resolve<'a>(&'a self, op: &Op) -> (Vec<&'a Tensor>, Vec<&'a Tensor>) {
        let ins = op.inputs.iter().map(|&t| self.tensor(t)).collect();
        let outs = op.outputs.iter().map(|&t| self.tensor(t)).collect();
        (ins, outs)
    }

    /// Algorithmic FLOPs of a single op.
    pub fn op_flops(&self, op: &Op) -> Expr {
        let (ins, outs) = self.resolve(op);
        op_flops(&op.kind, &ins, &outs)
    }

    /// Algorithmic bytes `(read, written)` of a single op.
    pub fn op_bytes(&self, op: &Op) -> (Expr, Expr) {
        let (ins, outs) = self.resolve(op);
        op_bytes(&op.kind, &ins, &outs)
    }

    /// Trainable parameter count (elements of all `Weight` tensors).
    pub fn params(&self) -> Expr {
        self.tensors()
            .iter()
            .filter(|t| t.kind == TensorKind::Weight)
            .map(|t| t.shape.elements())
            .sum()
    }

    /// Algorithmic IO: bytes of `Input` tensors consumed per step.
    pub fn io_bytes(&self) -> Expr {
        self.tensors()
            .iter()
            .filter(|t| t.kind == TensorKind::Input)
            .map(|t| t.bytes())
            .sum()
    }

    /// Interned counterpart of [`Graph::params`] (same canonical sum, via
    /// the memoized algebra).
    pub fn params_id(&self) -> ExprId {
        self.tensors()
            .iter()
            .filter(|t| t.kind == TensorKind::Weight)
            .fold(ExprId::zero(), |acc, t| acc.add(t.shape.elements_id()))
    }

    /// Interned counterpart of [`Graph::io_bytes`].
    pub fn io_bytes_id(&self) -> ExprId {
        self.tensors()
            .iter()
            .filter(|t| t.kind == TensorKind::Input)
            .fold(ExprId::zero(), |acc, t| acc.add(t.bytes_id()))
    }

    /// Compute the full symbolic cost summary.
    ///
    /// Repeated cost-identical ops (unrolled timesteps, residual blocks) are
    /// folded via [`fold_classes`](crate::fold::fold_classes): one
    /// representative cost expression per class, scaled by the class size.
    /// Because `symath` keeps expressions in canonical form with exact
    /// rational coefficients, the result is the *same* `Expr` — and therefore
    /// bit-identical under evaluation — as the op-by-op
    /// [`stats_unfolded`](Graph::stats_unfolded) walk.
    pub fn stats(&self) -> GraphStats {
        self.stats_interned().view()
    }

    /// [`Graph::stats`] accumulated over hash-consed ids: one representative
    /// cost expression per fold class, scaled and summed through the
    /// `symath` memo caches. Families rebuilt across sweeps (or the same op
    /// costs recurring across graphs) hit the memo instead of redoing the
    /// tree algebra. The viewed expressions equal the former direct
    /// accumulation — the memoized ops are the same canonical operations.
    ///
    /// Setting `FRONTIER_STATS_ORACLE=unfolded` in the environment reroutes
    /// this through [`stats_interned_unfolded`](Graph::stats_interned_unfolded)
    /// — the op-by-op brute-force accumulation — so the whole workspace
    /// (sweep engine, server, benches) can be re-tested against the oracle
    /// path with no code change. The override is read once per process.
    pub fn stats_interned(&self) -> InternedGraphStats {
        if oracle_unfolded() {
            return self.stats_interned_unfolded();
        }
        let fold = crate::fold::fold_classes(self);
        // Accumulate in tree form — interning every intermediate accumulator
        // would re-hash the whole growing sum once per fold class. The final
        // totals are interned once each, so the memo caches still serve every
        // downstream `bind_all`/`mul`/`add` on the family.
        let mut flops = Expr::zero();
        let mut flops_forward = Expr::zero();
        let mut flops_backward = Expr::zero();
        let mut flops_update = Expr::zero();
        let mut bytes_read = Expr::zero();
        let mut bytes_written = Expr::zero();
        for class in &fold.classes {
            let op = self.op(class.rep);
            let m = Expr::int(class.count as i128);
            let f = self.op_flops(op) * &m;
            match op.phase {
                Phase::Forward => flops_forward = flops_forward + &f,
                Phase::Backward => flops_backward = flops_backward + &f,
                Phase::Update => flops_update = flops_update + &f,
            }
            flops = flops + f;
            let (r, w) = self.op_bytes(op);
            bytes_read = bytes_read + r * &m;
            bytes_written = bytes_written + w * &m;
        }
        let bytes = bytes_read.clone() + bytes_written.clone();
        InternedGraphStats {
            flops: flops.interned(),
            flops_forward: flops_forward.interned(),
            flops_backward: flops_backward.interned(),
            flops_update: flops_update.interned(),
            bytes: bytes.interned(),
            bytes_read: bytes_read.interned(),
            bytes_written: bytes_written.interned(),
            params: self.params_id(),
            io: self.io_bytes_id(),
        }
    }

    /// The brute-force oracle, interned: [`stats_unfolded`](Graph::stats_unfolded)
    /// accumulated op by op, with only the final totals hash-consed. Because
    /// `symath` expressions are canonical, the ids equal the folded
    /// accumulation's — the fold-exactness claim at the interned level, which
    /// the `FRONTIER_STATS_ORACLE=unfolded` CI pass exercises workspace-wide.
    pub fn stats_interned_unfolded(&self) -> InternedGraphStats {
        let s = self.stats_unfolded();
        InternedGraphStats {
            flops: s.flops.interned(),
            flops_forward: s.flops_forward.interned(),
            flops_backward: s.flops_backward.interned(),
            flops_update: s.flops_update.interned(),
            bytes: s.bytes.interned(),
            bytes_read: s.bytes_read.interned(),
            bytes_written: s.bytes_written.interned(),
            params: s.params.interned(),
            io: s.io.interned(),
        }
    }

    /// The pre-folding reference: accumulate every op's cost individually.
    /// Kept as the brute-force oracle for the fold equivalence suite and the
    /// sweep benchmark baseline.
    pub fn stats_unfolded(&self) -> GraphStats {
        let mut flops = Expr::zero();
        let mut flops_forward = Expr::zero();
        let mut flops_backward = Expr::zero();
        let mut flops_update = Expr::zero();
        let mut bytes_read = Expr::zero();
        let mut bytes_written = Expr::zero();
        for op in self.ops() {
            let f = self.op_flops(op);
            match op.phase {
                Phase::Forward => flops_forward = flops_forward + &f,
                Phase::Backward => flops_backward = flops_backward + &f,
                Phase::Update => flops_update = flops_update + &f,
            }
            flops = flops + f;
            let (r, w) = self.op_bytes(op);
            bytes_read = bytes_read + r;
            bytes_written = bytes_written + w;
        }
        GraphStats {
            flops,
            flops_forward,
            flops_backward,
            flops_update,
            bytes: bytes_read.clone() + bytes_written.clone(),
            bytes_read,
            bytes_written,
            params: self.params(),
            io: self.io_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::PointwiseFn;
    use crate::tensor::DType;
    use symath::Bindings;

    fn mlp() -> Graph {
        let mut g = Graph::new("mlp");
        let b = Expr::sym("st_b");
        let x = g
            .input("x", [b.clone(), Expr::int(64)], DType::F32)
            .unwrap();
        let w1 = g.weight("w1", [Expr::int(64), Expr::int(128)]).unwrap();
        let h = g.matmul("fc1", x, w1, false, false).unwrap();
        let h = g.unary("relu", PointwiseFn::Relu, h).unwrap();
        let w2 = g.weight("w2", [Expr::int(128), Expr::int(10)]).unwrap();
        let _ = g.matmul("fc2", h, w2, false, false).unwrap();
        g
    }

    #[test]
    fn params_count_weight_elements() {
        let g = mlp();
        assert_eq!(g.params(), Expr::int(64 * 128 + 128 * 10));
    }

    #[test]
    fn flops_scale_with_batch() {
        let g = mlp();
        let stats = g.stats();
        let n1 = stats.eval(&Bindings::new().with("st_b", 1.0)).unwrap();
        let n2 = stats.eval(&Bindings::new().with("st_b", 2.0)).unwrap();
        assert!((n2.flops - 2.0 * n1.flops).abs() < 1e-9);
        // fc1: 2·b·64·128, relu: b·128, fc2: 2·b·128·10
        assert_eq!(n1.flops, (2 * 64 * 128 + 128 + 2 * 128 * 10) as f64);
    }

    #[test]
    fn io_counts_only_inputs() {
        let g = mlp();
        let io = g
            .io_bytes()
            .eval(&Bindings::new().with("st_b", 4.0))
            .unwrap();
        assert_eq!(io, (4 * 64 * 4) as f64);
    }

    #[test]
    fn bytes_split_into_read_write() {
        let g = mlp();
        let n = g.stats().eval(&Bindings::new().with("st_b", 1.0)).unwrap();
        assert!(n.bytes_read > 0.0 && n.bytes_written > 0.0);
        assert_eq!(n.bytes, n.bytes_read + n.bytes_written);
        // fc1 reads x (64) + w1 (64·128), writes h (128)...
        let expected_read = (64 + 64 * 128) + 128 + (128 + 128 * 10);
        let expected_write = 128 + 128 + 10;
        assert_eq!(n.bytes_read, (expected_read * 4) as f64);
        assert_eq!(n.bytes_written, (expected_write * 4) as f64);
    }

    #[test]
    fn operational_intensity_is_ratio() {
        let g = mlp();
        let n = g.stats().eval(&Bindings::new().with("st_b", 8.0)).unwrap();
        assert!((n.operational_intensity() - n.flops / n.bytes).abs() < 1e-12);
    }

    #[test]
    fn forward_only_graph_has_zero_backward_flops() {
        let g = mlp();
        let n = g.stats().eval(&Bindings::new().with("st_b", 1.0)).unwrap();
        assert_eq!(n.flops_backward, 0.0);
        assert_eq!(n.flops_update, 0.0);
        assert_eq!(n.flops, n.flops_forward);
    }

    #[test]
    fn forward_view_matches_totals_on_inference_graph() {
        let g = mlp();
        let stats = g.stats();
        let fwd = stats.forward_view().expect("mlp is forward-only");
        let b = Bindings::new().with("st_b", 3.0);
        let n = stats.eval(&b).unwrap();
        let f = fwd.eval(&b).unwrap();
        assert_eq!(f.flops, n.flops);
        assert_eq!(f.bytes, n.bytes);
        assert_eq!(f.bytes_read, n.bytes_read);
        assert_eq!(f.bytes_written, n.bytes_written);
        assert_eq!(f.params, n.params);
        assert_eq!(f.io, n.io);
        // Interned and numeric views agree bit-for-bit with the tree walk.
        let fi = g.stats_interned().forward_view().unwrap();
        assert_eq!(fi.eval(&b).unwrap(), f);
        assert_eq!(n.forward_view(), Some(f));
    }

    #[test]
    fn forward_view_refuses_training_graphs() {
        let mut g = mlp();
        let logits = g.ops().last().unwrap().outputs[0];
        let labels = g.input("labels", [Expr::sym("st_b")], DType::I32).unwrap();
        let loss = g.cross_entropy("loss", logits, labels).unwrap();
        crate::autodiff::build_training_step(&mut g, loss).unwrap();
        assert!(g.stats().forward_view().is_none());
        assert!(g.stats_interned().forward_view().is_none());
        let n = g.stats().eval(&Bindings::new().with("st_b", 2.0)).unwrap();
        assert!(n.forward_view().is_none());
    }

    #[test]
    fn phases_sum_to_total_on_training_graph() {
        let mut g = mlp();
        let logits = g.ops().last().unwrap().outputs[0];
        let labels = g.input("labels", [Expr::sym("st_b")], DType::I32).unwrap();
        let loss = g.cross_entropy("loss", logits, labels).unwrap();
        crate::autodiff::build_training_step(&mut g, loss).unwrap();
        let n = g.stats().eval(&Bindings::new().with("st_b", 16.0)).unwrap();
        assert!(n.flops_forward > 0.0);
        assert!(n.flops_backward > 0.0);
        assert!(n.flops_update > 0.0, "optimizer FLOPs must be attributed");
        // The three phases partition the total exactly.
        assert!(
            (n.flops - (n.flops_forward + n.flops_backward + n.flops_update)).abs()
                <= 1e-9 * n.flops
        );
        // SGD costs 2 FLOPs per parameter.
        assert_eq!(n.flops_update, 2.0 * n.params);
    }
}
