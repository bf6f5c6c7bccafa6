//! Numeric evaluation of expressions under symbol bindings.

use std::collections::BTreeMap;
use std::fmt;

use crate::expr::{Atom, Expr, Func};
use crate::symbol::Symbol;

/// A set of symbol → value bindings used to evaluate expressions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Bindings {
    map: BTreeMap<Symbol, f64>,
}

impl Bindings {
    /// An empty binding set.
    pub fn new() -> Bindings {
        Bindings::default()
    }

    /// Bind `sym` to `value`, replacing any previous binding.
    pub fn set(&mut self, sym: impl Into<Symbol>, value: f64) -> &mut Self {
        self.map.insert(sym.into(), value);
        self
    }

    /// Builder-style binding.
    pub fn with(mut self, sym: impl Into<Symbol>, value: f64) -> Self {
        self.map.insert(sym.into(), value);
        self
    }

    /// Look up the value bound to `sym`, if any.
    pub fn get(&self, sym: Symbol) -> Option<f64> {
        self.map.get(&sym).copied()
    }

    /// True when no symbols are bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of bound symbols.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Iterate over `(symbol, value)` pairs in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, f64)> + '_ {
        self.map.iter().map(|(s, v)| (*s, *v))
    }

    /// Merge `other` into `self`; bindings in `other` win on conflict.
    pub fn extend(&mut self, other: &Bindings) {
        for (s, v) in other.iter() {
            self.map.insert(s, v);
        }
    }
}

impl<S: Into<Symbol>> FromIterator<(S, f64)> for Bindings {
    fn from_iter<I: IntoIterator<Item = (S, f64)>>(iter: I) -> Bindings {
        let mut b = Bindings::new();
        for (s, v) in iter {
            b.set(s, v);
        }
        b
    }
}

/// Evaluation failure: a symbol had no binding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnboundSymbol(pub Symbol);

impl fmt::Display for UnboundSymbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unbound symbol `{}`", self.0)
    }
}

impl std::error::Error for UnboundSymbol {}

/// Round an evaluated count (elements, bytes) to the nearest `u64` — the one
/// rounding rule every `eval_u64` and batched element-count read shares.
///
/// # Panics
/// Panics if `v` is not finite or rounds below zero.
pub fn round_u64(v: f64) -> u64 {
    assert!(
        v.is_finite() && v >= -0.5,
        "expression evaluated to non-representable u64: {v}"
    );
    v.round().max(0.0) as u64
}

impl Expr {
    /// Evaluate to an `f64` under `bindings`.
    ///
    /// Returns an error naming the first unbound symbol encountered.
    pub fn eval(&self, bindings: &Bindings) -> Result<f64, UnboundSymbol> {
        let mut total = 0.0;
        for t in self.terms() {
            let mut val = t.coeff.to_f64();
            for (a, e) in &t.factors {
                let base = match a {
                    Atom::Sym(s) => bindings.get(*s).ok_or(UnboundSymbol(*s))?,
                    Atom::Expr(inner) => inner.eval(bindings)?,
                    Atom::Func(f) => match f {
                        Func::Max(args) => {
                            let mut best = f64::NEG_INFINITY;
                            for x in args {
                                best = best.max(x.eval(bindings)?);
                            }
                            best
                        }
                        Func::Min(args) => {
                            let mut best = f64::INFINITY;
                            for x in args {
                                best = best.min(x.eval(bindings)?);
                            }
                            best
                        }
                        Func::Ceil(x) => x.eval(bindings)?.ceil(),
                    },
                };
                val *= base.powf(e.to_f64());
            }
            total += val;
        }
        Ok(total)
    }

    /// Evaluate and round to the nearest unsigned integer ([`round_u64`]).
    ///
    /// # Panics
    /// Panics if the value is negative or not finite.
    pub fn eval_u64(&self, bindings: &Bindings) -> Result<u64, UnboundSymbol> {
        Ok(round_u64(self.eval(bindings)?))
    }

    /// Substitute every binding as an exact constant and return the
    /// simplified expression. Values must be exactly representable integers.
    pub fn bind_all(&self, bindings: &Bindings) -> Expr {
        let mut out = self.clone();
        for (s, v) in bindings.iter() {
            assert!(
                v.fract() == 0.0 && v.abs() < 2f64.powi(96),
                "bind_all requires integer-valued bindings, got {s}={v}"
            );
            out = out.subst(s, &Expr::int(v as i128));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluates_polynomials() {
        let h = Expr::sym("eval_h");
        let e = h.pow(2) * Expr::int(3) + &h + Expr::int(1);
        let b = Bindings::new().with("eval_h", 4.0);
        assert_eq!(e.eval(&b).unwrap(), 53.0);
    }

    #[test]
    fn evaluates_fractional_powers() {
        let p = Expr::sym("eval_p");
        let b = Bindings::new().with("eval_p", 256.0);
        assert_eq!(p.sqrt().eval(&b).unwrap(), 16.0);
    }

    #[test]
    fn evaluates_max_min_ceil() {
        let x = Expr::sym("eval_x");
        let b = Bindings::new().with("eval_x", 2.5);
        let m = Expr::max(vec![x.clone(), Expr::int(2)]);
        assert_eq!(m.eval(&b).unwrap(), 2.5);
        let n = Expr::min(vec![x.clone(), Expr::int(2)]);
        assert_eq!(n.eval(&b).unwrap(), 2.0);
        let c = Expr::ceil(x.clone());
        assert_eq!(c.eval(&b).unwrap(), 3.0);
    }

    #[test]
    fn unbound_symbol_is_an_error() {
        let e = Expr::sym("eval_missing");
        let err = e.eval(&Bindings::new()).unwrap_err();
        assert_eq!(err.0, crate::Symbol::new("eval_missing"));
    }

    #[test]
    fn composite_reciprocal_evaluates() {
        let h = Expr::sym("eval_h2");
        let e = Expr::int(10) / (h.clone() + Expr::int(1));
        let b = Bindings::new().with("eval_h2", 4.0);
        assert_eq!(e.eval(&b).unwrap(), 2.0);
    }

    #[test]
    fn bind_all_produces_constant() {
        let h = Expr::sym("eval_h3");
        let v = Expr::sym("eval_v3");
        let e = h.clone() * v.clone() + h.clone();
        let b = Bindings::new().with("eval_h3", 3.0).with("eval_v3", 5.0);
        let bound = e.bind_all(&b);
        assert_eq!(bound.as_const().map(|c| c.to_f64()), Some(18.0));
    }

    #[test]
    fn bindings_extend_overrides() {
        let mut a = Bindings::new().with("eval_k", 1.0);
        let b = Bindings::new().with("eval_k", 2.0).with("eval_j", 3.0);
        a.extend(&b);
        assert_eq!(a.get(Symbol::new("eval_k")), Some(2.0));
        assert_eq!(a.len(), 2);
    }
}
