//! Sparse BIP model builder.
//!
//! All variables are binary (`{0, 1}`); the LP relaxation solves over
//! `[0, 1]`.  Warm re-solves of a model whose layout stays put (§4.2: a new
//! right-hand side, a pinned variable, a re-weighted objective) go through
//! [`DeltaModel`](crate::DeltaModel).

use serde::{Deserialize, Serialize};

/// Identifier of a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VarId(pub u32);

/// Identifier of a model constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ConstrId(pub u32);

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Sense {
    Le,
    Ge,
    Eq,
}

/// A sparse linear expression `Σ coeff · var`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LinExpr {
    pub terms: Vec<(VarId, f64)>,
}

impl LinExpr {
    pub fn new() -> Self {
        LinExpr::default()
    }

    pub fn term(mut self, v: VarId, c: f64) -> Self {
        self.terms.push((v, c));
        self
    }

    pub fn add(&mut self, v: VarId, c: f64) {
        self.terms.push((v, c));
    }

    /// Merge duplicate variables and drop zero coefficients.
    pub(crate) fn normalize(&mut self) {
        self.terms.sort_by_key(|(v, _)| *v);
        let mut out: Vec<(VarId, f64)> = Vec::with_capacity(self.terms.len());
        for &(v, c) in &self.terms {
            match out.last_mut() {
                Some((lv, lc)) if *lv == v => *lc += c,
                _ => out.push((v, c)),
            }
        }
        out.retain(|(_, c)| c.abs() > 0.0);
        self.terms = out;
    }

    /// Evaluate under a 0/1 (or fractional) assignment.
    pub fn value(&self, x: &[f64]) -> f64 {
        self.terms.iter().map(|(v, c)| c * x[v.0 as usize]).sum()
    }
}

/// One linear constraint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    pub expr: LinExpr,
    pub sense: Sense,
    pub rhs: f64,
}

impl Constraint {
    /// Is the constraint satisfied by `x` within `tol`?
    pub fn satisfied(&self, x: &[f64], tol: f64) -> bool {
        let lhs = self.expr.value(x);
        match self.sense {
            Sense::Le => lhs <= self.rhs + tol,
            Sense::Ge => lhs >= self.rhs - tol,
            Sense::Eq => (lhs - self.rhs).abs() <= tol,
        }
    }
}

/// A binary integer program `min cᵀx  s.t.  Ax {≤,=,≥} b, x ∈ {0,1}ⁿ`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Model {
    objective: Vec<f64>,
    names: Vec<String>,
    constraints: Vec<Constraint>,
}

impl Model {
    pub fn new() -> Self {
        Model::default()
    }

    /// Add a binary variable with the given objective coefficient.
    pub fn add_var(&mut self, name: impl Into<String>, obj: f64) -> VarId {
        let id = VarId(self.objective.len() as u32);
        self.objective.push(obj);
        self.names.push(name.into());
        id
    }

    /// Add a constraint (the expression is normalized in place).
    pub fn add_constraint(&mut self, mut expr: LinExpr, sense: Sense, rhs: f64) -> ConstrId {
        expr.normalize();
        debug_assert!(
            expr.terms.iter().all(|(v, _)| (v.0 as usize) < self.objective.len()),
            "constraint references unknown variable"
        );
        let id = ConstrId(self.constraints.len() as u32);
        self.constraints.push(Constraint { expr, sense, rhs });
        id
    }

    pub fn n_vars(&self) -> usize {
        self.objective.len()
    }

    pub fn n_constraints(&self) -> usize {
        self.constraints.len()
    }

    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    pub fn set_objective(&mut self, v: VarId, obj: f64) {
        self.objective[v.0 as usize] = obj;
    }

    /// Replace the whole objective vector (one λ step of a Pareto sweep).
    /// Panics if `coeffs` does not cover every variable.
    pub(crate) fn set_objective_coeffs(&mut self, coeffs: &[f64]) {
        assert_eq!(coeffs.len(), self.objective.len(), "objective vector must cover all vars");
        self.objective.copy_from_slice(coeffs);
    }

    pub fn var_name(&self, v: VarId) -> &str {
        &self.names[v.0 as usize]
    }

    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    pub fn constraint(&self, c: ConstrId) -> &Constraint {
        &self.constraints[c.0 as usize]
    }

    /// Replace one constraint's right-hand side in place (the
    /// tighten/relax-RHS delta of interactive re-optimization).  The row's
    /// expression and sense are untouched, so a basis snapshotted on the old
    /// RHS stays structurally valid — and dual feasible, since reduced costs
    /// do not depend on `b`.
    pub fn set_rhs(&mut self, c: ConstrId, rhs: f64) {
        self.constraints[c.0 as usize].rhs = rhs;
    }

    /// Objective value of an assignment.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.n_vars());
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Are all constraints satisfied by `x` within `tol`?
    pub fn feasible(&self, x: &[f64], tol: f64) -> bool {
        self.constraints.iter().all(|c| c.satisfied(x, tol))
    }

    /// Indices of constraints violated by `x`.
    pub fn violated(&self, x: &[f64], tol: f64) -> Vec<ConstrId> {
        self.constraints
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.satisfied(x, tol))
            .map(|(i, _)| ConstrId(i as u32))
            .collect()
    }

    /// Exhaustive optimum over all 2ⁿ assignments — test oracle only.
    ///
    /// Panics if the model has more than 24 variables.
    pub fn brute_force(&self) -> Option<(f64, Vec<f64>)> {
        let n = self.n_vars();
        assert!(n <= 24, "brute force is a test oracle for tiny models");
        let mut best: Option<(f64, Vec<f64>)> = None;
        let mut x = vec![0.0; n];
        for mask in 0..(1u64 << n) {
            for (i, xi) in x.iter_mut().enumerate() {
                *xi = f64::from((mask >> i & 1) as u32);
            }
            if !self.feasible(&x, 1e-9) {
                continue;
            }
            let obj = self.objective_value(&x);
            if best.as_ref().is_none_or(|(b, _)| obj < *b) {
                best = Some((obj, x.clone()));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linexpr_normalize_merges_and_drops() {
        let mut e = LinExpr::new().term(VarId(1), 2.0).term(VarId(0), 1.0).term(VarId(1), -2.0);
        e.normalize();
        assert_eq!(e.terms, vec![(VarId(0), 1.0)]);
    }

    #[test]
    fn model_build_and_evaluate() {
        let mut m = Model::new();
        let a = m.add_var("a", 3.0);
        let b = m.add_var("b", -1.0);
        m.add_constraint(LinExpr::new().term(a, 1.0).term(b, 1.0), Sense::Le, 1.0);
        assert_eq!(m.n_vars(), 2);
        assert_eq!(m.n_constraints(), 1);
        assert_eq!(m.var_name(a), "a");
        let x = vec![1.0, 0.0];
        assert_eq!(m.objective_value(&x), 3.0);
        assert!(m.feasible(&x, 1e-9));
        assert!(!m.feasible(&[1.0, 1.0], 1e-9));
        assert_eq!(m.violated(&[1.0, 1.0], 1e-9).len(), 1);
    }

    #[test]
    fn constraint_senses() {
        let e = LinExpr::new().term(VarId(0), 1.0);
        let le = Constraint { expr: e.clone(), sense: Sense::Le, rhs: 0.5 };
        let ge = Constraint { expr: e.clone(), sense: Sense::Ge, rhs: 0.5 };
        let eq = Constraint { expr: e, sense: Sense::Eq, rhs: 1.0 };
        assert!(le.satisfied(&[0.0], 1e-9) && !le.satisfied(&[1.0], 1e-9));
        assert!(!ge.satisfied(&[0.0], 1e-9) && ge.satisfied(&[1.0], 1e-9));
        assert!(eq.satisfied(&[1.0], 1e-9) && !eq.satisfied(&[0.0], 1e-9));
    }

    #[test]
    fn brute_force_oracle() {
        // min −x − y  s.t. x + y ≤ 1  → optimum −1.
        let mut m = Model::new();
        let x = m.add_var("x", -1.0);
        let y = m.add_var("y", -1.0);
        m.add_constraint(LinExpr::new().term(x, 1.0).term(y, 1.0), Sense::Le, 1.0);
        let (obj, sol) = m.brute_force().unwrap();
        assert_eq!(obj, -1.0);
        assert_eq!(sol.iter().sum::<f64>(), 1.0);
    }

    #[test]
    fn brute_force_detects_infeasible() {
        let mut m = Model::new();
        let x = m.add_var("x", 1.0);
        m.add_constraint(LinExpr::new().term(x, 1.0), Sense::Ge, 2.0);
        assert!(m.brute_force().is_none());
    }
}
