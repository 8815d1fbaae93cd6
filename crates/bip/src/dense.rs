//! The pre-sparse dense simplex, kept as a test-only reference oracle.
//!
//! This is the PR-6 production kernel verbatim: an explicit dense `B⁻¹`
//! updated by O(m²) product-form pivots, Dantzig pricing with a Bland
//! anti-cycling fallback, and the plain (non-bound-flipping) dual ratio
//! test.  The module is compiled only under `cfg(test)`: nothing shipped
//! can reach it.  The differential tests — `lp_equivalence` and the
//! `engines_agree_*` unit tests in `simplex` and `dual` — call
//! [`dense_solve`] / [`dense_resolve`] directly on the same random LPs and
//! pinch chains as the shipped sparse kernel and require equal verdicts and
//! objectives, which pins the sparse kernel's semantics to a known-good
//! implementation.

#![allow(clippy::needless_range_loop)]

use crate::model::{Model, Sense};
use crate::simplex::{
    Basis, LpResult, LpStatus, SimplexSolver, VarState, DEADLINE_CHECK_INTERVAL, PIVOT_TOL,
    REFACTOR_EVERY,
};

/// Dense standard-form workspace: the old `Tableau` with an explicit
/// row-major `B⁻¹`.
pub(crate) struct DenseTableau {
    cols: Vec<Vec<(usize, f64)>>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    rhs: Vec<f64>,
    n_structural: usize,
    n_artificial_start: usize,
    m: usize,
    state: Vec<VarState>,
    basis: Vec<usize>,
    binv: Vec<f64>, // m×m row-major
    xb: Vec<f64>,
    refactorizations: usize,
}

impl DenseTableau {
    fn build(model: &Model, lo: &[f64], hi: &[f64]) -> DenseTableau {
        let n = model.n_vars();
        let m = model.n_constraints();
        assert_eq!(lo.len(), n);
        assert_eq!(hi.len(), n);

        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut rhs = Vec::with_capacity(m);
        for (i, c) in model.constraints().iter().enumerate() {
            for &(v, a) in &c.expr.terms {
                cols[v.0 as usize].push((i, a));
            }
            rhs.push(c.rhs);
        }
        let mut lo = lo.to_vec();
        let mut hi = hi.to_vec();

        for (i, c) in model.constraints().iter().enumerate() {
            let coeff = match c.sense {
                Sense::Le => 1.0,
                Sense::Ge => -1.0,
                Sense::Eq => continue,
            };
            cols.push(vec![(i, coeff)]);
            lo.push(0.0);
            hi.push(f64::INFINITY);
        }
        let n_artificial_start = cols.len();

        for i in 0..m {
            cols.push(vec![(i, 1.0)]);
            lo.push(0.0);
            hi.push(f64::INFINITY);
        }

        let total = cols.len();
        DenseTableau {
            cols,
            lo,
            hi,
            rhs,
            n_structural: n,
            n_artificial_start,
            m,
            state: vec![VarState::Lower; total],
            basis: Vec::new(),
            binv: Vec::new(),
            xb: Vec::new(),
            refactorizations: 0,
        }
    }

    fn nb_value(&self, j: usize) -> f64 {
        match self.state[j] {
            VarState::Lower => self.lo[j],
            VarState::Upper => self.hi[j],
            VarState::Basic => unreachable!("basic variable has no bound value"),
        }
    }

    fn snapshot(&self) -> Basis {
        Basis {
            state: self.state.clone(),
            basis: self.basis.clone(),
            art_sigma: (0..self.m).map(|i| self.cols[self.n_artificial_start + i][0].1).collect(),
            n_structural: self.n_structural,
        }
    }

    fn restore(&mut self, b: &Basis) -> bool {
        if b.n_structural != self.n_structural
            || b.state.len() != self.cols.len()
            || b.basis.len() != self.m
            || b.art_sigma.len() != self.m
        {
            return false;
        }
        self.state.copy_from_slice(&b.state);
        self.basis.clone_from(&b.basis);
        self.binv = vec![0.0; self.m * self.m];
        self.xb = vec![0.0; self.m];
        for (i, &sigma) in b.art_sigma.iter().enumerate() {
            self.cols[self.n_artificial_start + i][0].1 = sigma;
        }
        for j in self.n_artificial_start..self.cols.len() {
            self.hi[j] = 0.0;
        }
        self.refactor()
    }

    fn init_basis(&mut self) {
        let mut r = self.rhs.clone();
        for j in 0..self.n_artificial_start {
            let v = self.lo[j];
            if v != 0.0 {
                for &(i, a) in &self.cols[j] {
                    r[i] -= a * v;
                }
            }
            self.state[j] = VarState::Lower;
        }
        self.basis = (0..self.m).map(|i| self.n_artificial_start + i).collect();
        self.binv = vec![0.0; self.m * self.m];
        self.xb = vec![0.0; self.m];
        for i in 0..self.m {
            let art = self.n_artificial_start + i;
            let sigma = if r[i] >= 0.0 { 1.0 } else { -1.0 };
            self.cols[art][0].1 = sigma;
            self.binv[i * self.m + i] = sigma;
            self.xb[i] = r[i].abs();
            self.state[art] = VarState::Basic;
        }
    }

    /// `w = B⁻¹ · col_j` (dense row sweeps).
    fn ftran(&self, j: usize, w: &mut [f64]) {
        w.fill(0.0);
        for &(r, a) in &self.cols[j] {
            if a == 0.0 {
                continue;
            }
            for i in 0..self.m {
                w[i] += self.binv[i * self.m + r] * a;
            }
        }
    }

    fn duals(&self, cost: &[f64], y: &mut [f64]) {
        y.fill(0.0);
        for (k, &bv) in self.basis.iter().enumerate() {
            let cb = cost[bv];
            if cb == 0.0 {
                continue;
            }
            let row = &self.binv[k * self.m..(k + 1) * self.m];
            for i in 0..self.m {
                y[i] += cb * row[i];
            }
        }
    }

    fn reduced_cost(&self, cost: &[f64], y: &[f64], j: usize) -> f64 {
        let mut d = cost[j];
        for &(i, a) in &self.cols[j] {
            d -= y[i] * a;
        }
        d
    }

    /// Rebuild `B⁻¹` and `x_B` from scratch (Gauss-Jordan with partial
    /// pivoting).  Returns false if the basis matrix is numerically singular.
    fn refactor(&mut self) -> bool {
        let m = self.m;
        let mut a = vec![0.0; m * m];
        for (k, &bv) in self.basis.iter().enumerate() {
            for &(i, v) in &self.cols[bv] {
                a[i * m + k] = v;
            }
        }
        let mut inv = vec![0.0; m * m];
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        for col in 0..m {
            let mut piv = col;
            let mut best = a[col * m + col].abs();
            for r in (col + 1)..m {
                let v = a[r * m + col].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best < 1e-12 {
                return false;
            }
            if piv != col {
                for c in 0..m {
                    a.swap(col * m + c, piv * m + c);
                    inv.swap(col * m + c, piv * m + c);
                }
            }
            let d = a[col * m + col];
            for c in 0..m {
                a[col * m + c] /= d;
                inv[col * m + c] /= d;
            }
            for r in 0..m {
                if r == col {
                    continue;
                }
                let f = a[r * m + col];
                if f == 0.0 {
                    continue;
                }
                for c in 0..m {
                    a[r * m + c] -= f * a[col * m + c];
                    inv[r * m + c] -= f * inv[col * m + c];
                }
            }
        }
        self.binv = inv;
        self.refactorizations += 1;
        self.recompute_xb();
        true
    }

    fn recompute_xb(&mut self) {
        let mut r = self.rhs.clone();
        for j in 0..self.cols.len() {
            if self.state[j] == VarState::Basic {
                continue;
            }
            let v = self.nb_value(j);
            if v != 0.0 && v.is_finite() {
                for &(i, a) in &self.cols[j] {
                    r[i] -= a * v;
                }
            }
        }
        for i in 0..self.m {
            let mut s = 0.0;
            let row = &self.binv[i * self.m..(i + 1) * self.m];
            for k in 0..self.m {
                s += row[k] * r[k];
            }
            self.xb[i] = s;
        }
    }

    /// Product-form update of `B⁻¹` on pivot `w[r]`.
    fn pivot_binv(&mut self, r: usize, w: &[f64]) {
        let m = self.m;
        let piv = w[r];
        for i in 0..m {
            if i == r {
                continue;
            }
            let f = w[i] / piv;
            if f == 0.0 {
                continue;
            }
            let (head, tail) = self.binv.split_at_mut(r.max(i) * m);
            let (row_i, row_r) = if i < r {
                (&mut head[i * m..(i + 1) * m], &tail[..m])
            } else {
                (&mut tail[..m], &head[r * m..(r + 1) * m])
            };
            for k in 0..m {
                row_i[k] -= f * row_r[k];
            }
        }
        for k in 0..m {
            self.binv[r * m + k] /= piv;
        }
    }

    /// The old primal loop: Dantzig pricing with a Bland fallback.
    fn run(
        &mut self,
        cost: &[f64],
        tol: f64,
        max_iters: usize,
        deadline: Option<std::time::Instant>,
    ) -> (LpStatus, usize) {
        let m = self.m;
        let mut y = vec![0.0; m];
        let mut w = vec![0.0; m];
        let mut degenerate_run = 0usize;
        let mut since_refactor = 0usize;

        for iter in 0..max_iters {
            if iter % DEADLINE_CHECK_INTERVAL == 0 {
                if let Some(dl) = deadline {
                    if std::time::Instant::now() >= dl {
                        return (LpStatus::IterLimit, iter);
                    }
                }
            }
            self.duals(cost, &mut y);

            let bland = degenerate_run > 2 * (m + 16);
            let mut entering: Option<(usize, f64, f64)> = None; // (j, d, score)
            for j in 0..self.cols.len() {
                if self.state[j] == VarState::Basic || self.lo[j] >= self.hi[j] {
                    continue;
                }
                let d = self.reduced_cost(cost, &y, j);
                let improving = match self.state[j] {
                    VarState::Lower => d < -tol,
                    VarState::Upper => d > tol,
                    VarState::Basic => false,
                };
                if !improving {
                    continue;
                }
                if bland {
                    entering = Some((j, d, d.abs()));
                    break;
                }
                let score = d.abs();
                if entering.as_ref().is_none_or(|(_, _, s)| score > *s) {
                    entering = Some((j, d, score));
                }
            }
            let Some((j, _d, _)) = entering else {
                return (LpStatus::Optimal, iter);
            };

            let sigma = if self.state[j] == VarState::Lower { 1.0 } else { -1.0 };
            self.ftran(j, &mut w);

            let mut t_max = self.hi[j] - self.lo[j];
            let mut leaving: Option<(usize, VarState)> = None;
            for i in 0..m {
                let delta = sigma * w[i];
                let bv = self.basis[i];
                if delta > PIVOT_TOL {
                    let room = self.xb[i] - self.lo[bv];
                    let limit = (room / delta).max(0.0);
                    if limit < t_max - 1e-12 || (bland && limit <= t_max && leaving.is_none()) {
                        t_max = limit;
                        leaving = Some((i, VarState::Lower));
                    }
                } else if delta < -PIVOT_TOL && self.hi[bv].is_finite() {
                    let room = self.hi[bv] - self.xb[i];
                    let limit = (room / -delta).max(0.0);
                    if limit < t_max - 1e-12 {
                        t_max = limit;
                        leaving = Some((i, VarState::Upper));
                    }
                }
            }

            if t_max.is_infinite() {
                return (LpStatus::Unbounded, iter);
            }
            degenerate_run = if t_max <= 1e-10 { degenerate_run + 1 } else { 0 };

            for i in 0..m {
                self.xb[i] -= sigma * t_max * w[i];
            }
            match leaving {
                None => {
                    self.state[j] = if self.state[j] == VarState::Lower {
                        VarState::Upper
                    } else {
                        VarState::Lower
                    };
                }
                Some((r, leave_to)) => {
                    let old = self.basis[r];
                    let entering_val = match self.state[j] {
                        VarState::Lower => self.lo[j] + t_max,
                        VarState::Upper => self.hi[j] - t_max,
                        VarState::Basic => unreachable!(),
                    };
                    self.state[old] = leave_to;
                    self.state[j] = VarState::Basic;
                    self.basis[r] = j;
                    debug_assert!(w[r].abs() > PIVOT_TOL * 0.1);
                    self.pivot_binv(r, &w);
                    self.xb[r] = entering_val;

                    since_refactor += 1;
                    if since_refactor >= REFACTOR_EVERY {
                        since_refactor = 0;
                        if !self.refactor() {
                            return (LpStatus::Singular, iter);
                        }
                    }
                }
            }
        }
        (LpStatus::IterLimit, max_iters)
    }

    fn structural_x(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.n_structural];
        for (j, xi) in x.iter_mut().enumerate() {
            *xi = match self.state[j] {
                VarState::Lower => self.lo[j],
                VarState::Upper => self.hi[j],
                VarState::Basic => {
                    let r = self.basis.iter().position(|&b| b == j).expect("basic var in basis");
                    self.xb[r]
                }
            };
        }
        x
    }
}

/// The old two-phase primal solve on the dense tableau, armed with
/// `solver`'s tolerance, pivot cap and deadline.  It has neither the
/// no-constraint shortcut nor the expired-deadline entry check of
/// [`SimplexSolver::solve`]: callers pass models with at least one row.
pub(crate) fn dense_solve(
    solver: &SimplexSolver,
    model: &Model,
    lo: &[f64],
    hi: &[f64],
) -> LpResult {
    let n = model.n_vars();
    let mut t = DenseTableau::build(model, lo, hi);
    t.init_basis();

    let mut phase1_cost = vec![0.0; t.cols.len()];
    for j in t.n_artificial_start..t.cols.len() {
        phase1_cost[j] = 1.0;
    }
    let (s1, it1) = t.run(&phase1_cost, solver.tol, solver.max_iters, solver.deadline);
    if matches!(s1, LpStatus::IterLimit | LpStatus::Singular) {
        return LpResult {
            status: s1,
            x: vec![0.0; n],
            objective: f64::INFINITY,
            iterations: it1,
            basis: None,
            refactorizations: t.refactorizations,
            devex_resets: 0,
            factor_recoveries: 0,
        };
    }
    let infeas: f64 = t
        .basis
        .iter()
        .enumerate()
        .filter(|(_, &bv)| bv >= t.n_artificial_start)
        .map(|(i, _)| t.xb[i].max(0.0))
        .sum();
    if infeas > 1e-6 {
        return LpResult {
            status: LpStatus::Infeasible,
            x: vec![0.0; n],
            objective: f64::INFINITY,
            iterations: it1,
            basis: None,
            refactorizations: t.refactorizations,
            devex_resets: 0,
            factor_recoveries: 0,
        };
    }

    for j in t.n_artificial_start..t.cols.len() {
        t.hi[j] = 0.0;
        if t.state[j] != VarState::Basic {
            t.state[j] = VarState::Lower;
        }
    }
    let mut phase2_cost = vec![0.0; t.cols.len()];
    phase2_cost[..n].copy_from_slice(model.objective());
    let (s2, it2) = t.run(&phase2_cost, solver.tol, solver.max_iters, solver.deadline);

    let x = t.structural_x();
    let objective = model.objective_value(&x);
    let basis = (s2 == LpStatus::Optimal).then(|| t.snapshot());
    LpResult {
        status: s2,
        x,
        objective,
        iterations: it1 + it2,
        basis,
        refactorizations: t.refactorizations,
        devex_resets: 0,
        factor_recoveries: 0,
    }
}

/// The old dual-simplex re-solve (most-violated leaving row, plain dual
/// ratio test, no bound flipping) on the dense tableau, armed with `dual`'s
/// tolerance, pivot cap and deadline.
pub(crate) fn dense_resolve(
    dual: &SimplexSolver,
    model: &Model,
    lo: &[f64],
    hi: &[f64],
    basis: &Basis,
) -> Option<LpResult> {
    let mut t = DenseTableau::build(model, lo, hi);
    if !t.restore(basis) {
        return None;
    }
    let n = model.n_vars();
    let mut cost = vec![0.0; t.cols.len()];
    cost[..n].copy_from_slice(model.objective());
    let (status, iterations) = run_dual_dense(dual, &mut t, &cost);
    let x = t.structural_x();
    let objective = model.objective_value(&x);
    let snap = (status == LpStatus::Optimal).then(|| t.snapshot());
    Some(LpResult {
        status,
        x,
        objective,
        iterations,
        basis: snap,
        refactorizations: t.refactorizations,
        devex_resets: 0,
        factor_recoveries: 0,
    })
}

fn run_dual_dense(dual: &SimplexSolver, t: &mut DenseTableau, cost: &[f64]) -> (LpStatus, usize) {
    let m = t.m;
    let mut y = vec![0.0; m];
    let mut rho = vec![0.0; m];
    let mut w = vec![0.0; m];
    let mut since_refactor = 0usize;

    for iter in 0..dual.max_iters {
        if iter % DEADLINE_CHECK_INTERVAL == 0 {
            if let Some(dl) = dual.deadline {
                if std::time::Instant::now() >= dl {
                    return (LpStatus::IterLimit, iter);
                }
            }
        }

        // Leaving row: the most violated basic variable.
        let mut leave: Option<(usize, f64, VarState)> = None;
        for i in 0..m {
            let bv = t.basis[i];
            let below = t.lo[bv] - t.xb[i];
            let above = t.xb[i] - t.hi[bv];
            if below > dual.tol && leave.as_ref().is_none_or(|(_, v, _)| below > *v) {
                leave = Some((i, below, VarState::Lower));
            }
            if above > dual.tol && leave.as_ref().is_none_or(|(_, v, _)| above > *v) {
                leave = Some((i, above, VarState::Upper));
            }
        }
        let Some((r, _, leave_to)) = leave else {
            return (LpStatus::Optimal, iter);
        };

        rho.copy_from_slice(&t.binv[r * m..(r + 1) * m]);
        t.duals(cost, &mut y);

        let increase = leave_to == VarState::Lower;
        let mut entering: Option<(usize, f64)> = None; // (j, ratio)
        for j in 0..t.cols.len() {
            if t.state[j] == VarState::Basic || t.lo[j] >= t.hi[j] {
                continue;
            }
            let alpha: f64 = t.cols[j].iter().map(|&(i, a)| rho[i] * a).sum();
            if alpha.abs() <= PIVOT_TOL {
                continue;
            }
            let eligible = match (t.state[j], increase) {
                (VarState::Lower, true) | (VarState::Upper, false) => alpha < 0.0,
                (VarState::Upper, true) | (VarState::Lower, false) => alpha > 0.0,
                (VarState::Basic, _) => false,
            };
            if !eligible {
                continue;
            }
            let d = t.reduced_cost(cost, &y, j);
            let dmag = match t.state[j] {
                VarState::Lower => d.max(0.0),
                VarState::Upper => (-d).max(0.0),
                VarState::Basic => unreachable!(),
            };
            let ratio = dmag / alpha.abs();
            if entering.as_ref().is_none_or(|&(_, best)| ratio < best - 1e-12) {
                entering = Some((j, ratio));
            }
        }
        let Some((j, _)) = entering else {
            return (LpStatus::Infeasible, iter);
        };

        let bv = t.basis[r];
        let delta = match leave_to {
            VarState::Lower => t.xb[r] - t.lo[bv],
            VarState::Upper => t.xb[r] - t.hi[bv],
            VarState::Basic => unreachable!(),
        };
        t.ftran(j, &mut w);
        let alpha = w[r];
        if alpha.abs() <= PIVOT_TOL {
            return (LpStatus::Singular, iter);
        }
        let t_e = delta / alpha;
        let enter_val = t.nb_value(j) + t_e;
        for i in 0..m {
            if i != r {
                t.xb[i] -= t_e * w[i];
            }
        }
        t.state[bv] = leave_to;
        t.state[j] = VarState::Basic;
        t.basis[r] = j;
        t.pivot_binv(r, &w);
        t.xb[r] = enter_val;

        since_refactor += 1;
        if since_refactor >= REFACTOR_EVERY {
            since_refactor = 0;
            if !t.refactor() {
                return (LpStatus::Singular, iter);
            }
        }
    }
    (LpStatus::IterLimit, dual.max_iters)
}
