//! Two-phase bounded-variable **sparse revised** primal simplex.
//!
//! Solves the LP relaxation `min cᵀx, Ax {≤,=,≥} b, lo ≤ x ≤ hi` of a
//! [`Model`].  Design notes:
//!
//! * **Bounded variables** — nonbasic variables rest at either bound, so
//!   branch-and-bound can fix binaries by pinching `[lo, hi]` without adding
//!   rows.
//! * **Phase 1 with artificials** — every row gets an artificial variable
//!   signed to make the initial basis feasible; minimizing their sum either
//!   reaches zero (feasible) or proves infeasibility.
//! * **Sparse LU basis factorization** — the basis is factorized by the
//!   left-looking sparse LU in the `factor` module (Markowitz-style column
//!   ordering, threshold partial pivoting) and kept current between
//!   refactorizations with a product-form **eta file**: each pivot appends
//!   one sparse eta vector, and the factors are rebuilt from scratch every
//!   `REFACTOR_EVERY` pivots for numerical hygiene.  `ftran`/`btran` cost
//!   O(nnz) instead of the O(m²) row sweeps of the dense explicit `B⁻¹` the
//!   crate used before; that tableau (`dense.rs`) is compiled only under
//!   `cfg(test)`, as the oracle of the crate's differential tests.
//! * **Singular-basis recovery** — a cold solve whose refactorization
//!   breaks down ([`LpStatus::Singular`]) is retried once, cold, on the
//!   same kernel's *careful* pivot path: a fresh LU after every pivot,
//!   Bland's rule from the first iteration, and a stricter ratio-test pivot
//!   tolerance.  Counted in [`LpResult::factor_recoveries`].
//! * **Devex pricing** — nonbasic columns are scored `d² / γ_j` against
//!   reference-framework weights updated from each pivot row; when the
//!   weights overflow their stable range they are reset to 1 (counted in
//!   [`LpResult::devex_resets`]), which degrades gracefully to Dantzig
//!   pricing until the weights re-learn the geometry.  A Bland rule still
//!   takes over after a long degenerate run, guaranteeing termination.
//! * **Pricing by row** — a pivot row `ρ = eᵣᵀB⁻¹` has few non-zeros, so
//!   `α_j = ρ·a_j` (the Devex update here, the ratio test of the
//!   [`dual`](crate::dual) simplex) is computed by scattering those rows of
//!   the row-wise form (`Tableau::price_row`) and only the columns they
//!   reach are visited.  Rows are scattered in ascending order, so every
//!   `α_j` has the bits of a walk down column `j`.
//! * **One standard form, many workspaces** — `StandardForm` is what an LP
//!   takes from the model's rows alone: every structural and slack column
//!   as one flat CSC, the same non-zeros once more by row, the right-hand
//!   sides and the column-block offsets.
//!   `Tableau` borrows it and owns what differs from LP to LP — bounds,
//!   variable states, the basis with its factors and eta file, the `m`
//!   one-entry artificial columns (their signs are set per LP) and scratch.
//!   [`SimplexSolver::solve`] and [`SimplexSolver::resolve`] build a
//!   form per call; branch-and-bound builds one per solve and runs every
//!   node, probe and dive LP over it through the crate-internal `*_on`
//!   twins of those two and [`SimplexSolver::warm_solve_on`].
//! * **Basis snapshots** — an optimal solve captures its [`Basis`] (variable
//!   states + basic set + phase-1 artificial signs) in the [`LpResult`], so
//!   branch-and-bound can re-solve a child LP with the
//!   [`dual`](crate::dual) simplex after a bound pinch instead of paying a
//!   fresh two-phase solve.  After a pure *objective* change the basis stays
//!   primal feasible instead, and [`SimplexSolver::warm_solve_on`] restarts
//!   phase 2 directly from it (the soft-constraint λ-sweep path).

// The pivot kernels below intentionally use index loops; iterator chains
// obscure the pivot arithmetic.
#![allow(clippy::needless_range_loop)]

use crate::factor::{Eta, LuFactors};
use crate::model::{Model, Sense};

/// Solver outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    Optimal,
    Infeasible,
    Unbounded,
    /// Iteration limit hit; `x` is the best feasible point found (phase 2)
    /// or meaningless (phase 1).
    IterLimit,
    /// The basis matrix went numerically singular mid-solve (a failed
    /// refactorization, or an ftran/pricing disagreement beyond tolerance).
    /// Distinct from [`LpStatus::IterLimit`] so callers recover — a cold
    /// re-solve on the careful pivot path — instead of treating the abort
    /// as an exhausted budget.
    Singular,
}

/// Result of an LP solve.
#[derive(Debug, Clone)]
pub struct LpResult {
    pub status: LpStatus,
    /// Values of the *structural* variables.
    pub x: Vec<f64>,
    pub objective: f64,
    pub iterations: usize,
    /// Snapshot of the optimal basis (present only on
    /// [`LpStatus::Optimal`]), the warm-start handle for
    /// [`SimplexSolver::resolve`].
    pub basis: Option<Basis>,
    /// Number of from-scratch LU factorizations paid.
    pub refactorizations: usize,
    /// Number of Devex reference-framework resets.
    pub devex_resets: usize,
    /// Singular-basis events this solve recovered from by falling back to
    /// a cold two-phase solve on the careful pivot path (see
    /// [`LpStatus::Singular`]).
    pub factor_recoveries: usize,
}

impl LpResult {
    /// An immediate abort (expired deadline before any factorization).
    pub(crate) fn aborted(n: usize) -> LpResult {
        LpResult {
            status: LpStatus::IterLimit,
            x: vec![0.0; n],
            objective: f64::INFINITY,
            iterations: 0,
            basis: None,
            refactorizations: 0,
            devex_resets: 0,
            factor_recoveries: 0,
        }
    }
}

/// A reusable snapshot of a simplex basis over the standard-form column
/// space (structural + slack + artificial variables).  Opaque outside the
/// crate: it is only produced by an optimal solve and only consumed by the
/// dual-simplex warm re-solve after a bound change on the same model.
#[derive(Debug, Clone)]
pub struct Basis {
    /// Per-column variable state (length: structural + slack + artificial).
    pub(crate) state: Vec<VarState>,
    /// Basic column per row.
    pub(crate) basis: Vec<usize>,
    /// Signs given to the artificial columns at phase-1 initialization.
    pub(crate) art_sigma: Vec<f64>,
    pub(crate) n_structural: usize,
}

/// The simplex engine.
#[derive(Debug, Clone)]
pub struct SimplexSolver {
    pub(crate) max_iters: usize,
    pub(crate) tol: f64,
    /// Abandon the solve (status [`LpStatus::IterLimit`]) once this instant
    /// passes — checked before any factorization and every
    /// [`DEADLINE_CHECK_INTERVAL`] pivots, so a single large LP cannot blow
    /// through a caller's wall-clock budget.
    pub(crate) deadline: Option<std::time::Instant>,
}

/// Pivots between wall-clock deadline checks, shared by the primal and
/// [`dual`](crate::dual) simplex loops.  Sparse pivots cost O(nnz), so the
/// interval is tuned small enough (16) that even a rich full-scale BIP stays
/// within ~100ms of its wall-clock budget.  The check also runs before the
/// first pivot — and before the first factorization at solve entry — so an
/// already-expired deadline aborts without touching the basis.
pub(crate) const DEADLINE_CHECK_INTERVAL: usize = 16;

impl Default for SimplexSolver {
    fn default() -> Self {
        SimplexSolver { max_iters: 50_000, tol: 1e-7, deadline: None }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarState {
    Basic,
    Lower,
    Upper,
}

/// The standard form of a model's rows — every structural and slack column
/// as one flat CSC, the same entries by row, the right-hand sides and the
/// three column-block offsets — in the layout the simplex pivots on.  It
/// depends on the rows alone (not on bounds, a basis or the objective), so
/// branch-and-bound builds it once per solve and every node, probe and dive
/// LP borrows it; what differs between those LPs lives in the [`Tableau`].
pub(crate) struct StandardForm<'m> {
    pub(crate) model: &'m Model,
    /// Column `j < n_artificial_start` is `entries[start[j]..start[j + 1]]`
    /// as `(row, coefficient)`, rows ascending: structural columns first,
    /// then one slack per inequality row, in row order.
    start: Vec<usize>,
    entries: Vec<(usize, f64)>,
    /// The same non-zeros by row: row `i` is
    /// `row_entries[row_start[i]..row_start[i + 1]]` as `(column,
    /// coefficient)`, in the order of the row's terms, its slack last.
    /// Walking the rows in ascending order therefore meets the entries of any
    /// one column in the order [`StandardForm::col`] lists them — what lets
    /// [`Tableau::price_row`] fold `ρ·a_j` to the bits of a column walk.
    row_start: Vec<usize>,
    row_entries: Vec<(usize, f64)>,
    rhs: Vec<f64>,
    n_structural: usize,
    /// Structural + slack columns; row `i`'s artificial is column
    /// `n_artificial_start + i`.
    n_artificial_start: usize,
    m: usize,
}

impl<'m> StandardForm<'m> {
    pub(crate) fn new(model: &'m Model) -> StandardForm<'m> {
        let n = model.n_vars();
        let rows = model.constraints();
        let m = rows.len();
        let n_slack = rows.iter().filter(|c| c.sense != Sense::Eq).count();
        let n_artificial_start = n + n_slack;

        // Count, prefix-sum, fill: walking the rows in order leaves every
        // column's entries in ascending row order.
        let mut start = vec![0usize; n_artificial_start + 1];
        for c in rows {
            for &(v, _) in &c.expr.terms {
                start[v.0 as usize + 1] += 1;
            }
        }
        for j in n..n_artificial_start {
            start[j + 1] = 1;
        }
        for j in 0..n_artificial_start {
            start[j + 1] += start[j];
        }
        let mut next = start.clone();
        let nnz = start[n_artificial_start];
        let mut entries = vec![(0usize, 0.0f64); nnz];
        let mut row_start = Vec::with_capacity(m + 1);
        let mut row_entries = Vec::with_capacity(nnz);
        let mut slack = n;
        for (i, c) in rows.iter().enumerate() {
            row_start.push(row_entries.len());
            for &(v, a) in &c.expr.terms {
                let at = &mut next[v.0 as usize];
                entries[*at] = (i, a);
                *at += 1;
                row_entries.push((v.0 as usize, a));
            }
            let coeff = match c.sense {
                Sense::Le => 1.0,
                Sense::Ge => -1.0,
                Sense::Eq => continue,
            };
            entries[start[slack]] = (i, coeff);
            row_entries.push((slack, coeff));
            slack += 1;
        }
        row_start.push(row_entries.len());
        StandardForm {
            model,
            start,
            entries,
            row_start,
            row_entries,
            rhs: rows.iter().map(|c| c.rhs).collect(),
            n_structural: n,
            n_artificial_start,
            m,
        }
    }

    /// Structural or slack column `j` as `(row, coefficient)`, rows
    /// ascending.
    pub(crate) fn col(&self, j: usize) -> &[(usize, f64)] {
        &self.entries[self.start[j]..self.start[j + 1]]
    }

    /// Row `i` over the structural and slack columns as `(column,
    /// coefficient)`.
    fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.row_entries[self.row_start[i]..self.row_start[i + 1]]
    }
}

/// One LP's mutable workspace over a shared [`StandardForm`], used by the
/// primal and the [`dual`](crate::dual) simplex alike: the bounds, the basis
/// and its factors, the `m` artificial columns (their signs are chosen per
/// LP) and scratch.  Building one allocates some fifteen vectors, none per
/// column.
pub(crate) struct Tableau<'f> {
    form: &'f StandardForm<'f>,
    /// Row `i`'s artificial column is the single entry `(i, sign)`; the sign
    /// is fixed by [`Tableau::init_basis`] or [`Tableau::restore`].
    art: Vec<(usize, f64)>,
    pub(crate) lo: Vec<f64>,
    pub(crate) hi: Vec<f64>,
    pub(crate) n_structural: usize,
    pub(crate) n_artificial_start: usize,
    pub(crate) m: usize,
    // state
    pub(crate) state: Vec<VarState>,
    pub(crate) basis: Vec<usize>,
    pub(crate) xb: Vec<f64>,
    /// Current LU factors of the basis (`None` until the first refactor).
    lu: Option<LuFactors>,
    /// Product-form updates accumulated since the last refactorization.
    etas: Vec<Eta>,
    // scratch (rowbuf is kept all-zero between calls — the LU ftran is
    // self-cleaning)
    rowbuf: Vec<f64>,
    posbuf: Vec<f64>,
    zbuf: Vec<f64>,
    /// Packing buffer of [`Eta::from_pivot`].
    etabuf: Vec<(usize, f64)>,
    /// Second right-hand side and step-space scratch of the fused solve
    /// ([`Tableau::btran_row_and_duals`]).
    posbuf2: Vec<f64>,
    zbuf2: Vec<f64>,
    /// Row pricing ([`Tableau::price_row`]): `alpha[j] = ρ·a_j` for the
    /// columns listed in `reached` (`seen[j]` ⟺ listed), `0.0` and `false`
    /// everywhere else — and everywhere after [`Tableau::clear_pricing`].
    pub(crate) alpha: Vec<f64>,
    seen: Vec<bool>,
    pub(crate) reached: Vec<usize>,
    // counters surfaced through LpResult
    pub(crate) refactorizations: usize,
    pub(crate) devex_resets: usize,
}

/// Column `j` of the standard form: a slice of the shared CSC, or the one
/// entry of an artificial.
fn column<'a>(form: &'a StandardForm<'_>, art: &'a [(usize, f64)], j: usize) -> &'a [(usize, f64)] {
    match j.checked_sub(form.n_artificial_start) {
        None => form.col(j),
        Some(i) => std::slice::from_ref(&art[i]),
    }
}

pub(crate) const PIVOT_TOL: f64 = 1e-9;
pub(crate) const REFACTOR_EVERY: usize = 128;
/// Ratio-test pivot tolerance of [`PivotPath::Careful`]: rows whose entry in
/// the entering column is this small never leave the basis, so the retry
/// cannot pivot on the near-zero elements that made the first LU break down.
const CAREFUL_PIVOT_TOL: f64 = 1e-7;
/// Devex weights above this trigger a reference-framework reset.
pub(crate) const DEVEX_RESET_LIMIT: f64 = 1e7;
/// Entries below this are dropped from eta vectors.
pub(crate) const ETA_DROP_TOL: f64 = 1e-12;

/// The pivot path of one [`Tableau::run`].  `Fast` is every shipped solve;
/// `Careful` is the retry after a [`LpStatus::Singular`] breakdown — a
/// deterministic re-run of `Fast` would fail at the same pivot, so it takes
/// a different route to the same optimum: Bland's entering rule from the
/// first iteration, [`CAREFUL_PIVOT_TOL`] in the ratio test, and a fresh LU
/// after every pivot (no eta file to accumulate error in).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PivotPath {
    Fast,
    Careful,
}

impl<'f> Tableau<'f> {
    /// A fresh workspace under structural bounds `lo`/`hi`: slacks and
    /// artificials range over `[0, ∞)`, no basis yet.
    pub(crate) fn new(form: &'f StandardForm<'f>, lo: &[f64], hi: &[f64]) -> Tableau<'f> {
        let (n, m) = (form.n_structural, form.m);
        assert_eq!(lo.len(), n);
        assert_eq!(hi.len(), n);
        let total = form.n_artificial_start + m;
        let bounds = |structural: &[f64], rest: f64| {
            let mut v = Vec::with_capacity(total);
            v.extend_from_slice(structural);
            v.resize(total, rest);
            v
        };
        Tableau {
            form,
            // One artificial per row; sign fixed at init_basis time.
            art: (0..m).map(|i| (i, 1.0)).collect(),
            lo: bounds(lo, 0.0),
            hi: bounds(hi, f64::INFINITY),
            n_structural: n,
            n_artificial_start: form.n_artificial_start,
            m,
            state: vec![VarState::Lower; total],
            basis: Vec::new(),
            xb: vec![0.0; m],
            lu: None,
            etas: Vec::new(),
            rowbuf: vec![0.0; m],
            posbuf: vec![0.0; m],
            zbuf: vec![0.0; m],
            etabuf: vec![(0, 0.0); m],
            posbuf2: vec![0.0; m],
            zbuf2: vec![0.0; m],
            alpha: vec![0.0; total],
            seen: vec![false; total],
            reached: Vec::with_capacity(total),
            refactorizations: 0,
            devex_resets: 0,
        }
    }

    /// Number of columns: structural, slack and artificial.
    pub(crate) fn n_cols(&self) -> usize {
        self.state.len()
    }

    /// Sparse column `j` as `(row, coefficient)`, rows ascending.
    pub(crate) fn col(&self, j: usize) -> &[(usize, f64)] {
        column(self.form, &self.art, j)
    }

    /// Nonbasic value of variable `j` per its state.
    pub(crate) fn nb_value(&self, j: usize) -> f64 {
        match self.state[j] {
            VarState::Lower => self.lo[j],
            VarState::Upper => self.hi[j],
            VarState::Basic => unreachable!("basic variable has no bound value"),
        }
    }

    /// Capture the current basis for later warm re-solves.
    pub(crate) fn snapshot(&self) -> Basis {
        Basis {
            state: self.state.clone(),
            basis: self.basis.clone(),
            art_sigma: self.art.iter().map(|&(_, sigma)| sigma).collect(),
            n_structural: self.n_structural,
        }
    }

    /// Rebuild the tableau state from a basis snapshot taken on the same
    /// model (possibly under different variable bounds).  Artificials stay
    /// pinned to zero (the phase-2 convention the snapshot was taken under).
    /// Returns `false` when the snapshot does not fit this tableau or the
    /// basis matrix is numerically singular — callers then fall back to a
    /// cold two-phase solve.
    pub(crate) fn restore(&mut self, b: &Basis) -> bool {
        if b.n_structural != self.n_structural
            || b.state.len() != self.n_cols()
            || b.basis.len() != self.m
            || b.art_sigma.len() != self.m
        {
            return false;
        }
        self.state.copy_from_slice(&b.state);
        self.basis.clone_from(&b.basis);
        for (art, &sigma) in self.art.iter_mut().zip(&b.art_sigma) {
            art.1 = sigma;
        }
        self.hi[self.n_artificial_start..].fill(0.0);
        self.refactor()
    }

    /// Start from the all-artificial basis.
    pub(crate) fn init_basis(&mut self) {
        // Residual with every non-artificial variable at its lower bound
        // (fixed vars sit at lo == hi).
        let mut r = self.form.rhs.clone();
        for j in 0..self.n_artificial_start {
            let v = self.lo[j];
            if v != 0.0 {
                for &(i, a) in self.form.col(j) {
                    r[i] -= a * v;
                }
            }
            self.state[j] = VarState::Lower;
        }
        self.basis = (0..self.m).map(|i| self.n_artificial_start + i).collect();
        for i in 0..self.m {
            let art = self.n_artificial_start + i;
            self.art[i].1 = if r[i] >= 0.0 { 1.0 } else { -1.0 };
            self.state[art] = VarState::Basic;
        }
        // The all-artificial basis is a signed identity; factorization is
        // trivial but keeps a single code path (and sets xb = |r|).
        let ok = self.refactor();
        debug_assert!(ok, "signed identity basis cannot be singular");
    }

    /// `w = B⁻¹ · col_j` (LU solve plus the eta file).
    pub(crate) fn ftran(&mut self, j: usize, w: &mut [f64]) {
        w.fill(0.0);
        let Tableau { form, art, lu, etas, rowbuf, .. } = self;
        for &(r, a) in column(form, art, j) {
            rowbuf[r] += a;
        }
        lu.as_ref().expect("factorized").ftran(rowbuf, w);
        for eta in etas.iter() {
            eta.apply_ftran(w);
        }
    }

    /// `w = B⁻¹ · v` for an arbitrary row-space vector `v` (consumed:
    /// zeroed on exit).  Used by the bound-flipping ratio test to apply all
    /// flips of one dual iteration with a single solve.
    pub(crate) fn ftran_vec(&mut self, v: &mut [f64], w: &mut [f64]) {
        w.fill(0.0);
        let Tableau { lu, etas, .. } = self;
        lu.as_ref().expect("factorized").ftran(v, w);
        for eta in etas.iter() {
            eta.apply_ftran(w);
        }
    }

    /// Row `r` of `B⁻¹` in row space: `ρ = eᵣᵀ B⁻¹`, the pricing vector for
    /// `α_j = ρ · a_j`.
    pub(crate) fn btran_row(&mut self, r: usize, rho: &mut [f64]) {
        let Tableau { lu, etas, posbuf, zbuf, .. } = self;
        posbuf.fill(0.0);
        posbuf[r] = 1.0;
        for eta in etas.iter().rev() {
            eta.apply_btran(posbuf);
        }
        lu.as_ref().expect("factorized").btran(posbuf, rho, zbuf);
    }

    /// Dual vector `y = c_Bᵀ · B⁻¹` for the given phase costs.
    pub(crate) fn duals(&mut self, cost: &[f64], y: &mut [f64]) {
        let Tableau { lu, etas, posbuf, zbuf, basis, .. } = self;
        for (k, &bv) in basis.iter().enumerate() {
            posbuf[k] = cost[bv];
        }
        for eta in etas.iter().rev() {
            eta.apply_btran(posbuf);
        }
        lu.as_ref().expect("factorized").btran(posbuf, y, zbuf);
    }

    /// [`Tableau::btran_row`] and [`Tableau::duals`] on the current basis in
    /// one pass over the eta file and the LU, each folded exactly as its own
    /// solve folds it.  The dual simplex wants both at every iteration; the
    /// primal learns its pivot row only after a ratio test that needs `y`,
    /// and keeps the two calls.
    pub(crate) fn btran_row_and_duals(
        &mut self,
        r: usize,
        cost: &[f64],
        rho: &mut [f64],
        y: &mut [f64],
    ) {
        let Tableau { lu, etas, posbuf, zbuf, posbuf2, zbuf2, basis, .. } = self;
        posbuf.fill(0.0);
        posbuf[r] = 1.0;
        for (k, &bv) in basis.iter().enumerate() {
            posbuf2[k] = cost[bv];
        }
        for eta in etas.iter().rev() {
            eta.apply_btran2(posbuf, posbuf2);
        }
        lu.as_ref().expect("factorized").btran2(posbuf, posbuf2, rho, y, zbuf, zbuf2);
    }

    /// Price every column against a row-space vector: afterwards
    /// `alpha[j] = ρ·a_j` for each `j` in `reached`, and every column not
    /// listed prices at exactly `0.0`.  Only the non-zero rows of `rho` are
    /// scattered, in ascending row order — the order a walk down column `j`
    /// meets them, so each `alpha[j]` carries the bits of that walk (a term
    /// with `ρ_i = ±0` adds `±0.0` to a sum that started at `+0.0`, which
    /// never moves it).  Row `i`'s artificial is reached through its one
    /// `(i, sign)` entry.  The caller reads `alpha` / `reached`, then calls
    /// [`Tableau::clear_pricing`].
    pub(crate) fn price_row(&mut self, rho: &[f64]) {
        let Tableau { form, art, alpha, seen, reached, .. } = self;
        debug_assert!(reached.is_empty());
        for (i, &p) in rho.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            for &(j, a) in form.row(i) {
                if !seen[j] {
                    seen[j] = true;
                    reached.push(j);
                }
                alpha[j] += p * a;
            }
            let j = form.n_artificial_start + i;
            alpha[j] += p * art[i].1;
            reached.push(j);
        }
    }

    /// Return the pricing scratch to all-zero, touching only what
    /// [`Tableau::price_row`] reached.
    pub(crate) fn clear_pricing(&mut self) {
        for &j in &self.reached {
            self.alpha[j] = 0.0;
            self.seen[j] = false;
        }
        self.reached.clear();
    }

    /// `ρ·a_j` of every column by a walk down the column: what the ratio
    /// test and the Devex update computed before [`Tableau::price_row`], and
    /// its oracle.
    #[cfg(test)]
    pub(crate) fn price_by_columns(&self, rho: &[f64]) -> Vec<f64> {
        (0..self.n_cols())
            .map(|j| {
                let mut alpha = 0.0;
                for &(i, a) in self.col(j) {
                    alpha += rho[i] * a;
                }
                alpha
            })
            .collect()
    }

    pub(crate) fn reduced_cost(&self, cost: &[f64], y: &[f64], j: usize) -> f64 {
        let mut d = cost[j];
        for &(i, a) in self.col(j) {
            d -= y[i] * a;
        }
        d
    }

    /// Refactorize the basis from scratch: fresh sparse LU, eta file
    /// cleared, `x_B` recomputed.  Returns false if the basis matrix is
    /// numerically singular.
    pub(crate) fn refactor(&mut self) -> bool {
        let bcols: Vec<&[(usize, f64)]> =
            self.basis.iter().map(|&bv| column(self.form, &self.art, bv)).collect();
        let Some(lu) = LuFactors::factorize(self.m, &bcols) else {
            return false;
        };
        self.lu = Some(lu);
        self.etas.clear();
        self.refactorizations += 1;
        self.recompute_xb();
        true
    }

    /// `x_B = B⁻¹ (b − N x_N)`.
    pub(crate) fn recompute_xb(&mut self) {
        let mut r = self.form.rhs.clone();
        for j in 0..self.n_cols() {
            if self.state[j] == VarState::Basic {
                continue;
            }
            let v = self.nb_value(j);
            if v != 0.0 && v.is_finite() {
                for &(i, a) in self.col(j) {
                    r[i] -= a * v;
                }
            }
        }
        let mut xb = std::mem::take(&mut self.xb);
        self.ftran_vec(&mut r, &mut xb);
        self.xb = xb;
    }

    /// Record a basis change at row `r` with ftran'd entering column `w`:
    /// append the product-form eta and refactorize every `refactor_every`
    /// pivots.  Returns false on a singular refactorization (caller aborts
    /// with [`LpStatus::Singular`] so the solve can recover on the careful
    /// pivot path).
    #[must_use]
    pub(crate) fn update_factors(
        &mut self,
        r: usize,
        w: &[f64],
        since_refactor: &mut usize,
        refactor_every: usize,
    ) -> bool {
        self.etas.push(Eta::from_pivot(r, w, ETA_DROP_TOL, &mut self.etabuf));
        *since_refactor += 1;
        if *since_refactor >= refactor_every {
            *since_refactor = 0;
            return self.refactor();
        }
        true
    }

    /// Run the primal simplex on the given phase costs with Devex pricing
    /// (see [`PivotPath`] for what `Careful` changes).  Returns (status,
    /// iterations).
    pub(crate) fn run(
        &mut self,
        cost: &[f64],
        tol: f64,
        max_iters: usize,
        deadline: Option<std::time::Instant>,
        path: PivotPath,
    ) -> (LpStatus, usize) {
        let careful = path == PivotPath::Careful;
        let (pivot_tol, refactor_every) =
            if careful { (CAREFUL_PIVOT_TOL, 1) } else { (PIVOT_TOL, REFACTOR_EVERY) };
        let m = self.m;
        let ncols = self.n_cols();
        let mut y = vec![0.0; m];
        let mut w = vec![0.0; m];
        let mut rho = vec![0.0; m];
        // Devex reference weights, one per column; reset = Dantzig pricing.
        let mut gamma = vec![1.0f64; ncols];
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

            // Pricing: Devex normally, Bland when cycling is suspected.
            let bland = careful || degenerate_run > 2 * (m + 16);
            let mut entering: Option<(usize, f64, f64)> = None; // (j, d, score)
            for j in 0..ncols {
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
                let score = d * d / gamma[j];
                if entering.as_ref().is_none_or(|(_, _, s)| score > *s) {
                    entering = Some((j, d, score));
                }
            }
            let Some((j, _d, _)) = entering else {
                return (LpStatus::Optimal, iter);
            };

            let sigma = if self.state[j] == VarState::Lower { 1.0 } else { -1.0 };
            self.ftran(j, &mut w);

            // Ratio test.
            let mut t_max = self.hi[j] - self.lo[j]; // bound flip distance
            let mut leaving: Option<(usize, VarState)> = None;
            for i in 0..m {
                let delta = sigma * w[i];
                let bv = self.basis[i];
                if delta > pivot_tol {
                    // basic variable decreases toward its lower bound
                    let room = self.xb[i] - self.lo[bv];
                    let limit = (room / delta).max(0.0);
                    if limit < t_max - 1e-12 || (bland && limit <= t_max && leaving.is_none()) {
                        t_max = limit;
                        leaving = Some((i, VarState::Lower));
                    }
                } else if delta < -pivot_tol {
                    // basic variable increases toward its upper bound
                    if self.hi[bv].is_finite() {
                        let room = self.hi[bv] - self.xb[i];
                        let limit = (room / -delta).max(0.0);
                        if limit < t_max - 1e-12 {
                            t_max = limit;
                            leaving = Some((i, VarState::Upper));
                        }
                    }
                }
            }

            if t_max.is_infinite() {
                return (LpStatus::Unbounded, iter);
            }
            degenerate_run = if t_max <= 1e-10 { degenerate_run + 1 } else { 0 };

            // Apply the step.
            for i in 0..m {
                self.xb[i] -= sigma * t_max * w[i];
            }
            match leaving {
                None => {
                    // Bound flip.
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
                    let piv = w[r];
                    debug_assert!(piv.abs() > PIVOT_TOL * 0.1);

                    // Devex update against the pre-pivot pivot row
                    // ρ = eᵣᵀB⁻¹: γ_k ← max(γ_k, (α_k/α_q)² γ_q) for every
                    // nonbasic k, and the leaving column re-enters the
                    // framework with γ ← max(γ_q/α_q², 1).
                    self.btran_row(r, &mut rho);
                    let gamma_q = gamma[j];
                    let inv_piv2 = 1.0 / (piv * piv);
                    let mut gmax = self.devex_raise(&rho, &mut gamma, j, inv_piv2);
                    gamma[old] = (gamma_q * inv_piv2).max(1.0);
                    if gamma[old] > gmax {
                        gmax = gamma[old];
                    }
                    if gmax > DEVEX_RESET_LIMIT {
                        gamma.fill(1.0);
                        self.devex_resets += 1;
                    }

                    self.state[old] = leave_to;
                    self.state[j] = VarState::Basic;
                    self.basis[r] = j;
                    self.xb[r] = entering_val;

                    if !self.update_factors(r, &w, &mut since_refactor, refactor_every) {
                        return (LpStatus::Singular, iter);
                    }
                }
            }
        }
        (LpStatus::IterLimit, max_iters)
    }

    /// The Devex step over the nonbasic columns: `γ_k ← max(γ_k, α_k² ·
    /// inv_piv2 · γ_q)` wherever the pivot row `rho` prices column `k ≠ q`
    /// at `α_k ≠ 0`; returns the largest weight among those columns (at
    /// least 1).  Only the columns [`Tableau::price_row`] reaches can have
    /// `α_k ≠ 0`, and neither the per-column maximum nor the running one
    /// depends on the order they are visited in.
    fn devex_raise(&mut self, rho: &[f64], gamma: &mut [f64], q: usize, inv_piv2: f64) -> f64 {
        self.price_row(rho);
        let gamma_q = gamma[q];
        let mut gmax = 1.0f64;
        for &k in &self.reached {
            if self.state[k] == VarState::Basic || k == q || self.lo[k] >= self.hi[k] {
                continue;
            }
            let alpha = self.alpha[k];
            if alpha != 0.0 {
                let cand = alpha * alpha * inv_piv2 * gamma_q;
                if cand > gamma[k] {
                    gamma[k] = cand;
                }
                if gamma[k] > gmax {
                    gmax = gamma[k];
                }
            }
        }
        self.clear_pricing();
        gmax
    }

    /// [`Tableau::devex_raise`] as it was: `ρ·a_k` recomputed by a walk down
    /// every column.  The oracle of the row-scatter version.
    #[cfg(test)]
    fn devex_raise_by_columns(
        &self,
        rho: &[f64],
        gamma: &mut [f64],
        q: usize,
        inv_piv2: f64,
    ) -> f64 {
        let gamma_q = gamma[q];
        let mut gmax = 1.0f64;
        for (k, alpha) in self.price_by_columns(rho).into_iter().enumerate() {
            if self.state[k] == VarState::Basic || k == q || self.lo[k] >= self.hi[k] {
                continue;
            }
            if alpha != 0.0 {
                let cand = alpha * alpha * inv_piv2 * gamma_q;
                if cand > gamma[k] {
                    gamma[k] = cand;
                }
                if gamma[k] > gmax {
                    gmax = gamma[k];
                }
            }
        }
        gmax
    }

    /// The model's objective over the structural columns, zero elsewhere.
    pub(crate) fn phase2_cost(&self) -> Vec<f64> {
        let mut cost = vec![0.0; self.n_cols()];
        cost[..self.n_structural].copy_from_slice(self.form.model.objective());
        cost
    }

    /// Read the LP's answer off the final basis; an optimal one is
    /// snapshotted for warm re-solves.
    pub(crate) fn into_result(self, status: LpStatus, iterations: usize) -> LpResult {
        let x = self.structural_x();
        LpResult {
            status,
            objective: self.form.model.objective_value(&x),
            x,
            iterations,
            basis: (status == LpStatus::Optimal).then(|| self.snapshot()),
            refactorizations: self.refactorizations,
            devex_resets: self.devex_resets,
            factor_recoveries: 0,
        }
    }

    /// Structural-variable values of the current basis: nonbasic columns
    /// sit on a bound, and one walk over the basis fills in the rest (a
    /// column is basic in exactly one row).
    pub(crate) fn structural_x(&self) -> Vec<f64> {
        let mut x: Vec<f64> = (0..self.n_structural)
            .map(|j| match self.state[j] {
                VarState::Lower => self.lo[j],
                VarState::Upper => self.hi[j],
                VarState::Basic => 0.0,
            })
            .collect();
        for (r, &bv) in self.basis.iter().enumerate() {
            if bv < self.n_structural {
                x[bv] = self.xb[r];
            }
        }
        x
    }
}

impl SimplexSolver {
    pub fn new() -> Self {
        Self::default()
    }

    /// True once the wall-clock deadline (if armed) has passed.
    pub(crate) fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|dl| std::time::Instant::now() >= dl)
    }

    /// Solve the LP relaxation of `model` with per-variable bounds.
    pub fn solve(&self, model: &Model, lo: &[f64], hi: &[f64]) -> LpResult {
        self.solve_on(&StandardForm::new(model), lo, hi)
    }

    /// [`SimplexSolver::solve`] on a standard form the caller already built.
    pub(crate) fn solve_on(&self, form: &StandardForm<'_>, lo: &[f64], hi: &[f64]) -> LpResult {
        let model = form.model;
        // Trivial: no constraints → bound-minimize each variable.
        if form.m == 0 {
            let x: Vec<f64> = model
                .objective()
                .iter()
                .enumerate()
                .map(|(j, &c)| if c > 0.0 { lo[j] } else { hi[j] })
                .collect();
            let objective = model.objective_value(&x);
            return LpResult {
                status: LpStatus::Optimal,
                x,
                objective,
                iterations: 0,
                basis: None,
                refactorizations: 0,
                devex_resets: 0,
                factor_recoveries: 0,
            };
        }
        // An already-expired deadline aborts before the first factorization.
        if self.deadline_expired() {
            return LpResult::aborted(form.n_structural);
        }
        let first = self.solve_cold(form, lo, hi, PivotPath::Fast);
        self.recover(form, lo, hi, first)
    }

    /// The recovery ladder behind [`SimplexSolver::solve`], given the first
    /// cold attempt.  A singular basis is a property of the pivot path that
    /// reached it — an identical retry would break down at the same pivot —
    /// so the one retry is a cold two-phase solve on [`PivotPath::Careful`],
    /// with the abandoned attempt's work folded into the result.  A second
    /// `Singular` is returned as it is (branch-and-bound then treats the
    /// node as stalled).
    fn recover(
        &self,
        form: &StandardForm<'_>,
        lo: &[f64],
        hi: &[f64],
        first: LpResult,
    ) -> LpResult {
        if first.status != LpStatus::Singular {
            return first;
        }
        let mut second = self.solve_cold(form, lo, hi, PivotPath::Careful);
        second.iterations += first.iterations;
        second.refactorizations += first.refactorizations;
        second.devex_resets += first.devex_resets;
        second.factor_recoveries += first.factor_recoveries + 1;
        second
    }

    /// One cold two-phase solve from the all-artificial basis.
    pub(crate) fn solve_cold(
        &self,
        form: &StandardForm<'_>,
        lo: &[f64],
        hi: &[f64],
        path: PivotPath,
    ) -> LpResult {
        let n = form.n_structural;
        let mut t = Tableau::new(form, lo, hi);
        t.init_basis();

        // Phase 1: minimize the artificial sum.
        let mut phase1_cost = vec![0.0; t.n_cols()];
        phase1_cost[t.n_artificial_start..].fill(1.0);
        let (s1, it1) = t.run(&phase1_cost, self.tol, self.max_iters, self.deadline, path);
        if matches!(s1, LpStatus::IterLimit | LpStatus::Singular) {
            return LpResult {
                status: s1,
                x: vec![0.0; n],
                objective: f64::INFINITY,
                iterations: it1,
                basis: None,
                refactorizations: t.refactorizations,
                devex_resets: t.devex_resets,
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
                devex_resets: t.devex_resets,
                factor_recoveries: 0,
            };
        }

        // Phase 2: pin artificials to zero, restore the real objective.
        for j in t.n_artificial_start..t.n_cols() {
            t.hi[j] = 0.0;
            if t.state[j] != VarState::Basic {
                t.state[j] = VarState::Lower;
            }
        }
        let (s2, it2) = t.run(&t.phase2_cost(), self.tol, self.max_iters, self.deadline, path);
        t.into_result(s2, it1 + it2)
    }

    /// Warm-start **phase 2** from a basis snapshot of the *same model and
    /// bounds* after a pure objective change.  Bound and RHS edits keep a
    /// basis dual feasible (the territory of the dual re-solve,
    /// [`SimplexSolver::resolve`]); an objective edit instead keeps it **primal** feasible,
    /// so the correct warm restart is the primal phase 2 — a dual re-solve
    /// here would accept a suboptimal point.  Used by the soft-constraint
    /// λ-sweep, where only the objective weights move between points.
    ///
    /// Returns `None` when the snapshot does not fit, its basis is
    /// singular, or the restored point violates the current bounds — the
    /// caller then pays a cold two-phase solve.
    pub(crate) fn warm_solve_on(
        &self,
        form: &StandardForm<'_>,
        lo: &[f64],
        hi: &[f64],
        basis: &Basis,
    ) -> Option<LpResult> {
        if form.m == 0 {
            return None;
        }
        if self.deadline_expired() {
            return Some(LpResult::aborted(form.n_structural));
        }
        let mut t = Tableau::new(form, lo, hi);
        if !t.restore(basis) {
            return None;
        }
        // The restart is only sound from a primal-feasible point.
        let feas_tol = self.tol.max(1e-7);
        for i in 0..t.m {
            let bv = t.basis[i];
            if t.xb[i] < t.lo[bv] - feas_tol || t.xb[i] > t.hi[bv] + feas_tol {
                return None;
            }
        }
        let (status, iterations) =
            t.run(&t.phase2_cost(), self.tol, self.max_iters, self.deadline, PivotPath::Fast);
        Some(t.into_result(status, iterations))
    }

    /// Feasibility check only (phase 1): is the relaxed polytope non-empty?
    pub fn is_feasible(&self, model: &Model, lo: &[f64], hi: &[f64]) -> bool {
        if model.n_constraints() == 0 {
            return true;
        }
        self.solve(model, lo, hi).status != LpStatus::Infeasible
    }
}

/// Hook for `crates/bench/benches/micro.rs`, not part of the interface: hands
/// `run` a closure that factorizes `basis` over `model`'s standard form from
/// scratch (`false`: singular, or the snapshot does not fit), the form and
/// the workspace already built.
#[doc(hidden)]
pub fn bench_refactor(model: &Model, basis: &Basis, run: impl FnOnce(&mut dyn FnMut() -> bool)) {
    let form = StandardForm::new(model);
    let n = model.n_vars();
    let mut t = Tableau::new(&form, &vec![0.0; n], &vec![1.0; n]);
    let fits = t.restore(basis);
    run(&mut || fits && t.refactor());
}

/// [`Tableau::structural_x`] as it was: one search of the basis per basic
/// variable, O(n·m).  The oracle of the single-walk version.
#[cfg(test)]
pub(crate) fn structural_x_by_position(t: &Tableau<'_>) -> Vec<f64> {
    (0..t.n_structural)
        .map(|j| match t.state[j] {
            VarState::Lower => t.lo[j],
            VarState::Upper => t.hi[j],
            VarState::Basic => {
                t.xb[t.basis.iter().position(|&b| b == j).expect("basic var in basis")]
            }
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::branch_bound::tests::{branchy_model, theorem1_model};
    use crate::dense::dense_solve;
    use crate::factor::tests::float_bits;
    use crate::model::{LinExpr, Model, Sense};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn bounds(n: usize) -> (Vec<f64>, Vec<f64>) {
        (vec![0.0; n], vec![1.0; n])
    }

    #[test]
    fn textbook_lp() {
        // min −x − 2y s.t. x + y ≤ 1.5, x,y ∈ [0,1] → x=0.5,y=1, obj −2.5.
        let mut m = Model::new();
        let x = m.add_var("x", -1.0);
        let y = m.add_var("y", -2.0);
        m.add_constraint(LinExpr::new().term(x, 1.0).term(y, 1.0), Sense::Le, 1.5);
        let (lo, hi) = bounds(2);
        let r = SimplexSolver::new().solve(&m, &lo, &hi);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - (-2.5)).abs() < 1e-6, "{}", r.objective);
        assert!((r.x[0] - 0.5).abs() < 1e-6);
        assert!((r.x[1] - 1.0).abs() < 1e-6);
        assert!(r.refactorizations >= 1, "cold solve factorizes at least once");
        assert_eq!(r.factor_recoveries, 0, "clean solve must not report recoveries");
    }

    #[test]
    fn standard_form_is_the_per_lp_column_build_flattened() {
        // What `Tableau::build` used to walk out of the constraint list for
        // every LP: one `Vec` per structural column, then one per slack.
        for seed in 0..40u64 {
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move |k: u64| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 33) % k
            };
            let mut m = Model::new();
            let n = 2 + next(12) as usize;
            let vars: Vec<_> = (0..n).map(|j| m.add_var(format!("v{j}"), j as f64)).collect();
            for _ in 0..1 + next(9) {
                let mut e = LinExpr::new();
                for &v in &vars {
                    if next(3) == 0 {
                        e.add(v, next(9) as f64 - 4.0);
                    }
                }
                // A variable named twice keeps both terms, in term order.
                if next(4) == 0 {
                    e.add(vars[next(n as u64) as usize], 0.5);
                }
                let sense = [Sense::Le, Sense::Ge, Sense::Eq][next(3) as usize];
                m.add_constraint(e, sense, next(5) as f64);
            }
            let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
            for (i, c) in m.constraints().iter().enumerate() {
                for &(v, a) in &c.expr.terms {
                    cols[v.0 as usize].push((i, a));
                }
            }
            for (i, c) in m.constraints().iter().enumerate() {
                match c.sense {
                    Sense::Le => cols.push(vec![(i, 1.0)]),
                    Sense::Ge => cols.push(vec![(i, -1.0)]),
                    Sense::Eq => {}
                }
            }
            let form = StandardForm::new(&m);
            assert_eq!((form.n_structural, form.m), (n, m.n_constraints()));
            assert_eq!(form.n_artificial_start, cols.len());
            for (j, col) in cols.iter().enumerate() {
                assert_eq!(form.col(j), col.as_slice(), "seed {seed}, column {j}");
            }
            assert_eq!(form.rhs, m.constraints().iter().map(|c| c.rhs).collect::<Vec<_>>());
            // The row-wise copy is the same matrix: transposed back, walking
            // the rows in order, it lists every column as `col` does.
            let mut transposed: Vec<Vec<(usize, f64)>> = vec![Vec::new(); cols.len()];
            for i in 0..form.m {
                for &(j, a) in form.row(i) {
                    transposed[j].push((i, a));
                }
            }
            assert_eq!(transposed, cols, "seed {seed}");
            // The workspace appends one artificial per row.
            let t = Tableau::new(&form, &vec![0.0; n], &vec![1.0; n]);
            assert_eq!(t.n_cols(), cols.len() + m.n_constraints());
            for i in 0..m.n_constraints() {
                assert_eq!(t.col(cols.len() + i), &[(i, 1.0)]);
            }
        }
    }

    /// The models the pricing tests run on: the Theorem-1-shaped and
    /// knapsack families of
    /// `branch_bound::tests::cut_and_uncut_repairs_agree_on_random_models`,
    /// and small mixed-sense models — `Eq` rows carry no slack, `Ge` rows a
    /// negative one, some rows name a variable twice.
    pub(crate) fn pricing_family() -> Vec<Model> {
        let mut rng = SmallRng::seed_from_u64(0xB0B);
        (0..90)
            .map(|case| match case % 3 {
                0 => branchy_model(case as u64, rng.gen_range(4..30)),
                1 => theorem1_model(&mut rng),
                _ => {
                    let mut m = Model::new();
                    let n = rng.gen_range(3..14);
                    let vars: Vec<_> = (0..n)
                        .map(|j| m.add_var(format!("v{j}"), rng.gen_range(-9.0..9.0)))
                        .collect();
                    for _ in 0..rng.gen_range(2..9) {
                        let mut e = LinExpr::new();
                        for &v in &vars {
                            if rng.gen_bool(0.4) {
                                e.add(v, rng.gen_range(-4.0..4.0));
                            }
                        }
                        e.add(vars[rng.gen_range(0..n)], 0.75);
                        if rng.gen_bool(0.25) {
                            e.add(vars[rng.gen_range(0..n)], -0.5);
                        }
                        let sense = [Sense::Le, Sense::Ge, Sense::Eq][rng.gen_range(0..3)];
                        m.add_constraint(e, sense, rng.gen_range(-1.0..3.0));
                    }
                    m
                }
            })
            .collect()
    }

    /// `[0, 1]` bounds with a few variables pinned, as a branch-and-bound
    /// node has them.
    pub(crate) fn pinned_bounds(rng: &mut SmallRng, n: usize) -> (Vec<f64>, Vec<f64>) {
        let (mut lo, mut hi) = bounds(n);
        for _ in 0..rng.gen_range(0..4) {
            let j = rng.gen_range(0..n);
            lo[j] = f64::from(rng.gen_range(0..2));
            hi[j] = lo[j];
        }
        (lo, hi)
    }

    /// Pivot rows to price on the current basis: rows of `B⁻¹`, and a made-up
    /// vector with zeros of both signs among its entries.
    pub(crate) fn pricing_rows(t: &mut Tableau<'_>, rng: &mut SmallRng) -> Vec<Vec<f64>> {
        let m = t.m;
        let mut rows: Vec<Vec<f64>> = (0..4)
            .map(|_| {
                let mut rho = vec![0.0; m];
                t.btran_row(rng.gen_range(0..m), &mut rho);
                rho
            })
            .collect();
        rows.push(
            (0..m)
                .map(|_| match rng.gen_range(0..4) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-2.0..2.0),
                })
                .collect(),
        );
        rows
    }

    #[test]
    fn row_scatter_pricing_reproduces_the_column_walk_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(0x5CA7);
        let (mut priced, mut live_artificials, mut unreached) = (0, 0, 0);
        for (case, m) in pricing_family().iter().enumerate() {
            let (lo, hi) = pinned_bounds(&mut rng, m.n_vars());
            let form = StandardForm::new(m);
            let mut t = Tableau::new(&form, &lo, &hi);
            t.init_basis();
            let mut phase1_cost = vec![0.0; t.n_cols()];
            phase1_cost[t.n_artificial_start..].fill(1.0);
            // From the all-artificial basis through bursts of phase-1
            // pivots: an artificial that has left the basis stays a live
            // column (`hi = ∞`) until phase 2 pins it.
            for burst in [0, 1, 2, 5, 20] {
                t.run(&phase1_cost, 1e-7, burst, None, PivotPath::Fast);
                for rho in pricing_rows(&mut t, &mut rng) {
                    let walked = t.price_by_columns(&rho);
                    t.price_row(&rho);
                    let mut reached = t.reached.clone();
                    reached.sort_unstable();
                    reached.dedup();
                    assert_eq!(
                        reached.len(),
                        t.reached.len(),
                        "case {case}: a column listed twice"
                    );
                    for j in 0..t.n_cols() {
                        if reached.binary_search(&j).is_err() {
                            // Never reached: the walk folds to exactly +0.0.
                            assert_eq!(walked[j].to_bits(), 0.0f64.to_bits(), "case {case}, {j}");
                            unreached += 1;
                        }
                        assert_eq!(t.alpha[j].to_bits(), walked[j].to_bits(), "case {case}, {j}");
                        let live = j >= t.n_artificial_start
                            && t.state[j] != VarState::Basic
                            && t.lo[j] < t.hi[j];
                        live_artificials += usize::from(live && walked[j] != 0.0);
                    }
                    t.clear_pricing();
                    assert!(t.reached.is_empty() && !t.seen.contains(&true));
                    assert!(t.alpha.iter().all(|a| a.to_bits() == 0.0f64.to_bits()));

                    // The Devex step on top of either pricing.
                    let gamma: Vec<f64> =
                        (0..t.n_cols()).map(|_| rng.gen_range(1.0..40.0)).collect();
                    let q = rng.gen_range(0..t.n_cols());
                    let inv_piv2 = rng.gen_range(0.01..30.0);
                    let (mut scattered, mut by_columns) = (gamma.clone(), gamma);
                    let gmax = t.devex_raise(&rho, &mut scattered, q, inv_piv2);
                    let oracle = t.devex_raise_by_columns(&rho, &mut by_columns, q, inv_piv2);
                    assert_eq!(gmax.to_bits(), oracle.to_bits(), "case {case}");
                    assert_eq!(float_bits(&scattered), float_bits(&by_columns), "case {case}");
                    priced += 1;
                }
            }
        }
        assert!(
            priced > 2000 && live_artificials > 1000 && unreached > 10_000,
            "{priced} rows priced, {live_artificials} live artificials, {unreached} unreached"
        );
    }

    #[test]
    fn singular_snapshot_rejected_by_warm_solve() {
        // Two rows so a duplicated basis column makes B genuinely singular.
        let mut m = Model::new();
        let x = m.add_var("x", -1.0);
        let y = m.add_var("y", -2.0);
        m.add_constraint(LinExpr::new().term(x, 1.0).term(y, 1.0), Sense::Le, 1.5);
        m.add_constraint(LinExpr::new().term(x, 1.0), Sense::Le, 0.8);
        let (lo, hi) = bounds(2);
        let solver = SimplexSolver::new();
        let r = solver.solve(&m, &lo, &hi);
        assert_eq!(r.status, LpStatus::Optimal);
        let mut bad = r.basis.clone().expect("optimal solve snapshots its basis");
        bad.basis[1] = bad.basis[0];
        assert!(
            solver.warm_solve_on(&StandardForm::new(&m), &lo, &hi, &bad).is_none(),
            "a singular snapshot must be rejected so the caller re-solves cold"
        );
    }

    #[test]
    fn forced_refactorization_on_singular_basis_reports_failure() {
        // A corrupted basis (duplicate column) must surface as a false
        // return from the cadence refactorization — the hook [`Tableau::run`]
        // turns into [`LpStatus::Singular`] so the solve recovers on the
        // careful pivot path instead of pretending the pivot budget ran out.
        let mut m = Model::new();
        let x = m.add_var("x", -1.0);
        let y = m.add_var("y", -2.0);
        m.add_constraint(LinExpr::new().term(x, 1.0).term(y, 1.0), Sense::Le, 1.5);
        m.add_constraint(LinExpr::new().term(y, 1.0), Sense::Le, 0.9);
        let (lo, hi) = bounds(2);
        let form = StandardForm::new(&m);
        let mut t = Tableau::new(&form, &lo, &hi);
        t.init_basis();
        t.basis[1] = t.basis[0];
        let w = vec![1.0, 0.0];
        let mut since = REFACTOR_EVERY - 1;
        assert!(
            !t.update_factors(0, &w, &mut since, REFACTOR_EVERY),
            "refactorizing a singular basis must report failure, not succeed"
        );
    }

    #[test]
    fn singular_first_attempt_recovers_on_the_careful_path() {
        // Hand the ladder a first attempt that broke down: the answer must
        // be the clean solve's, with one recovery counted and the abandoned
        // attempt's pivots and factorizations folded into the totals.
        let mut m = Model::new();
        let x = m.add_var("x", -1.0);
        let y = m.add_var("y", -2.0);
        let z = m.add_var("z", -1.5);
        m.add_constraint(LinExpr::new().term(x, 1.0).term(y, 1.0).term(z, 1.0), Sense::Le, 1.5);
        m.add_constraint(LinExpr::new().term(x, 1.0).term(z, -1.0), Sense::Ge, 0.1);
        m.add_constraint(LinExpr::new().term(y, 2.0).term(z, 1.0), Sense::Eq, 1.2);
        let (lo, hi) = bounds(3);
        let solver = SimplexSolver::new();
        let clean = solver.solve(&m, &lo, &hi);
        assert_eq!(clean.status, LpStatus::Optimal);
        assert_eq!(clean.factor_recoveries, 0);
        let form = StandardForm::new(&m);
        let careful = solver.solve_cold(&form, &lo, &hi, PivotPath::Careful);

        let broken = LpResult {
            status: LpStatus::Singular,
            iterations: 7,
            refactorizations: 3,
            devex_resets: 1,
            ..LpResult::aborted(3)
        };
        let r = solver.recover(&form, &lo, &hi, broken);
        assert_eq!(r.status, clean.status);
        assert!(
            (r.objective - clean.objective).abs() < 1e-6,
            "{} vs {}",
            r.objective,
            clean.objective
        );
        assert!(r.basis.is_some(), "a recovered optimum still snapshots its basis");
        assert_eq!(r.factor_recoveries, 1);
        assert_eq!(r.iterations, careful.iterations + 7);
        assert_eq!(r.refactorizations, careful.refactorizations + 3);
        assert_eq!(r.devex_resets, careful.devex_resets + 1);
        assert!(
            careful.refactorizations > careful.iterations / 2,
            "the careful path refactorizes after every basis change: {} LUs over {} pivots",
            careful.refactorizations,
            careful.iterations
        );

        // Any other first verdict passes through the ladder untouched.
        let passthrough = solver.recover(&form, &lo, &hi, clean.clone());
        assert_eq!(passthrough.factor_recoveries, 0, "a clean first attempt is returned untouched");
        assert_eq!(passthrough.iterations, clean.iterations);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 1 → obj 1.
        let mut m = Model::new();
        let x = m.add_var("x", 1.0);
        let y = m.add_var("y", 1.0);
        m.add_constraint(LinExpr::new().term(x, 1.0).term(y, 1.0), Sense::Eq, 1.0);
        let (lo, hi) = bounds(2);
        let r = SimplexSolver::new().solve(&m, &lo, &hi);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ge_constraints_and_infeasibility() {
        let mut m = Model::new();
        let x = m.add_var("x", 1.0);
        m.add_constraint(LinExpr::new().term(x, 1.0), Sense::Ge, 0.75);
        let (lo, hi) = bounds(1);
        let r = SimplexSolver::new().solve(&m, &lo, &hi);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.x[0] - 0.75).abs() < 1e-6);

        // x ≥ 2 is impossible for x ∈ [0,1].
        let mut m2 = Model::new();
        let x2 = m2.add_var("x", 1.0);
        m2.add_constraint(LinExpr::new().term(x2, 1.0), Sense::Ge, 2.0);
        let r2 = SimplexSolver::new().solve(&m2, &lo, &hi);
        assert_eq!(r2.status, LpStatus::Infeasible);
        assert!(!SimplexSolver::new().is_feasible(&m2, &lo, &hi));
    }

    #[test]
    fn fixed_variables_via_bounds() {
        // Fixing x=1 through bounds must propagate: min y s.t. x + y ≥ 1.5.
        let mut m = Model::new();
        let x = m.add_var("x", 0.0);
        let y = m.add_var("y", 1.0);
        m.add_constraint(LinExpr::new().term(x, 1.0).term(y, 1.0), Sense::Ge, 1.5);
        let r = SimplexSolver::new().solve(&m, &[1.0, 0.0], &[1.0, 1.0]);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.x[0] - 1.0).abs() < 1e-9);
        assert!((r.x[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn no_constraints_shortcut() {
        let mut m = Model::new();
        m.add_var("a", 2.0);
        m.add_var("b", -3.0);
        let (lo, hi) = bounds(2);
        let r = SimplexSolver::new().solve(&m, &lo, &hi);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_eq!(r.x, vec![0.0, 1.0]);
        assert_eq!(r.objective, -3.0);
    }

    #[test]
    fn lp_bound_never_exceeds_binary_optimum() {
        // LP relaxation ≤ BIP optimum on a random-ish knapsack family.
        for seed in 0..20u64 {
            let mut m = Model::new();
            let n = 8;
            let mut expr = LinExpr::new();
            for j in 0..n {
                let c = -(((seed * 37 + j as u64 * 13) % 19 + 1) as f64);
                let v = m.add_var(format!("v{j}"), c);
                let wsz = ((seed * 61 + j as u64 * 29) % 9 + 1) as f64;
                expr.add(v, wsz);
            }
            m.add_constraint(expr, Sense::Le, 15.0);
            let (lo, hi) = bounds(n);
            let r = SimplexSolver::new().solve(&m, &lo, &hi);
            assert_eq!(r.status, LpStatus::Optimal, "seed {seed}");
            let (bin_opt, _) = m.brute_force().expect("knapsack always feasible");
            assert!(
                r.objective <= bin_opt + 1e-6,
                "LP bound {} must be ≤ binary optimum {} (seed {seed})",
                r.objective,
                bin_opt
            );
            // Fractional knapsack has at most one fractional variable.
            let frac = r.x.iter().filter(|v| **v > 1e-6 && **v < 1.0 - 1e-6).count();
            assert!(frac <= 1, "knapsack LP has ≤1 fractional var, got {frac}");
        }
    }

    #[test]
    fn expired_deadline_aborts_before_first_factorization() {
        // The deadline check runs at solve entry, so an already-expired
        // deadline returns IterLimit with zero iterations AND zero
        // factorizations — no LU work may start past the wall clock.
        let mut m = Model::new();
        let x = m.add_var("x", -1.0);
        let y = m.add_var("y", -2.0);
        m.add_constraint(LinExpr::new().term(x, 1.0).term(y, 1.0), Sense::Le, 1.5);
        let (lo, hi) = bounds(2);
        let solver =
            SimplexSolver { deadline: Some(std::time::Instant::now()), ..Default::default() };
        // The shipped solve, and the dense oracle called directly.
        for r in [solver.solve(&m, &lo, &hi), dense_solve(&solver, &m, &lo, &hi)] {
            assert_eq!(r.status, LpStatus::IterLimit);
            assert_eq!(r.iterations, 0, "no pivot may run past an expired deadline");
            assert_eq!(r.refactorizations, 0, "no factorization past an expired deadline");
        }
    }

    #[test]
    fn optimal_solve_captures_a_basis() {
        let mut m = Model::new();
        let x = m.add_var("x", -1.0);
        let y = m.add_var("y", -2.0);
        m.add_constraint(LinExpr::new().term(x, 1.0).term(y, 1.0), Sense::Le, 1.5);
        let (lo, hi) = bounds(2);
        let r = SimplexSolver::new().solve(&m, &lo, &hi);
        assert_eq!(r.status, LpStatus::Optimal);
        let b = r.basis.expect("optimal solve snapshots its basis");
        assert_eq!(b.n_structural, 2);
        assert_eq!(b.basis.len(), m.n_constraints());
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Several redundant constraints through the same vertex.
        let mut m = Model::new();
        let x = m.add_var("x", -1.0);
        let y = m.add_var("y", -1.0);
        for _ in 0..6 {
            m.add_constraint(LinExpr::new().term(x, 1.0).term(y, 1.0), Sense::Le, 1.0);
        }
        m.add_constraint(LinExpr::new().term(x, 1.0), Sense::Le, 1.0);
        m.add_constraint(LinExpr::new().term(y, 1.0), Sense::Le, 1.0);
        let (lo, hi) = bounds(2);
        let r = SimplexSolver::new().solve(&m, &lo, &hi);
        assert_eq!(r.status, LpStatus::Optimal);
        assert!((r.objective + 1.0).abs() < 1e-6);
    }

    #[test]
    fn duality_sanity_on_transport_like_lp() {
        // min Σ costs subject to supply/demand equalities.
        // 2 sources (cap 1 each as vars scaled), 2 sinks needing 0.5 each.
        let mut m = Model::new();
        let x11 = m.add_var("x11", 4.0);
        let x12 = m.add_var("x12", 1.0);
        let x21 = m.add_var("x21", 2.0);
        let x22 = m.add_var("x22", 3.0);
        m.add_constraint(LinExpr::new().term(x11, 1.0).term(x21, 1.0), Sense::Eq, 0.5);
        m.add_constraint(LinExpr::new().term(x12, 1.0).term(x22, 1.0), Sense::Eq, 0.5);
        let (lo, hi) = bounds(4);
        let r = SimplexSolver::new().solve(&m, &lo, &hi);
        assert_eq!(r.status, LpStatus::Optimal);
        // best: x21=0.5 (cost 1), x12=0.5 (cost 0.5) → 1.5
        assert!((r.objective - 1.5).abs() < 1e-6, "{}", r.objective);
    }

    #[test]
    fn engines_agree_on_random_knapsacks() {
        // The dense oracle and the sparse production engine must agree on
        // status and objective across a small random family.
        for seed in 0..12u64 {
            let mut m = Model::new();
            let n = 7;
            let mut expr = LinExpr::new();
            for j in 0..n {
                let c = -(((seed * 41 + j as u64 * 17) % 23 + 1) as f64);
                let v = m.add_var(format!("v{j}"), c);
                expr.add(v, ((seed * 53 + j as u64 * 31) % 7 + 1) as f64);
            }
            m.add_constraint(expr, Sense::Le, 11.0);
            let (lo, hi) = bounds(n);
            let sparse = SimplexSolver::new().solve(&m, &lo, &hi);
            let dense = dense_solve(&SimplexSolver::new(), &m, &lo, &hi);
            assert_eq!(sparse.status, dense.status, "seed {seed}");
            assert!(
                (sparse.objective - dense.objective).abs() < 1e-6,
                "seed {seed}: sparse {} vs dense {}",
                sparse.objective,
                dense.objective
            );
            assert_eq!(dense.devex_resets, 0, "dense engine never prices with Devex");
        }
    }

    #[test]
    fn warm_solve_tracks_objective_changes() {
        // Re-solving after an objective flip from the old optimal basis must
        // match a cold solve of the new objective.
        let mut m = Model::new();
        let x = m.add_var("x", -1.0);
        let y = m.add_var("y", -2.0);
        m.add_constraint(LinExpr::new().term(x, 1.0).term(y, 1.0), Sense::Le, 1.5);
        let (lo, hi) = bounds(2);
        let root = SimplexSolver::new().solve(&m, &lo, &hi);
        let basis = root.basis.expect("root basis");
        // Flip the preference: y becomes expensive, x cheap.
        m.set_objective(x, -5.0);
        m.set_objective(y, 1.0);
        let warm = SimplexSolver::new()
            .warm_solve_on(&StandardForm::new(&m), &lo, &hi, &basis)
            .expect("basis fits");
        let cold = SimplexSolver::new().solve(&m, &lo, &hi);
        assert_eq!(warm.status, LpStatus::Optimal);
        assert!(
            (warm.objective - cold.objective).abs() < 1e-6,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        assert!(warm.basis.is_some(), "warm optimum snapshots a basis for the next λ point");
    }
}
