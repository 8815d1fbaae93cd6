//! Sparse LU factorization and eta-file updates for the revised simplex.
//!
//! The basis matrix `B` is factorized as `P·B = L·U` with a left-looking
//! (Gilbert–Peierls style) sparse elimination. Columns are eliminated in
//! ascending-nonzero order (a static approximation of Markowitz ordering) and
//! pivots are chosen by threshold partial pivoting: any row whose magnitude is
//! within a factor `PIVOT_THRESHOLD` of the column maximum is eligible, and
//! among the eligible rows the one with the smallest original row count (a
//! Markowitz-style sparsity tiebreak) wins.
//!
//! **The forward solve visits only the steps it has to.**  Eliminating column
//! `k` solves `L·y = a` against the steps already computed, and step `t`
//! contributes only when `y` is non-zero in its pivot row.  Instead of
//! probing every `t < k` — O(m²) probes per factorization, all but a handful
//! of them misses on the near-identity bases of a warm re-solve — the solve
//! keeps a *pending-step set*, one bit per step: seeded with the steps whose
//! pivot rows the scattered column touches, extended whenever a step's
//! update writes into a row pivoted at a later step, and drained lowest bit
//! first.  A row's entry can only become non-zero through the scatter or
//! through such an update, and `l_cols[t]` only holds rows pivoted after
//! `t`, so the set drains exactly the steps the full scan would have found
//! non-zero, in the same ascending order, and skips a cancelled entry
//! (`x == 0.0`) just as the scan did: every factor keeps every bit and every
//! entry order, at O(nnz + m/64) per column.
//!
//! Between refactorizations the inverse is maintained as a product-form eta
//! file: each basis change appends one [`Eta`] vector, and `ftran`/`btran`
//! apply the eta transformations after (resp. before) the triangular solves.
//! The caller refactorizes periodically to bound fill-in and drift.

/// Relative threshold for partial pivoting: a row is an eligible pivot if its
/// magnitude is at least this fraction of the column maximum.
const PIVOT_THRESHOLD: f64 = 0.1;

/// A column of the matrix is declared singular when its largest eliminable
/// entry falls below this magnitude.
const SINGULAR_TOL: f64 = 1e-11;

/// Sparse LU factors of a basis matrix, `P·B = L·U`.
///
/// `L` is unit lower triangular and stored by elimination step: `l_cols[k]`
/// holds the below-diagonal multipliers of step `k`, indexed by *original* row.
/// `U` is stored column-wise in *step* space: `u_cols[k]` holds the
/// above-diagonal entries of the column eliminated at step `k`, indexed by the
/// step whose pivot row they live in, and `u_diag[k]` is the pivot itself.
#[derive(Debug, Clone)]
pub(crate) struct LuFactors {
    m: usize,
    /// `pivot_row[k]` = original row chosen as pivot at elimination step `k`.
    pivot_row: Vec<usize>,
    /// `pivot_pos[k]` = basis position of the column eliminated at step `k`.
    pivot_pos: Vec<usize>,
    /// Below-diagonal multipliers of `L`, per step, indexed by original row.
    l_cols: Vec<Vec<(usize, f64)>>,
    /// Above-diagonal entries of `U`, per step, indexed by pivot step.
    u_cols: Vec<Vec<(usize, f64)>>,
    /// Diagonal (pivot) entries of `U`, per step.
    u_diag: Vec<f64>,
}

impl LuFactors {
    /// Factorize the `m × m` basis whose columns are given in sparse
    /// `(row, value)` form. Returns `None` if the basis is numerically
    /// singular.
    pub(crate) fn factorize(m: usize, cols: &[&[(usize, f64)]]) -> Option<LuFactors> {
        debug_assert_eq!(cols.len(), m);
        // Original row counts, used as the Markowitz sparsity tiebreak.
        let mut row_count = vec![0usize; m];
        for col in cols {
            for &(r, _) in *col {
                row_count[r] += 1;
            }
        }
        let order = ascending_nonzero_order(cols);

        let mut lu = LuFactors {
            m,
            pivot_row: Vec::with_capacity(m),
            pivot_pos: Vec::with_capacity(m),
            l_cols: Vec::with_capacity(m),
            u_cols: Vec::with_capacity(m),
            u_diag: Vec::with_capacity(m),
        };
        // step_of[r] = Some(k) once original row r became the pivot of step k.
        let mut step_of: Vec<Option<usize>> = vec![None; m];
        let mut work = vec![0.0f64; m];
        let mut touched: Vec<usize> = Vec::with_capacity(m);
        // Steps whose pivot row may hold a non-zero of the current column,
        // one bit per step; empty again once a column's solve has drained it.
        let mut pending = vec![0u64; m.div_ceil(64)];

        for (k, &pos) in order.iter().enumerate() {
            // Scatter the column into the dense work vector.
            touched.clear();
            for &(r, v) in cols[pos] {
                if work[r] == 0.0 {
                    touched.push(r);
                }
                work[r] += v;
                if let Some(t) = step_of[r] {
                    pending[t / 64] |= 1 << (t % 64);
                }
            }
            // Left-looking forward solve against the already-computed steps.
            // l_cols[t] only references rows pivoted at steps > t or not yet
            // pivoted, so visiting the pending steps in ascending order is
            // an exact solve, and a step it marks is always still ahead.
            let mut ucol: Vec<(usize, f64)> = Vec::new();
            for word in 0..k.div_ceil(64) {
                while pending[word] != 0 {
                    let t = 64 * word + pending[word].trailing_zeros() as usize;
                    pending[word] &= pending[word] - 1;
                    let x = work[lu.pivot_row[t]];
                    if x == 0.0 {
                        continue;
                    }
                    ucol.push((t, x));
                    for &(r, v) in &lu.l_cols[t] {
                        if work[r] == 0.0 {
                            touched.push(r);
                        }
                        work[r] -= x * v;
                        if let Some(later) = step_of[r] {
                            debug_assert!(later > t);
                            pending[later / 64] |= 1 << (later % 64);
                        }
                    }
                }
            }
            // Threshold partial pivot among the not-yet-pivoted rows.
            let mut vmax = 0.0f64;
            for &r in &touched {
                if step_of[r].is_none() {
                    let a = work[r].abs();
                    if a > vmax {
                        vmax = a;
                    }
                }
            }
            if vmax < SINGULAR_TOL {
                // Singular: clean up the work vector before bailing.
                for &r in &touched {
                    work[r] = 0.0;
                }
                return None;
            }
            let threshold = PIVOT_THRESHOLD * vmax;
            let mut pivot: Option<usize> = None;
            let mut pivot_key = (usize::MAX, usize::MAX);
            for &r in &touched {
                if step_of[r].is_none() && work[r].abs() >= threshold {
                    let key = (row_count[r], r);
                    if key < pivot_key {
                        pivot_key = key;
                        pivot = Some(r);
                    }
                }
            }
            let prow = pivot.expect("eligible pivot row exists when vmax >= tol");
            let piv = work[prow];
            // Consume the work vector: pivot row -> diagonal, remaining
            // unpivoted rows -> L multipliers. Zeroing as we go makes repeat
            // entries in `touched` harmless and leaves `work` clean.
            let mut lcol: Vec<(usize, f64)> = Vec::new();
            for &r in &touched {
                let v = work[r];
                if v == 0.0 {
                    continue;
                }
                work[r] = 0.0;
                if r == prow || step_of[r].is_some() {
                    continue;
                }
                lcol.push((r, v / piv));
            }
            step_of[prow] = Some(k);
            lu.pivot_row.push(prow);
            lu.pivot_pos.push(pos);
            lu.l_cols.push(lcol);
            lu.u_cols.push(ucol);
            lu.u_diag.push(piv);
        }
        Some(lu)
    }

    /// Solve `B·x = b`. On entry `rhs` holds `b` in original-row space; on
    /// exit it is fully zeroed (self-cleaning) and `out` holds `x` indexed by
    /// basis position. Only positions corresponding to nonzero solution
    /// entries are written — the caller must pre-zero `out`.
    pub(crate) fn ftran(&self, rhs: &mut [f64], out: &mut [f64]) {
        // Forward solve L·y = b, in step order.
        for k in 0..self.m {
            let x = rhs[self.pivot_row[k]];
            if x == 0.0 {
                continue;
            }
            for &(r, v) in &self.l_cols[k] {
                rhs[r] -= x * v;
            }
        }
        // Back substitution U·x = y, column-oriented, in reverse step order.
        for k in (0..self.m).rev() {
            let prow = self.pivot_row[k];
            let num = rhs[prow];
            rhs[prow] = 0.0;
            if num == 0.0 {
                continue;
            }
            let z = num / self.u_diag[k];
            for &(t, v) in &self.u_cols[k] {
                rhs[self.pivot_row[t]] -= v * z;
            }
            out[self.pivot_pos[k]] = z;
        }
    }

    /// Solve `Bᵀ·y = c`. `cpos` is the right-hand side indexed by basis
    /// position; `y` receives the solution in original-row space (fully
    /// written). `zscratch` must have length `m`.
    pub(crate) fn btran(&self, cpos: &[f64], y: &mut [f64], zscratch: &mut [f64]) {
        // Forward solve Uᵀ·z = c in step space.
        for k in 0..self.m {
            let mut acc = cpos[self.pivot_pos[k]];
            for &(t, v) in &self.u_cols[k] {
                acc -= v * zscratch[t];
            }
            zscratch[k] = acc / self.u_diag[k];
        }
        // Backward solve Lᵀ·y = z back into original-row space.
        for k in (0..self.m).rev() {
            let mut acc = zscratch[k];
            for &(r, v) in &self.l_cols[k] {
                acc -= v * y[r];
            }
            y[self.pivot_row[k]] = acc;
        }
    }

    /// [`LuFactors::btran`] for two right-hand sides in one pass over the
    /// factors: `ya` solves for `ca`, `yb` for `cb`, and each accumulator
    /// folds the terms of its own single solve in that solve's order.
    pub(crate) fn btran2(
        &self,
        ca: &[f64],
        cb: &[f64],
        ya: &mut [f64],
        yb: &mut [f64],
        za: &mut [f64],
        zb: &mut [f64],
    ) {
        for k in 0..self.m {
            let pos = self.pivot_pos[k];
            let (mut a, mut b) = (ca[pos], cb[pos]);
            for &(t, v) in &self.u_cols[k] {
                a -= v * za[t];
                b -= v * zb[t];
            }
            za[k] = a / self.u_diag[k];
            zb[k] = b / self.u_diag[k];
        }
        for k in (0..self.m).rev() {
            let (mut a, mut b) = (za[k], zb[k]);
            for &(r, v) in &self.l_cols[k] {
                a -= v * ya[r];
                b -= v * yb[r];
            }
            let prow = self.pivot_row[k];
            ya[prow] = a;
            yb[prow] = b;
        }
    }
}

/// Basis positions in ascending `(non-zeros, position)` order — the static
/// Markowitz elimination order — by a counting sort: a column has at most `m`
/// non-zeros and a warm basis is mostly singletons, so there are few
/// distinct counts to tell apart.
fn ascending_nonzero_order(cols: &[&[(usize, f64)]]) -> Vec<usize> {
    let longest = cols.iter().map(|c| c.len()).max().unwrap_or(0);
    let mut next = vec![0usize; longest + 2];
    for col in cols {
        next[col.len() + 1] += 1;
    }
    for len in 0..=longest {
        next[len + 1] += next[len];
    }
    let mut order = vec![0usize; cols.len()];
    for (p, col) in cols.iter().enumerate() {
        order[next[col.len()]] = p;
        next[col.len()] += 1;
    }
    order
}

/// One product-form update: after column `q` replaces the basic variable in
/// row `r`, `B_new⁻¹ = E·B_old⁻¹` where `E` differs from the identity only in
/// column `r`. `col` stores that column sparsely, *including* the diagonal
/// entry `(r, 1/w_r)`; off-diagonal entries are `(i, -w_i/w_r)` where `w` is
/// the ftran'd entering column.
#[derive(Debug, Clone)]
pub(crate) struct Eta {
    pub(crate) r: usize,
    pub(crate) col: Vec<(usize, f64)>,
}

impl Eta {
    /// Build the eta vector for pivot row `r` from the ftran'd entering
    /// column `w` (dense, basis-position space). `w[r]` must be the pivot.
    /// `scratch` is any buffer of `w`'s length: the kept entries are packed
    /// into its front without a branch per row, then copied out at their
    /// final size — one pass and one allocation on a path a solve takes
    /// thousands of times.
    pub(crate) fn from_pivot(
        r: usize,
        w: &[f64],
        drop_tol: f64,
        scratch: &mut [(usize, f64)],
    ) -> Eta {
        let inv = 1.0 / w[r];
        let mut len = 0;
        for (i, &wi) in w.iter().enumerate() {
            scratch[len] = (i, if i == r { inv } else { -wi * inv });
            len += usize::from(i == r || wi.abs() > drop_tol);
        }
        Eta { r, col: scratch[..len].to_vec() }
    }

    /// Apply `x ← E·x` (ftran direction).
    pub(crate) fn apply_ftran(&self, x: &mut [f64]) {
        let t = x[self.r];
        if t == 0.0 {
            return;
        }
        for &(i, v) in &self.col {
            if i == self.r {
                x[self.r] = v * t;
            } else {
                x[i] += v * t;
            }
        }
    }

    /// Apply `c ← Eᵀ·c` (btran direction).
    pub(crate) fn apply_btran(&self, c: &mut [f64]) {
        let mut acc = 0.0;
        for &(i, v) in &self.col {
            acc += c[i] * v;
        }
        c[self.r] = acc;
    }

    /// [`Eta::apply_btran`] to two vectors in one pass over the eta column.
    pub(crate) fn apply_btran2(&self, ca: &mut [f64], cb: &mut [f64]) {
        let (mut a, mut b) = (0.0, 0.0);
        for &(i, v) in &self.col {
            a += ca[i] * v;
            b += cb[i] * v;
        }
        ca[self.r] = a;
        cb[self.r] = b;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn dense_mul(m: usize, cols: &[Vec<(usize, f64)>], x: &[f64]) -> Vec<f64> {
        let mut b = vec![0.0; m];
        for (j, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                b[r] += v * x[j];
            }
        }
        b
    }

    fn check_roundtrip(m: usize, cols: Vec<Vec<(usize, f64)>>, x: Vec<f64>) {
        let refs: Vec<&[(usize, f64)]> = cols.iter().map(|c| c.as_slice()).collect();
        let lu = LuFactors::factorize(m, &refs).expect("nonsingular");
        // ftran: solve B·y = B·x, expect y == x.
        let mut rhs = dense_mul(m, &cols, &x);
        let mut out = vec![0.0; m];
        lu.ftran(&mut rhs, &mut out);
        for i in 0..m {
            assert!((out[i] - x[i]).abs() < 1e-9, "ftran mismatch at {i}");
            assert_eq!(rhs[i], 0.0, "rhs not self-cleaned at {i}");
        }
        // btran: solve Bᵀ·y = c, check Bᵀ·y == c by columns.
        let c: Vec<f64> = (0..m).map(|i| (i as f64) - 1.5).collect();
        let mut y = vec![0.0; m];
        let mut z = vec![0.0; m];
        lu.btran(&c, &mut y, &mut z);
        for (j, col) in cols.iter().enumerate() {
            let dot: f64 = col.iter().map(|&(r, v)| v * y[r]).sum();
            assert!((dot - c[j]).abs() < 1e-9, "btran mismatch at col {j}");
        }
    }

    #[test]
    fn identity_roundtrip() {
        let m = 4;
        let cols: Vec<Vec<(usize, f64)>> = (0..m).map(|i| vec![(i, 1.0)]).collect();
        check_roundtrip(m, cols, vec![1.0, -2.0, 3.0, 0.5]);
    }

    #[test]
    fn dense_small_roundtrip() {
        let cols = vec![
            vec![(0, 2.0), (1, 1.0), (2, -1.0)],
            vec![(0, 1.0), (1, 3.0)],
            vec![(1, -1.0), (2, 4.0)],
        ];
        check_roundtrip(3, cols, vec![0.7, -1.2, 2.5]);
    }

    #[test]
    fn permutation_and_sparse_roundtrip() {
        // A permuted, scaled identity plus a couple of off-diagonal entries.
        let cols = vec![
            vec![(3, 2.0)],
            vec![(0, -1.5), (3, 0.5)],
            vec![(1, 4.0), (0, 0.25)],
            vec![(2, 1.0), (1, -0.75)],
            vec![(4, -3.0)],
        ];
        check_roundtrip(5, cols, vec![1.0, 2.0, -3.0, 0.0, 4.5]);
    }

    #[test]
    fn singular_matrix_rejected() {
        // Two identical columns.
        let cols = [vec![(0, 1.0), (1, 2.0)], vec![(0, 1.0), (1, 2.0)]];
        let refs: Vec<&[(usize, f64)]> = cols.iter().map(|c| c.as_slice()).collect();
        assert!(LuFactors::factorize(2, &refs).is_none());
    }

    /// The factorization as it was before the pending-step set: the forward
    /// solve probes every earlier step.  Kept verbatim as the oracle of
    /// [`pending_step_solve_reproduces_the_full_scan_bit_for_bit`].
    fn factorize_scanning_every_step(m: usize, cols: &[&[(usize, f64)]]) -> Option<LuFactors> {
        let mut row_count = vec![0usize; m];
        for col in cols {
            for &(r, _) in *col {
                row_count[r] += 1;
            }
        }
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&p| (cols[p].len(), p));
        let mut lu = LuFactors {
            m,
            pivot_row: Vec::with_capacity(m),
            pivot_pos: Vec::with_capacity(m),
            l_cols: Vec::with_capacity(m),
            u_cols: Vec::with_capacity(m),
            u_diag: Vec::with_capacity(m),
        };
        let mut step_of: Vec<Option<usize>> = vec![None; m];
        let mut work = vec![0.0f64; m];
        let mut touched: Vec<usize> = Vec::with_capacity(m);
        for (k, &pos) in order.iter().enumerate() {
            touched.clear();
            for &(r, v) in cols[pos] {
                if work[r] == 0.0 {
                    touched.push(r);
                }
                work[r] += v;
            }
            let mut ucol: Vec<(usize, f64)> = Vec::new();
            for t in 0..k {
                let x = work[lu.pivot_row[t]];
                if x == 0.0 {
                    continue;
                }
                ucol.push((t, x));
                for &(r, v) in &lu.l_cols[t] {
                    if work[r] == 0.0 {
                        touched.push(r);
                    }
                    work[r] -= x * v;
                }
            }
            let mut vmax = 0.0f64;
            for &r in &touched {
                if step_of[r].is_none() {
                    vmax = vmax.max(work[r].abs());
                }
            }
            if vmax < SINGULAR_TOL {
                return None;
            }
            let threshold = PIVOT_THRESHOLD * vmax;
            let mut pivot: Option<usize> = None;
            let mut pivot_key = (usize::MAX, usize::MAX);
            for &r in &touched {
                if step_of[r].is_none() && work[r].abs() >= threshold {
                    let key = (row_count[r], r);
                    if key < pivot_key {
                        pivot_key = key;
                        pivot = Some(r);
                    }
                }
            }
            let prow = pivot.expect("eligible pivot row exists when vmax >= tol");
            let piv = work[prow];
            let mut lcol: Vec<(usize, f64)> = Vec::new();
            for &r in &touched {
                let v = work[r];
                if v == 0.0 {
                    continue;
                }
                work[r] = 0.0;
                if r == prow || step_of[r].is_some() {
                    continue;
                }
                lcol.push((r, v / piv));
            }
            step_of[prow] = Some(k);
            lu.pivot_row.push(prow);
            lu.pivot_pos.push(pos);
            lu.l_cols.push(lcol);
            lu.u_cols.push(ucol);
            lu.u_diag.push(piv);
        }
        Some(lu)
    }

    /// Every field of the factors, floats as bit patterns.
    type FactorBits =
        (Vec<usize>, Vec<usize>, Vec<Vec<(usize, u64)>>, Vec<Vec<(usize, u64)>>, Vec<u64>);

    fn bits(lu: &LuFactors) -> FactorBits {
        let sparse = |cols: &[Vec<(usize, f64)>]| -> Vec<Vec<(usize, u64)>> {
            cols.iter().map(|c| c.iter().map(|&(i, v)| (i, v.to_bits())).collect()).collect()
        };
        (
            lu.pivot_row.clone(),
            lu.pivot_pos.clone(),
            sparse(&lu.l_cols),
            sparse(&lu.u_cols),
            lu.u_diag.iter().map(|v| v.to_bits()).collect(),
        )
    }

    /// Basis `case` of the 400-member random family: sizes on both sides of
    /// the 64-step word boundary, from near-identity to a dense block, some
    /// permuted, some with repeated row indices, some singular.
    fn random_basis(rng: &mut SmallRng, case: usize) -> (usize, Vec<Vec<(usize, f64)>>) {
        let m = rng.gen_range(1..150usize);
        // A warm basis is mostly slack columns with a few structurals
        // mixed in; `extra` sweeps from that to a dense block.
        let extra = [0.0, 0.02, 0.1, 0.5][case % 4];
        let mut perm: Vec<usize> = (0..m).collect();
        if case % 3 == 0 {
            for i in (1..m).rev() {
                perm.swap(i, rng.gen_range(0..i + 1));
            }
        }
        let mut cols: Vec<Vec<(usize, f64)>> = (0..m)
            .map(|j| {
                let mut col = vec![(perm[j], if rng.gen_bool(0.5) { 1.0 } else { -1.0 })];
                for r in 0..m {
                    if rng.gen_bool(extra) {
                        col.push((r, rng.gen_range(-4.0..4.0)));
                    }
                }
                // A repeated row index accumulates in the scatter, and a
                // pair that cancels leaves an explicit zero behind.
                if case % 5 == 0 {
                    let (r, v) = col[rng.gen_range(0..col.len())];
                    col.push((r, if rng.gen_bool(0.5) { -v } else { 0.5 * v }));
                }
                col
            })
            .collect();
        if case % 7 == 0 && m > 1 {
            // Numerically singular: one column repeats another.
            let (a, b) = (rng.gen_range(0..m), rng.gen_range(0..m));
            if a != b {
                cols[a] = cols[b].clone();
            }
        }
        (m, cols)
    }

    #[test]
    fn pending_step_solve_reproduces_the_full_scan_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(0x1AB5);
        let (mut factorized, mut singular) = (0, 0);
        for case in 0..400 {
            let (m, cols) = random_basis(&mut rng, case);
            let refs: Vec<&[(usize, f64)]> = cols.iter().map(|c| c.as_slice()).collect();
            let fast = LuFactors::factorize(m, &refs);
            let oracle = factorize_scanning_every_step(m, &refs);
            match (&fast, &oracle) {
                (Some(f), Some(o)) => {
                    assert_eq!(bits(f), bits(o), "case {case}, m = {m}");
                    factorized += 1;
                }
                (None, None) => singular += 1,
                _ => panic!("case {case}: one factorization is singular, the other is not"),
            }
        }
        assert!(factorized > 200 && singular > 10, "{factorized} factorized, {singular} singular");
    }

    /// [`Eta::from_pivot`] as it was: the kept entries pushed one by one
    /// into a vector that grows as it goes.
    fn eta_pushed_entry_by_entry(r: usize, w: &[f64], drop_tol: f64) -> Eta {
        let piv = w[r];
        let inv = 1.0 / piv;
        let mut col: Vec<(usize, f64)> = Vec::new();
        for (i, &wi) in w.iter().enumerate() {
            if i == r {
                col.push((r, inv));
            } else if wi.abs() > drop_tol {
                col.push((i, -wi * inv));
            }
        }
        Eta { r, col }
    }

    pub(crate) fn float_bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fused_btran_reproduces_the_two_single_solves_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(0x1AB5);
        let (mut solved, mut eta_total) = (0, 0);
        for case in 0..400 {
            let (m, cols) = random_basis(&mut rng, case);
            let refs: Vec<&[(usize, f64)]> = cols.iter().map(|c| c.as_slice()).collect();
            let Some(lu) = LuFactors::factorize(m, &refs) else { continue };
            // An eta file of 0–127 product-form updates, as a solve leaves
            // behind between two refactorizations.
            let mut scratch = vec![(0, 0.0); m];
            let etas: Vec<Eta> = (0..rng.gen_range(0..128))
                .map(|_| {
                    let r = rng.gen_range(0..m);
                    let density = [0.05, 0.3, 1.0][rng.gen_range(0..3)];
                    let mut w: Vec<f64> = (0..m)
                        .map(|_| if rng.gen_bool(density) { rng.gen_range(-3.0..3.0) } else { 0.0 })
                        .collect();
                    // Entries under the drop tolerance stay out of the eta.
                    w[rng.gen_range(0..m)] = 1e-13;
                    w[r] = rng.gen_range(0.5..2.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                    let eta = Eta::from_pivot(r, &w, 1e-12, &mut scratch);
                    let pushed = eta_pushed_entry_by_entry(r, &w, 1e-12);
                    assert_eq!(eta.r, pushed.r);
                    assert_eq!(
                        eta.col.iter().map(|&(i, v)| (i, v.to_bits())).collect::<Vec<_>>(),
                        pushed.col.iter().map(|&(i, v)| (i, v.to_bits())).collect::<Vec<_>>(),
                        "case {case}: packed eta differs from the pushed one"
                    );
                    eta
                })
                .collect();
            eta_total += etas.len();
            // The dual simplex's pair: a unit vector and a basic-cost vector
            // (zeros of both signs among the costs).
            let mut unit = vec![0.0; m];
            unit[rng.gen_range(0..m)] = 1.0;
            let cost: Vec<f64> = (0..m)
                .map(|_| match rng.gen_range(0..4) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-50.0..50.0),
                })
                .collect();

            let single = |rhs: &[f64]| {
                let mut c = rhs.to_vec();
                for eta in etas.iter().rev() {
                    eta.apply_btran(&mut c);
                }
                let (mut y, mut z) = (vec![0.0; m], vec![0.0; m]);
                lu.btran(&c, &mut y, &mut z);
                y
            };
            let (mut ca, mut cb) = (unit.clone(), cost.clone());
            for eta in etas.iter().rev() {
                eta.apply_btran2(&mut ca, &mut cb);
            }
            // Stale scratch must not leak into either solution.
            let (mut ya, mut yb) = (vec![7.0; m], vec![-7.0; m]);
            let (mut za, mut zb) = (vec![7.0; m], vec![-7.0; m]);
            lu.btran2(&ca, &cb, &mut ya, &mut yb, &mut za, &mut zb);
            assert_eq!(float_bits(&ya), float_bits(&single(&unit)), "case {case}: unit row");
            assert_eq!(float_bits(&yb), float_bits(&single(&cost)), "case {case}: duals");
            solved += 1;
        }
        assert!(solved > 200 && eta_total > 10_000, "{solved} bases, {eta_total} etas");
    }

    #[test]
    fn eta_matches_refactorization() {
        // Basis = identity, replace position 1 with column [1, 2, 1]^T.
        let m = 3;
        let w = vec![1.0, 2.0, 1.0];
        let eta = Eta::from_pivot(1, &w, 1e-12, &mut [(0, 0.0); 3]);
        // ftran of b through E must equal solving the updated basis directly.
        let new_cols = [vec![(0, 1.0)], vec![(0, 1.0), (1, 2.0), (2, 1.0)], vec![(2, 1.0)]];
        let refs: Vec<&[(usize, f64)]> = new_cols.iter().map(|c| c.as_slice()).collect();
        let lu = LuFactors::factorize(m, &refs).unwrap();
        let b = vec![3.0, 1.0, -2.0];
        let mut direct = vec![0.0; m];
        let mut rhs = b.clone();
        lu.ftran(&mut rhs, &mut direct);
        let mut via_eta = b.clone();
        eta.apply_ftran(&mut via_eta);
        for i in 0..m {
            assert!((direct[i] - via_eta[i]).abs() < 1e-9, "ftran eta mismatch at {i}");
        }
        // btran direction.
        let c = vec![0.5, -1.0, 2.0];
        let mut direct_y = vec![0.0; m];
        let mut z = vec![0.0; m];
        lu.btran(&c, &mut direct_y, &mut z);
        let mut via_eta_c = c.clone();
        eta.apply_btran(&mut via_eta_c);
        for i in 0..m {
            assert!((direct_y[i] - via_eta_c[i]).abs() < 1e-9, "btran eta mismatch at {i}");
        }
    }
}
