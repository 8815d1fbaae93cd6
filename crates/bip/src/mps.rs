//! MPS export/import for BIP [`Model`]s.
//!
//! The paper hands its BIP to an off-the-shelf solver (CPLEX); the portable
//! hand-off format of that world is MPS.  [`write_mps`] renders a model as
//! free-format MPS text (minimization, all variables binary via `BV` bounds
//! inside an `INTORG`/`INTEND` block) so external solvers can cross-check the
//! built-in engines, and [`parse_mps`] reads the same dialect back, closing
//! the loop for round-trip tests.
//!
//! Variable and row names are sanitized to `x{j}` / `c{i}` — model names come
//! from [`Model::var_name`] renderings like `z[ix_lineitem(l_sk,l_qty)]`,
//! whose parentheses and commas would break whitespace-delimited MPS fields.
//! The original names ride along as `*` comment lines, so an exported file
//! remains human-mappable.  Coefficients use Rust's shortest round-trip float
//! formatting: `parse_mps(write_mps(m))` reproduces every coefficient
//! bit-for-bit.

use crate::model::{LinExpr, Model, Sense, VarId};

/// Objective row name used by the writer.
const OBJ_ROW: &str = "COST";

/// Render `model` as free-format MPS text.
pub fn write_mps(model: &Model, name: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("NAME          {name}\n"));
    // Original variable names as comments (MPS-safe ids follow).
    for j in 0..model.n_vars() {
        let original = model.var_name(VarId(j as u32));
        if !original.is_empty() {
            out.push_str(&format!("* x{j} = {original}\n"));
        }
    }
    out.push_str("ROWS\n");
    out.push_str(&format!(" N  {OBJ_ROW}\n"));
    for (i, c) in model.constraints().iter().enumerate() {
        let sense = match c.sense {
            Sense::Le => 'L',
            Sense::Ge => 'G',
            Sense::Eq => 'E',
        };
        out.push_str(&format!(" {sense}  c{i}\n"));
    }
    // Column-major coefficients: collect each variable's constraint terms.
    let mut columns: Vec<Vec<(usize, f64)>> = vec![Vec::new(); model.n_vars()];
    for (i, c) in model.constraints().iter().enumerate() {
        for &(v, coeff) in &c.expr.terms {
            columns[v.0 as usize].push((i, coeff));
        }
    }
    out.push_str("COLUMNS\n");
    out.push_str("    MARK0000  'MARKER'                 'INTORG'\n");
    for (j, terms) in columns.iter().enumerate() {
        // The objective entry is always emitted (even when 0) so every
        // variable appears in COLUMNS — otherwise a term-free variable would
        // vanish from the file and shift every id on re-import.
        out.push_str(&format!("    x{j}  {OBJ_ROW}  {}\n", model.objective()[j]));
        for &(i, coeff) in terms {
            out.push_str(&format!("    x{j}  c{i}  {coeff}\n"));
        }
    }
    out.push_str("    MARK0001  'MARKER'                 'INTEND'\n");
    out.push_str("RHS\n");
    for (i, c) in model.constraints().iter().enumerate() {
        if c.rhs != 0.0 {
            out.push_str(&format!("    RHS  c{i}  {}\n", c.rhs));
        }
    }
    out.push_str("BOUNDS\n");
    for j in 0..model.n_vars() {
        out.push_str(&format!(" BV BND  x{j}\n"));
    }
    out.push_str("ENDATA\n");
    out
}

/// The sections of an MPS file, in required order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Section {
    Start,
    Name,
    Rows,
    Columns,
    Rhs,
    Bounds,
    End,
}

/// Parse free-format MPS text (the dialect [`write_mps`] emits: minimization,
/// binary variables, `N`/`L`/`G`/`E` rows) back into a [`Model`].
///
/// Enforced on the way in: sections appear in order, every referenced row and
/// column is declared, all variables are integral (`INTORG` block) *and*
/// binary (`BV` bound), and `ENDATA` terminates the file — so this doubles as
/// the format lint ([`lint_mps`]).
pub fn parse_mps(text: &str) -> Result<Model, String> {
    let mut section = Section::Start;
    let mut obj_row: Option<String> = None;
    // Declared constraint rows, in order: (name, sense).
    let mut rows: Vec<(String, Sense)> = Vec::new();
    // Column order of first appearance: (name, objective coefficient).
    let mut cols: Vec<(String, f64)> = Vec::new();
    // Per-row sparse terms (column index, coefficient).
    let mut terms: Vec<Vec<(usize, f64)>> = Vec::new();
    let mut rhs: Vec<f64> = Vec::new();
    let mut binary: Vec<bool> = Vec::new();
    let mut in_integer_block = false;

    let row_index = |rows: &[(String, Sense)], name: &str| -> Option<usize> {
        rows.iter().position(|(n, _)| n == name)
    };

    for (lineno, raw) in text.lines().enumerate() {
        let n = lineno + 1;
        if raw.starts_with('*') || raw.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = raw.split_whitespace().collect();
        // Section headers start in column 1 (no leading whitespace).
        if !raw.starts_with(' ') && !raw.starts_with('\t') {
            let next = match fields[0] {
                "NAME" => Section::Name,
                "ROWS" => Section::Rows,
                "COLUMNS" => Section::Columns,
                "RHS" => Section::Rhs,
                "RANGES" => return Err(format!("line {n}: RANGES section is not supported")),
                "BOUNDS" => Section::Bounds,
                "ENDATA" => Section::End,
                other => return Err(format!("line {n}: unknown section `{other}`")),
            };
            if next <= section {
                return Err(format!("line {n}: section {next:?} out of order"));
            }
            section = next;
            continue;
        }
        match section {
            Section::Start | Section::Name | Section::End => {
                return Err(format!("line {n}: data outside of a section"));
            }
            Section::Rows => {
                let [sense, name] = fields[..] else {
                    return Err(format!("line {n}: ROWS lines are `<sense> <name>`"));
                };
                match sense {
                    "N" => {
                        if obj_row.replace(name.to_string()).is_some() {
                            return Err(format!("line {n}: second objective (N) row"));
                        }
                    }
                    "L" => rows.push((name.to_string(), Sense::Le)),
                    "G" => rows.push((name.to_string(), Sense::Ge)),
                    "E" => rows.push((name.to_string(), Sense::Eq)),
                    other => return Err(format!("line {n}: unknown row sense `{other}`")),
                }
            }
            Section::Columns => {
                if fields.len() >= 3 && fields[1] == "'MARKER'" {
                    match *fields.last().expect("non-empty") {
                        "'INTORG'" => in_integer_block = true,
                        "'INTEND'" => in_integer_block = false,
                        other => return Err(format!("line {n}: unknown marker {other}")),
                    }
                    continue;
                }
                if fields.len() != 3 && fields.len() != 5 {
                    return Err(format!("line {n}: COLUMNS lines are `<col> (<row> <val>)+`"));
                }
                let col = fields[0];
                let j = match cols.iter().position(|(c, _)| c == col) {
                    Some(j) => j,
                    None => {
                        if !in_integer_block {
                            return Err(format!(
                                "line {n}: continuous column `{col}` (BIP models are all-binary)"
                            ));
                        }
                        cols.push((col.to_string(), 0.0));
                        binary.push(false);
                        cols.len() - 1
                    }
                };
                for pair in fields[1..].chunks(2) {
                    let val: f64 = pair[1]
                        .parse()
                        .map_err(|_| format!("line {n}: bad coefficient `{}`", pair[1]))?;
                    if Some(pair[0]) == obj_row.as_deref() {
                        cols[j].1 = val;
                    } else {
                        let i = row_index(&rows, pair[0])
                            .ok_or_else(|| format!("line {n}: unknown row `{}`", pair[0]))?;
                        terms.resize(rows.len().max(terms.len()), Vec::new());
                        terms[i].push((j, val));
                    }
                }
            }
            Section::Rhs => {
                if fields.len() != 3 && fields.len() != 5 {
                    return Err(format!("line {n}: RHS lines are `<set> (<row> <val>)+`"));
                }
                for pair in fields[1..].chunks(2) {
                    let i = row_index(&rows, pair[0])
                        .ok_or_else(|| format!("line {n}: unknown row `{}`", pair[0]))?;
                    let val: f64 =
                        pair[1].parse().map_err(|_| format!("line {n}: bad RHS `{}`", pair[1]))?;
                    rhs.resize(rows.len(), 0.0);
                    rhs[i] = val;
                }
            }
            Section::Bounds => {
                let [kind, _set, col] = fields[..] else {
                    return Err(format!("line {n}: BOUNDS lines are `<type> <set> <col>`"));
                };
                if kind != "BV" {
                    return Err(format!("line {n}: only BV bounds are supported, got `{kind}`"));
                }
                let j = cols
                    .iter()
                    .position(|(c, _)| c == col)
                    .ok_or_else(|| format!("line {n}: unknown column `{col}`"))?;
                binary[j] = true;
            }
        }
    }
    if section != Section::End {
        return Err("missing ENDATA".into());
    }
    if obj_row.is_none() {
        return Err("missing objective (N) row".into());
    }
    if let Some(j) = binary.iter().position(|b| !b) {
        return Err(format!("column `{}` has no BV bound (BIP models are all-binary)", cols[j].0));
    }

    let mut model = Model::new();
    for (name, obj) in &cols {
        model.add_var(name.clone(), *obj);
    }
    terms.resize(rows.len(), Vec::new());
    rhs.resize(rows.len(), 0.0);
    for (i, (_, sense)) in rows.iter().enumerate() {
        let mut expr = LinExpr::new();
        for &(j, coeff) in &terms[i] {
            expr.add(VarId(j as u32), coeff);
        }
        model.add_constraint(expr, *sense, rhs[i]);
    }
    Ok(model)
}

/// Strict format check: `Ok` iff the text parses as the MPS dialect this
/// module writes.  Returns `(n_vars, n_constraints)` for harness output.
pub fn lint_mps(text: &str) -> Result<(usize, usize), String> {
    let m = parse_mps(text)?;
    Ok((m.n_vars(), m.n_constraints()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch_bound::{BranchBound, SolveOptions};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn small_model() -> Model {
        // min −2x − 3y + z   s.t.  x + y + z ≤ 2,  y − z ≥ 0,  x + z = 1.
        let mut m = Model::new();
        let x = m.add_var("z[ix_a(c1,c2)]", -2.0);
        let y = m.add_var("z[ix_b(c3)]", -3.0);
        let z = m.add_var("y[q0,k1]", 1.0);
        m.add_constraint(LinExpr::new().term(x, 1.0).term(y, 1.0).term(z, 1.0), Sense::Le, 2.0);
        m.add_constraint(LinExpr::new().term(y, 1.0).term(z, -1.0), Sense::Ge, 0.0);
        m.add_constraint(LinExpr::new().term(x, 1.0).term(z, 1.0), Sense::Eq, 1.0);
        m
    }

    #[test]
    fn round_trip_is_exact() {
        let m = small_model();
        let text = write_mps(&m, "small");
        let back = parse_mps(&text).expect("round trip parses");
        assert_eq!(back.n_vars(), m.n_vars());
        assert_eq!(back.n_constraints(), m.n_constraints());
        for j in 0..m.n_vars() {
            assert_eq!(back.objective()[j].to_bits(), m.objective()[j].to_bits());
        }
        for (a, b) in back.constraints().iter().zip(m.constraints()) {
            assert_eq!(a.sense, b.sense);
            assert_eq!(a.rhs.to_bits(), b.rhs.to_bits());
            assert_eq!(a.expr.terms, b.expr.terms);
        }
    }

    #[test]
    fn random_models_round_trip_and_solve_identically() {
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..10 {
            let n = rng.gen_range(3..10);
            let mut m = Model::new();
            for j in 0..n {
                m.add_var(format!("v{j}"), rng.gen_range(-5.0..5.0));
            }
            for _ in 0..rng.gen_range(1..6) {
                let mut e = LinExpr::new();
                for j in 0..n {
                    if rng.gen_bool(0.5) {
                        e.add(VarId(j as u32), rng.gen_range(-3.0..3.0));
                    }
                }
                let sense = [Sense::Le, Sense::Ge][rng.gen_range(0..2)];
                m.add_constraint(e, sense, rng.gen_range(-2.0..4.0));
            }
            let back = parse_mps(&write_mps(&m, "rand")).expect("parses");
            let native = m.brute_force();
            let imported = back.brute_force();
            match (native, imported) {
                (Some((a, _)), Some((b, _))) => assert_eq!(a.to_bits(), b.to_bits()),
                (a, b) => assert_eq!(a.is_some(), b.is_some()),
            }
        }
    }

    #[test]
    fn reimported_model_solves_to_native_objective() {
        let m = small_model();
        let back = parse_mps(&write_mps(&m, "small")).unwrap();
        let opts = SolveOptions::default();
        let native = BranchBound::new().solve(&m, &opts);
        let imported = BranchBound::new().solve(&back, &opts);
        assert_eq!(native.objective.to_bits(), imported.objective.to_bits());
        assert_eq!(native.x, imported.x);
    }

    #[test]
    fn lint_accepts_written_and_rejects_malformed() {
        let text = write_mps(&small_model(), "small");
        assert_eq!(lint_mps(&text).unwrap(), (3, 3));
        // Truncated file: no ENDATA.
        let truncated = text.replace("ENDATA\n", "");
        assert!(lint_mps(&truncated).unwrap_err().contains("ENDATA"));
        // Out-of-order sections.
        let reordered = "NAME t\nCOLUMNS\nROWS\nENDATA\n";
        assert!(lint_mps(reordered).unwrap_err().contains("out of order"));
        // Continuous variable (outside the INTORG block).
        let continuous = "NAME t\nROWS\n N  COST\nCOLUMNS\n    x0  COST  1\nRHS\nBOUNDS\nENDATA\n";
        assert!(lint_mps(continuous).unwrap_err().contains("continuous"));
        // Missing BV bound.
        let unbounded = "NAME t\nROWS\n N  COST\nCOLUMNS\n    MARK0000  'MARKER'  'INTORG'\n    x0  COST  1\n    MARK0001  'MARKER'  'INTEND'\nRHS\nBOUNDS\nENDATA\n";
        assert!(lint_mps(unbounded).unwrap_err().contains("BV"));
    }

    #[test]
    fn relaxed_rows_survive_export() {
        // A row with no terms (`0 ≥ 0`) has no COLUMNS entry to carry it;
        // the ROWS section alone must bring it back, between its neighbours.
        let mut m = Model::new();
        let x = m.add_var("x", -1.0);
        m.add_constraint(LinExpr::new().term(x, 1.0), Sense::Le, 1.0);
        m.add_constraint(LinExpr::new(), Sense::Ge, 0.0);
        m.add_constraint(LinExpr::new().term(x, 2.0), Sense::Ge, 0.0);
        let back = parse_mps(&write_mps(&m, "relaxed")).unwrap();
        assert_eq!(back.n_constraints(), 3);
        assert!(back.constraints()[1].expr.terms.is_empty());
        assert_eq!((back.constraints()[1].sense, back.constraints()[1].rhs), (Sense::Ge, 0.0));
        assert_eq!(back.constraints()[2].expr.terms, m.constraints()[2].expr.terms);
    }
}
