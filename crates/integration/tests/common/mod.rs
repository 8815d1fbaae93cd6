//! Workload shapes more than one test file needs (`mod common;`).

use cophy_catalog::Schema;
use cophy_workload::{HetGen, HomGen, Workload, DEFAULT_CHUNK};

/// 300 statements, more than one `DEFAULT_CHUNK`: templates with a diverse
/// statement after every ninth, so the second chunk opens clusters and
/// proposes candidates of its own, and ε-merges re-center representatives
/// across the chunk boundary.
pub fn long_workload(schema: &Schema) -> Workload {
    let hom = HomGen::new(9).generate(schema, 270);
    let het = HetGen::new(4).generate(schema, 30);
    let mut w = Workload::new();
    for (i, (_, stmt, weight)) in hom.iter().enumerate() {
        w.push_weighted(stmt.clone(), weight);
        if i % 9 == 8 {
            let (_, stmt, weight) = het.iter().nth(i / 9).expect("30 diverse statements");
            w.push_weighted(stmt.clone(), weight);
        }
    }
    assert!(w.len() == 300 && w.len() > DEFAULT_CHUNK);
    w
}
