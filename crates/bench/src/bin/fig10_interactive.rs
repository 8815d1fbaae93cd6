//! Interactive budget-sweep study: a K-point storage sweep answered as one
//! warm session chain (`TuningSession::try_sweep_storage_with_progress` over the shared
//! fig10 budget grid) vs K independent cold solves of the identical BIP.
//!
//! Emits `BENCH_interactive.json` and doubles as the CI acceptance gate:
//! the warm chain must spend ≥ 3× fewer total simplex pivots than the cold
//! solves, issue zero optimizer what-if calls, and agree with the cold
//! answers within gap slack.  The report and artifact land before the gate
//! runs, so a failure still leaves the per-point diagnostics behind.

fn main() {
    println!("{}", cophy_bench::fig10_interactive());
}
