//! The CI performance-regression gate: runs every scenario of the gate's
//! table, writes one `BENCH_<bench>.json` report per scenario and fails when
//! a banded wall regresses beyond its band, a counter drifts or a floor
//! breaks. See [`qosrm_bench::gate`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(qosrm_bench::gate::gate_main(&args) as u8)
}
