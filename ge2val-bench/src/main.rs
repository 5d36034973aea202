//! Command-line entry point of the GE2VAL service benchmark.
//!
//! ```text
//! cargo run --release --manifest-path ge2val-bench/Cargo.toml -- \
//!     --workload square --seed 1 --seconds 20 --trace 0
//! ```

use ge2val_bench::{run, Config};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("ge2val-bench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ge2val-bench: {e}");
            ExitCode::FAILURE
        }
    }
}
