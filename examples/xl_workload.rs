//! Writes one of the benchmark's XL programs as `.ir` text, so the CLIs can
//! trace it:
//!
//! ```sh
//! cargo run --release --example xl_workload -- nest 300 > target/xl-nest.ir
//! cargo run --release --example xl_workload -- fan 2500 > target/xl-fan.ir
//! ```
//!
//! `nest C` is `nest_grid(C, 2, 8)` (the `xl-nest` shape: a chain of `C`
//! loop nests) and `fan B` is `wide_fan(B, 4)` (the `xl-fan` shape: a
//! `B`-way branch fan).

use am_bench::workloads::{nest_grid, wide_fan};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let size = |default| args.get(1).and_then(|s| s.parse().ok()).unwrap_or(default);
    let g = match args.first().map(String::as_str) {
        Some("nest") => nest_grid(size(300), 2, 8),
        Some("fan") => wide_fan(size(2500), 4),
        _ => {
            eprintln!("usage: xl_workload nest|fan [SIZE]");
            std::process::exit(2);
        }
    };
    print!("{}", am_ir::text::to_text(&g));
}
