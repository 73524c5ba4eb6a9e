//! The COMA benchmark: three seeded workloads measured end to end, and a
//! traced run of each that times the layers from outside.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchsuite/Cargo.toml -- \
//!     --workload large-batch|paper-corpus|service-mixed \
//!     --seed N --seconds S --trace 0|1 [--scale tiny]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; lines before it start with `#`.
//! The exit code is 0 only when every output check passed. See
//! `README.md` in this directory for the metrics and workloads.

use std::process::ExitCode;

/// Peak live heap of the batch workloads comes from this counting
/// allocator (one relaxed load per allocation outside a window).
#[global_allocator]
static ALLOC: coma_bench::alloc_track::CountingAllocator =
    coma_bench::alloc_track::CountingAllocator;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    coma_benchsuite::run_cli(&argv)
}
