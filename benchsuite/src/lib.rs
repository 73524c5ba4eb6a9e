//! The COMA benchmark: three seeded workloads measured end to end, and a
//! traced run of each that times the layers from outside. The binary
//! (`src/main.rs`) is a thin entry point over [`run_cli`]; see
//! `README.md` in this directory for the metrics and workloads.

pub mod batch;
pub mod json;
pub mod layers;
pub mod render;
pub mod report;
pub mod service;
pub mod stats;
pub mod trace;

use std::process::ExitCode;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// `large-batch`, `paper-corpus` or `service-mixed`.
    pub workload: String,
    /// Seeds the order of work, and on `service-mixed` the generated
    /// content too.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Tiny inputs (smoke tests): a tenth of every generated size.
    pub tiny: bool,
}

impl Args {
    /// A generated-schema size at the run's scale.
    pub fn scaled(&self, nodes: usize) -> usize {
        if self.tiny {
            (nodes / 10).max(40)
        } else {
            nodes
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: coma-benchsuite --workload large-batch|paper-corpus|service-mixed \
         --seed N --seconds S --trace 0|1 [--scale full|tiny]"
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => args.seconds = value.parse().ok().filter(|s: &f64| *s >= 0.0)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--scale" => {
                args.tiny = match value.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some(args)
}

/// Scratch space for sockets, store files and span dumps, inside the
/// directory the benchmark runs from.
pub fn work_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(".bench_tmp");
    std::fs::create_dir_all(&dir).expect("create .bench_tmp");
    dir
}

/// Writes the traced run's spans to `.bench_tmp/trace-<workload>-<seed>.jsonl`.
pub fn write_trace(args: &Args, tracer: &trace::Tracer) {
    let path = work_dir().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

/// Runs the command line `argv` (program name excluded): a workload, or
/// the `serve` and `setup-probe` helper modes the workloads spawn.
pub fn run_cli(argv: &[String]) -> ExitCode {
    match argv.first().map(String::as_str) {
        Some("serve") => return service::serve(&argv[1..]),
        Some("setup-probe") => return batch::setup_probe(&argv[1..]),
        _ => {}
    }
    let Some(args) = parse(argv) else {
        return usage();
    };
    let outcome = match args.workload.as_str() {
        "large-batch" => batch::run(&args, false),
        "paper-corpus" => batch::run(&args, true),
        "service-mixed" => service::run(&args),
        _ => return usage(),
    };
    match outcome {
        Ok(report) => {
            report.print(args.trace);
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
