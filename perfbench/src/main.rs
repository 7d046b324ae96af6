//! End-to-end and per-layer benchmark of the OptiQL stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the named workload runs untraced and prints the
//! end-to-end metrics; with `--trace 1` the per-layer ladder runs (see
//! `trace.rs`) and prints the per-layer metrics. The last line of
//! standard output is one JSON object; lines before it starting with `#`
//! are host facts and notes. See `perfbench/README.md`.

mod check;
mod client;
mod trace;
mod util;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// Workload names. `BENCHMARK.json` gates `kv-read-scan` and
/// `index-hot`; the other two run on demand, because their figures track
/// host steal too closely to gate on (see the README).
const WORKLOADS: [&str; 4] = [
    "kv-read-scan",
    "kv-write-durable",
    "index-hot",
    "kv-open-loop",
];

/// One reported number.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Operations checked, and how many of them returned a wrong result.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A run's result. `correct` is false when the run could not account
/// for its operations (the server saw other requests than were sent, a
/// restart replayed another log length, or a count came out wrong).
pub struct Outcome {
    pub correct: bool,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric {} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(bad)?,
            "--seconds" => a.seconds = val.parse().map_err(|_| format!("bad --seconds {val:?}"))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Log directories live in the working directory (the checkout).
    let work = PathBuf::from(".perfbench-work");
    if work.exists() {
        let _ = std::fs::remove_dir_all(&work);
    }
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    println!("{}", util::host_line());
    let result = if args.trace {
        trace::ladder(args.seed, args.seconds, &work)
    } else {
        match args.workload.as_str() {
            "kv-read-scan" => workloads::kv_read_scan(args.seed, args.seconds),
            "kv-write-durable" => workloads::kv_write_durable(args.seed, args.seconds, &work),
            "index-hot" => workloads::index_hot(args.seed, args.seconds),
            "kv-open-loop" => workloads::kv_open_loop(args.seed, args.seconds),
            _ => unreachable!("workload names are checked in parse_args"),
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(out) => {
            for n in &out.notes {
                println!("# {}: {n}", args.workload);
            }
            println!("{}", out.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
