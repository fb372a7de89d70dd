//! Command line of the step benchmark:
//!
//! ```text
//! cargo run --release --manifest-path stepbench/Cargo.toml -- \
//!     --workload hybrid-cosmo --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints the host fingerprint, any failed check, the metrics one per line
//! with their units, and as its last line the JSON result object. Exits
//! non-zero on a bad command line.

use std::path::PathBuf;
use std::process::ExitCode;

use vlasov6d_stepbench::report::{per_layer, result_line, END_TO_END};
use vlasov6d_stepbench::{run, Options, Shape, Workload};

fn usage() -> String {
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: stepbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        shape: Shape::Reference,
        ckpt_dir: PathBuf::from(".bench_tmp").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = run(&opts);
    println!(
        "workload {} seed {} trace {}",
        opts.workload.name(),
        opts.seed,
        opts.trace as u8
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for failure in &outcome.checks.failures {
        println!("check failed: {failure}");
    }
    println!(
        "check_failures {}/{}",
        outcome.checks.failures.len(),
        outcome.checks.attempted
    );
    let units: Vec<(String, &str)> = if opts.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for (name, unit) in units {
        match outcome.metrics.get(&name) {
            Some(v) => println!("{name} {v} {unit}"),
            None => println!("{name} n/a {unit}"),
        }
    }
    println!("{}", result_line(&outcome, opts.trace));
    ExitCode::SUCCESS
}
