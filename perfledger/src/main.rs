//! perfledger: end-to-end and per-layer benchmark of the dagsched
//! compiler pipeline and scheduling daemon.
//!
//! ```text
//! perfledger --workload <compile-table3|serve-hit|serve-churn>
//!            --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it replays the same workload with spans around every
//! layer's entry point and reports per-layer self times instead. The
//! last stdout line is the result as one JSON object; the line before
//! it holds the run's diagnostics. See README.md.

mod check;
mod host;
mod ledger;
mod report;
mod serve;
mod table3;

use std::process::ExitCode;

use dagsched_proto::json::Json;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(format!("--seconds {value} is out of range"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfledger: {e}");
            return ExitCode::from(2);
        }
    };
    // Before any thread starts, so that every thread inherits it.
    let cpu = host::pin_to_one_cpu();
    let outcome = match args.workload.as_str() {
        "compile-table3" => table3::run(&args),
        "serve-hit" => serve::run(&args, serve::Mode::Hit),
        "serve-churn" => serve::run(&args, serve::Mode::Churn),
        other => Err(format!(
            "unknown workload `{other}` (compile-table3, serve-hit, serve-churn)"
        )),
    };
    match outcome {
        Ok(mut o) => {
            let pinned = cpu.map_or(Json::Null, |c| Json::from(c as u64));
            o.diag.push(("pinned_cpu", pinned));
            println!("{}", o.diag_line());
            println!("{}", o.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfledger: {e}");
            ExitCode::FAILURE
        }
    }
}
