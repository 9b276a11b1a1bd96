//! `hyperm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints what the run measured, then as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: every end-to-end metric
//! with `--trace 0`, every per-layer metric with `--trace 1`. Exits 1 when
//! an answer or a count did not match (after printing the result), 2 on a
//! usage error, and 3 when the run could not be carried out.

use hyperm_perfbench::metrics::{self, END_TO_END, PER_LAYER};
use hyperm_perfbench::{finish_trace, run, Opts, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: hyperm-perfbench --workload <range_local|range_tcp|disseminate_churn> \
--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from(".bench_out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        scale: Scale::Bench,
        out_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let mut out = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::from(3);
        }
    };
    if opts.trace {
        if let Err(e) = finish_trace(&opts, &mut out) {
            eprintln!("trace output failed: {e}");
            return ExitCode::from(3);
        }
    }
    for note in &out.notes {
        println!("{note}");
    }
    let defs = if opts.trace { PER_LAYER } else { END_TO_END };
    let rows = out.values.rows(defs);
    for (d, v) in &rows {
        println!("{} = {v} {}", d.name, d.unit);
    }
    println!(
        "{}",
        metrics::result_line(out.correct, out.attempted, out.failed, &rows)
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
