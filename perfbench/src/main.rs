//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints notes, the host fingerprint and, as its last line, one JSON
//! result. Exits 1 if any output fails its check, 2 on bad arguments.

use perfbench::report::{fingerprint, names_of, result_line, Kind, END_TO_END, PER_LAYER};
use perfbench::run::{run, Workload};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn spans_path(workload: Workload, seed: u64) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| "perfbench/target".into());
    dir.join("perfbench-spans")
        .join(format!("{}-{seed}.jsonl", workload.name()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <gateway_mix|sign_burst|modeled_kernels> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let out = match run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            println!("{}", result_line(false, 1, 1, "{}"));
            return ExitCode::from(1);
        }
    };
    for line in &out.notes {
        println!("# {line}");
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    if let Some(log) = &out.spans {
        println!("# {:<44} {:>8} {:>14}", "span", "calls", "median self ns");
        for (name, s) in log.summary() {
            println!("# {name:<44} {:>8} {:>14.0}", s.calls, s.median_ns);
        }
        let path = spans_path(args.workload, args.seed);
        match log.write_jsonl(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }
    println!(
        "{{\"fingerprint\": {}, \"host_dependent\": {}, \"deterministic\": {}}}",
        fingerprint(),
        names_of(defs, Kind::Host),
        names_of(defs, Kind::Deterministic)
    );
    match out.metrics.render(defs) {
        Ok(metrics) => {
            println!("{}", result_line(true, out.attempted, 0, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            println!("{}", result_line(false, out.attempted, 1, "{}"));
            ExitCode::from(1)
        }
    }
}
