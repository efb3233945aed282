//! `asbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a diagnostics line, then the result line
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits 1 when the run is not correct, 2 on bad arguments.

use std::process::ExitCode;

use actorspace_asbench::{run, Options, Workload};

const USAGE: &str = "usage: asbench --workload <local_p2p|pattern_scan|cluster_rpc> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: Workload::LocalP2p,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds > 0.0 && o.seconds <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120]: {value}"));
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    o.workload = workload.ok_or("--workload is required")?;
    Ok(o)
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
    match run(&opts) {
        Ok(report) => {
            for p in &report.problems {
                eprintln!("incorrect: {p}");
            }
            println!("{}", report.diagnostics_json());
            println!("{}", report.to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(1)
        }
    }
}
