//! Command line of the benchmark.
//!
//! ```text
//! cv-benchmark run --workload <name> --seed <u64> [--seconds <s>] [--trace [0|1]] [--size full|tiny]
//! cv-benchmark selfcheck [--seed <u64>] [--seconds <s>] [--size full|tiny]
//! ```
//!
//! `run` prints every metric by name with its unit, then — as the last line
//! of standard output — the result object the driver reads. One process
//! runs one workload, so `peak_rss_mb` is per workload.

use std::process::ExitCode;

use cv_benchmark::selfcheck;
use cv_benchmark::util::{Config, Size};
use cv_benchmark::workloads;

const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: Option<String>,
    config: Config,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        config: Config {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            size: Size::Full,
            corrupt_one_checksum: false,
        },
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => out.workload = Some(value(&mut i, "--workload")?),
            "--seed" => {
                out.config.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                out.config.seconds = s;
            }
            "--trace" => {
                // `--trace` alone means on; the driver passes `--trace 0|1`.
                out.config.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--size" => {
                out.config.size = match value(&mut i, "--size")?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("--size must be full or tiny, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(out)
}

fn usage() -> String {
    format!(
        "usage: cv-benchmark run --workload <{}> --seed <u64> [--seconds <s>] [--trace [0|1]] \
         [--size full|tiny]\n       cv-benchmark selfcheck [--seed <u64>] [--seconds <s>] \
         [--size full|tiny]",
        workloads::NAMES.join("|")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    let args = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match command {
        "run" => {
            let Some(name) = args.workload else {
                eprintln!("run needs --workload\n{}", usage());
                return ExitCode::from(2);
            };
            let report = match workloads::run(&name, &args.config) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            print!("{}", report.listing(args.config.trace));
            match report.result_line(args.config.trace) {
                Ok(line) => println!("{line}"),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(3);
                }
            }
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        "selfcheck" => {
            if selfcheck::run(&args.config) {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        other => {
            eprintln!("unknown command {other:?}\n{}", usage());
            ExitCode::from(2)
        }
    }
}
