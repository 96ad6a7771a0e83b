//! `perfbench --workload NAME --seed N --out DIR [--seconds S] [--trace]`
//! runs one figure grid and prints its report as one JSON line;
//! untraced, it repeats the grid phase while another pass fits in S seconds
//! (default 0: one pass). `perfbench --digests --workload NAME --seed N`
//! prints the digest table `digests.json` commits. `run.py` drives it: it
//! builds this crate, runs one process, and prints its report.

use cosmos_perfbench::bench;
use cosmos_perfbench::grid::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload NAME --seed N \
     (--out DIR [--seconds S] [--trace] | --digests)";

struct Args {
    workload: Workload,
    seed: u64,
    out: Option<PathBuf>,
    seconds: f64,
    trace: bool,
    digests: bool,
}

fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut out) = (None, None, None);
    let mut seconds = 0.0;
    let (mut trace, mut digests) = (false, false);
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {v:?} (known: {})", names.join(", "))
                })?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed needs a number, got {v:?}"))?,
                );
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds needs a non-negative number, got {v:?}"))?;
            }
            "--trace" => trace = true,
            "--digests" => digests = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        out,
        seconds,
        trace,
        digests,
    };
    if !args.digests && args.out.is_none() {
        return Err("--out is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.digests {
        println!("{}", bench::digests(args.workload, args.seed).pretty());
        return ExitCode::SUCCESS;
    }
    let out = args.out.expect("parse requires --out");
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: creating {}: {e}", out.display());
        return ExitCode::from(2);
    }
    let report = if args.trace {
        bench::traced(args.workload, args.seed, &out)
    } else {
        bench::untraced(args.workload, args.seed, &out, args.seconds)
    };
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
