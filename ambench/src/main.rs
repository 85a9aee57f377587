//! The `ambench` command line: run one workload, or compare two sets of
//! saved runs.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use ambench::run::{self, Settings};
use ambench::spec::Spec;
use ambench::{batch, compare, inputs, serve};

const USAGE: &str = "usage:
  ambench --workload NAME --seed N --seconds S --trace 0|1 [--json PATH] [--trace-out PATH]
  ambench compare --base DIR --change DIR

Runs one workload (corpus, xl-nest, xl-fan, serve) for S seconds of timed
samples, checks every output, and prints each metric as `name value unit`
followed by one JSON result line. --trace 1 traces every other sample and
prints the per-layer metrics instead of the end-to-end ones; --trace-out
writes the spans as JSON lines for amstat. --json saves the result for
`ambench compare`, which applies the pairing rule and each metric's bound
to two directories of saved runs.

exit: 0 all outputs correct, 1 a check failed (after printing), 2 usage or
harness error (nothing printed to stdout)";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    json: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn flag_values(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(USAGE.to_owned());
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        out.push((flag.as_str(), value.as_str()));
    }
    Ok(out)
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let (mut json, mut trace_out) = (None, None);
    for (flag, value) in flag_values(args)? {
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag {
            "--workload" => workload = Some(value.to_owned()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            "--json" => json = Some(PathBuf::from(value)),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let need = |name: &str| format!("missing {name}\n{USAGE}");
    Ok(RunArgs {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds: seconds.ok_or_else(|| need("--seconds"))?,
        traced: traced.ok_or_else(|| need("--trace"))?,
        json,
        trace_out,
    })
}

fn run_workload(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run(args)?;
    let spec = Spec::load();
    let s = Settings {
        seed: a.seed,
        window: Duration::from_secs_f64(a.seconds),
        traced: a.traced,
    };
    let outcome = match a.workload.as_str() {
        "corpus" => batch::run(inputs::corpus, s),
        "xl-nest" => batch::run(|seed| vec![inputs::xl_nest(seed)], s),
        "xl-fan" => batch::run(|seed| vec![inputs::xl_fan(seed)], s),
        "serve" => serve::run(s),
        other => {
            return Err(format!(
                "unknown workload '{other}'; one of {}",
                spec.workloads.join(", ")
            ))
        }
    }?;
    let values = run::metrics(&outcome)?;
    let correct = outcome.failed == 0 && outcome.failures.is_empty();
    for line in outcome.failures.iter().take(20) {
        eprintln!("check: {line}");
    }
    let text = run::render(
        spec.metrics(a.traced),
        &values,
        correct,
        outcome.attempted,
        outcome.failed,
    )?;
    if let Some(rec) = &outcome.recorder {
        print!("{}", rec.table());
        if let Some(path) = &a.trace_out {
            std::fs::write(path, rec.jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    if let Some(path) = &a.json {
        let result = text
            .lines()
            .last()
            .expect("render ends with the result line");
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, {}\n",
            a.workload,
            a.seed,
            a.traced,
            &result[1..]
        );
        std::fs::write(path, record).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!(
        "{} seed {}: {} samples in {:.2} s, {} failed; times {}",
        a.workload, a.seed, outcome.attempted, outcome.wall_s, outcome.failed, outcome.clock
    );
    println!("{text}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_compare(args: &[String]) -> Result<ExitCode, String> {
    let (mut base, mut change) = (None, None);
    for (flag, value) in flag_values(args)? {
        match flag {
            "--base" => base = Some(PathBuf::from(value)),
            "--change" => change = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let base = compare::load_dir(&base.ok_or_else(|| format!("missing --base\n{USAGE}"))?)?;
    let change = compare::load_dir(&change.ok_or_else(|| format!("missing --change\n{USAGE}"))?)?;
    let (report, regressed) = compare::compare(&Spec::load(), &base, &change);
    print!("{report}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        _ => run_workload(&args),
    };
    result.unwrap_or_else(|msg| {
        eprintln!("ambench: {msg}");
        ExitCode::from(2)
    })
}
