//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload and prints its metrics; the last line of standard
//! output is the result as one JSON object.

use perfbench::alloc::CountingAlloc;
use perfbench::stamp::machine_stamp;
use perfbench::workloads::{self, Args, NAMES};
use serde_json::{Map, Value};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--quick]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2026,
        seconds: 15.0,
        trace: false,
        quick: false,
        // `run.sh` starts this program from the repository root.
        out_dir: PathBuf::from("perf/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", NAMES.join(", ")));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // FAST=1 shrinks the library's own presets (seed lists, horizons);
    // a benchmark measured under it would not be this benchmark.
    if bench::fast_mode() {
        eprintln!("perfbench: FAST is set; unset it to run the benchmark");
        return ExitCode::from(2);
    }
    let stamp = machine_stamp(&[
        ("workload", args.workload.as_str().into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("trace", args.trace.into()),
        ("quick", args.quick.into()),
    ]);

    let outcome = workloads::run(&args).expect("workload name was validated");

    let mut metrics = Map::new();
    for (name, unit, value) in outcome.metrics.rows() {
        println!("{name:<32} {value:>18.6} {unit}");
        let mut m = Map::new();
        m.insert("value", Value::from(value));
        m.insert("unit", Value::from(unit));
        metrics.insert(name, Value::Object(m));
    }
    for (key, value) in &outcome.info {
        println!("# {key} = {value}");
    }
    let failed_share = outcome.checks.failed as f64 / outcome.checks.attempted.max(1) as f64;
    println!("# failed_share = {failed_share}");

    let mut result = Map::new();
    result.insert("correct", Value::from(outcome.checks.failed == 0));
    result.insert("attempted", Value::from(outcome.checks.attempted.max(1)));
    result.insert("failed", Value::from(outcome.checks.failed));
    result.insert("metrics", Value::Object(metrics));
    let result = Value::Object(result);

    // Output documents, each stamped: the result with what was reported
    // beside it, and the spans of the traced pass.
    let out_dir = &args.out_dir;
    let tag = format!("{}.trace{}", args.workload, u8::from(args.trace));
    let mut doc = Map::new();
    doc.insert("stamp", stamp.clone());
    doc.insert("result", result.clone());
    doc.insert(
        "info",
        Value::Object(outcome.info.iter().cloned().collect()),
    );
    doc.insert(
        "failures",
        Value::Array(
            outcome
                .checks
                .failures
                .iter()
                .map(|f| Value::from(f.as_str()))
                .collect(),
        ),
    );
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| {
            std::fs::write(
                out_dir.join(format!("result_{tag}.json")),
                serde_json::to_string_pretty(&Value::Object(doc)) + "\n",
            )
        })
        .and_then(|()| match &outcome.trace {
            Some(trace) => trace.write_to(&out_dir.join(format!("trace_{tag}.json")), &stamp),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write under {}: {e}", out_dir.display());
        return ExitCode::from(1);
    }

    println!("{}", serde_json::to_string(&result));
    ExitCode::SUCCESS
}
