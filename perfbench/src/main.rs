//! End-to-end and per-layer benchmark of the serving overlay.
//!
//! ```sh
//! perfbench --workload hot_zipf --seed 1 --seconds 22 --trace 0
//! ```
//!
//! Runs one workload (see `workloads.rs`) and prints, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The line before it carries the
//! run's provenance, including whether the open loop measured the engine
//! alone. A failed correctness check prints no metrics and exits
//! non-zero.

mod bench;
mod check;
mod stats;
mod trace;
mod workloads;

use bench::{Child, Measured, Metric, Refused, Settings};
use son_core::Json;
use std::fmt::Write as _;
use std::path::PathBuf;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Provenance handed in by the launcher.
    commit: String,
    source_digest: String,
    /// Directory for the result file and the trace.
    out: Option<PathBuf>,
    /// Set in a child process: the one piece of work it does, and for a
    /// control round, which round of the run it is.
    child: Option<Child>,
    round: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        commit: "unknown".to_string(),
        source_digest: "unknown".to_string(),
        out: None,
        child: None,
        round: 0,
    };
    let mut seen = (false, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?;
                seen.0 = true;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                seen.1 = true;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
                seen.2 = true;
            }
            "--commit" => args.commit = value,
            "--source-digest" => args.source_digest = value,
            "--out" => args.out = Some(PathBuf::from(value)),
            "--round" => args.round = value.parse().map_err(|e| format!("--round {value}: {e}"))?,
            "--child" => {
                args.child = Some(
                    Child::from_name(&value).ok_or_else(|| format!("unknown --child {value}"))?,
                );
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() || !seen.0 || !seen.1 || !seen.2 {
        return Err("required: --workload, --seed, --seconds, --trace".to_string());
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} is out of range", args.seconds));
    }
    Ok(args)
}

/// One-line JSON.
fn compact(json: &Json, out: &mut String) {
    match json {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) if !n.is_finite() => out.push_str("null"),
        Json::Num(n) => {
            let _ = write!(out, "{n}");
        }
        Json::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                compact(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                compact(&Json::Str(k.clone()), out);
                out.push(':');
                compact(v, out);
            }
            out.push('}');
        }
    }
}

fn line(json: &Json) -> String {
    let mut out = String::new();
    compact(json, &mut out);
    out
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
                )
            })
            .collect(),
    )
}

/// Reports why a run produced no metrics and exits: 1 when a check
/// failed, 3 when the run could not be made.
fn exit_refused(refused: Refused) -> ! {
    match refused {
        Refused::Incorrect(failures) => {
            for f in failures {
                eprintln!("check failed: {f}");
            }
            std::process::exit(1);
        }
        Refused::Invalid(why) => {
            eprintln!("run invalid: {why}");
            std::process::exit(3);
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = workloads::find(&args.workload) else {
        eprintln!("error: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let settings = Settings {
        seed: args.seed,
        round: args.round,
        seconds: args.seconds,
        trace: args.trace,
        threads: nproc.min(2),
    };
    if let Some(kind) = args.child {
        match bench::run_child(spec, &settings, kind) {
            Ok(figures) => {
                let line: Vec<String> = figures.iter().map(f64::to_string).collect();
                println!("{}", line.join(" "));
                return;
            }
            Err(refused) => exit_refused(refused),
        }
    }
    let Measured {
        end_to_end,
        per_layer,
        attempted,
        failed,
        mut provenance,
        spans,
    } = match bench::run(spec, &settings) {
        Ok(m) => m,
        Err(refused) => exit_refused(refused),
    };
    provenance.splice(
        0..0,
        [
            ("commit", Json::from(args.commit.as_str())),
            ("source_digest", Json::from(args.source_digest.as_str())),
            ("nproc", Json::from(nproc)),
        ],
    );

    let metrics = if args.trace { &per_layer } else { &end_to_end };
    let result = Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics_json(metrics)),
    ]);
    if let Some(dir) = &args.out {
        let stem = format!(
            "{}-seed{}-trace{}",
            spec.name,
            args.seed,
            u8::from(args.trace)
        );
        let full = Json::obj([
            (
                "provenance",
                Json::Obj(
                    provenance
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.clone()))
                        .collect(),
                ),
            ),
            ("end_to_end", metrics_json(&end_to_end)),
            ("per_layer", metrics_json(&per_layer)),
        ]);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), full.render()))
            .and_then(|()| {
                if args.trace {
                    spans.write_jsonl(&dir.join(format!("{stem}.spans.jsonl")))
                } else {
                    Ok(())
                }
            });
        if let Err(e) = written {
            eprintln!(
                "error: could not write results under {}: {e}",
                dir.display()
            );
            std::process::exit(1);
        }
    }
    let provenance = Json::obj([(
        "provenance",
        Json::Obj(
            provenance
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        ),
    )]);
    println!("{}", line(&provenance));
    println!("{}", line(&result));
}
