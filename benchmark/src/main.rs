//! The PBC storage stack's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <paper_logs|cold_lookup|serve_mixed|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. One workload runs in this process and
//! prints a report, then, as its last line, one JSON object: the gated
//! end-to-end metrics with `--trace 0`, every per-layer metric with
//! `--trace 1`. `--workload all` runs every workload twice (untraced, then
//! traced), each in its own process. `--describe` prints the workload and
//! metric tables; `--emit-spec` rewrites `BENCHMARK.json` from them.
//!
//! A failed operation (an error, a `Busy` refusal or a result that differs
//! from the model), or a run that did not exercise what its workload is
//! for, makes `correct` false and the exit code 1.
//!
//! Stores live under `.bench_run/` and are removed when the run ends;
//! traced runs write their spans to `.bench_out/trace-<workload>.jsonl`.

mod cold_lookup;
mod common;
mod paper_logs;
mod serve_mixed;
mod spec;
mod stats;
mod trace;

use std::path::Path;
use std::process::{Command, ExitCode};

use common::{peak_rss_mb, Ctx, Outcome, ScratchDir};
use stats::{failed_frac, tail_supported, valid_metric_name};
use trace::Tracer;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: pbc-benchmark --workload <name|all> --seed <n> --seconds <n> --trace <0|1>\n       pbc-benchmark --describe | --emit-spec";

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: spec::RUN_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = parse_u64(value).ok_or_else(bad)?,
            "--seconds" => parsed.seconds = parse_u64(value).filter(|&s| s > 0).ok_or_else(bad)?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workload != "all" && spec::workload(&parsed.workload).is_none() {
        return Err(format!("unknown workload '{}'", parsed.workload));
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--describe") => {
            print!("{}", spec::describe());
            return ExitCode::SUCCESS;
        }
        Some("--emit-spec") => {
            return match std::fs::write("BENCHMARK.json", spec::benchmark_json()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: writing BENCHMARK.json: {e}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    run_one(&args)
}

/// Every workload, untraced then traced, each in a fresh process so its
/// `mem_mb` is its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: locating this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = Vec::new();
    for w in spec::WORKLOADS {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", w.name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .status();
            if !matches!(status, Ok(s) if s.success()) {
                failed.push(format!("{} --trace {trace}", w.name));
            }
        }
    }
    if failed.is_empty() {
        println!("all workloads passed their correctness checks");
        ExitCode::SUCCESS
    } else {
        println!("failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn run_one(args: &Args) -> ExitCode {
    let run_root = Path::new(".bench_run");
    let dir = match ScratchDir::new(
        run_root,
        &format!("{}-{}", args.workload, std::process::id()),
    ) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("error: creating the run directory: {e}");
            return ExitCode::from(3);
        }
    };
    let tracer = Tracer::new(args.trace);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: &tracer,
        dir: dir.path(),
    };
    let result = match args.workload.as_str() {
        "paper_logs" => paper_logs::run(&ctx),
        "cold_lookup" => cold_lookup::run(&ctx),
        "serve_mixed" => serve_mixed::run(&ctx),
        other => Err(format!("no runner for workload '{other}'")),
    };
    drop(dir);
    let _ = std::fs::remove_dir(run_root);
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::from(3);
        }
    };
    finish(&mut outcome);
    print_report(args, &outcome);
    if args.trace {
        let path = Path::new(".bench_out").join(format!("trace-{}.jsonl", args.workload));
        match tracer.write(&path) {
            Ok(n) => println!("trace: {n} spans written to {}", path.display()),
            Err(e) => eprintln!("warning: writing {}: {e}", path.display()),
        }
    }
    match result_line(args, &outcome) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    }
    if !outcome.correct() {
        let c = outcome.counts;
        eprintln!(
            "error: {} of {} operations failed (errors {}, busy {}, wrong {})",
            c.failed(),
            c.attempted,
            c.errors,
            c.busy,
            c.wrong
        );
        for why in &outcome.invalid {
            eprintln!("error: {why}");
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Fill in the end-to-end metrics every workload derives the same way.
fn finish(o: &mut Outcome) {
    let c = o.counts;
    let lat = &o.latencies;
    let mut add = Vec::new();
    let ops = [
        ("get_p50_us", "get_p99_us", &lat.get),
        ("write_p50_us", "write_p99_us", &lat.write),
        ("scan_p50_us", "scan_p99_us", &lat.scan),
    ];
    for (p50, p99, h) in ops {
        if let (Some(a), Some(b)) = (h.quantile_us(0.5), h.quantile_us(0.99)) {
            add.push((p50, a));
            add.push((p99, b));
        }
    }
    add.push((
        "failed_frac",
        failed_frac(c.attempted, c.errors, c.busy, c.wrong),
    ));
    add.push(("mem_mb", peak_rss_mb()));
    o.e2e.extend(add);
}

fn print_report(args: &Args, o: &Outcome) {
    let w = spec::workload(&args.workload).expect("workload validated");
    println!(
        "== {} (seed {}, {} s, trace {})",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("load: {}; flush: {}", w.load, w.flush_policy);
    println!("data: {}; sizing: {}", w.data, w.sizing);
    for note in &o.notes {
        println!("note: {note}");
    }
    for why in &o.invalid {
        println!("invalid: {why}");
    }
    if args.trace {
        // End-to-end numbers come from untraced runs only: half of this
        // run's timed phase is traced.
        for m in spec::LAYERS {
            let v = o.layers.get(m.name).copied().unwrap_or(0.0);
            println!("{:<36} {:>16.6} {:<8} -> {}", m.name, v, m.unit, m.moves);
        }
    } else {
        print_end_to_end(o);
    }
    println!(
        "attempted {} failed {} (errors {}, busy {}, wrong {})",
        o.counts.attempted,
        o.counts.failed(),
        o.counts.errors,
        o.counts.busy,
        o.counts.wrong
    );
}

/// Every end-to-end metric by name and unit, with sample counts for
/// latencies; `n/a` where the workload has no such operation.
fn print_end_to_end(o: &Outcome) {
    let lat = &o.latencies;
    for m in spec::END_TO_END {
        let shown = o
            .e2e
            .get(m.name)
            .map_or("n/a".to_string(), |v| format!("{v:.4}"));
        let mut line = format!("{:<20} {:>14} {}", m.name, shown, m.unit);
        let samples = match m.name.split('_').next() {
            Some("get") => Some(lat.get.count()),
            Some("write") => Some(lat.write.count()),
            Some("scan") => Some(lat.scan.count()),
            _ => None,
        };
        if let Some(n) = samples {
            line += &format!("  (n={n})");
            if m.name.contains("p99") && n > 0 && !tail_supported(n, 0.99) {
                line += "  [fewer than 1000 samples: p99 unsupported]";
            }
        }
        println!("{line}");
    }
}

/// The last line: one JSON object with the metrics `BENCHMARK.json` lists.
fn result_line(args: &Args, o: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::new();
    let names: Vec<&str> = if args.trace {
        spec::LAYERS.iter().map(|m| m.name).collect()
    } else {
        spec::gated().map(|m| m.name).collect()
    };
    for name in names {
        let value = if args.trace {
            o.layers.get(name).copied().unwrap_or(0.0)
        } else {
            *o.e2e
                .get(name)
                .ok_or_else(|| format!("{} did not measure {name}", args.workload))?
        };
        if !valid_metric_name(name) {
            return Err(format!("{name} breaks the metric-name grammar"));
        }
        if !value.is_finite() {
            return Err(format!("{name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            spec::unit_of(name)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.counts.attempted.max(1),
        o.counts.failed(),
        metrics.join(", ")
    ))
}
