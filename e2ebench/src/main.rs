//! End-to-end benchmark of the Schism reproduction: the advisor, the
//! migration loop and the serving stack, one workload each.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload advise-tpcc|migrate-drift|serve-oltp \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- --faults
//! ```
//!
//! A run prints one line per metric (workload, name, value, unit), the
//! operations attempted and failed, and as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones. See
//! `e2ebench/README.md` for the workloads, the checks and the metrics.

mod advise;
mod check;
mod migrate;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics: every `--trace 0` run reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("throughput_ops_s", "1/s"),
    ("p50_us", "us"),
    ("dist_frac", "fraction"),
];

/// Per-layer metrics: every `--trace 1` run reports all of them; a layer
/// the workload does not enter reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph_builder.build_s", "s"),
    ("graph_builder.nodes", "count"),
    ("graph_builder.edges", "count"),
    ("graph_builder.pins", "count"),
    ("partitioner.partition_s", "s"),
    ("partitioner.cut", "count"),
    ("partitioner.warm_s", "s"),
    ("explain.explain_s", "s"),
    ("validate.lookup_s", "s"),
    ("validate.validate_s", "s"),
    ("validate.gap_to_manual", "fraction"),
    ("migrate.drift_s", "s"),
    ("migrate.relabel_s", "s"),
    ("migrate.plan_s", "s"),
    ("migrate.step_ms", "ms"),
    ("migrate.batches", "count"),
    ("migrate.rows_copied", "count"),
    ("migrate.bytes_copied", "B"),
    ("migrate.rows_dropped", "count"),
    ("migrate.retries", "count"),
    ("migrate.keys_unreachable", "count"),
    ("migrate.rows_per_s", "rows/s"),
    ("migrate.dist_frac_cutover", "fraction"),
    ("store.get_p50_us", "us"),
    ("store.get_p99_us", "us"),
    ("store.put_p50_us", "us"),
    ("store.put_p99_us", "us"),
    ("store.apply_batch_us", "us"),
    ("store.checksum_us", "us"),
    ("store.delete_us", "us"),
    ("store.compactions", "count"),
    ("store.disk_bytes_per_user_byte", "ratio"),
    ("sql.parse_us", "us"),
    ("serve.execute_us", "us"),
    ("serve.exec_us", "us"),
    ("serve.queue_p50_us", "us"),
    ("serve.queue_p99_us", "us"),
    ("serve.shards_touched", "count"),
    ("serve.retries", "count"),
    ("serve.p99_us", "us"),
    ("router.route_us", "us"),
    ("router.calls_per_stmt", "count"),
    ("op.self_s", "s"),
    ("trace.p50_us", "us"),
    ("trace.throughput_ops_s", "1/s"),
    ("trace.spans", "count"),
];

pub const WORKLOADS: &[&str] = &["advise-tpcc", "migrate-drift", "serve-oltp"];

/// Run length without `--seconds`: the `run_seconds` of BENCHMARK.json,
/// the length the bounds were proved at.
const DEFAULT_SECONDS: f64 = 30.0;

/// What one run of a workload sets up and measures.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory of this process (store files); removed at exit.
    pub data: PathBuf,
}

/// What one run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks: any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Failures of the known faults, one message per failed operation
    /// kind, with its measured size.
    pub faults: Vec<String>,
    /// Workload-specific figures printed for people, outside the JSON.
    pub info: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 8 {
            self.errors.push(msg);
        } else if self.errors.len() == 8 {
            self.errors
                .push("further check failures omitted".to_owned());
        }
    }

    pub fn fault(&mut self, msg: String) {
        self.failed += 1;
        if !self.faults.contains(&msg) {
            self.faults.push(msg);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Removes this process's scratch directory when the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const USAGE: &str = "usage: e2ebench --workload advise-tpcc|migrate-drift|serve-oltp \
[--seed N] [--seconds S] [--trace 0|1]\n       e2ebench --faults";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    faults: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        faults: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?} (expected one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                let v = value()?;
                a.seed = v
                    .parse()
                    .map_err(|_| format!("--seed takes an integer, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds takes a number in (0, 600], got {v:?}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                };
            }
            "--faults" => a.faults = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.faults == a.workload.is_some() {
        return Err("give exactly one of --workload and --faults".to_owned());
    }
    Ok(a)
}

/// Prints the metric lines and the final JSON object.
fn report(workload: &str, trace: bool, out: &Outcome) -> Result<(), String> {
    let names = if trace { PER_LAYER } else { END_TO_END };
    for msg in &out.faults {
        println!("{workload} FAULT {msg}");
    }
    for msg in &out.errors {
        println!("{workload} CHECK FAILED {msg}");
    }
    for msg in &out.info {
        println!("{workload} info {msg}");
    }
    let mut fields = Vec::new();
    for &(name, unit) in names {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            // A layer this workload does not enter.
            None if trace => 0.0,
            None => return Err(format!("workload {workload} did not measure {name}")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        println!("{workload} {name} {value} {unit}");
        // Names and units are plain ASCII (checked against BENCHMARK.json
        // by the tests), so they need no JSON escaping.
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!("{workload} attempted {}", out.attempted);
    println!("{workload} failed {}", out.failed);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.errors.is_empty(),
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    Ok(())
}

fn run(a: &Args) -> Result<(), String> {
    let base = Path::new(".e2ebench");
    let data = base.join(format!("data-{}", std::process::id()));
    std::fs::create_dir_all(&data).map_err(|e| format!("create {}: {e}", data.display()))?;
    let _cleanup = ScratchDir(data.clone());
    if a.faults {
        for line in advise::fault_size()
            .into_iter()
            .chain(migrate::fault_size(&data))
        {
            println!("{line}");
        }
        return Ok(());
    }
    let workload = a.workload.as_deref().expect("checked by parse_args");
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        data,
    };
    let tracer = trace::Tracer::default();
    let mut out = match workload {
        "advise-tpcc" => advise::run(&ctx, &tracer),
        "migrate-drift" => migrate::run(&ctx, &tracer),
        "serve-oltp" => serve::run(&ctx, &tracer),
        _ => unreachable!("workload names are checked by parse_args"),
    };
    if ctx.trace {
        out.set("trace.spans", tracer.len() as f64);
        let path = base.join(format!("trace-{workload}-seed{}.tsv", ctx.seed));
        tracer
            .write(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    } else {
        let rss = schism_bench::peak_rss_bytes().ok_or("cannot read peak RSS")?;
        out.set("peak_rss_mib", rss as f64 / (1024.0 * 1024.0));
    }
    report(workload, ctx.trace, &out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&a) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn cli_rejects_unknown_flags_and_workloads() {
        assert!(args("--workload serve-oltp --seed 3 --seconds 2 --trace 1").is_ok());
        assert!(args("--workload nope")
            .unwrap_err()
            .contains("unknown workload"));
        assert!(args("--workload serve-oltp --sead 3")
            .unwrap_err()
            .contains("unknown argument"));
        assert!(args("--workload serve-oltp --trace 2").is_err());
        assert!(args("--workload serve-oltp --seconds").is_err());
        assert!(args("--seed 3").is_err());
        assert!(args("--faults").is_ok());
        assert_eq!(
            args("--workload serve-oltp").unwrap().seconds,
            DEFAULT_SECONDS
        );
    }

    #[test]
    fn benchmark_json_names_every_metric_and_workload() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        let run_seconds = format!("\"run_seconds\": {DEFAULT_SECONDS}");
        assert!(json.contains(&run_seconds), "{run_seconds} missing");
    }
}
