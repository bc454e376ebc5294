//! The portnum benchmark: two workloads, end-to-end metrics, and
//! per-layer metrics named after the repository's modules.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hot --seed 1 --seconds 20 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The line before it records provenance (seed, git revision, source
//! digest, core count) and every timing's sample count, min, median,
//! p90 and p99. See `perfbench/README.md` for what each metric means.

mod engine;
mod formulas;
mod hostprobe;
mod layers;
mod oracle;
mod serve;
mod stats;

use stats::{Report, Summary};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The end-to-end metrics, in output order; every run reports each.
pub const END_TO_END: [&str; 12] = [
    "setup_s",
    "throughput_rps",
    "check_p50_us",
    "check_p99_us",
    "delta_p50_us",
    "delta_p99_us",
    "ok_ratio",
    "suite_ms",
    "fixpoint_ms",
    "refine_ms",
    "update_ms",
    "peak_rss_mb",
];

/// The per-layer metrics, in output order; a traced run reports each,
/// with 0 where its workload does not reach that layer.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("serve.protocol.request_decode_us", "us"),
    ("serve.protocol.response_encode_us", "us"),
    ("serve.protocol.response_bytes", "bytes"),
    ("logic.parser.parse_us", "us"),
    ("serve.admission.estimate_us", "us"),
    ("serve.residual_us", "us"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.trims", "count"),
    ("serve.cache.reloads", "count"),
    ("serve.cache.mem_bytes", "bytes"),
    ("serve.shard.shed", "count"),
    ("serve.shard.interrupted", "count"),
    ("serve.shard.internal_errors", "count"),
    ("logic.plan.resume_us", "us"),
    ("logic.plan.check_suite_us", "us"),
    ("logic.plan.detach_us", "us"),
    ("logic.plan.computed_per_formula", "ratio"),
    ("logic.plan.dedup_hits", "count"),
    ("logic.plan.csc_diamonds", "count"),
    ("logic.plan.forward_diamonds", "count"),
    ("logic.plan.fixpoint_iters", "count"),
    ("logic.plan.fixpoint_frontier_worlds", "count"),
    ("logic.plan.fixpoint_dense_passes", "count"),
    ("logic.plan.repair_us", "us"),
    ("logic.plan.repaired_vectors", "count"),
    ("logic.plan.repaired_worlds", "count"),
    ("logic.plan.rebuilt_vectors", "count"),
    ("logic.kripke.apply_delta_us", "us"),
    ("logic.kripke.spec_build_ms", "ms"),
    ("logic.kripke.stream_build_ms", "ms"),
    ("graph.csc.build_ms", "ms"),
    ("graph.pool.workers", "count"),
    ("graph.pool.dispatch_cost_ns", "ns"),
    ("graph.pool.run_us", "us"),
    ("graph.bitset.or_words_ns", "ns"),
    ("graph.bitset.for_each_difference_ns", "ns"),
    ("logic.bisim.rounds", "count"),
    ("logic.bisim.encoded", "count"),
    ("logic.bisim.moved", "count"),
    ("trace.overhead.setup_s", "s"),
    ("trace.overhead.throughput_rps", "1/s"),
    ("trace.overhead.check_p50_us", "us"),
    ("trace.overhead.check_p99_us", "us"),
    ("trace.overhead.delta_p50_us", "us"),
    ("trace.overhead.delta_p99_us", "us"),
    ("trace.overhead.ok_ratio", "ratio"),
    ("trace.overhead.suite_ms", "ms"),
    ("trace.overhead.fixpoint_ms", "ms"),
    ("trace.overhead.refine_ms", "ms"),
    ("trace.overhead.update_ms", "ms"),
    ("trace.overhead.peak_rss_mb", "MB"),
];

pub const WORKLOADS: [&str; 2] = ["serve_hot", "serve_churn"];

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Reduced sizes and the workload-property assertions.
    pub smoke: bool,
}

/// The unit of an end-to-end metric.
pub fn unit_of(name: &str) -> &'static str {
    match name {
        "setup_s" => "s",
        "throughput_rps" => "1/s",
        "ok_ratio" => "ratio",
        "peak_rss_mb" => "MB",
        n if n.ends_with("_us") => "us",
        n if n.ends_with("_ms") => "ms",
        _ => "count",
    }
}

/// The end-to-end figures of one timed phase of any workload.
#[derive(Debug, Clone, Copy)]
pub struct E2e {
    pub throughput: f64,
    pub check: Summary,
    pub delta: Summary,
    pub ok: f64,
    pub suite: f64,
    pub fixpoint: f64,
    pub refine: f64,
    pub update: f64,
    /// Peak RSS at the end of the phase.
    pub rss_mb: f64,
}

impl E2e {
    fn values(&self) -> [(&'static str, f64); 11] {
        [
            ("throughput_rps", self.throughput),
            ("check_p50_us", self.check.p50),
            ("check_p99_us", self.check.p99),
            ("delta_p50_us", self.delta.p50),
            ("delta_p99_us", self.delta.p99),
            ("ok_ratio", self.ok),
            ("suite_ms", self.suite),
            ("fixpoint_ms", self.fixpoint),
            ("refine_ms", self.refine),
            ("update_ms", self.update),
            ("peak_rss_mb", self.rss_mb),
        ]
    }

    /// Records the twelve end-to-end metrics.
    pub fn emit(&self, setup_s: f64, report: &mut Report) {
        report.e2e("setup_s", setup_s, "s");
        for (name, value) in self.values() {
            report.e2e(name, value, unit_of(name));
        }
    }

    /// Records `traced − self` for every end-to-end metric. Set-up comes
    /// before any tracing starts, so its overhead is 0.
    pub fn overhead_against(&self, traced: &E2e, report: &mut Report) {
        report.layer("trace.overhead.setup_s", 0.0, "s");
        for ((name, untraced), (_, with)) in self.values().into_iter().zip(traced.values()) {
            report.layer(
                &format!("trace.overhead.{name}"),
                with - untraced,
                unit_of(name),
            );
        }
    }
}

fn usage() -> String {
    format!(
        "usage: portnum-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       portnum-perfbench --smoke",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload.clone_from(value),
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !opts.smoke && !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    Ok(opts)
}

/// The repository root this benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// `git rev-parse HEAD` of the repository root when the root is a git
/// work tree (has its own `.git`); a plain source checkout gets
/// `unknown`, and git is not run, so nothing outside the root is read.
fn git_revision(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// A digest of the measured program's sources (every file under
/// `crates/` plus the root manifests), which identifies the code even
/// where there is no git revision.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for file in files {
        let Ok(bytes) = std::fs::read(&file) else {
            continue;
        };
        for b in file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .bytes()
            .chain(bytes)
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn run_workload(opts: &Opts) -> Report {
    let mut report = Report::default();
    serve::run(opts, &opts.workload, &mut report);
    report.correct = report.problems.is_empty();
    report
}

fn metric_line(opts: &Opts, report: &Report) -> String {
    let metrics: Vec<stats::Metric> = if opts.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = report
                    .per_layer
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value);
                stats::Metric {
                    name: name.to_string(),
                    value,
                    unit,
                }
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&name| {
                report
                    .end_to_end
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or_else(|| panic!("workload {} did not measure {name}", opts.workload))
            })
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        stats::metrics_object(&metrics)
    )
}

fn provenance_line(opts: &Opts, report: &Report) -> String {
    let root = repo_root();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let facts: Vec<String> = report
        .facts
        .iter()
        .map(|(k, v)| format!("{}: {}", stats::string(k), stats::num(*v)))
        .collect();
    let problems: Vec<String> = report
        .problems
        .iter()
        .take(20)
        .map(|p| stats::string(p))
        .collect();
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_revision\": {}, \"source_digest\": {}, \"available_parallelism\": {}}}, \"timings\": {}, \"facts\": {{{}}}, \"problems\": [{}]}}",
        stats::string(&opts.workload),
        opts.seed,
        stats::num(opts.seconds),
        opts.trace,
        stats::string(&git_revision(&root)),
        stats::string(&source_digest(&root)),
        cores,
        stats::timings_array(&report.timings),
        facts.join(", "),
        problems.join(", ")
    )
}

/// Runs every workload at reduced size and asserts zero failures, zero
/// wrong answers, and the property each serve workload depends on.
fn smoke(seed: u64) -> ExitCode {
    let mut ok = true;
    for name in WORKLOADS {
        let opts = Opts {
            workload: name.to_string(),
            seed,
            seconds: 1.0,
            trace: true,
            smoke: true,
        };
        let started = std::time::Instant::now();
        let report = run_workload(&opts);
        let fact = |k: &str| {
            report
                .facts
                .iter()
                .find(|(n, _)| n == k)
                .map_or(f64::NAN, |(_, v)| *v)
        };
        let mut problems = report.problems.clone();
        if report.failed > 0 {
            problems.push(format!(
                "{} of {} operations failed",
                report.failed, report.attempted
            ));
        }
        match name {
            "serve_hot" => {
                if fact("response_bytes_max").is_nan() || fact("response_bytes_max") >= 8192.0 {
                    problems.push(format!(
                        "a response reached {} bytes (must stay under 8 KiB)",
                        fact("response_bytes_max")
                    ));
                }
                if fact("evictions") != 0.0 {
                    problems.push(format!("{} evictions (must be none)", fact("evictions")));
                }
            }
            _ => {
                if fact("response_bytes_min").is_nan() || fact("response_bytes_min") < 8192.0 {
                    problems.push(format!(
                        "a response was only {} bytes (must be at least 8 KiB)",
                        fact("response_bytes_min")
                    ));
                }
                if fact("evictions").is_nan() || fact("evictions") < 1.0 {
                    problems.push("no eviction happened".to_string());
                }
            }
        }
        println!(
            "smoke {name}: {} ops, {:.1} s, {}",
            report.attempted,
            started.elapsed().as_secs_f64(),
            if problems.is_empty() {
                "ok".to_string()
            } else {
                problems.join("; ")
            }
        );
        ok &= problems.is_empty();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // Every PORTNUM_* variable is an engine or serve knob (or a chaos
    // hook) that silently changes the program being measured.
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PORTNUM_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "refusing to run with {} set: unset it to measure the default program",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if opts.smoke {
        return smoke(opts.seed);
    }
    let report = run_workload(&opts);
    for p in report.problems.iter().take(20) {
        eprintln!("problem: {p}");
    }
    println!("{}", provenance_line(&opts, &report));
    println!("{}", metric_line(&opts, &report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// program reports, with the units it reports them in.
    #[test]
    fn benchmark_json_matches_the_program() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
        // Every `"key": "value"` string field of one top-level section.
        let fields = |section: &str, key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).unwrap();
            let end = start + text[start..].find(']').unwrap();
            let pattern = format!("\"{key}\": \"");
            text[start..end]
                .match_indices(&pattern)
                .map(|(i, m)| {
                    let rest = &text[start + i + m.len()..];
                    rest[..rest.find('"').unwrap()].to_string()
                })
                .collect()
        };
        assert_eq!(fields("workloads", "name"), WORKLOADS);
        assert_eq!(fields("end_to_end", "name"), END_TO_END);
        assert_eq!(fields("end_to_end", "unit"), END_TO_END.map(unit_of));
        assert_eq!(fields("per_layer", "name"), PER_LAYER.map(|(n, _)| n));
        assert_eq!(fields("per_layer", "unit"), PER_LAYER.map(|(_, u)| u));
    }

    #[test]
    fn args_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_args(&args("--workload serve_hot --seed 3 --seconds 2 --trace 1")).unwrap();
        assert_eq!((o.seed, o.seconds, o.trace), (3, 2.0, true));
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload serve_hot --trace 2")).is_err());
        assert!(parse_args(&args("--workload serve_hot --seconds 0")).is_err());
    }
}
