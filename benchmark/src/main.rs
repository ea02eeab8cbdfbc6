//! `e2e` — the repo's benchmark: one seeded dataset through every layer.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! e2e --all [--seed <n>] [--seconds <s>]      every workload, then a traced run
//! e2e --smoke                                 tiny sizes, all workloads, traced too
//! ```
//!
//! `--trace 0` measures the named workload and prints the end-to-end metrics;
//! `--trace 1` runs every workload briefly with its side phases and the layer
//! probes, records spans around the named workload's calls into each layer,
//! and prints the per-layer metrics. The last line of standard output is the
//! result object `BENCHMARK.json` describes. See `benchmark/README.md`.

mod common;
mod harness;
mod layers;
mod probes;
mod workloads {
    pub mod cold;
    pub mod hot;
    pub mod server;
    pub mod stream;
}

use common::{Base, Ctx, Outcome, Scale, BANDS};
use harness::{check_declared, metrics_json, Json, Metrics};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{cold, hot, server, stream};

type Workload = fn(&Ctx, Option<&Base>) -> Outcome;

const WORKLOADS: [(&str, Workload); 4] = [
    (hot::NAME, hot::run),
    (cold::NAME, cold::run),
    (stream::NAME, stream::run),
    (server::NAME, server::run),
];

/// The end-to-end metrics every workload reports (`BENCHMARK.json` holds
/// their bounds).
const END_TO_END: [&str; 8] = [
    "setup_s",
    "query_p50_us",
    "query_p99_us",
    "query_qps",
    "recall_at_10",
    "insert_rows_per_s",
    "index_bytes_per_data_byte",
    "peak_rss_mb",
];

/// The per-layer metrics a traced run reports, `<module>.<metric>`.
const PER_LAYER: [&str; 76] = [
    "math.se_batch_ns_per_row",
    "math.angular_cached_ns_per_row",
    "math.sq8_code_dot_ns_per_row",
    "math.topk_push_ns",
    "ann.graph_search_us",
    "ann.graph_search_dist_evals",
    "ann.graph_search_visited",
    "ann.brute_force_us_per_krow",
    "ann.nndescent_build_rows_per_s",
    "select.us",
    "select.blocks_per_query",
    "select.tail_share",
    "index.exec_us",
    "index.dist_evals_per_query",
    "index.visited_per_query",
    "index.scanned_per_query",
    "index.blocks_searched_per_query",
    "index.blocks_bruteforced_per_query",
    "index.fanout2_query_p50_us",
    "index.attributed_share",
    "snapshot.query_p50_us",
    "persist.save_s",
    "persist.load_s",
    "persist.file_bytes",
    "tier.open_s",
    "tier.hit_rate",
    "tier.misses_per_query",
    "tier.evictions_per_query",
    "tier.prefetches_per_query",
    "tier.bytes_resident",
    "tier.budget_bytes",
    "tier.query_p50_us.b000",
    "tier.query_p50_us.b100",
    "tier.qps.b000",
    "tier.qps.b100",
    "tier.prefetch_on_query_p50_us",
    "tier.miss_penalty_us",
    "tier.dist_evals_per_query",
    "tier.query_p50_us.b025",
    "engine.seals",
    "engine.published_leaves",
    "engine.inline_builds",
    "engine.queued_builds_max",
    "engine.build_p50_ms",
    "engine.build_busy_s",
    "engine.publish_p50_us",
    "engine.publish_max_us",
    "engine.tail_rows_p50",
    "engine.flush_s",
    "engine.insert_p50_us",
    "engine.insert_max_us",
    "engine.insert_due_p99_us",
    "engine.generator_late_p99_us",
    "engine.busy_query_p50_us",
    "engine.idle_query_p50_us",
    "engine.recover_s",
    "wal.append_p50_us",
    "wal.sync_p50_us",
    "wal.bytes_per_row",
    "wal.segments",
    "wal.checkpoint_s",
    "wal.disk_bytes_per_user_byte",
    "server.overhead_p50_us",
    "server.ping_p50_us",
    "server.insert_p50_us",
    "server.http_query_p50_us",
    "server.http_qps",
    "server.coalesce_query_p50_us",
    "server.coalesce_qps",
    "server.coalesce_ratio",
    "server.shed_share",
    "server.reported_query_p50_us",
    "wire.encode_results_ns",
    "wire.decode_results_ns",
    "trace.overhead_share",
    "trace.attributed_share",
];

/// Per-layer metrics reported once per window band, `<name>.<band>`.
const PER_BAND: [&str; 3] = ["index.query_p50_us", "index.recall_at_10", "bsbf.query_p50_us"];

fn per_layer_names() -> Vec<String> {
    let per_band = PER_BAND
        .iter()
        .flat_map(|name| BANDS.iter().map(move |(band, _)| format!("{name}.{band}")));
    PER_LAYER.iter().map(|s| s.to_string()).chain(per_band).collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    all: bool,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        all: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--all" => a.all = true,
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {}", a.seconds));
    }
    if !a.all && !a.smoke && !WORKLOADS.iter().any(|(name, _)| *name == a.workload) {
        return Err(format!("--workload must be one of {:?}, got {:?}", names(), a.workload));
    }
    Ok(a)
}

/// Where reports, traces and scratch files go: `benchmark/out/`, ignored by
/// git, inside the checkout the binary was built from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|(name, _)| *name).collect()
}

/// What one invocation measured.
struct RunResult {
    metrics: Metrics,
    declared: Vec<String>,
    outcomes: Vec<Outcome>,
}

impl RunResult {
    fn attempted(&self) -> u64 {
        self.outcomes.iter().map(|o| o.tally.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.outcomes.iter().map(|o| o.tally.failed).sum()
    }
}

fn measure(workload: &str, ctx: &Ctx) -> RunResult {
    if !ctx.trace {
        let run = WORKLOADS.iter().find(|(name, _)| *name == workload).expect("checked name").1;
        let outcome = run(ctx, None);
        let declared = END_TO_END.iter().map(|s| s.to_string()).collect();
        return RunResult { metrics: outcome.e2e.clone(), declared, outcomes: vec![outcome] };
    }
    // Traced: one dataset and index, every workload for a quarter of the
    // time, spans and `trace.*` from the named one.
    let t = std::time::Instant::now();
    let base = Base::build(ctx, true);
    let mut metrics = probes::run(ctx, &base);
    eprintln!("dataset, index and layer probes: {:.1} s", t.elapsed().as_secs_f64());
    let mut outcomes = Vec::new();
    for (name, run) in WORKLOADS {
        let t = std::time::Instant::now();
        let mut outcome = run(ctx, Some(&base));
        eprintln!("{name}: {:.1} s", t.elapsed().as_secs_f64());
        let mut layers = outcome.layers.clone();
        if name != workload {
            layers.0.retain(|k, _| !k.starts_with("trace."));
            outcome.recorder = None;
        }
        metrics.extend(layers);
        outcomes.push(outcome);
    }
    RunResult { metrics, declared: per_layer_names(), outcomes }
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The full record of a run: metadata, every metric collected (declared or
/// not), per-phase counts and the first failures.
fn report(workload: &str, ctx: &Ctx, result: &RunResult) -> Json {
    let s = |v: &str| Json::Str(v.to_string());
    let all_metrics = |m: &Metrics| {
        let names: Vec<&str> = m.0.keys().map(String::as_str).collect();
        metrics_json(m, &names)
    };
    let outcomes = result
        .outcomes
        .iter()
        .map(|o| {
            let phases = o
                .phases
                .iter()
                .map(|p| {
                    Json::Obj(vec![
                        ("phase".into(), s(p.name)),
                        ("attempted".into(), Json::Int(p.attempted)),
                        ("succeeded".into(), Json::Int(p.attempted - p.failed)),
                        ("failed".into(), Json::Int(p.failed)),
                        ("timed_samples".into(), Json::Int(p.samples)),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("workload".into(), s(o.workload)),
                ("end_to_end".into(), all_metrics(&o.e2e)),
                ("layers".into(), all_metrics(&o.layers)),
                ("phases".into(), Json::Arr(phases)),
                (
                    "first_failures".into(),
                    Json::Arr(o.tally.examples.iter().map(|e| s(e)).collect()),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("workload".into(), s(workload)),
        ("seed".into(), Json::Int(ctx.seed)),
        ("seconds".into(), Json::Num(ctx.seconds)),
        ("trace".into(), Json::Bool(ctx.trace)),
        ("rows".into(), Json::Int(ctx.scale.rows as u64)),
        ("dim".into(), Json::Int(layers::DIM as u64)),
        ("leaf_size".into(), Json::Int(layers::LEAF as u64)),
        ("nndescent_degree".into(), Json::Int(layers::DEGREE as u64)),
        ("k".into(), Json::Int(layers::K as u64)),
        ("max_candidates".into(), Json::Int(layers::MAX_CANDIDATES as u64)),
        ("epsilon".into(), Json::Num(layers::EPSILON as f64)),
        ("nproc".into(), Json::Int(nproc() as u64)),
        ("simd_backend".into(), s(&layers::simd_backend())),
        ("rustc".into(), s(&tool_version("rustc", &["-V"]))),
        ("git_commit".into(), s(&tool_version("git", &["rev-parse", "HEAD"]))),
        ("page_cache".into(), s("warm: 'cold' means a block-cache miss, not a disk read")),
        ("attempted".into(), Json::Int(result.attempted())),
        ("failed".into(), Json::Int(result.failed())),
        ("reported".into(), all_metrics(&result.metrics)),
        ("workloads".into(), Json::Arr(outcomes)),
    ])
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one invocation end to end; `Err` holds why no result can be printed.
fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
) -> Result<String, String> {
    if nproc() < 2 {
        eprintln!(
            "warning: {} core available; the two-client and two-thread phases will share it",
            nproc()
        );
    }
    let out = out_dir();
    let work = out.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    // A traced run shares its seconds among the four workloads.
    let seconds = if trace { seconds / WORKLOADS.len() as f64 } else { seconds };
    let ctx = Ctx { seed, seconds, trace, scale, work: work.clone() };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| measure(workload, &ctx)));
    let _ = std::fs::remove_dir_all(&work);
    let result = result.map_err(|_| "a workload panicked (see above)".to_string())?;

    let declared: Vec<&str> = result.declared.iter().map(String::as_str).collect();
    let problems = check_declared(&result.metrics, &declared);
    let stem = format!("{workload}-seed{seed}-trace{}", trace as u8);
    let write = |name: String, text: String| {
        if let Err(e) = std::fs::write(out.join(&name), text) {
            eprintln!("could not write {name}: {e}");
        }
    };
    write(format!("report-{stem}.json"), report(workload, &ctx, &result).render() + "\n");
    for o in &result.outcomes {
        if let Some(rec) = &o.recorder {
            write(format!("trace-{}.json", o.workload), rec.chrome_trace());
        }
        for example in &o.tally.examples {
            eprintln!("{}: failed: {example}", o.workload);
        }
    }
    if !problems.is_empty() {
        return Err(problems.join("; "));
    }
    for name in &declared {
        let (value, unit) = result.metrics.0[*name];
        println!("{name:<40} {value:>16.4} {unit}");
    }
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(result.failed() == 0)),
        ("attempted".into(), Json::Int(result.attempted().max(1))),
        ("failed".into(), Json::Int(result.failed())),
        ("metrics".into(), metrics_json(&result.metrics, &declared)),
    ]);
    Ok(line.render())
}

/// `--all`: each workload in a process of its own (so `peak_rss_mb` is that
/// workload's), then one traced run.
fn run_all(seed: u64, seconds: f64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let runs = names().into_iter().map(|w| (w, "0")).chain([(hot::NAME, "1")]);
    for (workload, trace) in runs {
        println!("== {workload} (trace {trace})");
        let status = Command::new(&exe)
            .args(["--workload", workload, "--trace", trace])
            .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--smoke`: tiny sizes, every workload untraced and one traced run, in
/// this process. Returns whether everything ran and every answer checked.
fn smoke() -> bool {
    let mut runs = names().into_iter().map(|w| (w, false)).chain([(server::NAME, true)]);
    runs.all(|(workload, trace)| {
        match run(workload, 7, if trace { 0.4 } else { 0.1 }, trace, Scale::smoke()) {
            Ok(line) => {
                println!("{line}");
                line.starts_with("{\"correct\":true")
            }
            Err(e) => {
                eprintln!("{workload}: {e}");
                false
            }
        }
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: e2e --workload <{}> --seed <n> --seconds <s> --trace <0|1> | --all | --smoke", names().join("|"));
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return if smoke() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    if args.all {
        return run_all(args.seed, args.seconds);
    }
    match run(&args.workload, args.seed, args.seconds, args.trace, Scale::full()) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("no result: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_legal_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|s| s.to_string()).collect();
        names.extend(per_layer_names());
        for n in &names {
            assert!(harness::valid_metric_name(n), "{n}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is declared twice");
        assert!(per_layer_names().len() <= 128);
    }

    #[test]
    fn benchmark_json_declares_what_the_binary_reports() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_seq())
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), super::names());
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), per_layer_names());
    }

    #[test]
    fn arguments() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload hot_windows --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("hot_windows", 9, 3.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload hot_windows --trace 2")).is_err());
        assert!(parse_args(&argv("--workload hot_windows --seconds 0")).is_err());
        assert!(parse_args(&argv("--all")).unwrap().all);
    }

    /// The whole harness at 2 000 rows: four workloads and a traced run.
    #[test]
    fn smoke_pass() {
        assert!(smoke());
    }
}
