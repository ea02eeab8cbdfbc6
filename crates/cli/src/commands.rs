//! Subcommand implementations.

use crate::args::CliArgs;
use crate::io;
use crate::CliError;
use mbi_ann::{NnDescentParams, SearchParams};
use mbi_core::tuner::TunerConfig;
use mbi_core::{
    EngineConfig, GraphBackend, MbiConfig, MbiIndex, StreamingMbi, TauTuner, TimeWindow,
};
use mbi_data::preset_by_name;
use mbi_math::Metric;
use std::io::Write;
use std::time::Instant;

/// Dispatches a parsed command line; all output goes to `out` (stdout in
/// `main`, a buffer in tests).
pub fn run(args: &CliArgs, out: &mut dyn Write) -> Result<(), CliError> {
    match args.command.as_str() {
        "generate" => generate(args, out),
        "build" => build(args, out),
        "info" => info(args, out),
        "verify" => verify(args, out),
        "query" => query(args, out),
        "tune" => tune(args, out),
        "bench-query" => bench_query(args, out),
        "serve" => crate::serve::serve(args, out),
        "replicate" => crate::serve::replicate(args, out),
        "help" | "--help" => {
            write!(out, "{}", HELP)?;
            Ok(())
        }
        other => Err(CliError(format!("unknown subcommand {other:?} (try `mbi help`)"))),
    }
}

const HELP: &str = "\
mbi — Multi-level Block Indexing for time-restricted kNN search

USAGE:
  mbi generate --preset <name> --count <n> --out <data.fvecs> [--timestamps <ts.txt>] [--queries <q.fvecs>] [--seed <n>]
  mbi build    --input <data.fvecs|data.csv> --out <index.mbi>
               [--timestamps <ts.txt>] [--metric euclidean|angular|inner_product]
               [--leaf-size <n>] [--tau <f>] [--degree <n>] [--parallel]
  mbi info     --index <index.mbi> [--tree]
  mbi verify   --index <index.mbi>
               (checksum + structural integrity check; exits non-zero on any
                corruption — run it on anything restored from backup)
  mbi query    --index <index.mbi> (--vector \"x0,x1,…\" | --queries <q.fvecs>)
               [--k <n>] [--from <ts>] [--to <ts>] [--mc <n>] [--epsilon <f>]
               [--query-threads <n>]   (0 = auto; results identical at any width)
  mbi tune     --index <index.mbi> --queries <q.fvecs> [--target-recall <f>] [--k <n>]
  mbi bench-query --index <index.mbi> --queries <q.fvecs>
               [--fraction <f>] [--rounds <n>] [--k <n>] [--mc <n>] [--epsilon <f>]
               [--streaming] [--builders <n>]
               (--streaming replays the data through the StreamingMbi engine —
                inserts on a writer thread, queries interleaved — and reports
                ingest latency percentiles next to the query ones)
  mbi serve    --tenants <name:token[:path]>[,…] [--addr <host:port>] [--dim <n>]
               [--metric euclidean|angular|inner_product] [--leaf-size <n>] [--tau <f>]
               [--degree <n>] [--builders <n>] [--max-connections <n>] [--max-inflight <n>]
               [--deadline-ms <n>] [--coalesce-ms <n>] [--coalesce-batch <n>]
               [--idle-ms <n>] [--max-frame-bytes <n>]
               (multi-tenant network service speaking HTTP/1.1+JSON and the MBI1
                binary protocol on one port; a tenant path ending in .mbi serves
                that index read-only, any other path is a durable WAL directory,
                no path keeps the tenant in memory. Ctrl-C drains and checkpoints.)
  mbi replicate --from <host:port> --leader-tenant <name> --leader-token <tok>
               --dir <wal-dir> --dim <n> [--name <n>] [--token <tok>] [--addr <host:port>]
               [--metric …] [--leaf-size <n>] [--tau <f>] [--degree <n>]
               [--deadline-ms <n>] [--lag-warn-rows <n>]
               (run a read replica: tail the leader tenant's WAL into --dir and
                serve read-only queries; index flags must match the leader's.
                POST /promote fails it over to a writable primary.)
  mbi help
";

pub(crate) fn parse_metric(s: &str) -> Result<Metric, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "euclidean" | "l2" => Ok(Metric::Euclidean),
        "angular" | "cosine" => Ok(Metric::Angular),
        "inner_product" | "ip" | "dot" => Ok(Metric::InnerProduct),
        other => Err(CliError(format!("unknown metric {other:?}"))),
    }
}

/// `mbi generate` — emit a synthetic dataset (one of the paper presets) as
/// fvecs + timestamps, for trying the tool without real data.
fn generate(args: &CliArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let preset_name = args.require("preset")?;
    let preset = preset_by_name(preset_name)
        .ok_or_else(|| CliError(format!("unknown preset {preset_name:?} (see `mbi help`)")))?;
    let count: usize = args.get_parsed("count", 10_000)?;
    let seed: u64 = args.get_parsed("seed", 7)?;
    let out_path = args.require("out")?;

    let dataset = preset.generate(count as f64 / preset.paper_train as f64, seed);
    io::write_fvecs(out_path, &dataset.train)?;
    writeln!(
        out,
        "wrote {} {}-d vectors ({}) to {}",
        dataset.len(),
        dataset.dim(),
        dataset.metric,
        out_path
    )?;
    if let Some(ts_path) = args.get("timestamps") {
        io::write_timestamps(ts_path, &dataset.timestamps)?;
        writeln!(out, "wrote timestamps to {ts_path}")?;
    }
    if let Some(q_path) = args.get("queries") {
        io::write_fvecs(q_path, &dataset.test)?;
        writeln!(out, "wrote {} query vectors to {q_path}", dataset.test.len())?;
    }
    Ok(())
}

/// `mbi build` — index a vector file.
fn build(args: &CliArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.require("input")?;
    let out_path = args.require("out")?;

    let (store, mut timestamps) = if input.ends_with(".csv") {
        let (s, t) = io::read_csv(input)?;
        (s, Some(t))
    } else {
        (io::read_fvecs(input)?, None)
    };
    if let Some(ts_path) = args.get("timestamps") {
        timestamps = Some(io::read_timestamps(ts_path)?);
    }
    let timestamps = timestamps.unwrap_or_else(|| (0..store.len() as i64).collect());
    if timestamps.len() != store.len() {
        return Err(CliError(format!(
            "{} vectors but {} timestamps",
            store.len(),
            timestamps.len()
        )));
    }

    let metric = parse_metric(args.get("metric").unwrap_or("euclidean"))?;
    let leaf_size: usize = args.get_parsed("leaf-size", 4096)?;
    let tau: f64 = args.get_parsed("tau", 0.5)?;
    let degree: usize = args.get_parsed("degree", 24)?;
    let config = MbiConfig::new(store.dim(), metric)
        .with_leaf_size(leaf_size)
        .with_tau(tau)
        .with_backend(GraphBackend::NnDescent(NnDescentParams { degree, ..Default::default() }))
        .with_parallel_build(args.switch("parallel"));

    let t0 = Instant::now();
    let mut index = MbiIndex::new(config);
    for (i, &t) in timestamps.iter().enumerate() {
        index.insert(store.get(i), t)?;
    }
    let built = t0.elapsed();
    index.save_file(out_path)?;
    writeln!(
        out,
        "indexed {} vectors into {} blocks over {} leaves in {:.2?}; saved to {}",
        index.len(),
        index.blocks().len(),
        index.num_leaves(),
        built,
        out_path
    )?;
    Ok(())
}

/// `mbi info` — structure, sizes and a validation pass.
fn info(args: &CliArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let index = MbiIndex::load_file(args.require("index")?)?;
    let c = index.config();
    writeln!(out, "vectors       : {} ({}-d, {})", index.len(), c.dim, c.metric)?;
    writeln!(out, "leaf size S_L : {}", c.leaf_size)?;
    writeln!(out, "tau           : {}", c.tau)?;
    writeln!(out, "backend       : {}", c.backend.name())?;
    writeln!(
        out,
        "sealed leaves : {} (+{} tail rows)",
        index.num_leaves(),
        index.tail_rows().len()
    )?;
    if !index.is_empty() {
        let ts = index.timestamps();
        writeln!(out, "time range    : [{}, {}]", ts[0], ts[ts.len() - 1])?;
    }
    writeln!(
        out,
        "data bytes    : {:.2} MiB; index bytes: {:.2} MiB ({:.2}x)",
        index.data_bytes() as f64 / (1 << 20) as f64,
        index.index_memory_bytes() as f64 / (1 << 20) as f64,
        index.index_memory_bytes() as f64 / index.data_bytes().max(1) as f64,
    )?;
    writeln!(out, "levels        :")?;
    for l in index.level_stats() {
        writeln!(
            out,
            "  height {:>2}: {:>5} blocks, {:>9} rows, {:>8.2} MiB",
            l.height,
            l.blocks,
            l.rows,
            l.graph_bytes as f64 / (1 << 20) as f64
        )?;
    }
    match index.validate() {
        Ok(()) => writeln!(out, "validation    : ok")?,
        Err(e) => writeln!(out, "validation    : FAILED — {e}")?,
    }
    if args.switch("tree") {
        writeln!(out, "block tree    :")?;
        write!(out, "{}", index.render_tree())?;
    }
    Ok(())
}

/// `mbi verify` — load with full checksum verification plus the structural
/// validation pass, reporting exactly what failed. Errors propagate, so the
/// process exits non-zero on a corrupt file (scriptable as a backup check).
fn verify(args: &CliArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let path = args.require("index")?;
    let len =
        std::fs::metadata(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))?.len();
    writeln!(out, "file          : {path} ({len} bytes)")?;
    // Loading verifies the magic, the version (7, the only one read), every
    // section CRC and the footer, then runs the structural checks.
    let started = Instant::now();
    let index = MbiIndex::load_file(path).map_err(|e| CliError(format!("corrupt index: {e}")))?;
    let secs = started.elapsed().as_secs_f64();
    writeln!(
        out,
        "checksums     : ok — {len} bytes read, verified and decoded in {secs:.3} s ({:.0} MB/s), crc32 {}, simd {}",
        len as f64 / 1e6 / secs.max(1e-9),
        mbi_math::crc32_backend(),
        mbi_math::simd::active_backend().name()
    )?;
    index.validate().map_err(|e| CliError(format!("structural validation failed: {e}")))?;
    writeln!(
        out,
        "structure     : ok — {} rows, {} leaves, {} blocks",
        index.len(),
        index.num_leaves(),
        index.blocks().len()
    )?;
    Ok(())
}

/// `mbi query` — one inline vector or a whole fvecs file of queries.
fn query(args: &CliArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let index = MbiIndex::load_file(args.require("index")?)?;
    let k: usize = args.get_parsed("k", 10)?;
    let from: i64 = args.get_parsed("from", i64::MIN)?;
    let to: i64 = args.get_parsed("to", i64::MAX)?;
    if from > to {
        return Err(CliError(format!("--from {from} is after --to {to}")));
    }
    let window = TimeWindow::new(from, to);
    let search = SearchParams::new(
        args.get_parsed("mc", index.config().search.max_candidates)?,
        args.get_parsed("epsilon", index.config().search.epsilon)?,
    );
    let query_threads: usize = args.get_parsed("query-threads", index.config().query_threads)?;

    let queries: Vec<Vec<f32>> = match (args.get("vector"), args.get("queries")) {
        (Some(lit), None) => vec![io::parse_vector_literal(lit)?],
        (None, Some(path)) => {
            let store = io::read_fvecs(path)?;
            (0..store.len()).map(|i| store.get(i).to_vec()).collect()
        }
        _ => return Err(CliError("pass exactly one of --vector or --queries".into())),
    };

    for (qi, q) in queries.iter().enumerate() {
        if q.len() != index.dim() {
            return Err(CliError(format!(
                "query {qi} has dimension {} but the index is {}-d",
                q.len(),
                index.dim()
            )));
        }
        let t0 = Instant::now();
        let result = index.query_with_params_threaded(q, k, window, &search, query_threads);
        let took = t0.elapsed();
        writeln!(
            out,
            "query {qi}: {} results in {:.1?} ({} blocks searched, {} by scan, {} distance evals)",
            result.results.len(),
            took,
            result.stats.blocks_searched,
            result.stats.blocks_bruteforced,
            result.stats.dist_evals
        )?;
        for (rank, r) in result.results.iter().enumerate() {
            writeln!(
                out,
                "  {:>2}. id={:<10} t={:<12} dist={:.6}",
                rank + 1,
                r.id,
                r.timestamp,
                r.dist
            )?;
        }
    }
    Ok(())
}

/// `mbi tune` — calibrate τ per window length (§5.4.2) and print the table.
fn tune(args: &CliArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let index = MbiIndex::load_file(args.require("index")?)?;
    let store = io::read_fvecs(args.require("queries")?)?;
    let queries: Vec<Vec<f32>> = (0..store.len()).map(|i| store.get(i).to_vec()).collect();
    if queries.is_empty() {
        return Err(CliError("query file holds no vectors".into()));
    }
    let config = TunerConfig {
        min_recall: args.get_parsed("target-recall", 0.95)?,
        k: args.get_parsed("k", 10)?,
        search: index.config().search,
        ..TunerConfig::default()
    };
    let tuner = TauTuner::calibrate(&index, &queries, &config);
    writeln!(out, "window fraction <= | best tau | mean latency")?;
    for (edge, tau, lat) in tuner.report() {
        writeln!(
            out,
            "{:>18} | {:>8} | {}",
            format!("{:.0}%", edge * 100.0),
            tau.map_or("-".into(), |t| format!("{t:.2}")),
            lat.map_or("-".into(), |l| format!("{:.1} us", l * 1e6)),
        )?;
    }
    Ok(())
}

/// `mbi bench-query` — measure query throughput and latency percentiles
/// over a query file, with windows covering a fixed fraction of the data.
fn bench_query(args: &CliArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let index = MbiIndex::load_file(args.require("index")?)?;
    if index.is_empty() {
        return Err(CliError("index is empty".into()));
    }
    let store = io::read_fvecs(args.require("queries")?)?;
    if store.dim() != index.dim() {
        return Err(CliError(format!(
            "queries are {}-d but the index is {}-d",
            store.dim(),
            index.dim()
        )));
    }
    let k: usize = args.get_parsed("k", 10)?;
    let rounds: usize = args.get_parsed("rounds", 3)?;
    let fraction: f64 = args.get_parsed("fraction", 0.5)?;
    if !(0.0..=1.0).contains(&fraction) || fraction == 0.0 {
        return Err(CliError(format!("--fraction {fraction} out of (0, 1]")));
    }
    let search = SearchParams::new(
        args.get_parsed("mc", index.config().search.max_candidates)?,
        args.get_parsed("epsilon", index.config().search.epsilon)?,
    );

    let windows = mbi_data::windows_for_fraction(index.timestamps(), fraction, store.len(), 7);
    if args.switch("streaming") {
        return bench_query_streaming(args, out, &index, &store, &windows, k, rounds, &search);
    }
    let mut recorder = mbi_eval::latency::LatencyRecorder::with_capacity(rounds * store.len());
    let mut results_total = 0usize;
    for _ in 0..rounds {
        for (i, w) in windows.iter().enumerate() {
            let q = store.get(i % store.len());
            let res = recorder.time(|| index.query_with_params(q, k, *w, &search));
            results_total += res.results.len();
        }
    }
    let s = recorder.summary();
    writeln!(
        out,
        "{} queries ({} rounds x {} vectors, windows at {:.0}% of data, k={k})",
        s.count,
        rounds,
        store.len(),
        fraction * 100.0
    )?;
    writeln!(out, "throughput : {:.0} qps", s.qps)?;
    writeln!(
        out,
        "latency    : mean {:.1} us | p50 {:.1} us | p90 {:.1} us | p99 {:.1} us | max {:.1} us",
        s.mean_us, s.p50_us, s.p90_us, s.p99_us, s.max_us
    )?;
    writeln!(out, "results    : {results_total} total rows returned")?;
    Ok(())
}

/// `mbi bench-query --streaming` — replay the index's rows through
/// [`StreamingMbi`] on a writer thread while this thread queries the growing
/// committed view, then report ingest, chain-build, and query latency
/// summaries side by side. The loaded index only serves as the data source
/// and configuration; the engine rebuilds its blocks in the background.
#[allow(clippy::too_many_arguments)]
fn bench_query_streaming(
    args: &CliArgs,
    out: &mut dyn Write,
    index: &MbiIndex,
    queries: &mbi_ann::VectorStore,
    windows: &[TimeWindow],
    k: usize,
    rounds: usize,
    search: &SearchParams,
) -> Result<(), CliError> {
    let builders: usize = args.get_parsed("builders", 2)?;
    let engine = StreamingMbi::with_engine_config(
        *index.config(),
        EngineConfig::default().with_builder_threads(builders).with_queue_depth(8),
    );
    let src = index.store();
    let ts = index.timestamps();
    let mut recorder = mbi_eval::latency::LatencyRecorder::new();
    let mut interleaved = 0usize;
    std::thread::scope(|s| {
        let engine = &engine;
        let writer = s.spawn(move || {
            for (i, &t) in ts.iter().enumerate() {
                engine.insert(src.get(i), t).expect("replayed rows are valid");
            }
        });
        let mut qi = 0usize;
        while !writer.is_finished() {
            let q = queries.get(qi % queries.len());
            recorder.time(|| engine.query_with_params(q, k, windows[qi % windows.len()], search));
            qi += 1;
        }
        interleaved = qi;
        writer.join().map_err(|_| CliError("ingest thread panicked".into()))
    })?;
    engine.flush();
    // Post-flush rounds measure the steady state (and guarantee at least one
    // query sample when ingest finished before the first interleaved query).
    let post_rounds = if rounds == 0 && recorder.is_empty() { 1 } else { rounds };
    for _ in 0..post_rounds {
        for (i, w) in windows.iter().enumerate() {
            let q = queries.get(i % queries.len());
            recorder.time(|| engine.query_with_params(q, k, *w, search));
        }
    }
    let ingest = mbi_eval::IngestSummary::from_engine_stats(&engine.stats());
    let q = recorder.summary();
    writeln!(
        out,
        "streaming replay: {} rows on 1 writer, {builders} builder thread(s); \
         {interleaved} queries interleaved mid-ingest (k={k})",
        engine.len()
    )?;
    writeln!(
        out,
        "ingest     : mean {:.1} us | p50 {:.1} us | p99 {:.1} us | max {:.1} us per insert ({} seals, {} inline builds)",
        ingest.insert.mean_us,
        ingest.insert.p50_us,
        ingest.insert.p99_us,
        ingest.insert.max_us,
        ingest.seals,
        ingest.inline_builds
    )?;
    if let Some(b) = &ingest.build {
        writeln!(
            out,
            "builds     : mean {:.1} us | p99 {:.1} us | max {:.1} us per chain ({} chains)",
            b.mean_us, b.p99_us, b.max_us, b.count
        )?;
    }
    writeln!(out, "throughput : {:.0} qps", q.qps)?;
    writeln!(
        out,
        "latency    : mean {:.1} us | p50 {:.1} us | p90 {:.1} us | p99 {:.1} us | max {:.1} us",
        q.mean_us, q.p50_us, q.p90_us, q.p99_us, q.max_us
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cmd(line: &str) -> Result<String, CliError> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let args = CliArgs::parse(&argv)?;
        let mut out = Vec::new();
        run(&args, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("mbi_cli_cmd_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn full_workflow_generate_build_info_query_tune() {
        let data = tmp("wf.fvecs");
        let ts = tmp("wf.ts");
        let queries = tmp("wf_q.fvecs");
        let index = tmp("wf.mbi");

        let out = run_cmd(&format!(
            "generate --preset movielens --count 2000 --out {data} --timestamps {ts} --queries {queries}"
        ))
        .unwrap();
        assert!(out.contains("32-d"), "{out}");

        let out = run_cmd(&format!(
            "build --input {data} --timestamps {ts} --out {index} --metric angular --leaf-size 256 --degree 8 --parallel"
        ))
        .unwrap();
        assert!(out.contains("saved to"), "{out}");

        let out = run_cmd(&format!("info --index {index} --tree")).unwrap();
        assert!(out.contains("validation    : ok"), "{out}");
        assert!(out.contains("height  0"), "{out}");
        assert!(out.contains("block tree"), "{out}");
        assert!(out.contains("B0  h0"), "{out}");

        let out = run_cmd(&format!("query --index {index} --queries {queries} --k 5")).unwrap();
        assert!(out.contains("1. id="), "{out}");

        let out =
            run_cmd(&format!("tune --index {index} --queries {queries} --target-recall 0.5 --k 5"))
                .unwrap();
        assert!(out.contains("best tau"), "{out}");
    }

    #[test]
    fn verify_passes_clean_index_and_catches_corruption() {
        let data = tmp("v.fvecs");
        let index = tmp("v.mbi");
        run_cmd(&format!("generate --preset movielens --count 1200 --out {data}")).unwrap();
        run_cmd(&format!("build --input {data} --out {index} --leaf-size 256 --degree 8")).unwrap();

        let out = run_cmd(&format!("verify --index {index}")).unwrap();
        assert!(out.contains("checksums     : ok"), "{out}");
        let len = std::fs::metadata(&index).unwrap().len();
        assert!(out.contains(&format!("{len} bytes read, verified and decoded in ")), "{out}");
        assert!(
            out.contains(&format!("MB/s), crc32 {}, simd ", mbi_math::crc32_backend())),
            "{out}"
        );
        assert!(out.contains("structure     : ok"), "{out}");

        // Flip one byte mid-file: verify must fail with a checksum error.
        let mut bytes = std::fs::read(&index).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        let corrupt = tmp("v_corrupt.mbi");
        std::fs::write(&corrupt, &bytes).unwrap();
        let err = run_cmd(&format!("verify --index {corrupt}")).unwrap_err();
        assert!(err.to_string().contains("corrupt index"), "{err}");
    }

    #[test]
    fn query_with_inline_vector_and_window() {
        let data = tmp("q.fvecs");
        let index = tmp("q.mbi");
        run_cmd(&format!("generate --preset sift1m --count 1500 --out {data}")).unwrap();
        run_cmd(&format!("build --input {data} --out {index} --leaf-size 200 --degree 8")).unwrap();
        // 128-d inline vector of zeros with a couple of spikes.
        let mut v = vec!["0".to_string(); 128];
        v[3] = "1.5".into();
        v[77] = "-0.5".into();
        let lit = v.join(",");
        let argv: Vec<String> = format!("query --index {index} --k 3 --from 100 --to 900")
            .split_whitespace()
            .map(String::from)
            .chain(["--vector".to_string(), lit])
            .collect();
        let args = CliArgs::parse(&argv).unwrap();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("3 results"), "{text}");
        // Every printed timestamp is within [100, 900).
        for line in text.lines().filter(|l| l.contains("t=")) {
            let t: i64 = line
                .split("t=")
                .nth(1)
                .unwrap()
                .split_whitespace()
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!((100..900).contains(&t), "{line}");
        }
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(run_cmd("frobnicate").is_err());
        assert!(run_cmd("build --out x.mbi").is_err(), "missing --input");
        assert!(run_cmd("query --index /nonexistent.mbi --vector 1,2").is_err());
        assert!(run_cmd("generate --preset nope --out x.fvecs").is_err());
        let data = tmp("err.fvecs");
        run_cmd(&format!("generate --preset movielens --count 500 --out {data}")).unwrap();
        let index = tmp("err.mbi");
        run_cmd(&format!("build --input {data} --out {index} --leaf-size 100 --degree 6")).unwrap();
        // Wrong query dimension.
        assert!(run_cmd(&format!("query --index {index} --vector 1,2,3")).is_err());
        // Reversed window.
        assert!(run_cmd(&format!("query --index {index} --vector 1 --from 10 --to 5")).is_err());
    }

    #[test]
    fn bench_query_reports_latency() {
        let data = tmp("bq.fvecs");
        let queries = tmp("bq_q.fvecs");
        let index = tmp("bq.mbi");
        run_cmd(&format!(
            "generate --preset movielens --count 1500 --out {data} --queries {queries}"
        ))
        .unwrap();
        run_cmd(&format!(
            "build --input {data} --out {index} --metric angular --leaf-size 200 --degree 8"
        ))
        .unwrap();
        let out = run_cmd(&format!(
            "bench-query --index {index} --queries {queries} --rounds 2 --fraction 0.4 --k 5"
        ))
        .unwrap();
        assert!(out.contains("throughput"), "{out}");
        assert!(out.contains("p99"), "{out}");
        // Bad fraction rejected.
        assert!(run_cmd(&format!("bench-query --index {index} --queries {queries} --fraction 0"))
            .is_err());
    }

    #[test]
    fn bench_query_streaming_reports_ingest_and_query_latency() {
        let data = tmp("bqs.fvecs");
        let queries = tmp("bqs_q.fvecs");
        let index = tmp("bqs.mbi");
        run_cmd(&format!(
            "generate --preset movielens --count 1200 --out {data} --queries {queries}"
        ))
        .unwrap();
        run_cmd(&format!(
            "build --input {data} --out {index} --metric angular --leaf-size 128 --degree 8"
        ))
        .unwrap();
        let out = run_cmd(&format!(
            "bench-query --index {index} --queries {queries} --streaming --builders 2 --rounds 1 --fraction 0.5 --k 5"
        ))
        .unwrap();
        assert!(out.contains("streaming replay"), "{out}");
        assert!(out.contains("ingest"), "{out}");
        assert!(out.contains("per insert"), "{out}");
        assert!(out.contains("9 seals"), "{out}"); // 1200 rows / 128 leaf
        assert!(out.contains("throughput"), "{out}");
    }

    #[test]
    fn help_prints_usage() {
        let out = run_cmd("help").unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("mbi build"));
    }

    #[test]
    fn csv_build_path() {
        let csv = tmp("data.csv");
        let index = tmp("csv.mbi");
        let mut body = String::from("t,x,y\n");
        for i in 0..600 {
            body.push_str(&format!("{i},{},{}\n", (i as f32 * 0.1).sin(), (i as f32 * 0.1).cos()));
        }
        std::fs::write(&csv, body).unwrap();
        let out = run_cmd(&format!("build --input {csv} --out {index} --leaf-size 128 --degree 6"))
            .unwrap();
        assert!(out.contains("indexed 600 vectors"), "{out}");
        let out = run_cmd(&format!("info --index {index}")).unwrap();
        assert!(out.contains("validation    : ok"));
    }
}
