//! `mbi build` output served as a cold tenant: an index whose row count is
//! no multiple of `--leaf-size` ends in a tail record, and `mbi serve`'s
//! `name:token:/path.mbi` tenant answers every probe from it — tail rows
//! included — with the ids and distance bits `mbi query` prints for the
//! same file.

use mbi_ann::VectorStore;
use mbi_cli::io::{read_fvecs, read_timestamps, write_fvecs};
use mbi_cli::serve::parse_serve_config;
use mbi_cli::{run, CliArgs};
use mbi_core::TimeWindow;
use mbi_server::client::BinaryClient;
use mbi_server::Server;

fn args(argv: &[&str]) -> CliArgs {
    CliArgs::parse(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
}

fn run_cmd(line: &str) -> String {
    let argv: Vec<&str> = line.split_whitespace().collect();
    let mut out = Vec::new();
    run(&args(&argv), &mut out).unwrap_or_else(|e| panic!("{line}: {e}"));
    String::from_utf8(out).unwrap()
}

/// Per query of `mbi query`'s output, its `(id, distance bits)` answers.
fn parse_answers(out: &str) -> Vec<Vec<(u32, u32)>> {
    let mut queries = Vec::new();
    for line in out.lines() {
        if line.starts_with("query ") {
            queries.push(Vec::new());
            continue;
        }
        let field = |name: &str| {
            let word = line.split_whitespace().find(|w| w.starts_with(name)).unwrap();
            word[name.len()..].to_string()
        };
        let (id, dist) = (field("id=").parse().unwrap(), field("dist=").parse::<f32>().unwrap());
        queries.last_mut().expect("a query header first").push((id, dist.to_bits()));
    }
    queries
}

#[test]
fn a_built_index_with_a_tail_serves_cold_as_mbi_query_answers() {
    let dir = std::env::temp_dir().join(format!("mbi_cli_serve_built_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (data, ts, queries, index) =
        (path("d.fvecs"), path("ts.txt"), path("q.fvecs"), path("x.mbi"));
    run_cmd(&format!(
        "generate --preset movielens --count 1100 --out {data} --timestamps {ts} --queries {queries}"
    ));
    // 1 100 rows in leaves of 256: four leaves and a 76-row tail record.
    let out = run_cmd(&format!(
        "build --input {data} --timestamps {ts} --out {index} --leaf-size 256 --degree 8"
    ));
    assert!(out.contains("over 4 leaves"), "{out}");
    let probes = path("probes.fvecs");
    let all = read_fvecs(&queries).unwrap();
    let mut store = VectorStore::new(all.dim());
    store.extend_from_view(all.slice(0..6));
    write_fvecs(&probes, &store).unwrap();

    let config = parse_serve_config(&args(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--tenants",
        &format!("archive:tok:{index}"),
    ]))
    .unwrap();
    let handle = Server::start(config).expect("a built index opens as a cold tenant");
    let mut client = BinaryClient::connect(handle.addr(), "archive", "tok").unwrap();

    let t = read_timestamps(&ts).unwrap();
    let windows = [
        (i64::MIN, i64::MAX),
        (t[100], t[900]),
        (t[500], t[502]),
        (t[1000], t[1099] + 1),
        (t[1024], t[1099] + 1),
    ];
    let mut tail_answers = 0;
    for (from, to) in windows {
        let out = run_cmd(&format!(
            "query --index {index} --queries {probes} --k 5 --from {from} --to {to}"
        ));
        let want = parse_answers(&out);
        assert_eq!(want.len(), store.len(), "{out}");
        for (q, want) in want.iter().enumerate() {
            let w = TimeWindow::new(from, to);
            let got = client.query(store.get(q), 5, w, None).unwrap().results;
            let got: Vec<(u32, u32)> = got.iter().map(|r| (r.id, r.dist.to_bits())).collect();
            assert_eq!(&got, want, "query {q}, window [{from}, {to})");
            tail_answers += got.iter().filter(|&&(id, _)| id >= 1024).count();
        }
    }
    assert!(tail_answers > 0, "some answers are tail rows");
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
