//! `mbi serve` — run the multi-tenant network query service.

use crate::args::CliArgs;
use crate::commands::index_config;
use crate::CliError;
use mbi_core::EngineConfig;
use mbi_server::{signal, ReplicaSource, Server, ServerConfig, TenantConfig};
use std::io::Write;
use std::time::Duration;

/// Parses one `name:token[:path]` tenant spec. A path ending in `.mbi` is a
/// read-only cold tenant served from that index file; any other path is the
/// durable directory of a streaming tenant (created on first start,
/// recovered afterwards); no path means in-memory.
fn parse_tenant(spec: &str) -> Result<TenantConfig, CliError> {
    let mut parts = spec.splitn(3, ':');
    let (name, token) = match (parts.next(), parts.next()) {
        (Some(n), Some(t)) if !n.is_empty() && !t.is_empty() => (n, t),
        _ => {
            return Err(CliError(format!("bad tenant spec {spec:?} (expected name:token[:path])")))
        }
    };
    Ok(match parts.next() {
        None | Some("") => TenantConfig::memory(name, token),
        Some(path) if path.ends_with(".mbi") => TenantConfig::cold(name, token, path),
        Some(dir) => TenantConfig::durable(name, token, dir),
    })
}

/// Builds the [`ServerConfig`] from the command line (shared by the real
/// serve loop and the tests).
pub fn parse_serve_config(args: &CliArgs) -> Result<ServerConfig, CliError> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7171");
    let dim: usize = args.get_parsed("dim", 0)?;
    let index = index_config(args, dim.max(1))?;

    let tenant_specs = args.get("tenants").ok_or_else(|| {
        CliError("missing required option --tenants (name:token[:path],…)".into())
    })?;
    let mut tenants = Vec::new();
    for spec in tenant_specs.split(',') {
        tenants.push(parse_tenant(spec.trim())?);
    }
    if tenants.is_empty() {
        return Err(CliError("--tenants named no tenants".into()));
    }
    if dim == 0 && tenants.iter().any(|t| t.cold_path.is_none()) {
        return Err(CliError("--dim is required when serving a streaming tenant".into()));
    }

    let mut engine = EngineConfig::default();
    engine.builder_threads = args.get_parsed("builders", engine.builder_threads)?;

    let deadline_ms: u64 = args.get_parsed("deadline-ms", 2000)?;
    let idle_ms: u64 = args.get_parsed("idle-ms", 30_000)?;
    let mut config = ServerConfig::new(addr, index)
        .with_engine(engine)
        .with_max_connections(args.get_parsed("max-connections", 256)?)
        .with_max_inflight(args.get_parsed("max-inflight", 64)?)
        .with_default_deadline((deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)))
        .with_idle_timeout((idle_ms > 0).then(|| Duration::from_millis(idle_ms)));
    if let Some(cap) = args.get("max-frame-bytes") {
        let cap: usize =
            cap.parse().map_err(|_| CliError(format!("bad --max-frame-bytes {cap:?}")))?;
        config = config.with_max_frame_bytes(cap);
    }
    for t in tenants {
        config = config.with_tenant(t);
    }
    Ok(config)
}

/// Builds the follower [`ServerConfig`] for `mbi replicate`: one replica
/// tenant tailing `--from`, served read-only on `--addr` until promoted.
pub fn parse_replicate_config(args: &CliArgs) -> Result<ServerConfig, CliError> {
    let from = args
        .get("from")
        .ok_or_else(|| CliError("missing required option --from (leader host:port)".into()))?;
    let leader_tenant = args.get("leader-tenant").ok_or_else(|| {
        CliError("missing required option --leader-tenant (leader-side tenant name)".into())
    })?;
    let leader_token = args.get("leader-token").ok_or_else(|| {
        CliError("missing required option --leader-token (that tenant's token)".into())
    })?;
    let dir = args
        .get("dir")
        .ok_or_else(|| CliError("missing required option --dir (follower WAL directory)".into()))?;
    let dim: usize = args.get_parsed("dim", 0)?;
    if dim == 0 {
        return Err(CliError(
            "--dim is required and must match the leader's index dimension".into(),
        ));
    }
    let name = args.get("name").unwrap_or(leader_tenant);
    let token = args.get("token").unwrap_or(leader_token);
    let addr = args.get("addr").unwrap_or("127.0.0.1:7172");

    let index = index_config(args, dim)?;

    let source = ReplicaSource {
        addr: from.to_string(),
        tenant: leader_tenant.to_string(),
        token: leader_token.to_string(),
    };
    let deadline_ms: u64 = args.get_parsed("deadline-ms", 2000)?;
    Ok(ServerConfig::new(addr, index)
        .with_default_deadline((deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)))
        .with_replica_lag_warn(args.get_parsed("lag-warn-rows", 10_000)?)
        .with_tenant(TenantConfig::replica(name, token, dir, source)))
}

/// `mbi replicate` — run a read replica: tail a leader tenant's WAL over
/// the binary protocol into a local durable engine, serving read-only
/// queries the whole time. Promote it with `POST /promote` (or the binary
/// PROMOTE op) to open it for writes after a leader failure.
pub fn replicate(args: &CliArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let config = parse_replicate_config(args)?;
    let tenant = &config.tenants[0];
    let source = tenant.replica_of.clone().expect("replicate config builds a replica tenant");
    let name = tenant.name.clone();
    let handle = Server::start(config).map_err(|e| CliError(format!("replica start: {e}")))?;
    writeln!(
        out,
        "replica {:?} tailing {}/{} — serving read-only on {} (HTTP + MBI1 binary); \
         POST /promote to fail over; Ctrl-C to drain and exit",
        name,
        source.addr,
        source.tenant,
        handle.addr()
    )?;
    out.flush()?;
    signal::install_handlers();
    handle.wait_for_shutdown();
    Ok(())
}

/// `mbi serve` — start the server and block until SIGINT/SIGTERM, then
/// drain, checkpoint every durable tenant, and exit.
pub fn serve(args: &CliArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let config = parse_serve_config(args)?;
    let tenant_names: Vec<String> = config.tenants.iter().map(|t| t.name.clone()).collect();
    let handle = Server::start(config).map_err(|e| CliError(format!("server start: {e}")))?;
    writeln!(
        out,
        "serving {} tenant(s) [{}] on {} (HTTP + MBI1 binary); Ctrl-C to drain and exit",
        tenant_names.len(),
        tenant_names.join(", "),
        handle.addr()
    )?;
    out.flush()?;
    signal::install_handlers();
    handle.wait_for_shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> CliArgs {
        CliArgs::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn tenant_specs_parse() {
        let t = parse_tenant("alpha:tok-a").unwrap();
        assert_eq!((t.name.as_str(), t.token.as_str()), ("alpha", "tok-a"));
        assert!(t.dir.is_none() && t.cold_path.is_none());
        let t = parse_tenant("beta:tok-b:/data/beta").unwrap();
        assert_eq!(t.dir.as_deref(), Some(std::path::Path::new("/data/beta")));
        let t = parse_tenant("cold:tok-c:/data/x.mbi").unwrap();
        assert_eq!(t.cold_path.as_deref(), Some(std::path::Path::new("/data/x.mbi")));
        assert!(parse_tenant("no-token").is_err());
        assert!(parse_tenant(":tok").is_err());
    }

    #[test]
    fn serve_config_parses_and_validates() {
        let config = parse_serve_config(&argv(
            "serve --addr 127.0.0.1:0 --dim 8 --tenants alpha:tok-a,beta:tok-b \
             --max-inflight 4 --deadline-ms 100",
        ))
        .unwrap();
        assert_eq!(config.tenants.len(), 2);
        assert_eq!(config.index.dim, 8);
        assert_eq!(config.max_inflight, 4);
        assert_eq!(config.default_deadline, Some(Duration::from_millis(100)));

        // Streaming tenants need a dimension; cold-only setups do not.
        assert!(parse_serve_config(&argv("serve --tenants a:t")).is_err());
        assert!(parse_serve_config(&argv("serve --tenants a:t:/x.mbi")).is_ok());
        // A zero deadline means unbounded.
        let config =
            parse_serve_config(&argv("serve --dim 4 --tenants a:t --deadline-ms 0")).unwrap();
        assert_eq!(config.default_deadline, None);
    }

    #[test]
    fn replicate_config_parses_and_validates() {
        let config = parse_replicate_config(&argv(
            "replicate --from 10.0.0.1:7171 --leader-tenant alpha --leader-token tok-a \
             --dir /data/follower --dim 8 --leaf-size 64 --lag-warn-rows 500",
        ))
        .unwrap();
        assert_eq!(config.tenants.len(), 1);
        let t = &config.tenants[0];
        assert_eq!(t.name, "alpha"); // defaults to the leader tenant name
        assert_eq!(t.token, "tok-a"); // and its token
        assert_eq!(t.dir.as_deref(), Some(std::path::Path::new("/data/follower")));
        let source = t.replica_of.as_ref().unwrap();
        assert_eq!((source.addr.as_str(), source.tenant.as_str()), ("10.0.0.1:7171", "alpha"));
        assert_eq!(config.index.dim, 8);
        assert_eq!(config.index.leaf_size, 64);
        assert_eq!(config.replica_lag_warn_rows, 500);

        // --dim, --from, --dir are mandatory.
        assert!(parse_replicate_config(&argv(
            "replicate --from a:1 --leader-tenant t --leader-token k --dir /d"
        ))
        .is_err());
        assert!(parse_replicate_config(&argv(
            "replicate --leader-tenant t --leader-token k --dir /d --dim 4"
        ))
        .is_err());
        assert!(parse_replicate_config(&argv(
            "replicate --from a:1 --leader-tenant t --leader-token k --dim 4"
        ))
        .is_err());
    }
}
