//! Minimal subcommand + `--flag value` argument parsing (no external
//! dependency; the workspace's allowed-crate list has no CLI parser).

use crate::CliError;
use std::collections::HashMap;

/// Every subcommand and the keys it reads, `--key value` options and bare
/// `--switch` flags alike, space-separated. A key outside its command's
/// list is an error before any work starts, so a misspelled or retired
/// option is never silently ignored.
const COMMAND_KEYS: &[(&str, &str)] = &[
    ("generate", "preset count seed out timestamps queries"),
    ("build", "input out timestamps metric leaf-size tau degree parallel"),
    ("info", "index tree"),
    ("verify", "index"),
    ("query", "index vector queries k from to mc epsilon"),
    ("tune", "index queries target-recall k"),
    ("bench-query", "index queries fraction rounds k mc epsilon streaming builders"),
    (
        "serve",
        "tenants addr dim metric leaf-size tau degree builders max-connections max-inflight \
         deadline-ms idle-ms max-frame-bytes",
    ),
    (
        "replicate",
        "from leader-tenant leader-token dir dim name token addr metric leaf-size tau degree \
         deadline-ms lag-warn-rows",
    ),
    ("help", ""),
];

/// Parsed command line: a subcommand plus `--key value` options and bare
/// `--switch` flags.
#[derive(Debug, Default, Clone)]
pub struct CliArgs {
    /// The subcommand (`build`, `query`, …).
    pub command: String,
    options: HashMap<String, String>,
    switches: Vec<String>,
}

impl CliArgs {
    /// Parses an argv-style slice (without the program name). A key the
    /// subcommand does not read is an error; an unknown subcommand is left
    /// for [`crate::run`] to report.
    pub fn parse(argv: &[String]) -> Result<CliArgs, CliError> {
        let mut it = argv.iter().peekable();
        let command = it
            .next()
            .filter(|c| !c.starts_with("--"))
            .cloned()
            .ok_or_else(|| CliError("missing subcommand (try `mbi help`)".into()))?;
        let keys = COMMAND_KEYS.iter().find(|(c, _)| *c == command).map(|(_, keys)| *keys);
        let mut options = HashMap::new();
        let mut switches = Vec::new();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(CliError(format!("unexpected positional argument {a:?}")));
            };
            if keys.is_some_and(|keys| !keys.split_whitespace().any(|k| k == key)) {
                return Err(CliError(format!("unknown option --{key} for `{command}`")));
            }
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    options.insert(key.to_string(), it.next().expect("peeked").clone());
                }
                _ => switches.push(key.to_string()),
            }
        }
        Ok(CliArgs { command, options, switches })
    }

    /// A required string option.
    pub fn require(&self, key: &str) -> Result<&str, CliError> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| CliError(format!("missing required option --{key}")))
    }

    /// An optional string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A typed option with a default; malformed values are an error, not a
    /// silent fallback.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| CliError(format!("bad value for --{key}: {v:?}"))),
        }
    }

    /// Whether a bare `--switch` was given.
    pub fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_subcommand_options_switches() {
        let a = CliArgs::parse(&argv("build --input x.fvecs --leaf-size 512 --parallel")).unwrap();
        assert_eq!(a.command, "build");
        assert_eq!(a.require("input").unwrap(), "x.fvecs");
        assert_eq!(a.get_parsed("leaf-size", 0usize).unwrap(), 512);
        assert!(a.switch("parallel"));
        assert!(!a.switch("quiet"));
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn missing_subcommand_is_error() {
        assert!(CliArgs::parse(&[]).is_err());
        assert!(CliArgs::parse(&argv("--input x")).is_err());
    }

    #[test]
    fn missing_required_option_is_error() {
        let a = CliArgs::parse(&argv("query")).unwrap();
        assert!(a.require("index").is_err());
    }

    #[test]
    fn malformed_typed_value_is_error() {
        let a = CliArgs::parse(&argv("build --tau abc")).unwrap();
        assert!(a.get_parsed("tau", 0.5f64).is_err());
        let a = CliArgs::parse(&argv("build --tau 0.4")).unwrap();
        assert_eq!(a.get_parsed("tau", 0.5f64).unwrap(), 0.4);
    }

    #[test]
    fn positional_arguments_rejected() {
        assert!(CliArgs::parse(&argv("build stray")).is_err());
    }

    #[test]
    fn keys_a_command_does_not_read_are_rejected() {
        for (line, error) in [
            (
                "query --index i.mbi --queries q.fvecs --k 5 --query-threads 2",
                "unknown option --query-threads for `query`",
            ),
            (
                "serve --tenants a:t --dim 4 --coalesce-ms 2",
                "unknown option --coalesce-ms for `serve`",
            ),
            ("info --index i.mbi --parallel", "unknown option --parallel for `info`"),
            ("help --index i.mbi", "unknown option --index for `help`"),
        ] {
            assert_eq!(CliArgs::parse(&argv(line)).unwrap_err().0, error);
        }
        // An unknown subcommand is reported by `run`, not here.
        assert!(CliArgs::parse(&argv("frobnicate --x 1")).is_ok());
    }

    #[test]
    fn every_subcommand_accepts_a_valid_command_line() {
        let lines = [
            "generate --preset coms --count 100 --out d.fvecs --timestamps t.txt --queries q.fvecs \
             --seed 3",
            "build --input d.fvecs --out i.mbi --timestamps t.txt --metric angular --leaf-size 64 \
             --tau 0.4 --degree 8 --parallel",
            "info --index i.mbi --tree",
            "verify --index i.mbi",
            "query --index i.mbi --vector 1,2 --k 5 --from 0 --to 9 --mc 32 --epsilon 1.2",
            "tune --index i.mbi --queries q.fvecs --target-recall 0.9 --k 5",
            "bench-query --index i.mbi --queries q.fvecs --fraction 0.2 --rounds 1 --k 5 --mc 32 \
             --epsilon 1.2 --streaming --builders 2",
            "serve --tenants a:t,b:u:/d --addr 127.0.0.1:0 --dim 4 --metric euclidean \
             --leaf-size 64 --tau 0.5 --degree 8 --builders 1 --max-connections 8 \
             --max-inflight 4 --deadline-ms 100 --idle-ms 1000 --max-frame-bytes 65536",
            "replicate --from 127.0.0.1:7171 --leader-tenant a --leader-token t --dir /d --dim 4 \
             --name b --token u --addr 127.0.0.1:0 --metric euclidean --leaf-size 64 --tau 0.5 \
             --degree 8 --deadline-ms 100 --lag-warn-rows 10",
            "help",
        ];
        for line in lines {
            if let Err(e) = CliArgs::parse(&argv(line)) {
                panic!("{line}: {e}");
            }
        }
        assert_eq!(lines.len(), COMMAND_KEYS.len(), "one line per subcommand");
    }
}
