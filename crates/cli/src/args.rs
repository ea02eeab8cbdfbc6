//! Minimal subcommand + `--flag value` argument parsing (no external
//! dependency; the workspace's allowed-crate list has no CLI parser).

use crate::CliError;
use std::collections::HashMap;

/// Every subcommand, the `--key value` options it reads and the bare
/// `--switch` flags it reads, each list space-separated. A key outside its
/// command's lists is an error before any work starts, so a misspelled or
/// retired option is never silently ignored; so is a switch given a value
/// and an option given none, so `--parallel true` cannot read as off and a
/// bare `--k` cannot fall back to the default.
const COMMAND_KEYS: &[(&str, &str, &str)] = &[
    ("generate", "preset count seed out timestamps queries", ""),
    ("build", "input out timestamps metric leaf-size tau degree", "parallel"),
    ("info", "index", "tree"),
    ("verify", "index", ""),
    ("query", "index vector queries k from to mc epsilon", ""),
    ("tune", "index queries target-recall k", ""),
    ("bench-query", "index queries fraction rounds k mc epsilon builders", "streaming"),
    (
        "serve",
        "tenants addr dim metric leaf-size tau degree builders max-connections max-inflight \
         deadline-ms idle-ms max-frame-bytes",
        "",
    ),
    (
        "replicate",
        "from leader-tenant leader-token dir dim name token addr metric leaf-size tau degree \
         deadline-ms lag-warn-rows",
        "",
    ),
    ("help", "", ""),
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
        let keys = COMMAND_KEYS.iter().find(|(c, ..)| *c == command);
        let listed = |list: &str, key: &str| list.split_whitespace().any(|k| k == key);
        let mut options = HashMap::new();
        let mut switches = Vec::new();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(CliError(format!("unexpected positional argument {a:?}")));
            };
            let value = it.next_if(|v| !v.starts_with("--"));
            // An unknown subcommand is reported by `run`; until then a key
            // followed by a value reads as an option.
            let is_switch = match keys {
                Some((_, opts, _)) if listed(opts, key) => false,
                Some((_, _, flags)) if listed(flags, key) => true,
                Some(_) => return Err(CliError(format!("unknown option --{key} for `{command}`"))),
                None => value.is_none(),
            };
            match (is_switch, value) {
                (false, Some(v)) => {
                    options.insert(key.to_string(), v.clone());
                }
                (true, None) => switches.push(key.to_string()),
                (false, None) => return Err(CliError(format!("option --{key} needs a value"))),
                (true, Some(v)) => {
                    return Err(CliError(format!("switch --{key} takes no value, got {v:?}")));
                }
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

    /// A switch given a value would be stored as an option and read as off;
    /// an option given no value would be stored as a switch and fall back to
    /// its default. Both are errors.
    #[test]
    fn switches_take_no_value_and_options_need_one() {
        for (line, error) in [
            (
                "build --input d.fvecs --out i.mbi --parallel true",
                "switch --parallel takes no value, got \"true\"",
            ),
            ("info --index i.mbi --tree yes", "switch --tree takes no value, got \"yes\""),
            (
                "bench-query --index i.mbi --streaming 1 --rounds 2",
                "switch --streaming takes no value, got \"1\"",
            ),
            ("query --index i.mbi --vector 1,2 --k", "option --k needs a value"),
            ("query --index i.mbi --k --vector 1,2", "option --k needs a value"),
            ("build --parallel --input", "option --input needs a value"),
        ] {
            assert_eq!(CliArgs::parse(&argv(line)).unwrap_err().0, error, "{line}");
        }
        let a = CliArgs::parse(&argv("build --parallel --input d.fvecs")).unwrap();
        assert!(a.switch("parallel"));
        assert_eq!(a.get("input"), Some("d.fvecs"));
        let a = CliArgs::parse(&argv("query --index i.mbi --from -5 --to 9")).unwrap();
        assert_eq!(a.get_parsed("from", 0i64).unwrap(), -5, "a negative value is a value");
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
