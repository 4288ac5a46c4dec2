//! A minimal `--key value` / `--flag` argument parser for the experiment
//! binaries (kept dependency-free on purpose; see docs/DESIGN.md §6).

use std::collections::{HashMap, HashSet};

/// Parsed command-line arguments.
#[derive(Clone, Debug, Default)]
pub struct Cli {
    values: HashMap<String, String>,
    flags: HashSet<String>,
}

impl Cli {
    /// Parses `std::env::args()` (skipping the program name). A token
    /// `--key` followed by a non-`--` token is a key/value pair; a `--key`
    /// followed by another `--key` (or nothing) is a boolean flag.
    pub fn parse() -> Cli {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit token stream (for tests).
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Cli {
        let tokens: Vec<String> = args.into_iter().collect();
        let mut cli = Cli::default();
        let mut i = 0;
        while i < tokens.len() {
            let tok = &tokens[i];
            if let Some(key) = tok.strip_prefix("--") {
                if i + 1 < tokens.len() && !tokens[i + 1].starts_with("--") {
                    cli.values.insert(key.to_string(), tokens[i + 1].clone());
                    i += 2;
                } else {
                    cli.flags.insert(key.to_string());
                    i += 1;
                }
            } else {
                i += 1; // ignore stray positionals
            }
        }
        cli
    }

    /// Whether a boolean flag is present.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.contains(flag)
    }

    /// A string value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    /// A parsed value with a default.
    ///
    /// # Panics
    /// Panics with a clear message when the value does not parse.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.values.get(key) {
            None => default,
            Some(v) => {
                v.parse().unwrap_or_else(|_| panic!("--{key}: cannot parse {v:?}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_key_values_and_flags() {
        let c = cli(&["--instances", "10", "--json", "--scale", "0.5"]);
        assert_eq!(c.get_or("instances", 0usize), 10);
        assert!((c.get_or("scale", 0.0f64) - 0.5).abs() < 1e-12);
        assert!(c.has("json"));
        assert!(!c.has("paper-scale"));
    }

    #[test]
    fn defaults_apply() {
        let c = cli(&[]);
        assert_eq!(c.get_or("instances", 7usize), 7);
        assert_eq!(c.get("missing"), None);
    }

    #[test]
    fn flag_before_pair() {
        let c = cli(&["--verbose", "--n", "3"]);
        assert!(c.has("verbose"));
        assert_eq!(c.get_or("n", 0u32), 3);
    }

    #[test]
    #[should_panic(expected = "cannot parse")]
    fn bad_value_panics() {
        let c = cli(&["--n", "abc"]);
        let _ = c.get_or("n", 0u32);
    }
}
