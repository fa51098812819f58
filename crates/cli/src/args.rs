//! A small, dependency-free flag parser: `--key value` pairs plus
//! positional arguments, with typed accessors and helpful errors.

use std::collections::BTreeMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub(crate) struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
    /// Whether `--help` or `-h` was given.
    pub(crate) help: bool,
}

/// A parse/lookup failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses a raw argument list (without the program/subcommand names).
    ///
    /// Every `--key` must be followed by a value; bare `--key` at the end
    /// or followed by another flag is an error (the CLI has no boolean
    /// flags — explicit values keep invocations self-documenting). The one
    /// exception is `--help` (or `-h`), which asks for the usage.
    pub(crate) fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(a) = iter.next() {
            if a == "--help" || a == "-h" {
                args.help = true;
            } else if let Some(key) = a.strip_prefix("--") {
                if key.is_empty() {
                    return Err(ArgError("empty flag name '--'".into()));
                }
                match iter.next() {
                    Some(v) if !v.starts_with("--") => {
                        if args.flags.insert(key.to_string(), v).is_some() {
                            return Err(ArgError(format!("flag --{key} given twice")));
                        }
                    }
                    _ => return Err(ArgError(format!("flag --{key} needs a value"))),
                }
            } else {
                args.positional.push(a);
            }
        }
        Ok(args)
    }

    /// Positional arguments.
    pub(crate) fn positional(&self) -> &[String] {
        &self.positional
    }

    /// A string flag.
    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(|s| s.as_str())
    }

    /// A string flag with a default.
    pub(crate) fn get_or(&self, key: &str, default: &str) -> String {
        self.get(key).unwrap_or(default).to_string()
    }

    /// A required string flag.
    pub(crate) fn require(&self, key: &str) -> Result<String, ArgError> {
        self.get(key)
            .map(str::to_string)
            .ok_or_else(|| ArgError(format!("missing required flag --{key}")))
    }

    /// A parsed numeric flag with a default.
    pub(crate) fn get_parsed_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError(format!("--{key}: cannot parse '{v}'"))),
        }
    }

    /// Rejects unknown flags (call after reading all expected ones).
    pub(crate) fn reject_unknown(&self, known: &[&str]) -> Result<(), ArgError> {
        for key in self.flags.keys() {
            if !known.contains(&key.as_str()) {
                return Err(ArgError(format!(
                    "unknown flag --{key} (expected one of: {})",
                    known.iter().map(|k| format!("--{k}")).collect::<Vec<_>>().join(", ")
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Args, ArgError> {
        Args::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = parse(&["pos1", "--lines", "500", "pos2", "--seed", "7"]).expect("parse");
        assert_eq!(a.positional(), &["pos1", "pos2"]);
        assert_eq!(a.get("lines"), Some("500"));
        assert_eq!(a.get_parsed_or("seed", 0u64).expect("num"), 7);
        assert_eq!(a.get_parsed_or("missing", 42u32).expect("default"), 42);
        assert_eq!(a.get_or("scenario", "baseline"), "baseline");
    }

    #[test]
    fn rejects_missing_values_and_duplicates() {
        assert!(parse(&["--lines"]).is_err());
        assert!(parse(&["--lines", "--seed", "7"]).is_err());
        assert!(parse(&["--x", "1", "--x", "2"]).is_err());
        assert!(parse(&["--", "v"]).is_err());
    }

    #[test]
    fn help_takes_no_value() {
        for help in ["--help", "-h"] {
            let a = parse(&["--lines", "5", help]).expect("parse");
            assert!(a.help && a.positional().is_empty(), "{help}");
            assert_eq!(a.get("lines"), Some("5"));
        }
        assert!(!parse(&["--lines", "5"]).expect("parse").help);
    }

    #[test]
    fn require_and_unknown_flags() {
        let a = parse(&["--out", "dir"]).expect("parse");
        assert_eq!(a.require("out").expect("present"), "dir");
        assert!(a.require("model").is_err());
        assert!(a.reject_unknown(&["out"]).is_ok());
        assert!(a.reject_unknown(&["model"]).is_err());
    }

    #[test]
    fn parse_errors_are_descriptive() {
        let e = parse(&["--lines"]).expect_err("must fail");
        assert!(e.to_string().contains("--lines"));
        let a = parse(&["--n", "abc"]).expect("parse");
        let e = a.get_parsed_or("n", 0usize).expect_err("must fail");
        assert!(e.to_string().contains("abc"));
    }
}
