//! Minimal flag parser for the `dreamsim` binary (no external
//! dependencies): `--key value` pairs and bare positionals after a
//! subcommand.

use std::collections::BTreeMap;

/// Parsed command line: subcommand, flags, and positionals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// First non-flag token.
    pub command: Option<String>,
    /// `--key value` pairs (`--flag` with no value stores `""`).
    pub flags: BTreeMap<String, String>,
    /// Remaining bare tokens.
    pub positionals: Vec<String>,
}

/// Argument error with a user-facing message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse raw tokens (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Self, ArgError> {
        let mut out = Args::default();
        let mut it = tokens.into_iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                if key.is_empty() {
                    return Err(ArgError("empty flag name".into()));
                }
                // `--key=value` or `--key value` or bare `--key`.
                if let Some((k, v)) = key.split_once('=') {
                    if k.is_empty() {
                        return Err(ArgError("empty flag name".into()));
                    }
                    out.flags.insert(k.to_string(), v.to_string());
                } else {
                    let value = match it.peek() {
                        Some(next) if !next.starts_with("--") => it.next(),
                        _ => None,
                    };
                    out.flags.insert(key.to_string(), value.unwrap_or_default());
                }
            } else if out.command.is_none() {
                out.command = Some(tok);
            } else {
                out.positionals.push(tok);
            }
        }
        Ok(out)
    }

    /// Reject any flag outside `valued` and `bare`, a valued flag
    /// without a value, and a bare flag that swallowed one. `command`
    /// names the subcommand in the error.
    pub fn check(&self, command: &str, valued: &[&str], bare: &[&str]) -> Result<(), ArgError> {
        for (name, value) in &self.flags {
            if valued.contains(&name.as_str()) {
                if value.is_empty() {
                    return Err(ArgError(format!(
                        "--{name} needs a value for `dreamsim {command}`"
                    )));
                }
            } else if bare.contains(&name.as_str()) {
                if !value.is_empty() {
                    return Err(ArgError(format!(
                        "--{name} takes no value for `dreamsim {command}`, got {value:?}"
                    )));
                }
            } else {
                return Err(ArgError(format!(
                    "unknown flag --{name} for `dreamsim {command}`"
                )));
            }
        }
        Ok(())
    }

    /// String flag with default.
    #[must_use]
    pub fn get<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.flags.get(key).map_or(default, String::as_str)
    }

    /// Whether a flag is present at all.
    #[must_use]
    pub fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// Parsed numeric flag with default.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key}: invalid value {v:?}"))),
        }
    }

    /// Comma-separated numeric list flag with default.
    pub fn get_list(&self, key: &str, default: &[usize]) -> Result<Vec<usize>, ArgError> {
        match self.flags.get(key) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|x| {
                    x.trim()
                        .parse()
                        .map_err(|_| ArgError(format!("--{key}: invalid number {x:?}")))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn subcommand_flags_and_positionals() {
        let a = parse("run --nodes 200 --mode partial trace.txt");
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(a.get("nodes", "0"), "200");
        assert_eq!(a.get("mode", "full"), "partial");
        assert_eq!(a.positionals, vec!["trace.txt"]);
    }

    #[test]
    fn equals_form_and_bare_flags() {
        let a = parse("figures --fig=6a --verbose");
        assert_eq!(a.get("fig", ""), "6a");
        assert!(a.has("verbose"));
        assert_eq!(a.get("verbose", "x"), "");
    }

    #[test]
    fn numeric_parsing_and_defaults() {
        let a = parse("run --tasks 5000");
        assert_eq!(a.get_num("tasks", 0usize).unwrap(), 5000);
        assert_eq!(a.get_num("seed", 42u64).unwrap(), 42);
        assert!(parse("run --tasks abc").get_num("tasks", 0usize).is_err());
    }

    #[test]
    fn list_parsing() {
        let a = parse("sweep --nodes 100,200");
        assert_eq!(a.get_list("nodes", &[]).unwrap(), vec![100, 200]);
        assert_eq!(a.get_list("tasks", &[7]).unwrap(), vec![7]);
        assert!(parse("sweep --nodes 1,x").get_list("nodes", &[]).is_err());
    }

    #[test]
    fn empty_flag_names_rejected() {
        assert!(Args::parse(["--".to_string()]).is_err());
        assert!(Args::parse(["--=value".to_string()]).is_err());
    }

    #[test]
    fn check_accepts_known_flags_and_names_the_rest() {
        let ok = parse("run --nodes 10 --audit");
        assert!(ok.check("run", &["nodes"], &["audit"]).is_ok());
        let typo = parse("run --sead 5").check("run", &["seed"], &[]);
        assert_eq!(
            typo.unwrap_err().0,
            "unknown flag --sead for `dreamsim run`"
        );
        let missing = parse("run --seed --audit").check("run", &["seed"], &["audit"]);
        assert!(missing.unwrap_err().0.contains("--seed needs a value"));
        let swallowed = parse("run --audit 5").check("run", &[], &["audit"]);
        assert!(swallowed.unwrap_err().0.contains("--audit takes no value"));
    }

    #[test]
    fn flag_followed_by_flag_keeps_empty_value() {
        let a = parse("run --record --nodes 10");
        assert_eq!(a.get("record", "default"), "");
        assert_eq!(a.get("nodes", ""), "10");
    }
}
