//! `detlint.toml`: vetted, *reasoned* exceptions to the rules, plus the
//! interprocedural pass's inputs — `[[hotpath]]` roots (functions that
//! must be proven panic-free / alloc-free / deterministic, D006–D008)
//! and `[[assume]]` entries (functions treated as effect-free with a
//! written justification, cutting the call graph).
//!
//! The parser covers exactly the subset of TOML the file needs —
//! comments, array-of-table headers, and `key = "string"` /
//! `key = integer` pairs — because the workspace is offline and detlint
//! takes no dependencies. Anything outside that subset is a hard error:
//! a config file that silently half-parses would waive the wrong things.

/// One vetted exception from `detlint.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule id the exception applies to (e.g. `"D002"`).
    pub rule: String,
    /// Workspace-relative file path, or a directory prefix ending in `/`.
    pub path: String,
    /// Restricts the exception to one line when set.
    pub line: Option<u32>,
    /// Mandatory written justification.
    pub reason: String,
    /// 1-based line of the entry header in the config file (for
    /// unused-entry reporting).
    pub config_line: u32,
}

impl AllowEntry {
    /// Whether this entry covers a diagnostic at `(rule, path, line)`.
    pub fn covers(&self, rule: &str, path: &str, line: u32) -> bool {
        if self.rule != rule {
            return false;
        }
        let path_ok = if let Some(prefix) = self.path.strip_suffix('/') {
            path.starts_with(prefix) && path[prefix.len()..].starts_with('/')
        } else {
            self.path == path
        };
        path_ok && self.line.is_none_or(|l| l == line)
    }
}

/// A declared hot-path root: interprocedural rules to prove for every
/// function reachable from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotpathEntry {
    /// Qualified function name, e.g. `streamd::serve::score_batch`
    /// (suffix-matched against workspace qnames).
    pub root: String,
    /// Armed rules, a subset of `D006`/`D007`/`D008`.
    pub rules: Vec<String>,
    /// 1-based line of the entry header in the config file.
    pub config_line: u32,
}

/// A function assumed effect-free for the interprocedural pass; the
/// call graph is cut at it and the reason is the audit trail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssumeEntry {
    /// Qualified function name (suffix-matched).
    pub func: String,
    /// Mandatory written justification.
    pub reason: String,
    /// 1-based line of the entry header in the config file.
    pub config_line: u32,
}

/// Parsed configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Config {
    /// All `[[allow]]` entries, in file order.
    pub allows: Vec<AllowEntry>,
    /// All `[[hotpath]]` roots, in file order.
    pub hotpaths: Vec<HotpathEntry>,
    /// All `[[assume]]` entries, in file order.
    pub assumes: Vec<AssumeEntry>,
}

/// A config-file syntax or validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line in the config file.
    pub line: u32,
    /// What is wrong with it.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "detlint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

#[derive(Default)]
struct Builder {
    rule: Option<String>,
    path: Option<String>,
    line: Option<u32>,
    reason: Option<String>,
    root: Option<String>,
    rules: Option<String>,
    func: Option<String>,
    config_line: u32,
}

/// Which array-of-tables section a builder belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Section {
    Allow,
    Hotpath,
    Assume,
}

impl Builder {
    fn err(&self, msg: &str) -> ConfigError {
        ConfigError {
            line: self.config_line,
            message: msg.to_string(),
        }
    }

    fn finish_allow(mut self) -> Result<AllowEntry, ConfigError> {
        let rule = self
            .rule
            .take()
            .ok_or_else(|| self.err("allow entry missing `rule`"))?;
        if !is_known_rule(&rule) {
            return Err(self.err(&format!("unknown rule id `{rule}`")));
        }
        let path = self
            .path
            .take()
            .ok_or_else(|| self.err("allow entry missing `path`"))?;
        let reason = self.reason.take().ok_or_else(|| {
            self.err(
                "allow entry missing `reason` — every waiver must carry a written justification",
            )
        })?;
        if reason.trim().is_empty() {
            return Err(self.err("allow entry has an empty `reason`"));
        }
        Ok(AllowEntry {
            rule,
            path,
            line: self.line,
            reason,
            config_line: self.config_line,
        })
    }

    fn finish_hotpath(mut self) -> Result<HotpathEntry, ConfigError> {
        let root = self
            .root
            .take()
            .ok_or_else(|| self.err("hotpath entry missing `root`"))?;
        let rules_raw = self
            .rules
            .take()
            .ok_or_else(|| self.err("hotpath entry missing `rules` (e.g. \"D006,D007\")"))?;
        let rules: Vec<String> = rules_raw
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            return Err(self.err("hotpath entry has an empty `rules` list"));
        }
        for r in &rules {
            if !matches!(r.as_str(), "D006" | "D007" | "D008") {
                return Err(self.err(&format!(
                    "hotpath rule `{r}` is not interprocedural (use D006/D007/D008)"
                )));
            }
        }
        Ok(HotpathEntry {
            root,
            rules,
            config_line: self.config_line,
        })
    }

    fn finish_assume(mut self) -> Result<AssumeEntry, ConfigError> {
        let func = self
            .func
            .take()
            .ok_or_else(|| self.err("assume entry missing `fn`"))?;
        let reason = self.reason.take().ok_or_else(|| {
            self.err("assume entry missing `reason` — assumptions must carry a justification")
        })?;
        if reason.trim().is_empty() {
            return Err(self.err("assume entry has an empty `reason`"));
        }
        Ok(AssumeEntry {
            func,
            reason,
            config_line: self.config_line,
        })
    }
}

fn is_known_rule(rule: &str) -> bool {
    matches!(
        rule,
        "D001" | "D002" | "D003" | "D004" | "D005" | "D006" | "D007" | "D008"
    )
}

/// Parses the `detlint.toml` text.
pub fn parse(text: &str) -> Result<Config, ConfigError> {
    let mut cfg = Config::default();
    let mut current: Option<(Section, Builder)> = None;

    let flush =
        |cur: &mut Option<(Section, Builder)>, cfg: &mut Config| -> Result<(), ConfigError> {
            if let Some((section, b)) = cur.take() {
                match section {
                    Section::Allow => cfg.allows.push(b.finish_allow()?),
                    Section::Hotpath => cfg.hotpaths.push(b.finish_hotpath()?),
                    Section::Assume => cfg.assumes.push(b.finish_assume()?),
                }
            }
            Ok(())
        };

    for (idx, raw) in text.lines().enumerate() {
        let lineno = (idx + 1) as u32;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let section = match line {
            "[[allow]]" => Some(Section::Allow),
            "[[hotpath]]" => Some(Section::Hotpath),
            "[[assume]]" => Some(Section::Assume),
            _ => None,
        };
        if let Some(section) = section {
            flush(&mut current, &mut cfg)?;
            current = Some((
                section,
                Builder {
                    config_line: lineno,
                    ..Builder::default()
                },
            ));
            continue;
        }
        if line.starts_with('[') {
            return Err(ConfigError {
                line: lineno,
                message: format!(
                    "unsupported table header `{line}` (only `[[allow]]`, `[[hotpath]]`, \
                     `[[assume]]`)"
                ),
            });
        }
        let Some((section, builder)) = current.as_mut() else {
            return Err(ConfigError {
                line: lineno,
                message: "key outside an entry".to_string(),
            });
        };
        let (key, value) = split_kv(line, lineno)?;
        match (*section, key) {
            (Section::Allow, "rule") => builder.rule = Some(parse_string(value, lineno)?),
            (Section::Allow, "path") => builder.path = Some(parse_string(value, lineno)?),
            (Section::Allow, "reason") | (Section::Assume, "reason") => {
                builder.reason = Some(parse_string(value, lineno)?);
            }
            (Section::Allow, "line") => {
                builder.line = Some(value.trim().parse::<u32>().map_err(|_| ConfigError {
                    line: lineno,
                    message: format!("`line` must be an integer, got `{value}`"),
                })?);
            }
            (Section::Hotpath, "root") => builder.root = Some(parse_string(value, lineno)?),
            (Section::Hotpath, "rules") => builder.rules = Some(parse_string(value, lineno)?),
            (Section::Assume, "fn") => builder.func = Some(parse_string(value, lineno)?),
            (_, other) => {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("unknown key `{other}` in this entry"),
                });
            }
        }
    }
    flush(&mut current, &mut cfg)?;
    Ok(cfg)
}

/// Strips a `#` comment, respecting `"…"` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn split_kv(line: &str, lineno: u32) -> Result<(&str, &str), ConfigError> {
    let Some(eq) = line.find('=') else {
        return Err(ConfigError {
            line: lineno,
            message: format!("expected `key = value`, got `{line}`"),
        });
    };
    Ok((line[..eq].trim(), line[eq + 1..].trim()))
}

fn parse_string(value: &str, lineno: u32) -> Result<String, ConfigError> {
    let v = value.trim();
    let inner = v
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| ConfigError {
            line: lineno,
            message: format!("expected a double-quoted string, got `{v}`"),
        })?;
    // The allowlist never needs escapes beyond `\"` and `\\`.
    Ok(inner.replace("\\\"", "\"").replace("\\\\", "\\"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries() {
        let cfg = parse(
            "# vetted exceptions\n\
             [[allow]]\n\
             rule = \"D002\"\n\
             path = \"crates/core/src/twostage.rs\"\n\
             line = 206\n\
             reason = \"train-time metadata only\"\n\
             \n\
             [[allow]]\n\
             rule = \"D001\"\n\
             path = \"crates/mlkit/src/\"  # prefix\n\
             reason = \"keys sorted on output\"\n",
        )
        .expect("parses");
        assert_eq!(cfg.allows.len(), 2);
        assert_eq!(cfg.allows[0].line, Some(206));
        assert!(cfg.allows[0].covers("D002", "crates/core/src/twostage.rs", 206));
        assert!(!cfg.allows[0].covers("D002", "crates/core/src/twostage.rs", 207));
        assert!(cfg.allows[1].covers("D001", "crates/mlkit/src/gbdt.rs", 1));
        assert!(!cfg.allows[1].covers("D001", "crates/mlkit/src2/gbdt.rs", 1));
    }

    #[test]
    fn reason_is_mandatory() {
        let err = parse("[[allow]]\nrule = \"D001\"\npath = \"x.rs\"\n").unwrap_err();
        assert!(err.message.contains("reason"));
    }

    #[test]
    fn unknown_rule_rejected() {
        let err =
            parse("[[allow]]\nrule = \"D099\"\npath = \"x.rs\"\nreason = \"r\"\n").unwrap_err();
        assert!(err.message.contains("unknown rule"));
    }

    #[test]
    fn unknown_key_rejected() {
        let err = parse("[[allow]]\nrulez = \"D001\"\n").unwrap_err();
        assert!(err.message.contains("unknown key"));
    }

    #[test]
    fn hotpath_and_assume_entries_parse() {
        let cfg = parse(
            "[[hotpath]]\n\
             root = \"mlkit::fastpath::CompiledGbdt::predict_proba_into\"\n\
             rules = \"D006, D007\"\n\
             \n\
             [[assume]]\n\
             fn = \"streamd::serve::score_batch_interpreted\"\n\
             reason = \"fallback arm, bounded by config\"\n",
        )
        .expect("parses");
        assert_eq!(cfg.hotpaths.len(), 1);
        assert_eq!(cfg.hotpaths[0].rules, vec!["D006", "D007"]);
        assert_eq!(cfg.assumes.len(), 1);
        assert_eq!(
            cfg.assumes[0].func,
            "streamd::serve::score_batch_interpreted"
        );
    }

    #[test]
    fn hotpath_rejects_per_file_rules() {
        let err = parse("[[hotpath]]\nroot = \"x::f\"\nrules = \"D004\"\n").unwrap_err();
        assert!(err.message.contains("not interprocedural"));
    }

    #[test]
    fn assume_requires_reason() {
        let err = parse("[[assume]]\nfn = \"x::f\"\n").unwrap_err();
        assert!(err.message.contains("reason"));
    }

    #[test]
    fn interprocedural_rules_are_known_to_allow_entries() {
        let cfg = parse(
            "[[allow]]\nrule = \"D007\"\npath = \"crates/core/src/features.rs\"\n\
             reason = \"rows pushed into caller-presized buffers\"\n",
        )
        .expect("D006-D008 must be waivable");
        assert_eq!(cfg.allows[0].rule, "D007");
    }

    #[test]
    fn prefix_requires_separator() {
        let cfg = parse("[[allow]]\nrule = \"D004\"\npath = \"crates/core/\"\nreason = \"r\"\n")
            .expect("parses");
        assert!(cfg.allows[0].covers("D004", "crates/core/src/lib.rs", 9));
        assert!(!cfg.allows[0].covers("D004", "crates/core2/src/lib.rs", 9));
    }
}
