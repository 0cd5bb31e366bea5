//! The lint driver: lexes a file, runs the rule matchers, applies
//! suppression pragmas, and aggregates findings into a report.
//!
//! ## Suppression pragmas
//!
//! A finding is suppressed by a comment of the form
//!
//! ```text
//! // lint: allow(r2) -- progress display only; never feeds simulation state
//! ```
//!
//! placed either trailing on the offending line or on its own comment
//! line directly above it. The `-- reason` is mandatory: a pragma
//! without one is itself reported (rule `p0`), so every suppression in
//! the tree carries its justification. Several rules can share one
//! pragma (`allow(r1, r4)`). A pragma that suppresses nothing is stale
//! and reported as `p1` so fixed code sheds its waivers.
//!
//! Pragmas inside test regions (`#[cfg(test)]`, `mod tests`) are inert:
//! the region is never scanned, so they can neither suppress anything
//! (no spurious suppression counts) nor go stale (no spurious `p1`),
//! and a malformed pragma there is not worth failing the build over.
//!
//! ## Multi-file analysis
//!
//! [`lint_sources`] is the primary entry point: it lexes and parses the
//! whole file set first, runs the workspace-global symbol analyses
//! (r8/r9 — see [`crate::symbols`]), then applies the per-file token
//! rules and pragmas. [`lint_source`] is the single-file convenience
//! wrapper; on one file the global analyses degrade gracefully
//! (unresolvable names prove nothing).

use crate::lexer::{lex, Comment, Lexed};
use crate::parser::{parse_items, FileItems};
use crate::regions::LineMap;
use crate::rules::{in_test_tree, rule_info, scan, RawFinding};
use serde::Serialize;
use std::collections::BTreeMap;

/// One unsuppressed rule violation.
#[derive(Clone, Debug, Serialize)]
pub struct Finding {
    /// Workspace-relative path (or the label the caller scanned under).
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule id (`r1` … `r6`, `p0`, `p1`).
    pub rule: String,
    /// Hazard description and suggested fix.
    pub message: String,
    /// Trimmed source line the finding points at.
    pub excerpt: String,
}

/// One finding that a pragma waived, with the pragma's reason.
#[derive(Clone, Debug, Serialize)]
pub struct Suppression {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the suppressed finding.
    pub line: u32,
    /// Rule id that was waived.
    pub rule: String,
    /// The mandatory justification from the pragma.
    pub reason: String,
}

/// Aggregated result of linting one or many files.
#[derive(Debug, Default, Serialize)]
pub struct LintReport {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Waived findings with their reasons, sorted the same way.
    pub suppressions: Vec<Suppression>,
}

impl LintReport {
    /// Whether the tree is clean (no unsuppressed findings).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// `(rule, count)` pairs over the findings, sorted by rule id.
    #[must_use]
    pub fn counts_by_rule(&self) -> Vec<(String, usize)> {
        let mut counts: std::collections::BTreeMap<String, usize> =
            std::collections::BTreeMap::new();
        for f in &self.findings {
            *counts.entry(f.rule.clone()).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Merge another file's outcome into this aggregate.
    pub fn absorb(&mut self, mut other: LintReport) {
        self.files_scanned += other.files_scanned;
        self.findings.append(&mut other.findings);
        self.suppressions.append(&mut other.suppressions);
    }

    /// Canonical ordering for deterministic output.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
        self.suppressions
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    }
}

/// A parsed suppression pragma.
#[derive(Debug)]
struct Pragma {
    /// Line the pragma's comment ends on (it governs the first code line
    /// at or below this).
    comment_line: u32,
    /// Lowercased rule ids it waives.
    rules: Vec<String>,
    /// Mandatory justification.
    reason: String,
}

/// Outcome of pragma parsing: valid pragmas plus `p0` malformed hits.
struct Pragmas {
    valid: Vec<Pragma>,
    malformed: Vec<(u32, String)>,
}

/// Strip one leading comment marker (`//`, `///`, `//!`, `/*`, or a
/// continuation `*`) so pragma detection anchors at the start of the
/// comment body. Only one marker is stripped: a pragma quoted inside a
/// doc comment (`//! // lint: …`) stays documentation, not a pragma.
fn comment_body(text: &str) -> &str {
    let t = text.trim_start();
    let t = if let Some(rest) = t.strip_prefix("//") {
        rest.strip_prefix(['/', '!']).unwrap_or(rest)
    } else if let Some(rest) = t.strip_prefix("/*") {
        rest
    } else if let Some(rest) = t.strip_prefix('*') {
        rest
    } else {
        t
    };
    t.trim_start()
}

fn parse_pragmas(comments: &[Comment]) -> Pragmas {
    let mut out = Pragmas {
        valid: Vec::new(),
        malformed: Vec::new(),
    };
    for c in comments {
        let body = comment_body(&c.text);
        let Some(rest) = body.strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            out.malformed.push((
                c.line_start,
                "pragma must use the form `lint: allow(<rules>) -- <reason>`".into(),
            ));
            continue;
        };
        let Some((inside, after)) = rest.split_once(')') else {
            out.malformed
                .push((c.line_start, "unterminated `allow(` in pragma".into()));
            continue;
        };
        let rules: Vec<String> = inside
            .split(',')
            .map(|r| r.trim().to_ascii_lowercase())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            out.malformed
                .push((c.line_start, "pragma allows no rules".into()));
            continue;
        }
        if let Some(bad) = rules.iter().find(|r| rule_info(r).is_none()) {
            out.malformed
                .push((c.line_start, format!("unknown rule id `{bad}` in pragma")));
            continue;
        }
        let after = after.trim_start();
        let reason = after.strip_prefix("--").map(str::trim).unwrap_or("");
        if reason.is_empty() {
            out.malformed.push((
                c.line_start,
                "pragma is missing the mandatory `-- <reason>` justification".into(),
            ));
            continue;
        }
        out.valid.push(Pragma {
            comment_line: c.line_end,
            rules,
            reason: reason.to_string(),
        });
    }
    out
}

/// Lint one source file under the given workspace-relative `label`
/// (the label picks the rule scope — see
/// [`rule_applies`](crate::rules::rule_applies)).
#[must_use]
pub fn lint_source(label: &str, src: &str) -> LintReport {
    lint_sources(&[(label.to_string(), src.to_string())])
}

/// Lint a set of source files together. The workspace-global analyses
/// (checkpoint coverage, taint) see the whole set, so cross-file
/// hazards — a helper in one crate laundering wall-clock reads into
/// another — are caught here and only here.
#[must_use]
pub fn lint_sources(files: &[(String, String)]) -> LintReport {
    // Pass 1: lex, build regions, and parse items per file. Files in
    // tests/examples trees contribute no items: their types and fns
    // are outside the guarantees and must not perturb the proofs.
    let ctxs: Vec<(Lexed, LineMap, FileItems)> = files
        .iter()
        .map(|(label, src)| {
            let lexed = lex(src);
            let map = LineMap::build(&lexed);
            let items = if in_test_tree(label) {
                FileItems::default()
            } else {
                parse_items(&lexed, &map)
            };
            (lexed, map, items)
        })
        .collect();

    // Pass 2: global symbol analyses over the full item set.
    let view: Vec<(&str, &FileItems)> = files
        .iter()
        .zip(&ctxs)
        .map(|((label, _), (_, _, items))| (label.as_str(), items))
        .collect();
    let mut global: BTreeMap<usize, Vec<RawFinding>> = BTreeMap::new();
    for (file_idx, finding) in crate::symbols::global_scan(&view) {
        global.entry(file_idx).or_default().push(finding);
    }

    // Pass 3: per-file token rules + pragma resolution.
    let mut report = LintReport::default();
    for (i, (label, src)) in files.iter().enumerate() {
        let (lexed, map, _) = &ctxs[i];
        let mut raw = scan(lexed, map, label);
        if let Some(extra) = global.remove(&i) {
            raw.extend(extra);
        }
        raw.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
        raw.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
        report.absorb(apply_pragmas(label, src, lexed, map, raw));
    }
    report.sort();
    report
}

/// Resolve suppression pragmas against one file's raw findings and
/// assemble its report.
fn apply_pragmas(
    label: &str,
    src: &str,
    lexed: &Lexed,
    map: &LineMap,
    raw: Vec<RawFinding>,
) -> LintReport {
    let mut pragmas = parse_pragmas(&lexed.comments);
    // Pragmas in test regions are inert: the region is never scanned,
    // so counting them (as suppressions, p0, or p1) would misstate the
    // audit totals for code the guarantees actually cover.
    pragmas.valid.retain(|p| !map.is_test(p.comment_line));
    pragmas.malformed.retain(|(line, _)| !map.is_test(*line));
    let lines: Vec<&str> = src.lines().collect();
    let excerpt = |line: u32| -> String {
        let text = lines
            .get((line as usize).saturating_sub(1))
            .copied()
            .unwrap_or("")
            .trim();
        let mut e: String = text.chars().take(120).collect();
        if text.chars().count() > 120 {
            e.push('…');
        }
        e
    };

    // Resolve each pragma to the code line it governs.
    let mut governed: Vec<(u32, &Pragma, bool)> = pragmas
        .valid
        .iter()
        .map(|p| {
            let target = if map.has_code(p.comment_line) {
                p.comment_line
            } else {
                map.next_code_line(p.comment_line + 1).unwrap_or(0)
            };
            (target, p, false)
        })
        .collect();

    let mut report = LintReport {
        files_scanned: 1,
        ..LintReport::default()
    };

    for f in raw {
        let hit = governed
            .iter_mut()
            .find(|(target, p, _)| *target == f.line && p.rules.iter().any(|r| r == f.rule));
        if let Some((_, p, used)) = hit {
            *used = true;
            report.suppressions.push(Suppression {
                file: label.to_string(),
                line: f.line,
                rule: f.rule.to_string(),
                reason: p.reason.clone(),
            });
        } else {
            report.findings.push(Finding {
                file: label.to_string(),
                line: f.line,
                rule: f.rule.to_string(),
                message: f.message,
                excerpt: excerpt(f.line),
            });
        }
    }

    for (line, message) in pragmas.malformed {
        report.findings.push(Finding {
            file: label.to_string(),
            line,
            rule: "p0".into(),
            message,
            excerpt: excerpt(line),
        });
    }
    for (_, p, used) in governed {
        if !used {
            report.findings.push(Finding {
                file: label.to_string(),
                line: p.comment_line,
                rule: "p1".into(),
                message: format!(
                    "stale pragma: allow({}) suppressed nothing — delete it",
                    p.rules.join(", ")
                ),
                excerpt: excerpt(p.comment_line),
            });
        }
    }
    report.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const LABEL: &str = "crates/model/src/example.rs";

    #[test]
    fn trailing_pragma_suppresses_and_is_counted() {
        let src = "use std::collections::HashMap; // lint: allow(r1) -- membership only, never iterated\n";
        let r = lint_source(LABEL, src);
        assert!(r.is_clean(), "findings: {:?}", r.findings);
        assert_eq!(r.suppressions.len(), 1);
        assert_eq!(r.suppressions[0].rule, "r1");
        assert!(r.suppressions[0].reason.contains("membership"));
    }

    #[test]
    fn pragma_on_line_above_governs_next_code_line() {
        let src = "// lint: allow(r1) -- scratch map local to one call\nlet m = HashMap::new();\n";
        let r = lint_source(LABEL, src);
        assert!(r.is_clean(), "findings: {:?}", r.findings);
        assert_eq!(r.suppressions.len(), 1);
    }

    #[test]
    fn pragma_without_reason_is_malformed_and_does_not_suppress() {
        let src = "let m = HashMap::new(); // lint: allow(r1)\n";
        let r = lint_source(LABEL, src);
        let rules: Vec<&str> = r.findings.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"r1"), "r1 must survive: {rules:?}");
        assert!(rules.contains(&"p0"), "missing p0: {rules:?}");
    }

    #[test]
    fn unknown_rule_id_is_malformed() {
        let src = "fn f() {} // lint: allow(r99) -- no such rule\n";
        let r = lint_source(LABEL, src);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "p0");
    }

    #[test]
    fn stale_pragma_is_reported() {
        let src = "// lint: allow(r5) -- nothing sorts here any more\nlet x = 1;\n";
        let r = lint_source(LABEL, src);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "p1");
    }

    #[test]
    fn quoted_pragma_inside_doc_comment_is_ignored() {
        let src = "//! // lint: allow(r1) -- an example, not a waiver\nfn f() {}\n";
        let r = lint_source(LABEL, src);
        assert!(r.is_clean(), "findings: {:?}", r.findings);
        assert!(r.suppressions.is_empty());
    }

    #[test]
    fn multi_rule_pragma_covers_both() {
        let src = "// lint: allow(r1, r2) -- mirrors an external API in one adapter line\n\
                   let t = Instant::now(); let m: HashMap<u32, u32> = HashMap::default();\n";
        let r = lint_source("crates/engine/src/adapter.rs", src);
        assert!(r.is_clean(), "findings: {:?}", r.findings);
        assert_eq!(r.suppressions.len(), 2);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn t() { let _ = x.unwrap(); }\n}\n";
        let r = lint_source(LABEL, src);
        assert!(r.is_clean(), "findings: {:?}", r.findings);
    }

    #[test]
    fn justified_expect_passes_unjustified_fails() {
        let src = "fn f() {\n    // INVARIANT: head checked non-empty above.\n    let a = q.pop().expect(\"non-empty\");\n    let b = q.pop().expect(\"non-empty\");\n}\n";
        let r = lint_source(LABEL, src);
        assert_eq!(r.findings.len(), 1, "findings: {:?}", r.findings);
        assert_eq!(r.findings[0].line, 4);
        assert_eq!(r.findings[0].rule, "r4");
    }

    #[test]
    fn test_region_pragmas_are_inert_and_uncounted() {
        // One live-path pragma (counted) plus two pragmas inside
        // #[cfg(test)]: a valid-looking one that would previously be
        // reported stale (p1) and a malformed one that would
        // previously fail the build (p0). Both must be inert, and the
        // suppression total must count only the live-path waiver.
        let src = "\
use std::collections::HashMap; // lint: allow(r1) -- membership only, never iterated
#[cfg(test)]
mod tests {
    // lint: allow(r1) -- inert: the region is never scanned
    use std::collections::HashMap;
    // lint: allow(r99)
    fn t() {}
}
";
        let r = lint_source(LABEL, src);
        assert!(r.is_clean(), "findings: {:?}", r.findings);
        assert_eq!(
            r.suppressions.len(),
            1,
            "suppressions: {:?}",
            r.suppressions
        );
        assert_eq!(r.suppressions[0].line, 1);
    }

    #[test]
    fn lint_sources_catches_cross_file_taint() {
        let files = vec![
            (
                "crates/sched/src/helper.rs".to_string(),
                "pub fn wall_probe() -> u64 {\n    std::time::SystemTime::now().elapsed().unwrap_or_default().as_secs()\n}\n".to_string(),
            ),
            (
                "crates/engine/src/x.rs".to_string(),
                "pub fn step(c: u64) -> u64 { c.max(wall_probe()) }\n".to_string(),
            ),
        ];
        let r = lint_sources(&files);
        // helper.rs: direct r2 on the SystemTime line; x.rs: r9 at the
        // call site, naming the root.
        assert!(
            r.findings
                .iter()
                .any(|f| f.rule == "r9" && f.file == "crates/engine/src/x.rs"),
            "findings: {:?}",
            r.findings
        );
        assert!(
            r.findings
                .iter()
                .any(|f| f.rule == "r2" && f.file == "crates/sched/src/helper.rs"),
            "findings: {:?}",
            r.findings
        );
        assert_eq!(r.files_scanned, 2);
    }

    #[test]
    fn waived_source_stops_taint_at_the_root() {
        let files = vec![
            (
                "crates/sched/src/helper.rs".to_string(),
                "pub fn wall_probe() -> u64 {\n    // lint: allow(r2) -- progress display only, never reaches state\n    std::time::SystemTime::now().elapsed().unwrap_or_default().as_secs()\n}\n".to_string(),
            ),
            (
                "crates/engine/src/x.rs".to_string(),
                "pub fn step(c: u64) -> u64 { c.max(wall_probe()) }\n".to_string(),
            ),
        ];
        // The audited r2 waiver on the source stops the taint at its
        // root: callers need no pragma of their own.
        let r = lint_sources(&files);
        assert!(r.is_clean(), "findings: {:?}", r.findings);
    }

    #[test]
    fn r9_call_site_is_suppressible_by_pragma() {
        let files = vec![
            (
                "crates/sched/src/helper.rs".to_string(),
                "pub fn wall_probe() -> u64 {\n    std::time::SystemTime::now().elapsed().unwrap_or_default().as_secs()\n}\n".to_string(),
            ),
            (
                "crates/engine/src/x.rs".to_string(),
                "// lint: allow(r9) -- logged for operators, never enters the event loop\npub fn step(c: u64) -> u64 { c.max(wall_probe()) }\n".to_string(),
            ),
        ];
        let r = lint_sources(&files);
        assert!(
            r.suppressions.iter().any(|s| s.rule == "r9"),
            "suppressions: {:?}",
            r.suppressions
        );
        // The unwaived source itself still carries its direct r2 (and
        // the helper's own unwrap chain is clean), so only that remains.
        assert!(
            r.findings.iter().all(|f| f.rule == "r2"),
            "findings: {:?}",
            r.findings
        );
    }

    #[test]
    fn scope_r1_only_in_scheduler_crates() {
        let src = "use std::collections::HashMap;\n";
        assert!(!lint_source("crates/model/src/x.rs", src).is_clean());
        assert!(lint_source("crates/rng/src/x.rs", src).is_clean());
        assert!(lint_source("crates/cli/src/x.rs", src).is_clean());
    }

    #[test]
    fn scope_r2_waived_for_cli_only() {
        let src = "use std::time::Instant;\n";
        assert!(!lint_source("crates/engine/src/x.rs", src).is_clean());
        assert!(!lint_source("crates/sweep/src/bench.rs", src).is_clean());
        assert!(lint_source("crates/cli/src/main.rs", src).is_clean());
    }
}
