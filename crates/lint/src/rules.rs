//! The determinism rule catalogue and the token-stream matchers.
//!
//! Every rule guards one hazard class that can silently break the
//! simulator's bit-identical guarantees (checkpoint resume, the
//! engine's agreement with the executable paper spec, seeded figure
//! sweeps):
//!
//! | id | hazard |
//! |----|--------|
//! | r1 | `HashMap`/`HashSet` in scheduler-visible crates — iteration order varies per process |
//! | r2 | wall clock / ambient entropy (`Instant`, `SystemTime`, `std::time`, `std::env`, `thread_rng`) |
//! | r3 | float `==`/`!=` and `partial_cmp().unwrap()` where `total_cmp` is required |
//! | r4 | `.unwrap()`/`.expect()` without an adjacent `// INVARIANT:` justification |
//! | r5 | `sort_unstable*` without a `// TIEBREAK:` note documenting why ties cannot reorder |
//! | r6 | `#[serde(skip)]` fields without a `// REBUILD:` rebuild-on-resume story |
//! | r7 | unannotated narrowing `as` casts and unchecked `+`/`*` on tick/area counters |
//! | r8 | checkpoint-reachable state that the snapshot provably does not cover |
//! | r9 | calls that transitively reach ambient entropy through helper fns |
//! | r10 | `static mut` / interior mutability in shard-visible state without `// SHARD-SAFE:` |
//! | r11 | `unsafe` or raw pointers in shard-visible state without `// SHARD-SAFE:` |
//! | p0 | malformed suppression pragma (unparseable, unknown rule id, or missing reason) |
//! | p1 | unused suppression pragma (suppresses nothing — stale after a fix) |
//!
//! r8 and r9 are the symbol-aware analyses (see [`crate::symbols`]);
//! this module holds their catalogue entries and scoping, while the
//! matchers live in the global pass because they need the whole file
//! set at once.
//!
//! Rules are scoped by path: r1 and r9 only fire in the crates whose
//! state feeds the event loop (`model`, `engine`, `sched`, `sweep`);
//! r2 is waived for the `cli` crate, the process front end, which reads
//! its own argv by design; r7 covers only the `model` and `engine` hot
//! paths, where a wrapped tick or truncated area silently corrupts the
//! simulation instead of crashing it. An r7 site is justified with a
//! `// BOUND:` comment naming the bound that rules overflow/truncation
//! out. r10/r11 cover `model`, `engine`, and `sched` — the state a
//! sharded PDES engine would execute concurrently (ROADMAP item 2);
//! `sweep` is excluded because its worker pool uses `Mutex` by design,
//! *outside* the per-shard state. A shard-safety site is justified
//! with a `// SHARD-SAFE:` comment naming why concurrent shards cannot
//! observe it.
//! Test code (`#[cfg(test)]`, `mod tests`) is never scanned, and files
//! under `tests/` or `examples/` trees are scanned for r2 only (see
//! [`in_test_tree`]) — the guarantees cover shipping simulator paths,
//! but a wall-clock read in a test still masks real divergence.

use crate::lexer::{Lexed, Tok, TokKind};
use crate::regions::LineMap;

/// Static description of one rule, for `--list-rules` and docs.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable id used in findings and suppression pragmas.
    pub id: &'static str,
    /// Short human name.
    pub name: &'static str,
    /// One-line description of the hazard.
    pub summary: &'static str,
}

/// The full rule catalogue (including the pragma meta-rules).
pub const RULES: [RuleInfo; 13] = [
    RuleInfo {
        id: "r1",
        name: "nondet-iteration",
        summary: "HashMap/HashSet in scheduler-visible code: iteration order varies per process; \
                  use BTreeMap/BTreeSet or an order-preserving index",
    },
    RuleInfo {
        id: "r2",
        name: "ambient-entropy",
        summary: "wall clock or ambient entropy (Instant, SystemTime, std::time, std::env, \
                  thread_rng) outside cli: simulated time and the seeded Rng are the only \
                  admissible sources",
    },
    RuleInfo {
        id: "r3",
        name: "float-hazard",
        summary: "float ==/!= or partial_cmp().unwrap(): use integer ticks, an epsilon, or \
                  f64::total_cmp",
    },
    RuleInfo {
        id: "r4",
        name: "unjustified-panic",
        summary: ".unwrap()/.expect() without an adjacent // INVARIANT: comment naming the \
                  invariant that rules the panic out",
    },
    RuleInfo {
        id: "r5",
        name: "unstable-sort",
        summary: "sort_unstable* without a // TIEBREAK: note documenting why equal keys cannot \
                  reorder observably",
    },
    RuleInfo {
        id: "r6",
        name: "skipped-field",
        summary: "#[serde(skip)] field without a // REBUILD: note telling the checkpoint-resume \
                  story (rebuilt, re-captured, or safely empty)",
    },
    RuleInfo {
        id: "r7",
        name: "unchecked-counter-arith",
        summary: "narrowing `as` cast or unchecked +/* on a tick/area counter in model/engine \
                  without a // BOUND: note: overflow wraps and truncation drops bits silently \
                  in release; use saturating/checked/try_from or document the bound",
    },
    RuleInfo {
        id: "r8",
        name: "checkpoint-coverage",
        summary: "state reachable from the checkpoint that the snapshot provably does not \
                  cover: a reachable type without Serialize capability, or a live Simulation \
                  field with no // REBUILD: note",
    },
    RuleInfo {
        id: "r9",
        name: "transitive-entropy",
        summary: "call that transitively reaches ambient entropy (wall clock, env, thread_rng) \
                  through helper fns: the file-local r2 cannot see laundering through a callee; \
                  thread simulated time or the seeded Rng through instead",
    },
    RuleInfo {
        id: "r10",
        name: "shard-mutability",
        summary: "static mut or interior mutability (Cell, RefCell, Mutex, RwLock, atomics, \
                  lazy statics) in model/engine/sched without a // SHARD-SAFE: note: shared \
                  mutable state breaks the planned sharded PDES engine's isolation",
    },
    RuleInfo {
        id: "r11",
        name: "shard-unsafety",
        summary: "unsafe block or raw pointer in model/engine/sched without a // SHARD-SAFE: \
                  note: the parallel engine relies on the borrow checker proving shard \
                  disjointness, which unsafe code silently opts out of",
    },
    RuleInfo {
        id: "p0",
        name: "malformed-pragma",
        summary: "suppression pragma that cannot be honoured: unparseable, unknown rule id, or \
                  missing the mandatory `-- reason`",
    },
    RuleInfo {
        id: "p1",
        name: "unused-pragma",
        summary: "suppression pragma that suppressed nothing: stale after a fix, delete it",
    },
];

/// Look up a rule by id.
#[must_use]
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Crates whose state feeds the deterministic event loop (r1 scope).
const R1_CRATES: [&str; 4] = ["model", "engine", "sched", "sweep"];

/// Crates whose hot paths carry the tick/area counters (r7 scope).
const R7_CRATES: [&str; 2] = ["model", "engine"];

/// Crates holding the state a sharded PDES engine would execute
/// concurrently (r10/r11 scope). `sweep` is deliberately absent: its
/// worker pool shares a `Mutex` *between* grid points by design.
const R10_CRATES: [&str; 3] = ["model", "engine", "sched"];

/// Interior-mutability type names (r10). `Atomic*` is matched by
/// prefix separately.
const R10_CELLS: [&str; 8] = [
    "Cell",
    "RefCell",
    "Mutex",
    "RwLock",
    "UnsafeCell",
    "OnceCell",
    "OnceLock",
    "LazyLock",
];

/// Cast targets r7 treats as narrowing from the simulator's `u64`
/// ticks / `u32` areas (`usize`/`isize` are platform-width, so a cast
/// into them truncates on 32-bit targets).
const R7_NARROWING: [&str; 9] = [
    "u8", "u16", "u32", "i8", "i16", "i32", "f32", "usize", "isize",
];

/// Identifier fragments that mark a tick/area counter for r7.
const R7_COUNTER_WORDS: [&str; 6] = ["tick", "clock", "area", "downtime", "elapsed", "makespan"];

/// Whether `path` is in a `tests/` or `examples/` tree. Those trees
/// are scanned for r2 only: test code may allocate hash maps and
/// unwrap freely, but a wall-clock or env read in a test masks exactly
/// the divergence the differential suites exist to catch.
#[must_use]
pub fn in_test_tree(path: &str) -> bool {
    path.split('/').any(|s| s == "tests" || s == "examples")
}

/// Whether `rule` applies to the file at `path` (paths use `/`
/// separators; fixture tests pass synthetic labels to pick a scope).
#[must_use]
pub fn rule_applies(rule: &str, path: &str) -> bool {
    if in_test_tree(path) && rule != "r2" {
        return false;
    }
    let segments: Vec<&str> = path.split('/').collect();
    match rule {
        // r9 shares r1's crate scope: the crates whose state feeds the
        // event loop.
        "r1" | "r9" => match segments.iter().position(|s| *s == "crates") {
            Some(i) => segments.get(i + 1).is_some_and(|c| R1_CRATES.contains(c)),
            // Paths outside a crates/ tree (ad-hoc file scans) get the
            // full rule set.
            None => true,
        },
        "r2" => !segments.contains(&"cli"),
        "r7" => match segments.iter().position(|s| *s == "crates") {
            Some(i) => segments.get(i + 1).is_some_and(|c| R7_CRATES.contains(c)),
            // Same fallback as r1: ad-hoc scans get the full rule set.
            None => true,
        },
        "r10" | "r11" => match segments.iter().position(|s| *s == "crates") {
            Some(i) => segments.get(i + 1).is_some_and(|c| R10_CRATES.contains(c)),
            None => true,
        },
        _ => true,
    }
}

/// A rule hit before suppression pragmas are applied.
#[derive(Clone, Debug)]
pub struct RawFinding {
    /// Rule id (`r1` … `r6`).
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// Human message naming the hazard and the fix.
    pub message: String,
}

/// Run every scoped rule over one lexed file. Findings come out
/// deduplicated per `(rule, line)` and sorted by line.
#[must_use]
pub fn scan(lexed: &Lexed, map: &LineMap, path: &str) -> Vec<RawFinding> {
    let toks = &lexed.tokens;
    let mut out: Vec<RawFinding> = Vec::new();
    let applies = |rule: &str| rule_applies(rule, path);

    for (k, t) in toks.iter().enumerate() {
        if map.is_test(t.line) {
            continue;
        }
        match t.kind {
            TokKind::Ident => {
                scan_ident(toks, k, map, &applies, &mut out);
            }
            TokKind::Op => {
                scan_op(toks, k, map, &applies, &mut out);
            }
            _ => {}
        }
    }

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    out
}

/// Operator-token checks. One token can be a candidate for several
/// rules (`*` is r7 counter arithmetic *and* an r11 raw-pointer
/// sigil), so these run sequentially instead of as exclusive match
/// arms.
fn scan_op(
    toks: &[Tok],
    k: usize,
    map: &LineMap,
    applies: &impl Fn(&str) -> bool,
    out: &mut Vec<RawFinding>,
) {
    let t = &toks[k];
    if (t.text == "==" || t.text == "!=") && applies("r3") && float_neighbour(toks, k) {
        out.push(RawFinding {
            rule: "r3",
            line: t.line,
            message: format!(
                "float `{}` comparison: exact float equality is \
                 representation-sensitive; compare integer ticks or use an epsilon",
                t.text
            ),
        });
    }
    if matches!(t.text.as_str(), "+" | "*" | "+=" | "*=")
        && applies("r7")
        && !map.justified(t.line, "BOUND:")
    {
        if let Some(name) = counter_operand(toks, k) {
            out.push(RawFinding {
                rule: "r7",
                line: t.line,
                message: format!(
                    "unchecked `{}` on counter `{name}`: tick/area arithmetic wraps \
                     silently on overflow in release; use saturating/checked ops or add \
                     a `// BOUND:` note naming the bound",
                    t.text
                ),
            });
        }
    }
    // Raw pointer type: `*const T` / `*mut T` (r11). A dereference or
    // multiplication is never followed by the `const`/`mut` keyword.
    if t.text == "*"
        && applies("r11")
        && matches!(
            toks.get(k + 1),
            Some(n) if n.kind == TokKind::Ident && (n.text == "const" || n.text == "mut")
        )
        && !map.justified(t.line, "SHARD-SAFE:")
    {
        out.push(RawFinding {
            rule: "r11",
            line: t.line,
            message: format!(
                "raw pointer `*{}` in shard-visible code without a `// SHARD-SAFE:` note: the \
                 parallel engine relies on borrows proving shard disjointness",
                toks[k + 1].text
            ),
        });
    }
    if t.text == "#" {
        scan_attr(toks, k, map, applies, out);
    }
}

fn scan_ident(
    toks: &[Tok],
    k: usize,
    map: &LineMap,
    applies: &impl Fn(&str) -> bool,
    out: &mut Vec<RawFinding>,
) {
    let t = &toks[k];
    let prev_is_dot = k > 0 && toks[k - 1].kind == TokKind::Op && toks[k - 1].text == ".";
    let next_is_paren = matches!(toks.get(k + 1), Some(n) if n.text == "(");
    match t.text.as_str() {
        "HashMap" | "HashSet" if applies("r1") => out.push(RawFinding {
            rule: "r1",
            line: t.line,
            message: format!(
                "nondeterministic iteration hazard: `{}` in scheduler-visible code; use \
                 BTreeMap/BTreeSet or an order-preserving index",
                t.text
            ),
        }),
        "Instant" | "SystemTime" | "thread_rng" if applies("r2") => out.push(RawFinding {
            rule: "r2",
            line: t.line,
            message: format!(
                "ambient entropy: `{}` outside cli; simulated time and the seeded Rng are the \
                 only admissible sources",
                t.text
            ),
        }),
        "std" if applies("r2") => {
            let path_next = matches!(toks.get(k + 1), Some(n) if n.text == "::");
            if path_next {
                if let Some(seg) = toks.get(k + 2) {
                    if seg.kind == TokKind::Ident && (seg.text == "time" || seg.text == "env") {
                        out.push(RawFinding {
                            rule: "r2",
                            line: t.line,
                            message: format!(
                                "ambient entropy: `std::{}` outside cli; simulated time and \
                                 the seeded Rng are the only admissible sources",
                                seg.text
                            ),
                        });
                    }
                }
            }
        }
        "partial_cmp" if applies("r3") && next_is_paren => {
            if let Some(close) = matching_paren(toks, k + 1) {
                let chained_panic = matches!(toks.get(close + 1), Some(d) if d.text == ".")
                    && matches!(
                        toks.get(close + 2),
                        Some(m) if m.text == "unwrap" || m.text == "expect"
                    );
                if chained_panic {
                    out.push(RawFinding {
                        rule: "r3",
                        line: t.line,
                        message: "float ordering via `partial_cmp().unwrap()`: NaN panics and \
                                  totality is unchecked; use `f64::total_cmp`"
                            .into(),
                    });
                }
            }
        }
        "unwrap" | "expect"
            if prev_is_dot
                && next_is_paren
                && applies("r4")
                && !map.justified(t.line, "INVARIANT:") =>
        {
            out.push(RawFinding {
                rule: "r4",
                line: t.line,
                message: format!(
                    "possible panic: `.{}()` without an adjacent `// INVARIANT:` comment; \
                     return a typed error or document the invariant that rules the panic out",
                    t.text
                ),
            });
        }
        "as" if applies("r7") && !map.justified(t.line, "BOUND:") => {
            if let Some(ty) = toks.get(k + 1) {
                if ty.kind == TokKind::Ident && R7_NARROWING.contains(&ty.text.as_str()) {
                    out.push(RawFinding {
                        rule: "r7",
                        line: t.line,
                        message: format!(
                            "narrowing cast `as {}` without a `// BOUND:` note: out-of-range \
                             values truncate silently; use try_from/From or document the bound",
                            ty.text
                        ),
                    });
                }
            }
        }
        "static" if applies("r10") && !map.justified(t.line, "SHARD-SAFE:") => {
            if matches!(toks.get(k + 1), Some(n) if n.kind == TokKind::Ident && n.text == "mut") {
                out.push(RawFinding {
                    rule: "r10",
                    line: t.line,
                    message: "`static mut` in shard-visible code without a `// SHARD-SAFE:` \
                              note: process-global mutable state is visible to every shard"
                        .into(),
                });
            }
        }
        "unsafe" if applies("r11") && !map.justified(t.line, "SHARD-SAFE:") => {
            out.push(RawFinding {
                rule: "r11",
                line: t.line,
                message: "`unsafe` in shard-visible code without a `// SHARD-SAFE:` note: the \
                          parallel engine relies on the borrow checker proving shard \
                          disjointness, which unsafe code opts out of"
                    .into(),
            });
        }
        s if (R10_CELLS.contains(&s) || s.starts_with("Atomic"))
            && applies("r10")
            && !map.justified(t.line, "SHARD-SAFE:") =>
        {
            out.push(RawFinding {
                rule: "r10",
                line: t.line,
                message: format!(
                    "interior mutability: `{s}` in shard-visible code without a \
                     `// SHARD-SAFE:` note: shared mutation bypasses the shard isolation the \
                     parallel engine depends on",
                ),
            });
        }
        s if s.starts_with("sort_unstable")
            && prev_is_dot
            && applies("r5")
            && !map.justified(t.line, "TIEBREAK:") =>
        {
            out.push(RawFinding {
                rule: "r5",
                line: t.line,
                message: format!(
                    "unstable sort: `.{}()` without an adjacent `// TIEBREAK:` note; equal \
                     keys may reorder — document why ties are unobservable or sort by a \
                     total key",
                    t.text
                ),
            });
        }
        _ => {}
    }
}

/// `#[serde(skip)]` attribute scan (r6).
fn scan_attr(
    toks: &[Tok],
    k: usize,
    map: &LineMap,
    applies: &impl Fn(&str) -> bool,
    out: &mut Vec<RawFinding>,
) {
    if !applies("r6") {
        return;
    }
    if !matches!(toks.get(k + 1), Some(n) if n.text == "[") {
        return;
    }
    let Some(close) = matching_square(toks, k + 1) else {
        return;
    };
    let idents: Vec<&str> = toks[k + 1..close]
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    if idents.first() == Some(&"serde")
        && idents.contains(&"skip")
        && !map.justified(toks[k].line, "REBUILD:")
    {
        out.push(RawFinding {
            rule: "r6",
            line: toks[k].line,
            message: "`#[serde(skip)]` field without an adjacent `// REBUILD:` note; a \
                      checkpoint-resumed value is silently defaulted unless the resume path \
                      provably rebuilds it — document that story"
                .into(),
        });
    }
}

/// The tick/area-counter identifier adjacent to the arithmetic op at
/// `k`, if any (r7). The left operand must end an expression — which
/// also rules out `*` as a dereference and `+` in generic bounds
/// (`dyn Trait + Send` has no counter-named neighbour anyway). The
/// right-hand side walks a field chain (`self.stats.total_area`) to its
/// final segment, since that is the name that says "counter".
fn counter_operand(toks: &[Tok], k: usize) -> Option<String> {
    let prev = k.checked_sub(1).and_then(|p| toks.get(p))?;
    let ends_expr = matches!(prev.kind, TokKind::Ident | TokKind::Int | TokKind::Float)
        || prev.text == ")"
        || prev.text == "]";
    if !ends_expr {
        return None;
    }
    if prev.kind == TokKind::Ident && is_counter_name(&prev.text) {
        return Some(prev.text.clone());
    }
    let mut j = k + 1;
    let mut last: Option<&Tok> = None;
    while let Some(t) = toks.get(j) {
        if t.kind != TokKind::Ident {
            break;
        }
        last = Some(t);
        if matches!(toks.get(j + 1), Some(d) if d.text == ".") {
            j += 2;
        } else {
            break;
        }
    }
    last.filter(|t| is_counter_name(&t.text))
        .map(|t| t.text.clone())
}

/// Whether an identifier names a tick/area counter (r7 lexicon).
fn is_counter_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    R7_COUNTER_WORDS.iter().any(|w| lower.contains(w))
}

/// Whether either operand next to the comparison at `k` is a float
/// literal.
fn float_neighbour(toks: &[Tok], k: usize) -> bool {
    let prev = k.checked_sub(1).and_then(|p| toks.get(p));
    let next = toks.get(k + 1);
    prev.is_some_and(|t| t.kind == TokKind::Float) || next.is_some_and(|t| t.kind == TokKind::Float)
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Index of the `]` matching the `[` at `open`.
fn matching_square(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}
