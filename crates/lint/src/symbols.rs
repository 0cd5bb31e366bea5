//! Workspace-global symbol analyses: the checkpoint-coverage proof
//! (r8) and interprocedural nondeterminism taint (r9).
//!
//! Both analyses consume the per-file [`FileItems`](crate::parser)
//! facts and therefore see the whole file set passed to
//! [`lint_sources`](crate::engine::lint_sources) at once — this is what
//! lifts the engine beyond the token rules' file-local blindness.
//!
//! ## r8 — checkpoint-coverage proof
//!
//! The checkpoint is the single serialized root of simulator state
//! ([`ROOT_TYPES`]: `Checkpoint`, which the live simulation holds as
//! its state and every payload is written from). The proof has two
//! halves:
//!
//! 1. **Reachability**: BFS from every struct named by a root over
//!    field-type identifiers. Every reachable struct/enum must be
//!    serializable — `#[derive(Serialize)]` or a hand-written
//!    `impl Serialize for T`. Hand-written impls are *opaque leaves*:
//!    their field coverage is owned by the impl (and the round-trip
//!    tests), not provable from field lists, so traversal stops there.
//!    `#[serde(skip)]` fields are not traversed (r6 separately demands
//!    their `// REBUILD:` story). Unresolved names (std/alloc types,
//!    type aliases, generics) are skipped: the proof is over workspace
//!    state types, and an unknown name proves nothing either way.
//! 2. **Live pairs** ([`LIVE_PAIRS`]): the live `Simulation` struct is
//!    not serialized itself — it embeds its `Checkpoint` state as one
//!    field beside process-local members — so a new live field can
//!    silently escape the snapshot while every reachable type still
//!    serializes. Every live-struct field, the embedded state included,
//!    must carry a `// REBUILD:` note saying how resume reconstructs
//!    it. A field whose name matches a snapshot field proves nothing:
//!    every captured member lives inside the embedded state, so a
//!    same-named field beside it is a second, uncaptured copy. The pair
//!    check only runs when both types are in the scanned set — a
//!    single-file scan cannot prove or refute it.
//!
//! ## r9 — nondeterminism taint
//!
//! Sources are function bodies that read ambient entropy (the r2 token
//! set) on a line not waived by an audited `lint: allow(…r2…)` pragma.
//! Taint propagates callee→caller to a fixpoint over the workspace
//! call graph; calls resolve by simple name (every same-named `fn` is
//! a candidate — conservative, and workspace fn names are in practice
//! distinct where it matters). The lattice is flat (clean < tainted)
//! and propagation is monotone, so the fixpoint is reached in at most
//! `|fns|` passes. A finding fires at each call site in an r9-scoped
//! file whose callee is tainted, carrying the entropy root for the
//! audit trail. Direct reads in scoped files are r2's job; r9 covers
//! the helper-function laundering r2 cannot see.

use crate::parser::{FileItems, StructDef};
use crate::rules::{rule_applies, RawFinding};
use std::collections::{BTreeMap, BTreeSet};

/// Root types of the serialized simulator state: the snapshot, which
/// the live simulation holds as its state and every payload is written
/// from. A root whose serializer is hand-written is an opaque leaf like
/// any other type, so the proof runs through `Checkpoint`'s derived
/// serializer.
pub const ROOT_TYPES: [&str; 1] = ["Checkpoint"];

/// `(live struct, snapshot struct)` pairs: the live struct is not
/// serialized itself but embeds the snapshot as its state, so each of
/// its fields must carry a `// REBUILD:` note.
pub const LIVE_PAIRS: [(&str, &str); 1] = [("Simulation", "Checkpoint")];

/// Run both global analyses; findings come back tagged with the index
/// of the file they belong to.
#[must_use]
pub fn global_scan(files: &[(&str, &FileItems)]) -> Vec<(usize, RawFinding)> {
    let mut out = checkpoint_coverage(files);
    out.extend(nondet_taint(files));
    out
}

/// A reference into the file set: `(file index, item index)`.
type Ref = (usize, usize);

/// The r8 checkpoint-coverage proof.
fn checkpoint_coverage(files: &[(&str, &FileItems)]) -> Vec<(usize, RawFinding)> {
    // Name → definitions, and the set of hand-serialized type names.
    let mut structs: BTreeMap<&str, Vec<Ref>> = BTreeMap::new();
    let mut enums: BTreeMap<&str, Vec<Ref>> = BTreeMap::new();
    let mut manual: BTreeSet<&str> = BTreeSet::new();
    for (fi, (_, items)) in files.iter().enumerate() {
        for (si, s) in items.structs.iter().enumerate() {
            structs.entry(&s.name).or_default().push((fi, si));
        }
        for (ei, e) in items.enums.iter().enumerate() {
            enums.entry(&e.name).or_default().push((fi, ei));
        }
        for name in &items.manual_serde {
            manual.insert(name);
        }
    }

    let mut out = Vec::new();
    let mut seen: BTreeSet<(bool, Ref)> = BTreeSet::new();
    let mut queue: Vec<&str> = ROOT_TYPES.to_vec();
    let mut queued: BTreeSet<&str> = queue.iter().copied().collect();
    while let Some(name) = queue.pop() {
        for &(fi, si) in structs.get(name).into_iter().flatten() {
            if !seen.insert((false, (fi, si))) {
                continue;
            }
            let def = &files[fi].1.structs[si];
            let hand_written = manual.contains(name);
            if !def.derives_serialize && !hand_written {
                out.push((fi, unserializable(name, "struct", def.line)));
            }
            if hand_written {
                continue; // opaque leaf — the impl owns field coverage
            }
            for field in &def.fields {
                if field.serde_skip {
                    continue; // r6 demands the REBUILD story separately
                }
                for ident in &field.type_idents {
                    if queued.insert(ident) {
                        queue.push(ident);
                    }
                }
            }
        }
        for &(fi, ei) in enums.get(name).into_iter().flatten() {
            if !seen.insert((true, (fi, ei))) {
                continue;
            }
            let def = &files[fi].1.enums[ei];
            let hand_written = manual.contains(name);
            if !def.derives_serialize && !hand_written {
                out.push((fi, unserializable(name, "enum", def.line)));
            }
            if hand_written {
                continue;
            }
            for ident in &def.type_idents {
                if queued.insert(ident) {
                    queue.push(ident);
                }
            }
        }
    }

    // Live-pair field coverage.
    for (live_name, snap_name) in LIVE_PAIRS {
        if !structs.contains_key(snap_name) {
            continue; // snapshot type not in the scanned set: unprovable
        }
        for &(fi, si) in structs.get(live_name).into_iter().flatten() {
            let def: &StructDef = &files[fi].1.structs[si];
            for field in def.fields.iter().filter(|f| !f.rebuild_note) {
                out.push((
                    fi,
                    RawFinding {
                        rule: "r8",
                        line: field.line,
                        message: format!(
                            "live-state field `{live_name}::{}` has no `// REBUILD:` note; \
                             capture it in the embedded `{snap_name}` or document how resume \
                             rebuilds it",
                            field.name
                        ),
                    },
                ));
            }
        }
    }
    out
}

fn unserializable(name: &str, kind: &str, line: u32) -> RawFinding {
    RawFinding {
        rule: "r8",
        line,
        message: format!(
            "checkpoint-reachable {kind} `{name}` cannot be serialized: no \
             `#[derive(Serialize)]` and no manual serde impl; derive it, hand-write the impl, \
             or detach it from the snapshot with `#[serde(skip)]` + `// REBUILD:`"
        ),
    }
}

/// The r9 interprocedural taint pass.
fn nondet_taint(files: &[(&str, &FileItems)]) -> Vec<(usize, RawFinding)> {
    // Flatten fn defs and index them by simple name.
    let mut defs: Vec<Ref> = Vec::new();
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (fi, (_, items)) in files.iter().enumerate() {
        for (ni, f) in items.fns.iter().enumerate() {
            by_name.entry(&f.name).or_default().push(defs.len());
            defs.push((fi, ni));
        }
    }

    // Taint state: the entropy root description, once tainted.
    let mut taint: Vec<Option<String>> = defs
        .iter()
        .map(|&(fi, ni)| {
            let f = &files[fi].1.fns[ni];
            f.entropy.as_ref().map(|(tok, line)| {
                format!("`{tok}` read in `{}` at {}:{line}", f.name, files[fi].0)
            })
        })
        .collect();

    // Monotone fixpoint: a clean fn becomes tainted when any callee
    // candidate is tainted; the root description propagates unchanged
    // so every finding names its ultimate entropy source.
    let mut changed = true;
    while changed {
        changed = false;
        for d in 0..defs.len() {
            if taint[d].is_some() {
                continue;
            }
            let (fi, ni) = defs[d];
            let root = files[fi].1.fns[ni].calls.iter().find_map(|call| {
                by_name
                    .get(call.callee.as_str())
                    .into_iter()
                    .flatten()
                    .find_map(|&t| taint[t].clone())
            });
            if root.is_some() {
                taint[d] = root;
                changed = true;
            }
        }
    }

    // Findings: tainted call sites in r9-scoped files.
    let mut out = Vec::new();
    for (fi, (label, items)) in files.iter().enumerate() {
        if !rule_applies("r9", label) {
            continue;
        }
        for f in &items.fns {
            for call in &f.calls {
                let root = by_name
                    .get(call.callee.as_str())
                    .into_iter()
                    .flatten()
                    .find_map(|&t| taint[t].as_deref());
                if let Some(root) = root {
                    out.push((
                        fi,
                        RawFinding {
                            rule: "r9",
                            line: call.line,
                            message: format!(
                                "call to `{}` transitively reaches ambient entropy ({root}); \
                                 thread simulated time or the seeded Rng through instead",
                                call.callee
                            ),
                        },
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_items;
    use crate::regions::LineMap;

    fn scan_srcs(srcs: &[(&str, &str)]) -> Vec<(usize, RawFinding)> {
        let parsed: Vec<FileItems> = srcs
            .iter()
            .map(|(_, src)| {
                let lexed = lex(src);
                let map = LineMap::build(&lexed);
                parse_items(&lexed, &map)
            })
            .collect();
        let view: Vec<(&str, &FileItems)> = srcs
            .iter()
            .zip(&parsed)
            .map(|(&(label, _), items)| (label, items))
            .collect();
        global_scan(&view)
    }

    #[test]
    fn unserializable_reachable_struct_fires_r8() {
        let findings = scan_srcs(&[(
            "crates/engine/src/x.rs",
            "#[derive(serde::Serialize)]\npub struct Checkpoint { pub stats: Stats }\n\
             pub struct Stats { pub n: u64 }\n",
        )]);
        assert!(
            findings
                .iter()
                .any(|(_, f)| f.rule == "r8" && f.message.contains("`Stats`")),
            "findings: {findings:?}"
        );
    }

    #[test]
    fn derived_and_manual_serde_types_are_covered() {
        let findings = scan_srcs(&[(
            "crates/engine/src/x.rs",
            "#[derive(serde::Serialize)]\npub struct Checkpoint { pub stats: Stats, pub q: Queue }\n\
             #[derive(serde::Serialize)]\npub struct Stats { pub n: u64 }\n\
             pub struct Queue { inner: Vec<u64> }\n\
             impl serde::Serialize for Queue {}\n",
        )]);
        assert!(findings.is_empty(), "findings: {findings:?}");
    }

    #[test]
    fn reachability_crosses_files_and_stops_at_skip_fields() {
        let findings = scan_srcs(&[
            (
                "crates/engine/src/a.rs",
                "#[derive(serde::Serialize)]\npub struct Checkpoint {\n    // REBUILD: rebuilt on resume.\n    #[serde(skip)]\n    pub cache: Index,\n    pub stats: Stats,\n}\n",
            ),
            (
                "crates/engine/src/b.rs",
                "pub struct Index { m: u64 }\n#[derive(serde::Serialize)]\npub struct Stats { pub n: u64 }\n",
            ),
        ]);
        // Index sits behind #[serde(skip)] so it is NOT reachable;
        // Stats is reachable in the other file and is covered.
        assert!(findings.is_empty(), "findings: {findings:?}");
    }

    #[test]
    fn live_pair_field_without_counterpart_or_rebuild_fires_r8() {
        let findings = scan_srcs(&[(
            "crates/engine/src/x.rs",
            "#[derive(serde::Serialize)]\npub struct Checkpoint { pub clock: u64 }\n\
             pub struct Simulation {\n    // REBUILD: resume adopts the checkpoint.\n    pub state: Checkpoint,\n    pub scratch: u64,\n    // REBUILD: observers re-register on resume.\n    pub observers: u64,\n}\n",
        )]);
        let r8: Vec<&RawFinding> = findings.iter().map(|(_, f)| f).collect();
        assert_eq!(r8.len(), 1, "findings: {findings:?}");
        assert!(r8[0].message.contains("`Simulation::scratch`"));
    }

    #[test]
    fn a_field_named_like_a_snapshot_member_still_needs_a_rebuild_note() {
        // `clock` is a `Checkpoint` member, but beside the embedded state
        // it is a second copy the snapshot never writes.
        let findings = scan_srcs(&[(
            "crates/engine/src/x.rs",
            "#[derive(serde::Serialize)]\npub struct Checkpoint { pub clock: u64 }\n\
             pub struct Simulation {\n    // REBUILD: resume adopts the checkpoint.\n    pub state: Checkpoint,\n    pub clock: u64,\n}\n",
        )]);
        let r8: Vec<&RawFinding> = findings.iter().map(|(_, f)| f).collect();
        assert_eq!(r8.len(), 1, "findings: {findings:?}");
        assert!(r8[0].message.contains("`Simulation::clock`"));
    }

    #[test]
    fn live_pair_check_needs_both_types_present() {
        let findings = scan_srcs(&[(
            "crates/engine/src/x.rs",
            "pub struct Simulation { pub scratch: u64 }\n",
        )]);
        assert!(
            findings.is_empty(),
            "single-file scan cannot prove the pair"
        );
    }

    #[test]
    fn transitive_entropy_taints_callers_across_files() {
        let findings = scan_srcs(&[
            (
                "crates/sweep/src/util.rs",
                "pub fn wall_seconds() -> u64 {\n    std::time::SystemTime::now().elapsed().unwrap_or_default().as_secs()\n}\n",
            ),
            (
                "crates/engine/src/x.rs",
                "pub fn schedule_tick(x: u64) -> u64 {\n    wall_seconds() + x\n}\n",
            ),
        ]);
        let r9: Vec<&(usize, RawFinding)> =
            findings.iter().filter(|(_, f)| f.rule == "r9").collect();
        assert_eq!(r9.len(), 1, "findings: {findings:?}");
        assert_eq!(r9[0].0, 1, "finding lands in the caller's file");
        assert!(r9[0].1.message.contains("wall_seconds"));
        assert!(
            r9[0].1.message.contains("std::time"),
            "root names the entropy source: {}",
            r9[0].1.message
        );
    }

    #[test]
    fn waived_source_does_not_taint() {
        let findings = scan_srcs(&[
            (
                "crates/lint/src/main.rs",
                "pub fn run() -> u64 {\n    // lint: allow(r2) -- parses its own argv, not simulator state\n    std::env::args().count() as u64\n}\n",
            ),
            (
                "crates/engine/src/x.rs",
                "pub fn drive(s: &mut Sim) { s.run(); }\n",
            ),
        ]);
        assert!(findings.is_empty(), "findings: {findings:?}");
    }

    #[test]
    fn taint_is_not_reported_outside_scope() {
        let findings = scan_srcs(&[
            (
                "crates/sweep/src/bench.rs",
                "pub fn time_reps() -> u64 {\n    let t = std::time::Instant::now(); 0\n}\npub fn micro_point() -> u64 { time_reps() }\n",
            ),
            (
                "crates/cli/src/main.rs",
                "pub fn cmd_bench() { micro_point(); }\n",
            ),
        ]);
        // A sweep file is in r9's scope whatever its name; cli is not,
        // so its call to the tainted `micro_point` goes unreported.
        let r9: Vec<&(usize, RawFinding)> =
            findings.iter().filter(|(_, f)| f.rule == "r9").collect();
        assert_eq!(r9.len(), 1, "findings: {findings:?}");
        assert_eq!(r9[0].0, 0, "only the sweep call site is reported");
        assert!(r9[0].1.message.contains("time_reps"));
    }
}
