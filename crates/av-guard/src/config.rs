//! The checked-in rule configuration: the global lock hierarchy (G1) and
//! the per-rule path scopes and exemptions.
//!
//! The lock hierarchy is not restated here: it is parsed from the rank
//! `const`s of `crates/av-service/src/lockorder.rs`, the one declaration
//! its runtime tracker also uses (that module's docs explain *why* the
//! order is what it is).

use crate::lexer::{lex, Kind};
use std::sync::OnceLock;

/// The lock-hierarchy source, compiled in so the table cannot drift from
/// the file that declares it.
const LOCKORDER_SRC: &str = include_str!("../../av-service/src/lockorder.rs");

/// One lock in the global hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEntry {
    /// The field/binding name the lock is acquired through (`.lock()`,
    /// `.read()`, `.write()` receivers are matched by exact identifier):
    /// the rank `const`'s name, lower-cased.
    pub name: String,
    /// Rank: acquisitions must be strictly ascending in rank within a
    /// function (gaps left for future locks).
    pub rank: u32,
    /// Same-rank re-acquisition allowed: a family of per-shard locks
    /// taken in ascending index order counts as one rank.
    pub multi: bool,
}

/// The global lock hierarchy, outermost first.
pub fn lock_hierarchy() -> &'static [LockEntry] {
    static TABLE: OnceLock<Vec<LockEntry>> = OnceLock::new();
    TABLE.get_or_init(|| parse_hierarchy(LOCKORDER_SRC))
}

/// Look up a tracked lock by receiver identifier.
pub fn lock_by_name(name: &str) -> Option<&'static LockEntry> {
    lock_hierarchy().iter().find(|e| e.name == name)
}

/// Build the hierarchy from `const NAME: u32 = RANK;` items, marking the
/// ranks listed in `const MULTI_FAMILIES: &[u32] = &[NAME, …];` as multi.
/// Sorted by rank.
fn parse_hierarchy(src: &str) -> Vec<LockEntry> {
    let toks = lex(src).tokens;
    let mut table = Vec::new();
    let mut multi = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("const") {
            continue;
        }
        let rest = &toks[i + 1..];
        match rest {
            [name, colon, ty, eq, rank, semi, ..]
                if name.kind == Kind::Ident
                    && colon.is_punct(':')
                    && ty.is_ident("u32")
                    && eq.is_punct('=')
                    && rank.kind == Kind::Int
                    && semi.is_punct(';') =>
            {
                if let Ok(rank) = rank.text.parse() {
                    table.push(LockEntry {
                        name: name.text.to_lowercase(),
                        rank,
                        multi: false,
                    });
                }
            }
            [name, ..] if name.is_ident("MULTI_FAMILIES") => multi.extend(
                rest.iter()
                    .skip_while(|t| !t.is_punct('='))
                    .take_while(|t| !t.is_punct(';'))
                    .filter(|t| t.kind == Kind::Ident)
                    .map(|t| t.text.to_lowercase()),
            ),
            _ => {}
        }
    }
    for entry in &mut table {
        entry.multi = multi.contains(&entry.name);
    }
    table.sort_by_key(|e| e.rank);
    table
}

/// G2: crates whose sources may not touch `std::fs` directly.
pub const G2_SCOPE: &[&str] = &[
    "crates/av-service/src/",
    "crates/av-index/src/",
    "crates/av-durable/src/",
];

/// G2: the explicitly-allowed raw-I/O sites. `OsStorage` lives here — it
/// is the one production implementation of the `Storage` trait, and the
/// trait boundary is exactly what G2 defends.
pub const G2_ALLOWED_FILES: &[&str] = &["crates/av-durable/src/storage.rs"];

/// G3: reactor, connection, and worker-pool sources that must be
/// panic-free (a panic kills a worker and strands its pipelined
/// connection).
pub const G3_SCOPE: &[&str] = &["crates/av-service/src/server/"];

/// G4: av-index accumulator/persist modules that must stay float-free
/// (fixed-point exactness is what makes merges order-independent).
pub const G4_SCOPE: &[&str] = &[
    "crates/av-index/src/stats.rs",
    "crates/av-index/src/delta.rs",
    "crates/av-index/src/shard.rs",
    "crates/av-index/src/persist.rs",
];

/// G4: the two sanctioned float↔fixed-point conversion boundaries.
/// `add_impurity` quantizes an incoming impurity once; `finish` converts
/// the accumulated integer back to a presentation float. Everything
/// between them is integer-only.
pub const G4_EXEMPT_FNS: &[&str] = &["add_impurity", "finish"];

/// G4: persist/serialization-path files where iterating a hash map
/// without sorting would leak nondeterministic order into bytes.
pub const G4_PERSIST_FILES: &[&str] = &[
    "crates/av-index/src/persist.rs",
    "crates/av-service/src/catalog.rs",
    "crates/av-service/src/durable.rs",
];

/// G4: hash-map-backed fields whose iteration order is nondeterministic.
pub const G4_HASHMAP_FIELDS: &[&str] = &["map", "patterns", "baselines"];

/// G5: reactor sources where blocking calls would stall every
/// connection at once.
pub const G5_SCOPE: &[&str] = &[
    "crates/av-service/src/server/event_loop.rs",
    "crates/av-service/src/server/conn.rs",
];

/// G5: functions in scope files that run on worker-pool threads, not the
/// reactor thread — blocking there is the design (a worker parks on the
/// run-queue condvar between jobs).
pub const G5_EXEMPT_FNS: &[&str] = &["worker_loop", "pop_job"];

/// G5: banned blocking calls.
pub const G5_BANNED: &[&str] = &[
    "sleep",
    "recv",
    "recv_timeout",
    "read_to_end",
    "read_to_string",
    "read_exact",
    "lines",
    "join",
    "wait",
    "wait_timeout",
];

/// G5: receivers on which otherwise-banned names are the point, not a
/// bug: `poller.wait(...)` *is* the reactor's event wait.
pub const G5_ALLOWED_RECEIVERS: &[(&str, &str)] = &[("wait", "poller")];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_is_parsed_from_lockorder() {
        let table = lock_hierarchy();
        let names: Vec<&str> = table.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "ckpt",
                "wal",
                "in_flight",
                "merge_locks",
                "epoch",
                "baselines",
                "catalog",
                "classifier"
            ]
        );
        for w in table.windows(2) {
            assert!(w[0].rank < w[1].rank, "{} !< {}", w[0].name, w[1].name);
        }
        let multi: Vec<&str> = table
            .iter()
            .filter(|e| e.multi)
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(multi, ["merge_locks"]);
        for e in table {
            assert_eq!(lock_by_name(&e.name), Some(e));
        }
        assert!(lock_by_name("not_a_lock").is_none());
    }
}
