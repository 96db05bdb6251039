//! Fault-injection crash-recovery harness.
//!
//! The durable service's contract: after a crash at **any** storage
//! operation — mid-WAL-append, mid-checkpoint, mid-rename, mid-fsync —
//! reopening the data directory recovers a state that is bit-identical
//! to the state after some *consistent prefix* of the operation history,
//! and that prefix covers every operation the service acknowledged.
//! With the WAL off the same checkpoints are the only record, so a crash
//! recovers exactly the last completed `persist` or the one in flight.
//!
//! The harness runs a fixed op script against `MemStorage` once without
//! faults to count the storage operations it performs, then replays the
//! script once per storage op with a crash injected exactly there. Each
//! crashed run is recovered from its durable view (what an fsync-honest
//! disk would hold) and compared byte-for-byte against sequential
//! reference states built by a plain in-memory service.

use av_corpus::{generate_lake, Column, LakeProfile};
use av_durable::{FaultPlan, MemStorage, Storage};
use av_index::PatternIndex;
use av_service::{
    owned_column, RuleCatalog, ServiceConfig, ServiceError, ValidationService, CATALOG_FILE,
    INDEX_FILE,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Pinned rule clock so catalog text is identical across runs.
const CLOCK: u64 = 1_700_000_000;

/// A small synthetic lake slice: enough corpus support for FMDV to find
/// feasible rules, small enough to re-profile dozens of times.
fn lake(seed: u64, scale: usize) -> Vec<Column> {
    generate_lake(&LakeProfile::tiny().scaled(scale), seed)
        .columns()
        .cloned()
        .collect()
}

fn dates(month: u32) -> Vec<String> {
    (1..=28)
        .map(|d| format!("2023-{month:02}-{d:02}"))
        .collect()
}

enum Op {
    Ingest(Vec<Column>),
    Infer(&'static str, Vec<String>),
    Delete(&'static str),
    Persist,
}

/// Deterministic op script: ingests, rule inference, a delete, and
/// explicit checkpoints, sized so auto-checkpoints also fire between the
/// explicit ones.
fn script() -> Vec<Op> {
    vec![
        Op::Ingest(lake(85, 25)),
        Op::Infer("feeds/date", dates(1)),
        Op::Ingest(vec![owned_column(
            "gamma",
            (0..10).map(|i| format!("user_{i}@example.com")).collect(),
        )]),
        Op::Persist,
        Op::Infer("feeds/march", dates(3)),
        Op::Ingest(vec![owned_column(
            "delta",
            (0..10).map(|i| format!("10.0.0.{i}")).collect(),
        )]),
        Op::Delete("feeds/date"),
        Op::Ingest(vec![owned_column(
            "epsilon",
            (0..8).map(|i| format!("case-{i:03}")).collect(),
        )]),
        Op::Persist,
    ]
}

fn apply(service: &ValidationService, op: &Op) -> Result<(), ServiceError> {
    match op {
        Op::Ingest(columns) => service.ingest(columns).map(|_| ()),
        Op::Infer(name, train) => service.infer_rule(name, train, None).map(|_| ()),
        Op::Delete(name) => service.delete_rule(name),
        Op::Persist => service.persist(),
    }
}

/// Durable config over the given in-memory storage: small WAL segments
/// and a low auto-checkpoint threshold so rotation, truncation, and
/// incremental checkpoints all happen inside the short script.
fn durable_config(mem: &MemStorage) -> ServiceConfig {
    let mut config = ServiceConfig::durable(PathBuf::from("/data"));
    config.storage = Arc::new(mem.clone());
    config.rule_clock_unix = Some(CLOCK);
    config.durability.checkpoint_every_records = 3;
    config.durability.wal_segment_bytes = 4096;
    config
}

/// The same directory with the WAL off: only `persist` writes.
fn plain_config(mem: &MemStorage) -> ServiceConfig {
    let mut config = ServiceConfig::with_data_dir(PathBuf::from("/data"));
    config.storage = Arc::new(mem.clone());
    config.rule_clock_unix = Some(CLOCK);
    config
}

/// The logical durable state: serialized index bytes + catalog text.
fn state_of(service: &ValidationService) -> (Vec<u8>, String) {
    let index = service.snapshot().to_bytes().to_vec();
    let mut catalog = RuleCatalog::new();
    for entry in service.catalog_entries() {
        catalog.insert(entry);
    }
    (index, catalog.to_text())
}

/// Sequential reference states: `states[k]` is the state after the first
/// `k` script ops, built by a plain in-memory (non-durable) service.
/// `Persist` is a logical no-op, so neighbouring states may be equal.
fn reference_states() -> Vec<(Vec<u8>, String)> {
    let config = ServiceConfig {
        rule_clock_unix: Some(CLOCK),
        ..ServiceConfig::default()
    };
    let service = ValidationService::new(config);
    let mut states = vec![state_of(&service)];
    for op in script() {
        if !matches!(op, Op::Persist) {
            apply(&service, &op).unwrap();
        }
        states.push(state_of(&service));
    }
    states
}

#[test]
fn crash_at_every_storage_op_recovers_an_acknowledged_prefix() {
    let references = reference_states();

    // Fault-free run: counts storage ops and checks durable-mode state
    // matches the non-durable reference exactly.
    let mem = MemStorage::new();
    let service = ValidationService::open(durable_config(&mem)).unwrap();
    for op in script() {
        apply(&service, &op).unwrap();
    }
    assert_eq!(state_of(&service), *references.last().unwrap());
    let snapshot = service.durability().expect("durable mode is on");
    assert!(
        snapshot.checkpoints_completed >= 2,
        "script must exercise checkpoints: {snapshot:?}"
    );
    drop(service);
    let total_ops = mem.ops_executed();
    assert!(
        total_ops > 30,
        "script must exercise many storage ops, got {total_ops}"
    );

    // Clean restart replays to the exact final state.
    let reopened = ValidationService::open(durable_config(&mem)).unwrap();
    assert_eq!(state_of(&reopened), *references.last().unwrap());
    drop(reopened);

    // Crash at EVERY storage op of the fault-free trace (0-indexed).
    for crash_op in 0..total_ops {
        let mem = MemStorage::with_plan(FaultPlan::crash_at(crash_op));
        let mut acked = 0usize;
        if let Ok(service) = ValidationService::open(durable_config(&mem)) {
            for op in script() {
                if apply(&service, &op).is_ok() {
                    acked += 1;
                } else {
                    // Once the storage crashed every further durable op
                    // must refuse: an "acknowledged" op after a failed
                    // one would tear the prefix contract.
                    break;
                }
            }
        }
        assert!(mem.crashed(), "plan at op {crash_op} never fired");

        // Recover from the durable view (what a crash leaves on disk).
        let recovered_service = ValidationService::open(durable_config(&mem.crashed_view()))
            .unwrap_or_else(|e| panic!("crash at op {crash_op}: recovery refused to start: {e}"));
        let recovered = state_of(&recovered_service);
        let best = references.iter().rposition(|s| *s == recovered);
        let best = best.unwrap_or_else(|| {
            panic!("crash at op {crash_op}: recovered state matches no sequential prefix")
        });
        assert!(
            best >= acked,
            "crash at op {crash_op}: {acked} ops acknowledged but recovery holds only {best}"
        );
        let d = recovered_service.durability().expect("durable mode is on");
        assert_eq!(
            d.quarantined_files, 0,
            "crash at op {crash_op}: a pure crash must never corrupt a referenced file"
        );
        assert_eq!(
            d.skipped_records, 0,
            "crash at op {crash_op}: every replayed record must decode"
        );
    }
}

#[test]
fn corrupt_shard_is_quarantined_not_fatal() {
    let mem = MemStorage::new();
    let service = ValidationService::open(durable_config(&mem)).unwrap();
    service.ingest(&lake(85, 25)).unwrap();
    service.infer_rule("q/ids", &dates(2), None).unwrap();
    service.persist().unwrap();
    assert!(service.durability().unwrap().checkpoint_generation >= 1);
    drop(service);

    let files = mem.list(Path::new("/data")).unwrap();
    let shard = files
        .iter()
        .find(|f| f.starts_with("shard-") && f.ends_with(".avsh"))
        .expect("checkpoint must have written shard files")
        .clone();
    mem.corrupt(&Path::new("/data").join(&shard), 12);

    // Recovery starts anyway: the corrupt shard is quarantined (its
    // patterns are lost until re-ingested), everything else survives.
    let reopened = ValidationService::open(durable_config(&mem)).unwrap();
    let d = reopened.durability().unwrap();
    assert!(d.quarantined_files >= 1, "corruption must be quarantined");
    assert!(reopened.rule("q/ids").is_ok(), "catalog must survive");
    let quarantined = mem.list(&Path::new("/data").join("quarantine")).unwrap();
    assert!(
        quarantined.iter().any(|f| f == &shard),
        "corrupt file must be moved to quarantine/, got {quarantined:?}"
    );
}

/// A seed image — an offline-built `index.avix` plus a `rules.avcat` —
/// opens in both WAL modes, and the first checkpoint moves it into the
/// manifest layout without rewriting the seed files.
#[test]
fn legacy_plain_files_upgrade_into_durable_mode() {
    let reference = ValidationService::new(ServiceConfig {
        rule_clock_unix: Some(CLOCK),
        ..ServiceConfig::default()
    });
    reference.ingest(&lake(85, 25)).unwrap();
    reference
        .infer_rule("legacy/date", &dates(6), None)
        .unwrap();
    let want = state_of(&reference);
    let seed_index = PatternIndex::from_bytes(&want.0).unwrap();

    for durable in [false, true] {
        let dir =
            std::env::temp_dir().join(format!("av_crash_seed_{}_{durable}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        seed_index.save(dir.join(INDEX_FILE)).unwrap();
        std::fs::write(dir.join(CATALOG_FILE), &want.1).unwrap();
        let config = || {
            let mut config = if durable {
                ServiceConfig::durable(&dir)
            } else {
                ServiceConfig::with_data_dir(&dir)
            };
            config.rule_clock_unix = Some(CLOCK);
            config
        };

        let seeded = ValidationService::open(config()).unwrap();
        assert_eq!(state_of(&seeded), want, "durable={durable}");
        seeded.persist().unwrap();
        drop(seeded);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().any(|n| n.starts_with("manifest-")),
            "durable={durable}: persist must write a manifest, got {names:?}"
        );
        assert_eq!(
            names.iter().any(|n| n == "wal"),
            durable,
            "durable={durable}: only the WAL-on mode creates a WAL, got {names:?}"
        );
        assert_eq!(
            std::fs::read(dir.join(INDEX_FILE)).unwrap(),
            want.0,
            "durable={durable}: persist must not rewrite the seed image"
        );

        // The checkpoint, not the seed, is what the next open reads.
        std::fs::write(dir.join(INDEX_FILE), b"AVIX").unwrap();
        let again = ValidationService::open(config()).unwrap();
        assert_eq!(state_of(&again), want, "durable={durable}");
        drop(again);

        // Before the first checkpoint a truncated seed is a clean
        // startup error, not a panic or an empty service.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(INDEX_FILE), &want.0[..want.0.len() / 2]).unwrap();
        assert!(
            ValidationService::open(config()).is_err(),
            "durable={durable}: a truncated seed must refuse to open"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// With the WAL off, checkpoints are the only durable record: a crash at
/// any storage op of a scripted workload recovers exactly the state of
/// the last completed `persist` or of the one in flight — never a mix of
/// index and catalog from two different persists.
#[test]
fn wal_off_crash_recovers_the_last_or_in_flight_persist() {
    let references = reference_states();

    let mem = MemStorage::new();
    let service = ValidationService::open(plain_config(&mem)).unwrap();
    for op in script() {
        apply(&service, &op).unwrap();
    }
    assert!(service.durability().is_none(), "the WAL is off");
    drop(service);
    let total_ops = mem.ops_executed();
    assert!(total_ops > 10, "persists must do storage ops: {total_ops}");
    assert!(
        !mem.paths().iter().any(|p| p.starts_with("/data/wal")),
        "the WAL-off run must not create a WAL: {:?}",
        mem.paths()
    );
    let reopened = ValidationService::open(plain_config(&mem)).unwrap();
    assert_eq!(state_of(&reopened), *references.last().unwrap());
    drop(reopened);

    for crash_op in 0..total_ops {
        let mem = MemStorage::with_plan(FaultPlan::crash_at(crash_op));
        let service = ValidationService::open(plain_config(&mem)).unwrap();
        // `references[i]` is the state a persist at script index `i`
        // writes (persist itself changes nothing).
        let mut completed = 0;
        let mut in_flight = None;
        for (i, op) in script().iter().enumerate() {
            if apply(&service, op).is_err() {
                in_flight = Some(i);
                break;
            }
            if matches!(op, Op::Persist) {
                completed = i;
            }
        }
        assert!(mem.crashed(), "plan at op {crash_op} never fired");
        let in_flight = in_flight.expect("only a persist touches storage");
        assert!(matches!(script()[in_flight], Op::Persist));

        let recovered = ValidationService::open(plain_config(&mem.crashed_view()))
            .unwrap_or_else(|e| panic!("crash at op {crash_op}: recovery refused to start: {e}"));
        let recovered = state_of(&recovered);
        assert!(
            recovered == references[completed] || recovered == references[in_flight],
            "crash at op {crash_op}: recovered state is neither the last completed \
             persist nor the one in flight"
        );
    }
}

/// Switching the WAL off and on over one directory neither loses nor
/// double-applies an op: a WAL-off open replays the WAL tail a WAL-on run
/// left, and the checkpoint it then writes covers that tail.
#[test]
fn wal_tail_survives_a_wal_off_run_and_is_never_replayed_twice() {
    let mem = MemStorage::new();
    let mut wal_on = durable_config(&mem);
    wal_on.durability.checkpoint_every_records = 0;
    let service = ValidationService::open(wal_on.clone()).unwrap();
    // Ingest, infer, ingest, persist, then infer, ingest, delete: three
    // acknowledged ops after the only checkpoint.
    for op in script().iter().take(7) {
        apply(&service, op).unwrap();
    }
    let live = service.durability().unwrap();
    assert_eq!(live.checkpoints_completed, 1, "{live:?}");
    assert_eq!(live.records_since_checkpoint, 3, "{live:?}");
    let want = state_of(&service);
    assert_eq!(want, reference_states()[7]);
    drop(service);

    let wal_off = ValidationService::open(plain_config(&mem)).unwrap();
    assert_eq!(
        state_of(&wal_off),
        want,
        "a WAL-off open must replay the tail"
    );
    assert!(wal_off.durability().is_none());
    wal_off.persist().unwrap();
    drop(wal_off);

    let again = ValidationService::open(wal_on).unwrap();
    assert_eq!(state_of(&again), want);
    let d = again.durability().unwrap();
    assert_eq!(
        d.replayed_records, 0,
        "the checkpoint covers the tail: {d:?}"
    );
    assert_eq!(d.checkpoint_generation, 2, "{d:?}");
}

/// Opening a directory with the WAL off only reads it.
#[test]
fn wal_off_open_leaves_the_directory_unchanged() {
    let mem = MemStorage::new();
    drop(ValidationService::open(plain_config(&mem)).unwrap());
    assert!(mem.paths().is_empty(), "{:?}", mem.paths());
    assert_eq!(mem.ops_executed(), 0);

    let service = ValidationService::open(plain_config(&mem)).unwrap();
    service.ingest(&lake(85, 25)).unwrap();
    service.infer_rule("q/date", &dates(4), None).unwrap();
    service.persist().unwrap();
    drop(service);
    let before = mem.paths();
    let ops = mem.ops_executed();

    let reopened = ValidationService::open(plain_config(&mem)).unwrap();
    assert!(reopened.rule("q/date").is_ok());
    drop(reopened);
    assert_eq!(mem.paths(), before);
    assert_eq!(mem.ops_executed(), ops, "a WAL-off open must not write");
}

#[test]
fn recovery_replays_only_records_since_checkpoint() {
    let mem = MemStorage::new();
    let mut config = durable_config(&mem);
    config.durability.checkpoint_every_records = 4;
    let service = ValidationService::open(config.clone()).unwrap();
    // 10 single-record ops: auto-checkpoints at 4 and 8, leaving 2 in
    // the WAL. Recovery must replay those 2 — not rebuild 10.
    for i in 0..10u32 {
        let values: Vec<String> = (0..6).map(|v| format!("r{i}-{v:03}")).collect();
        service
            .ingest(&[owned_column(&format!("col-{i}"), values)])
            .unwrap();
    }
    let live = service.durability().unwrap();
    assert_eq!(live.checkpoints_completed, 2, "{live:?}");
    assert_eq!(live.records_since_checkpoint, 2, "{live:?}");
    drop(service);

    let reopened = ValidationService::open(config).unwrap();
    let d = reopened.durability().unwrap();
    assert_eq!(
        d.replayed_records, 2,
        "recovery must be O(records since checkpoint): {d:?}"
    );
    assert_eq!(d.checkpoint_generation, 2, "{d:?}");
}
