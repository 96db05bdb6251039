//! The traced run: replay a workload's exact request stream in process and
//! split each request's time across the service's layers.
//!
//! Two twin services are set up like the server. Twin A receives each
//! request line through `protocol::handle_line_into`, which gives the
//! protocol layer's time; TCP round trip minus that is the server layer's
//! share. Twin B receives `json::parse` followed by the matching public
//! `ValidationService` method, which separates parse time from engine
//! time. Inner layers are timed by calling their public entry points on
//! the same inputs: `Validator` sessions over the rules' wire forms, a
//! benchmark-owned `RuleSet`, `IndexDelta::profile`, and a counting
//! `Storage` injected into twin B. Each layer's self time is its call's
//! time minus the inner calls it contains. Every span is taken in this
//! file; nothing inside the program is instrumented.

use crate::drive::{Clock, Op, Rec};
use crate::gen::{Fixture, Streams, Workload};
use crate::iostat::{CountingStorage, IoSnapshot};
use crate::util::median;
use av_core::{AnyRule, AutoValidate, FmdvConfig, ValidationSession};
use av_index::{IndexConfig, IndexDelta, PatternIndex};
use av_service::json::{self, Json};
use av_service::protocol::handle_line_into;
use av_service::{owned_column, BatchItem, ServiceConfig, ValidationService};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// A list of metrics in reporting order.
pub type Metrics = Vec<Metric>;

/// The per-layer metrics, as `BENCHMARK.json` lists them. A traced run
/// reports every one; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.overhead_us", "us"),
    ("server.bytes_in_per_req", "B"),
    ("server.bytes_out_per_req", "B"),
    ("server.requests_shed", "count"),
    ("server.connections_rejected", "count"),
    ("server.connection_errors", "count"),
    ("protocol.parse_us", "us"),
    ("protocol.parse_mb_per_s", "MB/s"),
    ("protocol.handle_us", "us"),
    ("protocol.self_us", "us"),
    ("engine.classify_us", "us"),
    ("engine.classify_self_us", "us"),
    ("engine.validate_batch_us", "us"),
    ("engine.validate_self_us", "us"),
    ("engine.fanout_ratio", "ratio"),
    ("engine.ingest_ms", "ms"),
    ("engine.ingest_self_ms", "ms"),
    ("engine.infer_ms", "ms"),
    ("av-core.check_ns_per_value", "ns"),
    ("av-core.infer_ms", "ms"),
    ("av-match.classify_ns", "ns"),
    ("av-match.dfa_states", "count"),
    ("av-match.dfa_evictions", "count"),
    ("av-match.nfa_fallbacks_per_kvalue", "count"),
    ("av-index.profile_ms", "ms"),
    ("av-index.touched_shards_frac", "fraction"),
    ("av-index.delta_patterns", "count"),
    ("av-durable.fsyncs_per_op", "count"),
    ("av-durable.sync_ms_per_op", "ms"),
    ("av-durable.bytes_per_op", "B"),
    ("av-durable.checkpoint_ms", "ms"),
    ("av-durable.replayed_records", "count"),
    ("trace.overhead_frac", "fraction"),
    // Workload-specific end-to-end figures, reported by the traced run as
    // diagnostics (each workload fills its own; the rest read 0).
    ("classify_rps", "1/s"),
    ("classify_p50_us", "us"),
    ("classify_p99_us", "us"),
    ("validate_fpr", "fraction"),
    ("validate_recall", "fraction"),
    ("ingest_cols_per_s", "1/s"),
    ("ingest_p50_ms", "ms"),
    ("ingest_p90_ms", "ms"),
    ("infer_p50_ms", "ms"),
    ("mixed_validate_p50_ms", "ms"),
];

/// The `server.*` counters measured by the client and the `stats` op.
pub fn server_metrics(
    bytes_in_per_req: f64,
    bytes_out_per_req: f64,
    requests_shed: f64,
    connections_rejected: f64,
    connection_errors: f64,
) -> Metrics {
    vec![
        Metric::new("server.bytes_in_per_req", bytes_in_per_req, "B"),
        Metric::new("server.bytes_out_per_req", bytes_out_per_req, "B"),
        Metric::new("server.requests_shed", requests_shed, "count"),
        Metric::new("server.connections_rejected", connections_rejected, "count"),
        Metric::new("server.connection_errors", connection_errors, "count"),
    ]
}

/// Merge layer metrics and diagnostics into the full [`PER_LAYER`] list.
pub fn with_diagnostics(layers: Metrics, diagnostics: Metrics) -> Metrics {
    let mut by_name: HashMap<String, f64> = HashMap::new();
    for m in layers.into_iter().chain(diagnostics) {
        by_name.insert(m.name, m.value);
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric::new(name, by_name.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// Everything the traced replay needs.
pub struct Input<'a> {
    /// The workload that ran.
    pub workload: Workload,
    /// The lake fixture.
    pub fx: &'a Fixture,
    /// The workload's streams.
    pub streams: &'a Streams,
    /// Per candidate case: the wire form the server inferred, `None` if
    /// it declined.
    pub outcomes: &'a [Option<String>],
    /// The offline index the server was started on.
    pub index: &'a PatternIndex,
    /// Every request the clients sent.
    pub recs: &'a [Rec],
    /// Pre-rendered classify lines by pool id (`tag_small` only).
    pub tag_lines: &'a [String],
    /// The run's clock.
    pub clock: Clock,
    /// Scratch directory for the twins' state.
    pub work: &'a Path,
    /// Wall-time budget for the replay.
    pub budget: Duration,
}

/// The traced run's result.
pub struct Output {
    /// Per-layer metrics.
    pub metrics: Metrics,
    /// Twin operations checked.
    pub attempted: u64,
    /// Twin operations that failed or disagreed with the server.
    pub failed: u64,
}

/// One replayed request, split by layer (times in ns).
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    rtt: u64,
    /// Twin A: the whole protocol handler.
    handle: u64,
    /// Twin B: `json::parse`.
    parse: u64,
    /// Twin B: the `ValidationService` method.
    engine: u64,
    /// The inner layers' blocking share of `engine`.
    inner: u64,
    bytes: u64,
}

#[derive(Default)]
struct Layers {
    samples: HashMap<Op, Vec<Sample>>,
    /// Per validated column: sequential `validate` minus its session.
    validate_self: Vec<f64>,
    seq_validate_ns: u64,
    batch_ns: u64,
    core_ns: u64,
    core_values: u64,
    classified: u64,
    profile_ms: Vec<f64>,
    touched_frac: Vec<f64>,
    delta_patterns: Vec<f64>,
    ingest_self_ms: Vec<f64>,
    infer_engine_ms: Vec<f64>,
    infer_core_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    writer_io: IoSnapshot,
    writer_ops: u64,
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn open_twin(
    dir: &Path,
    index: &PatternIndex,
    durable: bool,
    storage: Option<CountingStorage>,
) -> Result<ValidationService, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    index
        .save(dir.join(av_service::INDEX_FILE))
        .map_err(|e| format!("{e:?}"))?;
    let mut config = if durable {
        ServiceConfig::durable(dir)
    } else {
        ServiceConfig::with_data_dir(dir)
    };
    if let Some(storage) = storage {
        config.storage = Arc::new(storage);
    }
    ValidationService::open(config).map_err(|e| e.to_string())
}

fn str_values<'a>(v: &'a Json, field: &str) -> Vec<&'a str> {
    v.get(field)
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_str)
        .collect()
}

/// Replay the recorded stream and compute the per-layer metrics.
pub fn run(input: &Input<'_>) -> Result<Output, String> {
    let fx = input.fx;
    let durable = input.workload == Workload::LakeIngest;
    let (counting, io) = CountingStorage::new();
    let twin_a = open_twin(&input.work.join("twin_a"), input.index, durable, None)?;
    let twin_b = open_twin(
        &input.work.join("twin_b"),
        input.index,
        durable,
        Some(counting),
    )?;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut layers = Layers::default();

    // The catalog, on both twins. The catalog infers are the read-only
    // workloads' infer ops.
    let snapshot = twin_b.snapshot();
    let engine = AutoValidate::new(
        &snapshot,
        FmdvConfig::scaled_for_corpus(snapshot.num_columns),
    );
    for (case, served) in fx.candidates.iter().zip(input.outcomes) {
        let a = twin_a.infer_rule(&case.name, &case.train, None);
        let t = Instant::now();
        let b = twin_b.infer_rule(&case.name, &case.train, None);
        let engine_ms = ns(t) as f64 / 1e6;
        let t = Instant::now();
        let _ = engine.infer_auto(&case.train);
        let core_ms = ns(t) as f64 / 1e6;
        // The library must infer (or decline) exactly what the server did.
        attempted += 1;
        let twin =
            |r: &Result<av_service::CatalogEntry, _>| r.as_ref().ok().map(|e| e.rule.to_wire());
        if twin(&a) != *served || twin(&b) != *served {
            failed += 1;
            eprintln!("[trace] twins and server disagree on {}", case.name);
        }
        if !durable && b.is_ok() {
            layers.infer_engine_ms.push(engine_ms);
            layers.infer_core_ms.push(core_ms);
        }
    }
    let mut set = fx.rule_set()?;
    let oracle: HashMap<&str, AnyRule> = fx
        .rules
        .iter()
        .map(|r| r.name.as_str())
        .zip(fx.parsed_rules()?)
        .collect();

    // Replay in send order.
    let mut order: Vec<&Rec> = input.recs.iter().collect();
    order.sort_by_key(|r| (r.t_send, r.conn, r.seq));
    let started = Instant::now();
    let mut line = String::new();
    let mut out = String::new();
    let mut replayed = 0usize;
    for rec in order {
        if started.elapsed() > input.budget {
            break;
        }
        render(input, rec, &mut line);
        attempted += 1;
        replayed += 1;
        // Twin A: the protocol layer end to end.
        let t = Instant::now();
        handle_line_into(&twin_a, &line, &mut out);
        let handle = ns(t);
        if !av_service::response_ok(&out) {
            failed += 1;
            eprintln!("[trace] twin A failed {}: {out}", rec.op.name());
        }
        // Twin B: parse, then the engine method.
        let t = Instant::now();
        let req = json::parse(&line).map_err(|e| e.to_string())?;
        let parse = ns(t);
        let mut s = Sample {
            rtt: rec.lat,
            handle,
            parse,
            bytes: line.len() as u64,
            ..Sample::default()
        };
        match rec.op {
            Op::Classify => {
                let value = req.get("value").and_then(Json::as_str).unwrap_or("");
                let t = Instant::now();
                let outcome = twin_b.classify_batch(&[value]);
                s.engine = ns(t);
                let t = Instant::now();
                let matches = set.classify(value);
                s.inner = ns(t);
                layers.classified += 1;
                if outcome[0].matches != matches {
                    failed += 1;
                }
            }
            Op::ValidateBatch => {
                let raw = req.get("items").and_then(Json::as_arr).unwrap_or(&[]);
                let items: Vec<BatchItem<'_>> = raw
                    .iter()
                    .map(|item| BatchItem {
                        rule: item.get("rule").and_then(Json::as_str).unwrap_or(""),
                        values: str_values(item, "values"),
                    })
                    .collect();
                let t = Instant::now();
                let reports = twin_b.validate_batch(&items);
                s.engine = ns(t);
                let (mut seq_sum, mut core_sum) = (0u64, 0u64);
                for (item, report) in items.iter().zip(&reports) {
                    let t = Instant::now();
                    let _ = twin_b.validate(item.rule, &item.values);
                    let seq = ns(t);
                    let rule = oracle.get(item.rule).ok_or("unknown rule in stream")?;
                    let t = Instant::now();
                    let mut session = ValidationSession::new(rule);
                    session.extend(item.values.iter().copied());
                    let core_report = session.finish();
                    let core = ns(t);
                    if report.as_ref().ok() != Some(&core_report) {
                        failed += 1;
                    }
                    seq_sum += seq;
                    core_sum += core;
                    layers.validate_self.push(seq.saturating_sub(core) as f64);
                    layers.core_values += item.values.len() as u64;
                }
                layers.seq_validate_ns += seq_sum;
                layers.batch_ns += s.engine;
                layers.core_ns += core_sum;
                // Fan-out overlaps the sessions: their blocking share of
                // the batch is their share of the sequential work.
                s.inner = if seq_sum > 0 {
                    ((core_sum as f64 / seq_sum as f64) * s.engine as f64) as u64
                } else {
                    0
                };
            }
            Op::Ingest => {
                let cols: Vec<av_corpus::Column> = req
                    .get("columns")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .map(|c| {
                        let name = c.get("name").and_then(Json::as_str).unwrap_or("");
                        let values = str_values(c, "values").into_iter().map(str::to_string);
                        owned_column(name, values.collect())
                    })
                    .collect();
                let before = io.snapshot();
                let t = Instant::now();
                let report = twin_b.ingest(&cols).map_err(|e| e.to_string())?;
                s.engine = ns(t);
                let spent = io.snapshot().since(&before);
                let refs: Vec<&av_corpus::Column> = cols.iter().collect();
                let t = Instant::now();
                let _ = IndexDelta::profile(&refs, &IndexConfig::default());
                let profile = ns(t);
                s.inner = profile + spent.io_ns();
                layers.profile_ms.push(profile as f64 / 1e6);
                layers
                    .ingest_self_ms
                    .push(s.engine.saturating_sub(s.inner) as f64 / 1e6);
                let shards = twin_b.snapshot().shard_count().max(1);
                layers
                    .touched_frac
                    .push(report.touched_shards as f64 / shards as f64);
                layers.delta_patterns.push(report.delta_patterns as f64);
                writer_io(&mut layers, &spent);
            }
            Op::Infer => {
                let name = req.get("rule").and_then(Json::as_str).unwrap_or("");
                let values = str_values(&req, "values");
                let snapshot = twin_b.snapshot();
                let before = io.snapshot();
                let t = Instant::now();
                twin_b
                    .infer_rule(name, &values, None)
                    .map_err(|e| e.to_string())?;
                s.engine = ns(t);
                let spent = io.snapshot().since(&before);
                let engine = AutoValidate::new(
                    &snapshot,
                    FmdvConfig::scaled_for_corpus(snapshot.num_columns),
                );
                let t = Instant::now();
                let _ = engine.infer_auto(&values);
                let core = ns(t);
                s.inner = core + spent.io_ns();
                layers.infer_engine_ms.push(s.engine as f64 / 1e6);
                layers.infer_core_ms.push(core as f64 / 1e6);
                writer_io(&mut layers, &spent);
            }
            Op::Persist => {
                let before = io.snapshot();
                let t = Instant::now();
                twin_b.persist().map_err(|e| e.to_string())?;
                s.engine = ns(t);
                let spent = io.snapshot().since(&before);
                s.inner = spent.io_ns();
                layers.checkpoint_ms.push(s.engine as f64 / 1e6);
                writer_io(&mut layers, &spent);
            }
        }
        layers.samples.entry(rec.op).or_default().push(s);
    }
    eprintln!(
        "[trace] replayed {replayed} of {} requests in {:.1}s",
        input.recs.len(),
        started.elapsed().as_secs_f64()
    );

    let metrics = compute(input, &layers, &set.matcher_stats());
    print_attribution(input.workload, &layers);
    let sends: Vec<f64> = input
        .recs
        .iter()
        .filter_map(|r| r.t_written.map(|ns| ns as f64 / 1e3))
        .collect();
    println!(
        "client send (request bytes into the socket): median {:.1} us over {} traced requests",
        median(&sends),
        sends.len()
    );
    Ok(Output {
        metrics,
        attempted,
        failed,
    })
}

fn writer_io(layers: &mut Layers, spent: &IoSnapshot) {
    let w = &mut layers.writer_io;
    w.bytes += spent.bytes;
    w.write_ns += spent.write_ns;
    w.syncs += spent.syncs;
    w.sync_ns += spent.sync_ns;
    layers.writer_ops += 1;
}

/// Regenerate the exact request line of `rec`.
fn render(input: &Input<'_>, rec: &Rec, line: &mut String) {
    match input.streams {
        Streams::Tag(tag) => {
            let stream = &tag.conns[rec.conn as usize];
            let id = stream[(rec.seq % stream.len() as u64) as usize];
            line.clear();
            line.push_str(&input.tag_lines[id as usize]);
        }
        Streams::Ingest(ingest) => match rec.op {
            Op::ValidateBatch => {
                let arrivals = &ingest.reader;
                arrivals[(rec.seq % arrivals.len() as u64) as usize].render(input.fx, line);
            }
            _ => ingest.render(rec.seq, line),
        },
    }
}

/// The op a workload's end-to-end latency and throughput are about.
pub fn primary_op(workload: Workload) -> Op {
    match workload {
        Workload::TagSmall => Op::Classify,
        Workload::LakeIngest => Op::Ingest,
    }
}

fn med(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<_>>())
}

fn compute(input: &Input<'_>, l: &Layers, matcher: &av_match::MatcherStats) -> Metrics {
    let us = |ns: f64| ns / 1e3;
    let primary = primary_op(input.workload);
    let empty = Vec::new();
    let p = l.samples.get(&primary).unwrap_or(&empty);
    let get = |op: Op| l.samples.get(&op).unwrap_or(&empty);
    let bytes: u64 = p.iter().map(|s| s.bytes).sum();
    let parse_ns: u64 = p.iter().map(|s| s.parse).sum();
    let mut m = vec![
        Metric::new(
            "server.overhead_us",
            us(med(p, |s| s.rtt as f64 - s.handle as f64)),
            "us",
        ),
        Metric::new("protocol.parse_us", us(med(p, |s| s.parse as f64)), "us"),
        Metric::new(
            "protocol.parse_mb_per_s",
            if parse_ns > 0 {
                bytes as f64 / (parse_ns as f64 / 1e9) / 1e6
            } else {
                0.0
            },
            "MB/s",
        ),
        Metric::new("protocol.handle_us", us(med(p, |s| s.handle as f64)), "us"),
        Metric::new(
            "protocol.self_us",
            us(med(p, |s| {
                s.handle as f64 - s.parse as f64 - s.engine as f64
            })),
            "us",
        ),
    ];
    let classify = get(Op::Classify);
    if !classify.is_empty() {
        m.push(Metric::new(
            "engine.classify_us",
            us(med(classify, |s| s.engine as f64)),
            "us",
        ));
        m.push(Metric::new(
            "engine.classify_self_us",
            us(med(classify, |s| s.engine as f64 - s.inner as f64)),
            "us",
        ));
        m.push(Metric::new(
            "av-match.classify_ns",
            med(classify, |s| s.inner as f64),
            "ns",
        ));
        m.push(Metric::new(
            "av-match.dfa_states",
            matcher.dfa_states as f64,
            "count",
        ));
        m.push(Metric::new(
            "av-match.dfa_evictions",
            matcher.dfa_evictions as f64,
            "count",
        ));
        m.push(Metric::new(
            "av-match.nfa_fallbacks_per_kvalue",
            matcher.nfa_fallbacks as f64 * 1e3 / l.classified.max(1) as f64,
            "count",
        ));
    }
    let batches = get(Op::ValidateBatch);
    if !batches.is_empty() {
        m.push(Metric::new(
            "engine.validate_batch_us",
            us(med(batches, |s| s.engine as f64)),
            "us",
        ));
        m.push(Metric::new(
            "engine.validate_self_us",
            us(median(&l.validate_self)),
            "us",
        ));
        m.push(Metric::new(
            "engine.fanout_ratio",
            l.seq_validate_ns as f64 / l.batch_ns.max(1) as f64,
            "ratio",
        ));
        m.push(Metric::new(
            "av-core.check_ns_per_value",
            l.core_ns as f64 / l.core_values.max(1) as f64,
            "ns",
        ));
    }
    let ingests = get(Op::Ingest);
    if !ingests.is_empty() {
        m.push(Metric::new(
            "engine.ingest_ms",
            med(ingests, |s| s.engine as f64) / 1e6,
            "ms",
        ));
        m.push(Metric::new(
            "engine.ingest_self_ms",
            median(&l.ingest_self_ms),
            "ms",
        ));
        m.push(Metric::new(
            "av-index.profile_ms",
            median(&l.profile_ms),
            "ms",
        ));
        m.push(Metric::new(
            "av-index.touched_shards_frac",
            mean(&l.touched_frac),
            "fraction",
        ));
        m.push(Metric::new(
            "av-index.delta_patterns",
            mean(&l.delta_patterns),
            "count",
        ));
    }
    m.push(Metric::new(
        "engine.infer_ms",
        median(&l.infer_engine_ms),
        "ms",
    ));
    m.push(Metric::new(
        "av-core.infer_ms",
        median(&l.infer_core_ms),
        "ms",
    ));
    if l.writer_ops > 0 {
        let n = l.writer_ops as f64;
        let w = &l.writer_io;
        m.push(Metric::new(
            "av-durable.fsyncs_per_op",
            w.syncs as f64 / n,
            "count",
        ));
        m.push(Metric::new(
            "av-durable.sync_ms_per_op",
            w.sync_ns as f64 / 1e6 / n,
            "ms",
        ));
        m.push(Metric::new(
            "av-durable.bytes_per_op",
            w.bytes as f64 / n,
            "B",
        ));
        m.push(Metric::new(
            "av-durable.checkpoint_ms",
            median(&l.checkpoint_ms),
            "ms",
        ));
    }
    // Tracing overhead: the primary op's client latency with per-request
    // spans recorded versus without, within this run.
    let lat = |traced: bool| {
        let v: Vec<f64> = input
            .recs
            .iter()
            .filter(|r| {
                r.op == primary && input.clock.measured(r.t_send) && r.t_written.is_some() == traced
            })
            .map(|r| r.lat as f64)
            .collect();
        median(&v)
    };
    let untraced = lat(false);
    m.push(Metric::new(
        "trace.overhead_frac",
        if untraced > 0.0 {
            lat(true) / untraced - 1.0
        } else {
            0.0
        },
        "fraction",
    ));
    m
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The attribution table: each op's median round trip split along its
/// blocking chain, with each part's share of the round trip. The parts
/// are averaged over the requests whose round trip lies in the middle
/// fifth (40th–60th percentile), so they add up to that band's round trip
/// exactly; medians taken part by part would not add up.
fn print_attribution(workload: Workload, l: &Layers) {
    println!(
        "attribution ({}): requests around the median round trip, split by layer (us, share)",
        workload.name()
    );
    println!(
        "{:<15} {:>7} {:>11} {:>17} {:>17} {:>17} {:>17} {:>17}",
        "op", "n", "rtt_us", "server", "protocol.parse", "protocol.self", "engine.self", "inner"
    );
    let mut ops: Vec<&Op> = l.samples.keys().collect();
    ops.sort();
    for op in ops {
        let mut band = l.samples[op].clone();
        band.sort_by_key(|x| x.rtt);
        let n = band.len();
        let band = &band[n * 2 / 5..(n * 3 / 5).max(n * 2 / 5 + 1)];
        let mean = |f: &dyn Fn(&Sample) -> f64| band.iter().map(f).sum::<f64>() / band.len() as f64;
        let rtt = mean(&|x| x.rtt as f64);
        let parts = [
            mean(&|x| x.rtt as f64 - x.handle as f64),
            mean(&|x| x.parse as f64),
            mean(&|x| x.handle as f64 - x.parse as f64 - x.engine as f64),
            mean(&|x| x.engine as f64 - x.inner as f64),
            mean(&|x| x.inner as f64),
        ];
        let cell = |ns: f64| format!("{:.1} ({:.1}%)", ns / 1e3, 100.0 * ns / rtt.max(1.0));
        println!(
            "{:<15} {:>7} {:>11.1} {:>17} {:>17} {:>17} {:>17} {:>17}",
            op.name(),
            n,
            rtt / 1e3,
            cell(parts[0]),
            cell(parts[1]),
            cell(parts[2]),
            cell(parts[3]),
            cell(parts[4])
        );
    }
    println!(
        "inner = av-match scan (classify); av-core sessions, blocking share (validate_batch); \
         av-index profile + av-durable I/O (ingest); av-core inference + av-durable I/O (infer); \
         av-durable I/O (persist)"
    );
}
