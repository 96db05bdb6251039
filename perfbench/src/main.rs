//! `perfbench` — run one benchmark workload against `av-serve`.
//!
//! ```sh
//! bash perfbench/run.sh --workload lake_ingest --seed 7 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Progress and diagnostics go to standard error.

use av_index::PatternIndex;
use perfbench::drive::{self, ConnOut, Op, Rec};
use perfbench::gen::{self, Fixture, Streams, Workload, INGEST_COLUMNS};
use perfbench::jsonl::{self, Val};
use perfbench::server::{Conn, Server, WorkDir};
use perfbench::trace::{self, Metric, Metrics};
use perfbench::util::{median, tail};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Kill-and-restart cycles per run; `recover_s` is their median.
const RECOVER_REPS: u32 = 25;
/// Restarts begin at this cadence (or as soon as the previous one is
/// done), so the median spans seconds of host time rather than one
/// burst of it.
const RECOVER_CADENCE: Duration = Duration::from_millis(250);

/// The end-to-end metrics, as `BENCHMARK.json` lists them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("server_rss_mb", "MiB"),
    ("items_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("recover_s", "s"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut server = None;
    let mut work = PathBuf::from(".bench_work");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => seconds = value.parse().map_err(|_| "bad --seconds")?,
            "--trace" => trace = value == "1",
            "--server" => server = Some(PathBuf::from(value)),
            "--work" => work = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        server: server.ok_or("--server is required")?,
        work,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Counts of checked operations.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[check] FAILED: {}", what());
        }
    }

    fn add(&mut self, out: &ConnOut) {
        self.attempted += out.recs.len() as u64;
        // A lost connection fails without a record of its own.
        self.failed += out.failed;
        if out.failed > out.recs.iter().filter(|r| !r.ok).count() as u64 {
            self.attempted += 1;
        }
        for e in &out.errors {
            eprintln!("[check] FAILED: {e}");
        }
    }
}

/// A server set up with the catalog.
struct Setup {
    server: Server,
    dir: PathBuf,
    /// Per candidate: the inferred rule's wire form, `None` if declined.
    wires: Vec<Option<String>>,
    index: PatternIndex,
}

/// One set-up: build the offline index, start the server on it, infer the
/// catalog over TCP. Returns the set-up and its wall time.
fn setup(
    args: &Args,
    fx: &Fixture,
    dir: &Path,
    durable: bool,
    tally: &mut Tally,
) -> Result<(Setup, f64), String> {
    let t0 = Instant::now();
    let index = gen::build_index(&fx.corpus);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    index
        .save(dir.join(av_service::INDEX_FILE))
        .map_err(|e| format!("saving index: {e:?}"))?;
    let server = Server::spawn(&args.server, dir, durable).map_err(|e| e.to_string())?;
    // The catalog is inferred over both client connections.
    let n = fx.candidates.len();
    let replies: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                let addr = server.addr;
                s.spawn(move || -> Result<Vec<String>, String> {
                    let mut conn = Conn::open(addr).map_err(|e| e.to_string())?;
                    (c..n)
                        .step_by(2)
                        .map(|i| conn.call(&fx.infer_line(i)).map_err(|e| e.to_string()))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("setup client"))
            .collect::<Result<_, _>>()
    })?;
    let mut wires = Vec::with_capacity(n);
    for (i, case) in fx.candidates.iter().enumerate() {
        let reply = &replies[i % 2][i / 2];
        let v = jsonl::parse(reply).unwrap_or(Val::Null);
        // A decline ("inference failed: …") is a correct answer: the case
        // simply stays out of the catalog. Anything else must be a rule.
        let declined = v
            .get("error")
            .and_then(Val::str)
            .is_some_and(|e| e.starts_with("inference failed"));
        let wire = v.get("wire").and_then(Val::str).map(str::to_string);
        tally.check(declined || (v.ok() && wire.is_some()), || {
            format!("infer {}: {reply}", case.name)
        });
        wires.push(wire);
    }
    let secs = t0.elapsed().as_secs_f64();
    Ok((
        Setup {
            server,
            dir: dir.to_path_buf(),
            wires,
            index,
        },
        secs,
    ))
}

/// The service's overload and error counters, from the `stats` op.
#[derive(Debug, Default, Clone, Copy)]
struct ServerCounters {
    requests_shed: f64,
    connections_rejected: f64,
    connection_errors: f64,
    index_columns: f64,
    replayed_records: f64,
}

fn stats(server: &Server) -> Result<ServerCounters, String> {
    let mut conn = Conn::open(server.addr).map_err(|e| e.to_string())?;
    let reply = conn.call("{\"op\":\"stats\"}").map_err(|e| e.to_string())?;
    let v = jsonl::parse(&reply)?;
    let num = |k: &str| v.get(k).and_then(Val::num).unwrap_or(f64::NAN);
    Ok(ServerCounters {
        requests_shed: num("requests_shed"),
        connections_rejected: num("connections_rejected"),
        connection_errors: num("connection_errors"),
        index_columns: num("index_columns"),
        replayed_records: v
            .get("durability")
            .and_then(|d| d.get("replayed_records"))
            .and_then(Val::num)
            .unwrap_or(0.0),
    })
}

/// Restart `av-serve` on `dir` and time it from spawn to the first `ping`
/// answered.
fn restart(args: &Args, dir: &Path, durable: bool) -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    let server = Server::spawn(&args.server, dir, durable).map_err(|e| e.to_string())?;
    let mut conn = Conn::open(server.addr).map_err(|e| e.to_string())?;
    let reply = conn.call("{\"op\":\"ping\"}").map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64();
    if !jsonl::parse(&reply).is_ok_and(|v| v.ok()) {
        return Err(format!("ping after restart: {reply}"));
    }
    Ok((server, secs))
}

/// Every rule must come back with a byte-identical wire form.
fn check_rules(
    server: &Server,
    rules: &[(String, String)],
    tally: &mut Tally,
) -> Result<(), String> {
    let mut conn = Conn::open(server.addr).map_err(|e| e.to_string())?;
    for (name, wire) in rules {
        let mut request = String::from("{\"op\":\"rule\",\"name\":");
        jsonl::push_str(&mut request, name);
        request.push('}');
        let reply = conn.call(&request).map_err(|e| e.to_string())?;
        let got = jsonl::parse(&reply)
            .ok()
            .and_then(|v| v.get("wire").and_then(Val::str).map(str::to_string));
        tally.check(got.as_deref() == Some(wire.as_str()), || {
            format!("recovered rule {name}: {reply}")
        });
    }
    Ok(())
}

/// The result line.
struct Outcome {
    tally: Tally,
    metrics: Metrics,
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.tally.failed == 0,
            self.tally.attempted.max(1),
            self.tally.failed
        )?;
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            write!(
                f,
                "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                m.name, m.unit
            )?;
        }
        write!(f, "}}}}")
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The requests of kind `op` sent inside the measured window.
fn measured_set<'a>(recs: &'a [Rec], clock: &drive::Clock, op: Op) -> Vec<&'a Rec> {
    recs.iter()
        .filter(|r| r.op == op && clock.measured(r.t_send))
        .collect()
}

fn lat_ms(set: &[&Rec]) -> Vec<f64> {
    set.iter().map(|r| ms(r.lat)).collect()
}

fn run(args: &Args) -> Result<Outcome, String> {
    let wl = args.workload;
    let durable = wl == Workload::LakeIngest;
    let mut fx = Fixture::build();
    let work = WorkDir::create(&args.work, wl.name()).map_err(|e| e.to_string())?;
    let mut tally = Tally::default();
    let mut setup_secs = Vec::new();
    let mut kept: Option<Setup> = None;
    let mut first_wires = None;
    for rep in 0..SETUP_REPS {
        if let Some(prev) = kept.take() {
            prev.server.shutdown();
            let _ = std::fs::remove_dir_all(&prev.dir);
        }
        let dir = work.0.join(format!("setup{rep}"));
        let (s, secs) = setup(args, &fx, &dir, durable, &mut tally)?;
        setup_secs.push(secs);
        match &first_wires {
            None => first_wires = Some(s.wires.clone()),
            // Every set-up must catalog exactly the same rules.
            Some(first) => {
                for ((a, b), case) in first.iter().zip(&s.wires).zip(&fx.candidates) {
                    tally.check(a == b, || {
                        format!("set-up {rep} disagrees on {}", case.name)
                    });
                }
            }
        }
        kept = Some(s);
    }
    let Setup {
        server,
        dir,
        wires,
        index,
    } = kept.expect("at least one set-up");
    fx.set_catalog(&wires);
    eprintln!(
        "[setup] {setup_secs:.3?} s; {} rules cataloged, {} declined",
        fx.rules.len(),
        fx.candidates.len() - fx.rules.len()
    );

    // The request stream (input generation, outside every timed phase).
    let streams = gen::generate(&fx, wl, args.seed);
    let digest = gen::stream_digest(&fx, &streams);
    println!(
        "stream digest {digest:016x} (workload {}, seed {})",
        wl.name(),
        args.seed
    );
    let oracle_rules = fx.parsed_rules()?;
    let base = stats(&server)?;

    // Oracle values for the whole stream, computed before the clock runs.
    let mut tag_lines = Vec::new();
    let mut tag_expected: Vec<Vec<String>> = Vec::new();
    let feed_expected: Vec<Vec<av_core::ValidationReport>> = match &streams {
        Streams::Tag(tag) => {
            let mut set = fx.rule_set()?;
            tag_expected = tag.pool.iter().map(|v| set.classify(v)).collect();
            tag_lines = (0..tag.pool.len() as u32).map(|id| tag.line(id)).collect();
            Vec::new()
        }
        Streams::Ingest(ingest) => ingest
            .reader
            .iter()
            .map(|a| drive::expected_reports(&fx, &oracle_rules, a))
            .collect(),
    };

    let pass_len = gen::feed_tables(&fx).len() as u64;

    // The timed phase.
    let seconds = args.seconds;
    let warm = if durable {
        0.0
    } else {
        (seconds * 0.1).clamp(0.2, 1.0)
    };
    let to_ns = |s: f64| (s * 1e9) as u64;
    let clock = drive::Clock {
        start: Instant::now(),
        warm_end: to_ns(warm),
        tracing: args.trace,
        end: to_ns(warm + seconds),
    };
    let addr = server.addr;
    let writer_done = AtomicBool::new(false);
    let outs: Vec<ConnOut> = std::thread::scope(|s| match &streams {
        Streams::Tag(tag) => {
            let (lines, expected) = (&tag_lines, &tag_expected);
            let handles: Vec<_> = (0..2u8)
                .map(|c| s.spawn(move || drive::run_tag(addr, c, clock, tag, lines, expected)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client"))
                .collect()
        }
        Streams::Ingest(ingest) => {
            let base_columns = base.index_columns as u64;
            let done = &writer_done;
            let writer =
                s.spawn(move || drive::run_writer(addr, 0, clock, ingest, base_columns, done));
            let feed = drive::Feed {
                fx: &fx,
                arrivals: &ingest.reader,
                expected: &feed_expected,
                pass_len,
            };
            let reader = s.spawn(move || drive::run_feeds(addr, 1, clock, feed, done));
            vec![
                writer.join().expect("writer"),
                reader.join().expect("reader"),
            ]
        }
    });
    for out in &outs {
        tally.add(out);
    }
    let recs: Vec<Rec> = outs.iter().flat_map(|o| o.recs.iter().copied()).collect();
    let after = stats(&server)?;
    tally.check(
        after.requests_shed == 0.0 && after.connections_rejected == 0.0,
        || format!("server shed load: {after:?}"),
    );
    let rss = server.peak_rss_mb().unwrap_or(f64::NAN);

    // Kill and restart: crash recovery from the WAL in durable mode, a
    // reload of the persisted index and catalog otherwise.
    let mut must_hold: Vec<(String, String)> = fx
        .rules
        .iter()
        .map(|r| (r.name.clone(), r.wire.clone()))
        .collect();
    let mut want_columns = base.index_columns;
    if durable {
        let writer = &outs[0];
        must_hold.extend(writer.rules_acked.iter().cloned());
        want_columns += (writer.ingests_acked * INGEST_COLUMNS as u64) as f64;
    } else {
        let mut conn = Conn::open(server.addr).map_err(|e| e.to_string())?;
        let reply = conn
            .call("{\"op\":\"persist\"}")
            .map_err(|e| e.to_string())?;
        tally.check(jsonl::parse(&reply).is_ok_and(|v| v.ok()), || {
            format!("persist: {reply}")
        });
    }
    server.kill();
    let mut recover_secs = Vec::new();
    let mut last: Option<Server> = None;
    let first = Instant::now();
    for rep in 0..RECOVER_REPS {
        if let Some(previous) = last.take() {
            previous.kill();
        }
        std::thread::sleep(
            (first + RECOVER_CADENCE * rep).saturating_duration_since(Instant::now()),
        );
        let (server, secs) = restart(args, &dir, durable)?;
        recover_secs.push(secs);
        last = Some(server);
    }
    let server = last.expect("restarted");
    let rec_stats = stats(&server)?;
    tally.check(rec_stats.index_columns == want_columns, || {
        format!(
            "recovered {} columns, acknowledged {want_columns}",
            rec_stats.index_columns
        )
    });
    check_rules(&server, &must_hold, &mut tally)?;
    server.shutdown();
    eprintln!("[recover] {recover_secs:.3?} s");

    // End-to-end numbers and the issue-named diagnostics.
    let primary = trace::primary_op(wl);
    let set = measured_set(&recs, &clock, primary);
    let span = (clock.end - clock.warm_end) as f64 / 1e9;
    let items_per_s = set.iter().map(|r| r.items as f64).sum::<f64>() / span;
    let set_lat = lat_ms(&set);
    let p50 = median(&set_lat);
    let p90 = tail(&set_lat, 0.9).unwrap_or(f64::NAN);
    let mut diag = Metrics::new();
    let (clean, drifted) = outs.iter().fold(((0, 0), (0, 0)), |acc, o| {
        (
            (acc.0 .0 + o.clean.0, acc.0 .1 + o.clean.1),
            (acc.1 .0 + o.drifted.0, acc.1 .1 + o.drifted.1),
        )
    });
    let frac = |(n, k): (u64, u64)| if n > 0 { k as f64 / n as f64 } else { 0.0 };
    match wl {
        Workload::TagSmall => {
            diag.push(Metric::new("classify_rps", items_per_s, "1/s"));
            diag.push(Metric::new("classify_p50_us", p50 * 1e3, "us"));
            diag.push(Metric::new(
                "classify_p99_us",
                tail(&set_lat, 0.99).unwrap_or(f64::NAN) * 1e3,
                "us",
            ));
        }
        Workload::LakeIngest => {
            diag.push(Metric::new("ingest_cols_per_s", items_per_s, "1/s"));
            diag.push(Metric::new("ingest_p50_ms", p50, "ms"));
            diag.push(Metric::new("ingest_p90_ms", p90, "ms"));
            diag.push(Metric::new(
                "infer_p50_ms",
                median(&lat_ms(&measured_set(&recs, &clock, Op::Infer))),
                "ms",
            ));
            diag.push(Metric::new(
                "mixed_validate_p50_ms",
                median(&lat_ms(&measured_set(&recs, &clock, Op::ValidateBatch))),
                "ms",
            ));
            diag.push(Metric::new("validate_fpr", frac(clean), "fraction"));
            diag.push(Metric::new("validate_recall", frac(drifted), "fraction"));
        }
    }
    eprintln!(
        "[run] {} {} requests measured; {} attempted, {} failed",
        set.len(),
        primary.name(),
        tally.attempted,
        tally.failed
    );
    for m in &diag {
        eprintln!("[run] {:<24} {:>14.4} {}", m.name, m.value, m.unit);
    }

    let metrics = if args.trace {
        let layer = trace::run(&trace::Input {
            workload: wl,
            fx: &fx,
            streams: &streams,
            outcomes: &wires,
            index: &index,
            recs: &recs,
            tag_lines: &tag_lines,
            clock,
            work: &work.0,
            budget: Duration::from_secs_f64(seconds.clamp(2.0, 10.0) * 1.5),
        })?;
        tally.attempted += layer.attempted;
        tally.failed += layer.failed;
        let bytes_in: u64 = outs.iter().map(|o| o.bytes_in).sum();
        let bytes_out: u64 = outs.iter().map(|o| o.bytes_out).sum();
        let n = recs.len().max(1) as f64;
        let mut m = trace::server_metrics(
            bytes_out as f64 / n,
            bytes_in as f64 / n,
            after.requests_shed,
            after.connections_rejected,
            after.connection_errors,
        );
        m.extend(layer.metrics);
        m.push(Metric::new(
            "av-durable.replayed_records",
            rec_stats.replayed_records,
            "count",
        ));
        trace::with_diagnostics(m, diag)
    } else {
        let e2e = [
            median(&setup_secs),
            rss,
            items_per_s,
            p50,
            p90,
            median(&recover_secs),
        ];
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(name, unit), value)| Metric::new(name, value, unit))
            .collect()
    };
    drop(work);
    Ok(Outcome { tally, metrics })
}
