//! The closed-loop clients and the output oracle.
//!
//! Every response is checked against a value computed in process before
//! the timed phase; a mismatch counts as a failed op, never a panic.

use crate::gen::{
    writer_kind, Arrival, Fixture, IngestStream, TagStream, WriterKind, INGEST_COLUMNS,
    PERSIST_EVERY,
};
use crate::jsonl::{self, Val};
use crate::server::Conn;
use av_core::{AnyRule, ValidationReport, ValidationSession};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Classify frames pipelined per burst.
pub const BURST: usize = 8;
/// The writer runs on past the deadline until this many ops follow the
/// last `persist`, so every run leaves the same WAL tail to recover.
pub const WAL_TAIL_OPS: u64 = 32;

/// The request kinds the benchmark sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    /// `classify` of one value.
    Classify,
    /// `validate_batch` of one arrival.
    ValidateBatch,
    /// `ingest` of fresh columns.
    Ingest,
    /// `infer` of a new rule.
    Infer,
    /// `persist` (incremental checkpoint).
    Persist,
}

impl Op {
    /// Protocol op name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Classify => "classify",
            Op::ValidateBatch => "validate_batch",
            Op::Ingest => "ingest",
            Op::Infer => "infer",
            Op::Persist => "persist",
        }
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    /// Connection index.
    pub conn: u8,
    /// Request kind.
    pub op: Op,
    /// Position in the connection's stream (the writer op number for
    /// writer ops), which regenerates the exact request line.
    pub seq: u64,
    /// Send time, ns since the run started.
    pub t_send: u64,
    /// Send to response received, ns.
    pub lat: u64,
    /// Work items the request carries: values classified, columns
    /// validated or ingested.
    pub items: u32,
    /// Send call returned, ns after `t_send` (traced requests only).
    pub t_written: Option<u64>,
    /// Did the response pass the oracle?
    pub ok: bool,
}

/// Phase boundaries of a run, in ns since `start`.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    /// Run start.
    pub start: Instant,
    /// End of warm-up: requests sent before it are checked, not measured.
    pub warm_end: u64,
    /// Traced run: alternate units of requests — bursts, passes over the
    /// feed tables, writer ops — record their send span, so traced and
    /// untraced requests interleave over the same period.
    pub tracing: bool,
    /// No request is sent at or after this point (the writer excepted).
    pub end: u64,
}

impl Clock {
    /// Now, in ns since start.
    pub fn now(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Do the requests of unit number `unit` record their send span?
    pub fn traced(&self, unit: u64) -> bool {
        self.tracing && unit % 2 == 1
    }

    /// Is a request sent at `t` inside the measured window?
    pub fn measured(&self, t: u64) -> bool {
        t >= self.warm_end && t < self.end
    }
}

/// What one connection did.
#[derive(Debug, Default)]
pub struct ConnOut {
    /// Every request sent.
    pub recs: Vec<Rec>,
    /// Requests that failed the oracle or never got an answer.
    pub failed: u64,
    /// Bytes sent.
    pub bytes_out: u64,
    /// Bytes received.
    pub bytes_in: u64,
    /// Measured clean columns, and how many of them were flagged.
    pub clean: (u64, u64),
    /// Measured drifted columns, and how many of them were flagged.
    pub drifted: (u64, u64),
    /// Acknowledged ingests (writer only).
    pub ingests_acked: u64,
    /// Acknowledged live rules and their wire forms (writer only).
    pub rules_acked: Vec<(String, String)>,
    /// First few failure descriptions.
    pub errors: Vec<String>,
}

impl ConnOut {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    fn finish(mut self, conn: &Conn) -> ConnOut {
        self.bytes_in = conn.bytes_in;
        self.bytes_out = conn.bytes_out;
        self
    }
}

/// Check a `classify` response for `value` against the expected ranked
/// rule list.
pub fn check_classify(line: &str, value: &str, expected: &[String]) -> Result<(), String> {
    let v = jsonl::parse(line)?;
    if !v.ok() {
        return Err(format!("classify failed: {line}"));
    }
    let results = v.get("results").and_then(Val::arr).ok_or("no results")?;
    let [r] = results else {
        return Err(format!("expected one result: {line}"));
    };
    if r.get("value").and_then(Val::str) != Some(value) {
        return Err(format!("wrong value echoed: {line}"));
    }
    let rules: Vec<&str> = r
        .get("rules")
        .and_then(Val::arr)
        .ok_or("no rules")?
        .iter()
        .map(|x| x.str().unwrap_or("\u{0}"))
        .collect();
    if rules != expected.iter().map(String::as_str).collect::<Vec<_>>()
        || r.get("best").and_then(Val::str) != expected.first().map(String::as_str)
    {
        return Err(format!(
            "classify {value:?}: got {rules:?}, want {expected:?}"
        ));
    }
    Ok(())
}

fn same_num(got: Option<&Val>, want: f64) -> bool {
    match got {
        Some(Val::Num(n)) => *n == want,
        Some(Val::Null) => !want.is_finite(),
        _ => false,
    }
}

/// Check a `validate_batch` response against the expected reports;
/// returns each column's `flagged`.
pub fn check_batch(line: &str, expected: &[ValidationReport]) -> Result<Vec<bool>, String> {
    let v = jsonl::parse(line)?;
    if !v.ok() {
        return Err(format!("validate_batch failed: {line}"));
    }
    let results = v.get("results").and_then(Val::arr).ok_or("no results")?;
    if results.len() != expected.len() {
        return Err(format!(
            "{} results for {} items",
            results.len(),
            expected.len()
        ));
    }
    results
        .iter()
        .zip(expected)
        .map(|(r, want)| {
            let matches = r.ok()
                && same_num(r.get("checked"), want.checked as f64)
                && same_num(r.get("nonconforming"), want.nonconforming as f64)
                && same_num(r.get("nonconforming_frac"), want.nonconforming_frac)
                && same_num(r.get("p_value"), want.p_value)
                && r.get("flagged").and_then(Val::bool) == Some(want.flagged);
            if matches {
                Ok(want.flagged)
            } else {
                Err(format!("report mismatch: got {r:?}, want {want:?}"))
            }
        })
        .collect()
}

/// Expected reports of an arrival: one in-process session per column over
/// the rule parsed from the service's own wire form.
pub fn expected_reports(fx: &Fixture, rules: &[AnyRule], a: &Arrival) -> Vec<ValidationReport> {
    a.items
        .iter()
        .map(|item| {
            let test = &fx.rules[item.source as usize].test;
            let mut session = ValidationSession::new(&rules[item.rule as usize]);
            session.extend(item.values.iter().map(|&v| test[v as usize].as_str()));
            session.finish()
        })
        .collect()
}

fn io_abort(out: &mut ConnOut, e: std::io::Error) {
    out.fail(format!("connection lost: {e}"));
}

/// `tag_small` on one connection: bursts of [`BURST`] pipelined
/// single-value classify frames until the clock ends.
pub fn run_tag(
    addr: SocketAddr,
    conn_id: u8,
    clock: Clock,
    tag: &TagStream,
    lines: &[String],
    expected: &[Vec<String>],
) -> ConnOut {
    let mut out = ConnOut::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            io_abort(&mut out, e);
            return out;
        }
    };
    let stream = &tag.conns[conn_id as usize];
    let mut burst = Vec::new();
    let mut line = String::new();
    let mut seq = 0u64;
    'run: while clock.now() < clock.end {
        burst.clear();
        for k in 0..BURST as u64 {
            let id = stream[((seq + k) % stream.len() as u64) as usize];
            burst.extend_from_slice(lines[id as usize].as_bytes());
            burst.push(b'\n');
        }
        let t_send = clock.now();
        if let Err(e) = conn.send(&burst) {
            io_abort(&mut out, e);
            break;
        }
        let t_written = clock
            .traced(seq / BURST as u64)
            .then(|| clock.now() - t_send);
        for k in 0..BURST as u64 {
            let id = stream[((seq + k) % stream.len() as u64) as usize] as usize;
            if let Err(e) = conn.recv(&mut line) {
                io_abort(&mut out, e);
                break 'run;
            }
            let lat = clock.now() - t_send;
            let ok = match check_classify(&line, &tag.pool[id], &expected[id]) {
                Ok(()) => true,
                Err(e) => {
                    out.fail(e);
                    false
                }
            };
            out.recs.push(Rec {
                conn: conn_id,
                op: Op::Classify,
                seq: seq + k,
                t_send,
                lat,
                items: 1,
                t_written,
                ok,
            });
        }
        seq += BURST as u64;
    }
    out.finish(&conn)
}

/// One connection's feed traffic and its oracle.
#[derive(Clone, Copy)]
pub struct Feed<'a> {
    /// The lake fixture the arrivals index into.
    pub fx: &'a Fixture,
    /// The arrivals, sent in order (cycled when exhausted).
    pub arrivals: &'a [Arrival],
    /// Expected reports, per arrival.
    pub expected: &'a [Vec<ValidationReport>],
    /// Arrivals per pass over the feed tables.
    pub pass_len: u64,
}

/// Feed traffic on one connection: one `validate_batch` per arrival, the
/// next sent when the previous answer is in, until `stop` is set.
pub fn run_feeds(
    addr: SocketAddr,
    conn_id: u8,
    clock: Clock,
    feed: Feed<'_>,
    stop: &AtomicBool,
) -> ConnOut {
    let Feed {
        fx,
        arrivals,
        expected,
        pass_len,
    } = feed;
    let mut out = ConnOut::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            io_abort(&mut out, e);
            return out;
        }
    };
    let mut request = String::new();
    let mut line = String::new();
    let mut seq = 0u64;
    while !stop.load(Ordering::Acquire) {
        let idx = (seq % arrivals.len() as u64) as usize;
        let arrival = &arrivals[idx];
        arrival.render(fx, &mut request);
        request.push('\n');
        let t_send = clock.now();
        if let Err(e) = conn.send(request.as_bytes()) {
            io_abort(&mut out, e);
            break;
        }
        // Whole passes alternate between traced and untraced, so both
        // halves carry the same mix of feed tables.
        let t_written = clock.traced(seq / pass_len).then(|| clock.now() - t_send);
        if let Err(e) = conn.recv(&mut line) {
            io_abort(&mut out, e);
            break;
        }
        let lat = clock.now() - t_send;
        let ok = match check_batch(&line, &expected[idx]) {
            Ok(flags) => {
                if clock.measured(t_send) {
                    for (item, flagged) in arrival.items.iter().zip(flags) {
                        let tally = if item.drifted {
                            &mut out.drifted
                        } else {
                            &mut out.clean
                        };
                        tally.0 += 1;
                        tally.1 += flagged as u64;
                    }
                }
                true
            }
            Err(e) => {
                out.fail(e);
                false
            }
        };
        out.recs.push(Rec {
            conn: conn_id,
            op: Op::ValidateBatch,
            seq,
            t_send,
            lat,
            items: arrival.items.len() as u32,
            t_written,
            ok,
        });
        seq += 1;
    }
    out.finish(&conn)
}

/// The `lake_ingest` writer: ingest / infer / persist ops in the fixed
/// cadence until the clock ends, then on until the WAL tail holds
/// [`WAL_TAIL_OPS`] ops. Sets `done` when it stops.
pub fn run_writer(
    addr: SocketAddr,
    conn_id: u8,
    clock: Clock,
    stream: &IngestStream,
    base_columns: u64,
    done: &AtomicBool,
) -> ConnOut {
    let mut out = ConnOut::default();
    let result = (|| -> std::io::Result<()> {
        let mut conn = Conn::open(addr)?;
        let mut request = String::new();
        let mut line = String::new();
        // Past the deadline the writer only closes its WAL tail; give up
        // on that if the server has stalled badly.
        let hard_stop = clock.end + Duration::from_secs(60).as_nanos() as u64;
        let mut i = 1u64;
        loop {
            let done_ops = i - 1;
            let now = clock.now();
            if (now >= clock.end && done_ops % PERSIST_EVERY == WAL_TAIL_OPS) || now >= hard_stop {
                break;
            }
            stream.render(i, &mut request);
            request.push('\n');
            let kind = writer_kind(i);
            let t_send = clock.now();
            conn.send(request.as_bytes())?;
            let t_written = clock.traced(i).then(|| clock.now() - t_send);
            conn.recv(&mut line)?;
            let lat = clock.now() - t_send;
            let verdict = check_writer(&line, kind, i, base_columns, &mut out);
            let (op, items) = match kind {
                WriterKind::Ingest => (Op::Ingest, INGEST_COLUMNS as u32),
                WriterKind::Infer => (Op::Infer, 1),
                WriterKind::Persist => (Op::Persist, 0),
            };
            let ok = verdict.is_ok();
            if let Err(e) = verdict {
                out.fail(e);
            }
            out.recs.push(Rec {
                conn: conn_id,
                op,
                seq: i,
                t_send,
                lat,
                items,
                t_written,
                ok,
            });
            i += 1;
        }
        out.bytes_in = conn.bytes_in;
        out.bytes_out = conn.bytes_out;
        Ok(())
    })();
    if let Err(e) = result {
        io_abort(&mut out, e);
    }
    done.store(true, Ordering::Release);
    out
}

fn check_writer(
    line: &str,
    kind: WriterKind,
    i: u64,
    base_columns: u64,
    out: &mut ConnOut,
) -> Result<(), String> {
    let v = jsonl::parse(line)?;
    if !v.ok() {
        return Err(format!("writer op {i} failed: {line}"));
    }
    match kind {
        WriterKind::Ingest => {
            // One writer, in order: every ack must count exactly the
            // columns acknowledged so far.
            let want = base_columns + (out.ingests_acked + 1) * INGEST_COLUMNS as u64;
            let total = v.get("total_columns").and_then(Val::num);
            let added = v.get("columns_added").and_then(Val::num);
            if total != Some(want as f64) || added != Some(INGEST_COLUMNS as f64) {
                return Err(format!("ingest {i}: total {total:?}, want {want}"));
            }
            out.ingests_acked += 1;
        }
        WriterKind::Infer => {
            let name = format!("live/{i}");
            let wire = v.get("wire").and_then(Val::str).ok_or("infer: no wire")?;
            if v.get("rule").and_then(Val::str) != Some(name.as_str()) {
                return Err(format!("infer {i}: wrong rule name"));
            }
            AnyRule::from_wire(wire).map_err(|e| format!("infer {i}: bad wire {e:?}"))?;
            out.rules_acked.push((name, wire.to_string()));
        }
        WriterKind::Persist => {
            if v.get("persisted").and_then(Val::bool) != Some(true) {
                return Err(format!("persist {i}: not persisted"));
            }
        }
    }
    Ok(())
}
