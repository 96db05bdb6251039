//! Input generation: the lake fixture, its rule catalog, and the request
//! stream of each workload.
//!
//! The lake is the enterprise profile at the Small-scale preset (4000
//! columns), generated from a fixed seed: it plays the part of the data
//! lake a deployment mines once. The workload seed drives everything the
//! clients send — which values, tables and drifts a stream holds, and the
//! fresh columns the ingest workload writes — so the same seed always
//! yields the same request stream, and [`stream_digest`] proves it.

use crate::jsonl::{push_str, push_str_array};
use crate::util::{Digest, Rng, Zipf};
use av_core::{AnyRule, AutoValidate, FmdvConfig, RuleSet};
use av_corpus::{generate_lake, Benchmark, Column, ColumnKind, Corpus, LakeProfile};
use av_index::{IndexConfig, PatternIndex};
use std::collections::{HashMap, HashSet, VecDeque};

/// Seed of the lake fixture.
pub const LAKE_SEED: u64 = 2021;
/// Lake size: the enterprise profile at the Small-scale preset.
pub const LAKE_COLUMNS: usize = 4000;
/// Benchmark cases sampled from the lake (10% train / 90% held out).
pub const CASES: usize = 300;
/// Values kept per case before the split (the paper's enterprise cap).
pub const VALUE_CAP: usize = 1000;
/// Values per column in one feed arrival, drawn from the held-out split.
pub const FEED_VALUES: usize = 900;
/// Share of feed columns that arrive drifted.
pub const DRIFT_RATE: f64 = 0.10;
/// Share of classify values that match no rule.
pub const MISS_RATE: f64 = 0.10;
/// Classify frames per connection stream (cycled when exhausted).
pub const TAG_STREAM_LEN: usize = 1 << 19;
/// Feed arrivals in the reader's stream (cycled when exhausted).
pub const FEED_STREAM_LEN: usize = 1024;
/// Columns per ingest op: half narrow, half diverse.
pub const INGEST_COLUMNS: usize = 16;
/// Values per ingested column.
pub const INGEST_VALUES: usize = 100;
/// Columns in the fresh lake the ingest stream draws from.
pub const FRESH_COLUMNS: usize = 12_000;
/// Writer op cadence: every 4th op infers a rule, every 64th persists.
pub const INFER_EVERY: u64 = 4;
/// See [`INFER_EVERY`].
pub const PERSIST_EVERY: u64 = 64;
/// Writer ops covered by the ingest stream's digest.
pub const WRITER_DIGEST_OPS: u64 = 1024;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Auto-Tag traffic: pipelined single-value `classify` frames.
    TagSmall,
    /// Durable ingest + infer + persist beside feed validation.
    LakeIngest,
}

impl Workload {
    /// All workloads, in reporting order.
    pub const ALL: [Workload; 2] = [Workload::TagSmall, Workload::LakeIngest];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TagSmall => "tag_small",
            Workload::LakeIngest => "lake_ingest",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark case, and its rule once cataloged.
#[derive(Debug, Clone)]
pub struct CatRule {
    /// Rule name in the service catalog.
    pub name: String,
    /// Index of the lake table the column came from.
    pub table: usize,
    /// Generating domain (a column-unique key when unknown).
    pub domain: String,
    /// The 10% train split the rule is inferred from.
    pub train: Vec<String>,
    /// The 90% held-out split feed traffic is drawn from.
    pub test: Vec<String>,
    /// The rule's wire form as the service returned it (empty until
    /// cataloged).
    pub wire: String,
}

/// The lake, its benchmark cases and, once set up, its catalog.
pub struct Fixture {
    /// The generated lake.
    pub corpus: Corpus,
    /// Every pattern-eligible case, in sample order (`wire` empty).
    pub candidates: Vec<CatRule>,
    /// The cataloged cases: candidates whose inference succeeded.
    pub rules: Vec<CatRule>,
}

/// Build the offline pattern index over `corpus` (the production config).
pub fn build_index(corpus: &Corpus) -> PatternIndex {
    let columns: Vec<&Column> = corpus.columns().collect();
    PatternIndex::build(&columns, &IndexConfig::default())
}

impl Fixture {
    /// Generate the lake and sample the cases. The catalog is set later
    /// from the service's `infer` replies ([`Fixture::set_catalog`]).
    pub fn build() -> Fixture {
        let corpus = generate_lake(&LakeProfile::enterprise().scaled(LAKE_COLUMNS), LAKE_SEED);
        let table_of: HashMap<&str, usize> = corpus
            .tables
            .iter()
            .enumerate()
            .flat_map(|(t, table)| table.columns.iter().map(move |c| (c.name.as_str(), t)))
            .collect();
        let bench = Benchmark::sample(&corpus, CASES, 20, VALUE_CAP, LAKE_SEED + 1);
        let mut names = HashSet::new();
        let candidates = bench
            .eligible_cases()
            .filter(|c| names.insert(c.column.name.clone()))
            .map(|case| {
                let name = format!("feeds/{}", case.column.name);
                CatRule {
                    table: table_of[case.column.name.as_str()],
                    domain: case
                        .domain()
                        .map(str::to_string)
                        .unwrap_or_else(|| name.clone()),
                    train: case.train.clone(),
                    test: case.test.clone(),
                    wire: String::new(),
                    name,
                }
            })
            .collect();
        Fixture {
            corpus,
            candidates,
            rules: Vec::new(),
        }
    }

    /// Catalog the candidates with a wire form (`None`: inference
    /// declined).
    pub fn set_catalog(&mut self, wires: &[Option<String>]) {
        self.rules = self
            .candidates
            .iter()
            .zip(wires)
            .filter_map(|(c, w)| {
                w.as_ref().map(|wire| CatRule {
                    wire: wire.clone(),
                    ..c.clone()
                })
            })
            .collect();
    }

    /// Infer every candidate in process with the library, as the service
    /// would on this lake's index.
    pub fn infer_in_process(&self) -> Vec<Option<String>> {
        let index = build_index(&self.corpus);
        let engine = AutoValidate::new(&index, FmdvConfig::scaled_for_corpus(index.num_columns));
        let cases = &self.candidates;
        std::thread::scope(|s| {
            let halves: Vec<_> = (0..2)
                .map(|half| {
                    let engine = &engine;
                    s.spawn(move || {
                        cases
                            .iter()
                            .skip(half)
                            .step_by(2)
                            .map(|c| engine.infer_auto(&c.train).ok().map(|r| r.to_wire()))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let halves: Vec<Vec<Option<String>>> = halves
                .into_iter()
                .map(|h| h.join().expect("infer"))
                .collect();
            (0..cases.len())
                .map(|i| halves[i % 2][i / 2].clone())
                .collect()
        })
    }

    /// Catalog automaton over the cataloged rules' wire forms.
    pub fn rule_set(&self) -> Result<RuleSet, String> {
        let mut set = RuleSet::new();
        for rule in &self.rules {
            set.insert(&rule.name, parse_wire(rule)?);
        }
        Ok(set)
    }

    /// The cataloged rules, parsed from their wire forms.
    pub fn parsed_rules(&self) -> Result<Vec<AnyRule>, String> {
        self.rules.iter().map(parse_wire).collect()
    }

    /// Render the `infer` request for candidate `i`.
    pub fn infer_line(&self, i: usize) -> String {
        let rule = &self.candidates[i];
        let mut out = String::from("{\"op\":\"infer\",\"rule\":");
        push_str(&mut out, &rule.name);
        out.push_str(",\"values\":");
        push_str_array(&mut out, rule.train.iter().map(String::as_str));
        out.push('}');
        out
    }
}

fn parse_wire(rule: &CatRule) -> Result<AnyRule, String> {
    AnyRule::from_wire(&rule.wire).map_err(|e| format!("{}: {e:?}", rule.name))
}

/// `tag_small`'s stream: Zipf-skewed classify values with ~10% misses.
pub struct TagStream {
    /// Distinct values: those matching some rule first, then misses.
    pub pool: Vec<String>,
    /// Per connection, the pool ids it sends in order.
    pub conns: Vec<Vec<u32>>,
}

impl TagStream {
    /// Build the value pool (hits checked against `set`) and both
    /// connection streams from `seed`.
    pub fn generate(fx: &Fixture, set: &mut RuleSet, seed: u64, conns: usize) -> TagStream {
        let mut seen = HashSet::new();
        let mut hits = Vec::new();
        let mut misses = Vec::new();
        for rule in &fx.rules {
            for v in &rule.test {
                if seen.insert(v.as_str()) {
                    if set.classify(v).is_empty() {
                        misses.push(v.clone());
                    } else {
                        hits.push(v.clone());
                    }
                }
            }
        }
        // Synthetic misses: deep ones keep a matching value's whole prefix
        // and break only its last character; shallow ones break the first.
        let mut synthetic = Vec::new();
        for v in hits.iter().step_by(7) {
            let mut chars: Vec<char> = v.chars().collect();
            let Some(last) = chars.last_mut() else {
                continue;
            };
            *last = '¤';
            synthetic.push(chars.iter().collect::<String>());
            synthetic.push(format!("¤{v}"));
        }
        let mut synthetic_seen = HashSet::new();
        for v in synthetic {
            if !seen.contains(v.as_str())
                && synthetic_seen.insert(v.clone())
                && set.classify(&v).is_empty()
            {
                misses.push(v);
            }
        }
        let mut rng = Rng::new(seed ^ 0x7A6);
        rng.shuffle(&mut hits);
        rng.shuffle(&mut misses);
        let zipf = Zipf::new(hits.len(), 1.1);
        let n_hits = hits.len();
        let n_misses = misses.len();
        let streams = (0..conns)
            .map(|_| {
                (0..TAG_STREAM_LEN)
                    .map(|_| {
                        if rng.unit() < MISS_RATE {
                            (n_hits + rng.below(n_misses)) as u32
                        } else {
                            zipf.sample(&mut rng) as u32
                        }
                    })
                    .collect()
            })
            .collect();
        hits.extend(misses);
        TagStream {
            pool: hits,
            conns: streams,
        }
    }

    /// The `classify` request for pool value `id`.
    pub fn line(&self, id: u32) -> String {
        let mut out = String::from("{\"op\":\"classify\",\"value\":");
        push_str(&mut out, &self.pool[id as usize]);
        out.push('}');
        out
    }
}

/// One column of a feed arrival.
#[derive(Debug, Clone)]
pub struct Item {
    /// The cataloged rule the column is validated against.
    pub rule: u32,
    /// The rule whose held-out split the values come from (≠ `rule` when
    /// drifted).
    pub source: u32,
    /// Indices into the source rule's held-out split.
    pub values: Vec<u16>,
    /// Did the column arrive drifted?
    pub drifted: bool,
}

/// One table arrival: a `validate_batch` of 1–4 columns.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// The arrival's columns.
    pub items: Vec<Item>,
}

impl Arrival {
    /// Render the `validate_batch` request.
    pub fn render(&self, fx: &Fixture, out: &mut String) {
        out.clear();
        out.push_str("{\"op\":\"validate_batch\",\"items\":[");
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"rule\":");
            push_str(out, &fx.rules[item.rule as usize].name);
            out.push_str(",\"values\":");
            let test = &fx.rules[item.source as usize].test;
            push_str_array(out, item.values.iter().map(|&v| test[v as usize].as_str()));
            out.push('}');
        }
        out.push_str("]}");
    }
}

/// The catalog's feed tables: fixed groups of 1–4 cataloged columns that
/// always arrive together, as a recurring table's columns do. Columns of
/// one lake table stay together; a group is topped up from the next
/// tables (feeds scheduled together). The grouping depends on the catalog
/// only, not on the workload seed.
pub fn feed_tables(fx: &Fixture) -> Vec<Vec<u32>> {
    // Batch width 1–4; the median arrival has two columns with margin on
    // both sides, so the median latency stays inside one width class.
    const WIDTH_WEIGHTS: [f64; 4] = [0.15, 0.45, 0.25, 0.15];
    let mut by_table: HashMap<usize, Vec<u32>> = HashMap::new();
    for (i, r) in fx.rules.iter().enumerate() {
        by_table.entry(r.table).or_default().push(i as u32);
    }
    let mut tables: Vec<(usize, Vec<u32>)> = by_table.into_iter().collect();
    tables.sort();
    let mut queue: VecDeque<u32> = tables.into_iter().flat_map(|(_, cols)| cols).collect();
    let mut rng = Rng::new(LAKE_SEED);
    let mut groups = Vec::new();
    while !queue.is_empty() {
        let mut u = rng.unit();
        let mut width = WIDTH_WEIGHTS.len();
        for (w, p) in WIDTH_WEIGHTS.iter().enumerate() {
            if u < *p {
                width = w + 1;
                break;
            }
            u -= p;
        }
        let take = width.min(queue.len());
        groups.push(queue.drain(..take).collect());
    }
    groups
}

/// Feed arrivals for one connection.
///
/// Arrivals walk the feed tables in passes: each pass sends every feed
/// table once, in a fresh seeded order, so a run of any seed sends nearly
/// the same mix of requests and its latency quantiles do not hinge on
/// which tables a seed happened to draw. The seed picks the order, the
/// drifted columns and the values each column carries.
pub fn feed_stream(fx: &Fixture, rng: &mut Rng, len: usize) -> Vec<Arrival> {
    let mut tables = feed_tables(fx);
    let mut pass: Vec<Vec<u32>> = Vec::new();
    (0..len)
        .map(|_| {
            if pass.is_empty() {
                rng.shuffle(&mut tables);
                pass = tables.iter().rev().cloned().collect();
            }
            let cols = pass.pop().expect("refilled");
            let mut items: Vec<Item> = cols
                .iter()
                .map(|&r| Item {
                    rule: r,
                    source: r,
                    values: Vec::new(),
                    drifted: false,
                })
                .collect();
            // Drift: swap with a sibling of another domain (the paper's
            // schema-drift case), or else take another domain's values.
            for i in 0..items.len() {
                if items[i].drifted || rng.unit() >= DRIFT_RATE {
                    continue;
                }
                let domain = &fx.rules[items[i].rule as usize].domain;
                let sibling = (0..items.len()).find(|&j| {
                    j != i
                        && !items[j].drifted
                        && fx.rules[items[j].rule as usize].domain != *domain
                });
                match sibling {
                    Some(j) => {
                        items[i].source = items[j].rule;
                        items[j].source = items[i].rule;
                        items[j].drifted = true;
                    }
                    None => loop {
                        let other = rng.below(fx.rules.len());
                        if fx.rules[other].domain != *domain {
                            items[i].source = other as u32;
                            break;
                        }
                    },
                }
                items[i].drifted = true;
            }
            for item in &mut items {
                let n = fx.rules[item.source as usize].test.len();
                item.values = (0..FEED_VALUES).map(|_| rng.below(n) as u16).collect();
            }
            Arrival { items }
        })
        .collect()
}

/// What the `i`-th writer op (1-based) of `lake_ingest` does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriterKind {
    /// Ingest [`INGEST_COLUMNS`] fresh columns.
    Ingest,
    /// Infer and catalog a new rule.
    Infer,
    /// Write an incremental checkpoint.
    Persist,
}

/// Kind of writer op `i` (1-based).
pub fn writer_kind(i: u64) -> WriterKind {
    if i.is_multiple_of(PERSIST_EVERY) {
        WriterKind::Persist
    } else if i.is_multiple_of(INFER_EVERY) {
        WriterKind::Infer
    } else {
        WriterKind::Ingest
    }
}

/// Ingest ops among writer ops `1..=i`.
pub fn ingests_through(i: u64) -> u64 {
    i - i / INFER_EVERY
}

/// `lake_ingest`'s stream: the writer's fresh columns and the reader's
/// feed arrivals.
pub struct IngestStream {
    /// Narrow recurring-feed columns: clean columns of the fresh lake's
    /// most common machine domains.
    pub narrow: Vec<Column>,
    /// Every other fresh column.
    pub diverse: Vec<Column>,
    /// The reader connection's arrivals.
    pub reader: Vec<Arrival>,
}

impl IngestStream {
    /// Generate the fresh lake (a second seed derived from `seed`) and
    /// the reader's arrivals.
    pub fn generate(fx: &Fixture, seed: u64) -> IngestStream {
        let fresh_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1A6E;
        let lake = generate_lake(&LakeProfile::enterprise().scaled(FRESH_COLUMNS), fresh_seed);
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for c in lake.columns() {
            if c.meta.kind == ColumnKind::Machine {
                if let Some(d) = c.meta.domain.as_deref() {
                    *counts.entry(d).or_default() += 1;
                }
            }
        }
        let mut ranked: Vec<(&str, usize)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let top: HashSet<&str> = ranked.iter().take(4).map(|(d, _)| *d).collect();
        let mut narrow = Vec::new();
        let mut diverse = Vec::new();
        for c in lake.columns() {
            let mut c = c.clone();
            c.values.truncate(INGEST_VALUES);
            let is_narrow = c.meta.kind == ColumnKind::Machine
                && c.meta.dirty_rate == 0.0
                && c.meta.domain.as_deref().is_some_and(|d| top.contains(d));
            if is_narrow {
                narrow.push(c);
            } else {
                diverse.push(c);
            }
        }
        let mut rng = Rng::new(seed ^ 0x3EAD);
        IngestStream {
            narrow,
            diverse,
            reader: feed_stream(fx, &mut rng, FEED_STREAM_LEN),
        }
    }

    /// The columns of the `j`-th ingest (0-based), under fresh names.
    pub fn ingest_columns(&self, j: u64) -> Vec<(String, &Column)> {
        let half = INGEST_COLUMNS / 2;
        let mut cols = Vec::with_capacity(INGEST_COLUMNS);
        for k in 0..half {
            let slot = j as usize * half + k;
            cols.push((
                format!("live{j}_n{k}"),
                &self.narrow[slot % self.narrow.len()],
            ));
            cols.push((
                format!("live{j}_d{k}"),
                &self.diverse[slot % self.diverse.len()],
            ));
        }
        cols
    }

    /// Training values of the infer at writer op `i`: the train split of
    /// the newest narrow column the writer ingested.
    pub fn infer_values(&self, i: u64) -> &[String] {
        let j = ingests_through(i) - 1;
        let col = &self.narrow[(j as usize * (INGEST_COLUMNS / 2)) % self.narrow.len()];
        &col.values[..(col.values.len() / 10).max(20).min(col.values.len())]
    }

    /// Render writer op `i` (1-based) into `out`.
    pub fn render(&self, i: u64, out: &mut String) {
        out.clear();
        match writer_kind(i) {
            WriterKind::Persist => out.push_str("{\"op\":\"persist\"}"),
            WriterKind::Infer => {
                out.push_str("{\"op\":\"infer\",\"rule\":");
                push_str(out, &format!("live/{i}"));
                out.push_str(",\"values\":");
                push_str_array(out, self.infer_values(i).iter().map(String::as_str));
                out.push('}');
            }
            WriterKind::Ingest => {
                out.push_str("{\"op\":\"ingest\",\"columns\":[");
                let j = ingests_through(i) - 1;
                for (k, (name, col)) in self.ingest_columns(j).into_iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"name\":");
                    push_str(out, &name);
                    out.push_str(",\"values\":");
                    push_str_array(out, col.values.iter().map(String::as_str));
                    out.push('}');
                }
                out.push_str("]}");
            }
        }
    }
}

/// A workload's generated inputs.
pub enum Streams {
    /// `tag_small`.
    Tag(TagStream),
    /// `lake_ingest`.
    Ingest(IngestStream),
}

/// Generate `workload`'s streams from `seed`.
pub fn generate(fx: &Fixture, workload: Workload, seed: u64) -> Streams {
    match workload {
        Workload::TagSmall => {
            let mut set = fx.rule_set().expect("cataloged wire forms parse");
            Streams::Tag(TagStream::generate(fx, &mut set, seed, 2))
        }
        Workload::LakeIngest => Streams::Ingest(IngestStream::generate(fx, seed)),
    }
}

/// Digest of everything the clients will send: the catalog's infer
/// requests and the workload's request stream.
pub fn stream_digest(fx: &Fixture, streams: &Streams) -> u64 {
    let mut d = Digest::default();
    for i in 0..fx.candidates.len() {
        d.str(&fx.infer_line(i));
    }
    match streams {
        Streams::Tag(t) => {
            for v in &t.pool {
                d.str(v);
            }
            for conn in &t.conns {
                for &id in conn {
                    d.u64(id as u64);
                }
            }
        }
        Streams::Ingest(s) => {
            let mut op = String::new();
            for a in &s.reader {
                a.render(fx, &mut op);
                d.str(&op);
            }
            for i in 1..=WRITER_DIGEST_OPS {
                s.render(i, &mut op);
                d.str(&op);
            }
        }
    }
    d.finish()
}
