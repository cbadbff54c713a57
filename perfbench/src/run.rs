//! One benchmark run: set up the database, serve it from an in-process
//! `rx-server`, drive the workload over one protocol-v2 loopback connection,
//! check every answer, and turn latencies and counter deltas into metrics.
//!
//! The traced run drives the same op stream twice — over the wire with
//! `op`/`rpc.*` spans, then directly against a second database built from
//! the same seed with a span around each call into a layer.

use crate::trace::{self, SelfTime, Tracer};
use crate::workload::{Class, Corpus, DocIds, HitRef, Op, OpStream, Workload, XML_COLUMN};
use rx_engine::{BaseTable, ColValue, ColumnKind, Database, DbStats, Storage, XmlColumn};
use rx_server::{ConnectOptions, Server, ServerConfig, Session, StatsSnapshot};
use rx_storage::{LockMode, LockName};
use std::collections::BTreeMap;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

type OpResult = Result<bool, Box<dyn Error>>;
/// A loaded database and the DocIDs of its corpus, by position.
type Loaded = (Arc<Database>, Arc<Vec<u64>>);

/// Documents per load transaction.
const LOAD_BATCH: usize = 500;
/// An untraced run sets the database up at least this many times and
/// reports the median as `setup_s`: once before the measured window (the
/// copy it serves), the other times after it, so the memory and the deleted
/// files those setups leave behind cannot slow the window...
const MIN_SETUPS: usize = 6;
/// ...and keeps setting up until this much setup time has accumulated, so a
/// fast setup still gets a steady median...
const SETUP_BUDGET_S: f64 = 8.0;
/// ...but at most this many times.
const MAX_SETUPS: usize = 60;
/// A traced run alternates untraced and traced slices of its window, so
/// tracing overhead is compared under the same drift of the machine.
const TRACE_SLICES: usize = 6;

/// End-to-end metrics the JSON line reports (the `end_to_end` list of
/// `BENCHMARK.json`): defined and non-zero on every workload, and steady
/// enough across runs to carry a regression bound. `ops_per_s`, the p99s and
/// the class-specific ones (fetch, write, ingest) are printed only; README.md
/// says why.
pub const GATED_E2E: [&str; 5] = [
    "setup_s",
    "cpu_ms_per_op",
    "mix_p50_ms",
    "query_p50_ms",
    "space_amp",
];

/// How long a measured window lasts.
#[derive(Debug, Clone, Copy)]
pub enum Window {
    /// Wall-clock seconds; sessions stop issuing ops once it has passed.
    Seconds(f64),
    /// Exactly this many ops per session (deterministic counts for tests).
    Ops(usize),
}

impl Window {
    /// One of `n` equal slices.
    fn slice(self, n: usize) -> Window {
        match self {
            Window::Seconds(s) => Window::Seconds(s / n as f64),
            ops => ops,
        }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Traffic mix.
    pub workload: Workload,
    /// Seed of the corpus and the op stream.
    pub seed: u64,
    /// Measured window.
    pub window: Window,
    /// Run the traced variant (per-layer metrics) instead of the plain one.
    pub trace: bool,
    /// Concurrent client sessions; also the server's worker count.
    pub sessions: usize,
    /// Scratch directory for databases and the span file.
    pub run_dir: PathBuf,
}

impl Settings {
    /// Defaults for a run of `workload`.
    pub fn new(workload: Workload, seed: u64, window: Window, trace: bool) -> Settings {
        Settings {
            workload,
            seed,
            window,
            trace,
            sessions: cores(),
            run_dir: PathBuf::from(".perfbench_run").join(workload.name()),
        }
    }
}

/// `std::thread::available_parallelism`, the session and worker count.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// A named figure with its unit and the samples behind it; `None` when the
/// workload has no op the metric is defined on.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json` and the README.
    pub name: &'static str,
    /// Measured value.
    pub value: Option<f64>,
    /// Unit.
    pub unit: &'static str,
    /// Samples (or ops) the value is computed from.
    pub samples: u64,
}

fn metric(name: &'static str, value: Option<f64>, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name,
        value: value.filter(|v| v.is_finite()),
        unit,
        samples,
    }
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted (warm-up and every phase of a traced run included).
    pub attempted: u64,
    /// Ops that failed, were refused, or returned a wrong answer.
    pub failed: u64,
    /// End-to-end metrics (of the untraced slices in a traced run).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub per_layer: Vec<Metric>,
    /// Self time by span name (traced run only).
    pub self_times: BTreeMap<&'static str, SelfTime>,
    /// Where the spans were written (traced run only).
    pub spans_file: Option<PathBuf>,
}

impl Report {
    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.e2e
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .and_then(|m| m.value)
    }

    fn count(&mut self, t: &Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed;
    }
}

/// Run one benchmark invocation.
pub fn run(s: &Settings) -> Result<Report, Box<dyn Error>> {
    // A killed earlier run may have left databases behind; they must not
    // count towards this run's space or slow its setup.
    remove_dir(&s.run_dir)?;
    std::fs::create_dir_all(&s.run_dir)?;
    let corpus = Arc::new(Corpus::new(s.workload, s.seed));
    let texts: Vec<String> = (0..corpus.docs).map(|i| corpus.doc_text(i)).collect();
    let result = run_in(s, &corpus, &texts);
    // Also on the error paths, which return before their own cleanup.
    for db in ["db", "db-direct"] {
        let _ = std::fs::remove_dir_all(s.run_dir.join(db));
    }
    result
}

fn run_in(s: &Settings, corpus: &Arc<Corpus>, texts: &[String]) -> Result<Report, Box<dyn Error>> {
    let dir = s.run_dir.join("db");
    let mut setup_s = Vec::new();
    let (db, docids) = set_up(corpus, texts, &dir, &mut setup_s)?;

    let server = Server::start(
        Arc::clone(&db),
        ServerConfig {
            workers: s.sessions,
            ..ServerConfig::default()
        },
    );
    let addr = server.listen("127.0.0.1:0")?;
    let conn = rx_server::connect_tcp_multiplexed(addr, ConnectOptions::default())?;
    let mut admin = conn.session();
    let epoch = Instant::now();
    let mut clients: Vec<Client<Session>> = (0..s.sessions)
        .map(|i| Client::new(i, s, corpus, i, &docids, epoch, conn.session()))
        .collect();

    let mut report = Report::default();
    let warm = drive_wire(&mut clients, corpus, Window::Ops(s.workload.warmup_ops()));
    report.count(&warm);
    // Settle dirty pages and the log before timing. Space is measured here,
    // after the fixed-size warm-up, so it depends on the work done and not
    // on how fast the window ran.
    db.checkpoint()?;
    let live_bytes: u64 = texts.iter().map(|t| t.len() as u64).sum::<u64>() + warm.inserted_bytes
        - warm.deleted_bytes;
    let space_amp = dir_bytes(&dir)? as f64 / live_bytes as f64;

    let before = admin.stats()?;
    let cpu_before = process_cpu_s();
    let (mut plain, mut traced) = (Tally::default(), Tally::default());
    // Whether each slice was traced and how many ops each session ran in it.
    let mut slices: Vec<(bool, Vec<usize>)> = Vec::new();
    let n_slices = if s.trace { TRACE_SLICES } else { 1 };
    for k in 0..n_slices {
        let trace_this = k % 2 == 1;
        for c in clients.iter_mut() {
            c.traced = trace_this;
        }
        let t = drive_wire(&mut clients, corpus, s.window.slice(n_slices));
        report.count(&t);
        slices.push((trace_this, t.per_session_ops.clone()));
        if trace_this {
            traced.merge(t);
        } else {
            plain.merge(t);
        }
    }
    let cpu_s = process_cpu_s()
        .zip(cpu_before)
        .map(|(after, before)| after - before);
    let stats = StatsDelta {
        before,
        after: admin.stats()?,
    };

    drop(clients);
    drop(admin);
    drop(conn);
    server.shutdown();
    drop(server);
    drop(db);
    // The JSON line of a traced run carries no `setup_s`.
    while !s.trace
        && (setup_s.len() < MIN_SETUPS
            || (setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && setup_s.len() < MAX_SETUPS))
    {
        drop(set_up(corpus, texts, &dir, &mut setup_s)?);
    }
    remove_dir(&dir)?;

    let ok_ops = (plain.attempted - plain.failed) + (traced.attempted - traced.failed);
    let cpu_ms_per_op = cpu_s.and_then(|c| ratio(c * 1e3, ok_ops as f64));
    report.e2e = e2e_metrics(&setup_s, &plain, cpu_ms_per_op, space_amp);
    if s.trace {
        let mut direct = direct_phase(s, corpus, texts, epoch, &slices)?;
        report.count(&direct);
        let mut spans = std::mem::take(&mut traced.spans);
        spans.append(&mut direct.spans);
        report.self_times = trace::self_times(&spans);
        let path = s.run_dir.join("spans.jsonl");
        trace::write_spans(&path, &spans)?;
        report.spans_file = Some(path);
        report.per_layer = layer_metrics(&plain, &traced, &stats, &direct, &report.self_times);
    }
    Ok(report)
}

fn remove_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Set the database up afresh in `dir`, adding the wall time to `times`.
fn set_up(
    corpus: &Corpus,
    texts: &[String],
    dir: &Path,
    times: &mut Vec<f64>,
) -> Result<Loaded, Box<dyn Error>> {
    remove_dir(dir)?;
    let t0 = Instant::now();
    let loaded = load(corpus, texts, dir)?;
    times.push(t0.elapsed().as_secs_f64());
    Ok(loaded)
}

/// Create the schema and load the corpus in batched transactions through
/// the engine's public API. Returns the database and the DocIDs by position.
fn load(corpus: &Corpus, texts: &[String], dir: &Path) -> Result<Loaded, Box<dyn Error>> {
    let db = Database::create_with(Storage::Dir(dir.to_path_buf()), corpus.db_config())?;
    let table = db.create_table(
        corpus.table(),
        &[("key", ColumnKind::Str), (XML_COLUMN, ColumnKind::Xml)],
    )?;
    for (name, path, key_type) in corpus.indexes() {
        db.create_value_index(corpus.table(), name, XML_COLUMN, path, *key_type)?;
    }
    let mut docids = Vec::with_capacity(texts.len());
    for (b, batch) in texts.chunks(LOAD_BATCH).enumerate() {
        let txn = db.begin()?;
        for (k, text) in batch.iter().enumerate() {
            let i = b * LOAD_BATCH + k;
            let values = [ColValue::Str(corpus.key(i)), ColValue::Xml(text.clone())];
            docids.push(db.insert_row_txn(&txn, &table, &values)?);
        }
        txn.commit()?;
    }
    Ok((db, Arc::new(docids)))
}

/// Counts and samples of measured windows, summed over sessions.
#[derive(Debug, Default)]
struct Tally {
    /// Ops issued.
    attempted: u64,
    /// Ops failed, refused, or answered wrongly.
    failed: u64,
    /// Round trips (ms) of successful ops, by [`Class`].
    latency_ms: [Vec<f64>; 3],
    /// XML bytes of committed inserts.
    inserted_bytes: u64,
    /// XML bytes of committed deletes.
    deleted_bytes: u64,
    /// Client-side round-trip sum (ns) and count, by server request class
    /// (`rx_server::ReqClass` order: txn, write, read).
    rpc_ns: [u64; 3],
    /// See `rpc_ns`.
    rpc_n: [u64; 3],
    /// Index entries scanned by direct queries (`AccessStats`).
    index_entries: u64,
    /// Documents evaluated by direct queries (`AccessStats`).
    docs_evaluated: u64,
    /// Records fetched by direct queries (`AccessStats`).
    records_fetched: u64,
    /// Hits returned to direct queries.
    hits: u64,
    /// XML bytes given to the parser span.
    parsed_bytes: u64,
    /// Wall time of the windows.
    elapsed: Duration,
    /// Ops issued by each session in the last window driven.
    per_session_ops: Vec<usize>,
    /// Spans recorded.
    spans: Vec<trace::Span>,
}

impl Tally {
    /// Add `o` (another session, or another window of the same sessions).
    fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        for (a, b) in self.latency_ms.iter_mut().zip(o.latency_ms) {
            a.extend(b);
        }
        self.inserted_bytes += o.inserted_bytes;
        self.deleted_bytes += o.deleted_bytes;
        for k in 0..3 {
            self.rpc_ns[k] += o.rpc_ns[k];
            self.rpc_n[k] += o.rpc_n[k];
        }
        self.index_entries += o.index_entries;
        self.docs_evaluated += o.docs_evaluated;
        self.records_fetched += o.records_fetched;
        self.hits += o.hits;
        self.parsed_bytes += o.parsed_bytes;
        self.elapsed += o.elapsed;
        self.spans.extend(o.spans);
    }

    fn record(&mut self, class: Class, outcome: &OpResult, latency: Duration) {
        self.attempted += 1;
        match outcome {
            Ok(true) => self.latency_ms[class_index(class)].push(latency.as_secs_f64() * 1e3),
            _ => self.failed += 1,
        }
    }

    fn count(&self, class: Class) -> u64 {
        self.latency_ms[class_index(class)].len() as u64
    }

    fn queries(&self) -> u64 {
        self.count(Class::Query)
    }

    /// Completed ops per second of the windows.
    fn rate(&self) -> Option<f64> {
        ratio(
            (self.attempted - self.failed) as f64,
            self.elapsed.as_secs_f64(),
        )
    }
}

fn class_index(c: Class) -> usize {
    match c {
        Class::Fetch => 0,
        Class::Query => 1,
        Class::Write => 2,
    }
}

/// Server request classes, as indexed in `StatsSnapshot::latency`.
const RPC_TXN: usize = 0;
const RPC_WRITE: usize = 1;
const RPC_READ: usize = 2;

/// When a session's window opened and when it closes.
struct Budget {
    opened: Instant,
    window: Window,
}

impl Budget {
    fn more(&self, done: u64) -> bool {
        match self.window {
            Window::Seconds(secs) => self.opened.elapsed().as_secs_f64() < secs,
            Window::Ops(n) => done < n as u64,
        }
    }
}

/// Run `per_session` on every session concurrently, one thread each, all
/// released together; returns the summed tally.
fn drive<S: Send>(
    states: &mut [S],
    window: impl Fn(&S) -> Window + Sync,
    per_session: impl Fn(&mut S, &Budget) -> Tally + Sync,
) -> Tally {
    let barrier = Barrier::new(states.len() + 1);
    let (tallies, elapsed) = std::thread::scope(|sc| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|st| {
                let (barrier, per_session, window) = (&barrier, &per_session, &window);
                sc.spawn(move || {
                    let window = window(st);
                    barrier.wait();
                    let budget = Budget {
                        opened: Instant::now(),
                        window,
                    };
                    per_session(st, &budget)
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let tallies: Vec<Tally> = handles
            .into_iter()
            .map(|h| h.join().expect("client session thread panicked"))
            .collect();
        (tallies, t0.elapsed())
    });
    let mut sum = Tally::default();
    let per_session = tallies.iter().map(|t| t.attempted as usize).collect();
    for t in tallies {
        sum.merge(t);
    }
    sum.per_session_ops = per_session;
    sum.elapsed = elapsed;
    sum
}

/// Server and engine counters at both ends of the measured window.
struct StatsDelta {
    before: StatsSnapshot,
    after: StatsSnapshot,
}

impl StatsDelta {
    fn d(&self, f: impl Fn(&StatsSnapshot) -> u64) -> f64 {
        f(&self.after).saturating_sub(f(&self.before)) as f64
    }

    fn db(&self, f: impl Fn(&DbStats) -> u64) -> f64 {
        self.d(|s| f(&s.db))
    }
}

/// One closed-loop client: its session's op stream, the DocIDs it has seen,
/// its span buffer, and `handle` (its wire `Session`, or, in the direct
/// replay, the number of ops it runs in the slice being replayed).
struct Client<H> {
    /// Op ids are `id << 32 | op index`.
    id: u64,
    stream: OpStream,
    ids: DocIds,
    tracer: Tracer,
    traced: bool,
    op_index: u64,
    handle: H,
}

impl<H> Client<H> {
    /// Client `id` replaying the op stream of session `session`.
    fn new(
        id: usize,
        s: &Settings,
        corpus: &Arc<Corpus>,
        session: usize,
        docids: &Arc<Vec<u64>>,
        epoch: Instant,
        handle: H,
    ) -> Self {
        Client {
            id: id as u64,
            stream: OpStream::new(Arc::clone(corpus), s.seed, session, s.sessions),
            ids: DocIds::new(Arc::clone(docids)),
            tracer: Tracer::new(epoch, id),
            traced: false,
            op_index: 0,
            handle,
        }
    }

    /// The next op of the stream and its id.
    fn next(&mut self) -> (Op, u64) {
        self.op_index += 1;
        (self.stream.next_op(), (self.id << 32) | self.op_index)
    }

    /// Run ops until `budget` closes. `run_op` runs one op and returns
    /// whether its answer was right and its round trip. A traced op gets an
    /// `op` root span, the parent of the spans `run_op` records.
    fn run(
        &mut self,
        budget: &Budget,
        mut run_op: impl FnMut(&mut H, &Op, &mut DocIds, &mut Spans<'_>, &mut Tally) -> Timed,
    ) -> Tally {
        let mut t = Tally::default();
        while budget.more(t.attempted) {
            let (op, op_id) = self.next();
            let mut sp = Spans {
                tracer: self.traced.then_some(&mut self.tracer),
                op: op_id,
                parent: 0,
            };
            let root = sp.tracer.as_mut().map(|tr| tr.start("op", op_id, 0));
            sp.parent = root.map_or(0, |r| r.id());
            let (outcome, latency) = run_op(&mut self.handle, &op, &mut self.ids, &mut sp, &mut t);
            if let (Some(tr), Some(root)) = (sp.tracer, root) {
                tr.end(root);
            }
            t.record(op.class(), &outcome, latency);
        }
        t.spans = std::mem::take(&mut self.tracer.spans);
        t
    }
}

/// Whether an op's answer was right, and its round trip.
type Timed = (OpResult, Duration);

/// Spans around one op's calls into a layer; recorded only when the op is
/// traced.
struct Spans<'a> {
    tracer: Option<&'a mut Tracer>,
    op: u64,
    parent: u64,
}

impl Spans<'_> {
    /// Run `f` in span `name`; returns its result and how long it took.
    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let span = self
            .tracer
            .as_mut()
            .map(|t| t.start(name, self.op, self.parent));
        let t0 = Instant::now();
        let r = f();
        let took = t0.elapsed();
        if let (Some(t), Some(span)) = (self.tracer.as_mut(), span) {
            t.end(span);
        }
        (r, took)
    }

    /// Run `f` in span `name`.
    fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.timed(name, f).0
    }

    /// A client call in span `name`, its round trip added to `t` under
    /// server request class `class`.
    fn rpc<R>(
        &mut self,
        t: &mut Tally,
        name: &'static str,
        class: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let (r, took) = self.timed(name, f);
        t.rpc_ns[class] += took.as_nanos() as u64;
        t.rpc_n[class] += 1;
        r
    }
}

fn drive_wire(clients: &mut [Client<Session>], corpus: &Corpus, window: Window) -> Tally {
    drive(
        clients,
        |_| window,
        |c, budget| {
            c.run(budget, |s, op, ids, sp, t| {
                wire_op(s, corpus, ids, op, sp, t)
            })
        },
    )
}

/// Run one op over the wire; returns whether the answer was right and the
/// client round trip (first request sent to last reply received).
fn wire_op(
    s: &mut Session,
    c: &Corpus,
    ids: &mut DocIds,
    op: &Op,
    sp: &mut Spans<'_>,
    t: &mut Tally,
) -> Timed {
    let table = c.table();
    let started = Instant::now();
    match op {
        Op::Fetch { product } => {
            let doc = ids.get(*product).unwrap_or(u64::MAX);
            let row = sp.rpc(t, "rpc.fetch", RPC_READ, || s.fetch_row(table, doc));
            let latency = started.elapsed();
            let outcome = row.map_err(Into::into).map(|row| {
                row.is_some_and(|r| {
                    c.check_row(*product, ids, r.doc, r.values.first().map(String::as_str))
                })
            });
            (outcome, latency)
        }
        Op::Write { insert, delete } => {
            let text = c.doc_text(*insert);
            let outcome = wire_write(s, c, ids, (*insert, *delete), &text, sp, t);
            let latency = started.elapsed();
            match outcome {
                Ok(true) => {
                    t.inserted_bytes += text.len() as u64;
                    t.deleted_bytes += c.doc_text(*delete).len() as u64;
                }
                Ok(false) => {}
                Err(_) => {
                    let _ = s.rollback();
                }
            }
            (outcome, latency)
        }
        _ => {
            let path = op.path().expect("query op has a path");
            let hits = sp.rpc(t, "rpc.query", RPC_READ, || {
                s.query(table, XML_COLUMN, &path)
            });
            let latency = started.elapsed();
            let outcome = hits.map_err(Into::into).map(|hits| {
                let refs: Vec<HitRef<'_>> = hits
                    .iter()
                    .map(|h| HitRef {
                        doc: h.doc,
                        value: &h.value,
                    })
                    .collect();
                c.check_hits(op, ids, &refs)
            });
            (outcome, latency)
        }
    }
}

/// `Begin`, insert order `insert`, delete order `delete`, `Commit`.
fn wire_write(
    s: &mut Session,
    c: &Corpus,
    ids: &mut DocIds,
    (insert, delete): (usize, usize),
    text: &str,
    sp: &mut Spans<'_>,
    t: &mut Tally,
) -> OpResult {
    let table = c.table();
    let victim = ids.get(delete).ok_or("no DocID for the order to delete")?;
    sp.rpc(t, "rpc.write", RPC_TXN, || s.begin())?;
    let values = vec![
        ColValue::Str(c.key(insert)),
        ColValue::Xml(text.to_string()),
    ];
    let doc = sp.rpc(t, "rpc.write", RPC_WRITE, || s.insert_row(table, values))?;
    let deleted = sp.rpc(t, "rpc.write", RPC_WRITE, || s.delete_row(table, victim))?;
    sp.rpc(t, "rpc.write", RPC_TXN, || s.commit())?;
    ids.insert(insert, doc);
    Ok(deleted)
}

/// Replay each session's op stream directly against a second database built
/// from the same seed, with a span around each call into a layer: the same
/// warm-up, then the wire window slice by slice, each session running as
/// many ops in a slice as it ran over the wire. So each traced wire op is
/// replayed traced. Of an untraced slice only the writes are applied
/// (untraced), so each replayed op meets the table its wire twin met; reads
/// change nothing and are skipped.
fn direct_phase(
    s: &Settings,
    corpus: &Arc<Corpus>,
    texts: &[String],
    epoch: Instant,
    slices: &[(bool, Vec<usize>)],
) -> Result<Tally, Box<dyn Error>> {
    let dir = s.run_dir.join("db-direct");
    remove_dir(&dir)?;
    let (db, docids) = load(corpus, texts, &dir)?;
    let table = db.table(corpus.table())?;
    let column = Arc::clone(table.xml_column(XML_COLUMN)?);
    let mut clients: Vec<Client<usize>> = (0..s.sessions)
        .map(|i| Client::new(s.sessions + i, s, corpus, i, &docids, epoch, 0))
        .collect();
    let env = DirectEnv {
        db: &db,
        table: &table,
        column: &column,
        corpus,
    };
    let replay = |c: &mut Client<usize>, b: &Budget| {
        c.run(b, |_, op, ids, sp, t| {
            let started = Instant::now();
            (env.op(op, ids, sp, t), started.elapsed())
        })
    };
    let warmup = Window::Ops(s.workload.warmup_ops());
    let warm = drive(&mut clients, |_| warmup, replay);
    let mut tally = Tally::default();
    let (mut attempted, mut failed) = (warm.attempted, warm.failed);
    for (traced, ops) in slices {
        if *traced {
            for (c, &n) in clients.iter_mut().zip(ops) {
                c.traced = true;
                c.handle = n;
            }
            tally.merge(drive(&mut clients, |c| Window::Ops(c.handle), replay));
            continue;
        }
        for (c, &n) in clients.iter_mut().zip(ops) {
            for _ in 0..n {
                let (op, op_id) = c.next();
                if let Op::Write { .. } = op {
                    let mut sp = Spans {
                        tracer: None,
                        op: op_id,
                        parent: 0,
                    };
                    attempted += 1;
                    let ok = env.op(&op, &mut c.ids, &mut sp, &mut Tally::default());
                    failed += u64::from(!matches!(ok, Ok(true)));
                }
            }
        }
    }
    tally.attempted += attempted;
    tally.failed += failed;
    drop(clients);
    drop(column);
    drop(table);
    drop(db);
    remove_dir(&dir)?;
    Ok(tally)
}

struct DirectEnv<'a> {
    db: &'a Arc<Database>,
    table: &'a Arc<BaseTable>,
    column: &'a Arc<XmlColumn>,
    corpus: &'a Corpus,
}

impl DirectEnv<'_> {
    /// One op in its own transaction, calling the layers the server's
    /// request handlers call.
    fn op(&self, op: &Op, ids: &mut DocIds, sp: &mut Spans<'_>, t: &mut Tally) -> OpResult {
        let (db, table, corpus) = (self.db, self.table, self.corpus);
        let txn = db.begin()?;
        let r: OpResult = (|| match op {
            Op::Fetch { product } => {
                let doc = ids.get(*product).ok_or("unknown product")?;
                // The server's FetchRow handler takes the same §5.1 locks.
                txn.lock(&LockName::Table(table.def.id), LockMode::IS)?;
                let name = LockName::Document {
                    table: table.def.id,
                    doc,
                };
                txn.lock(&name, LockMode::S)?;
                let row = sp.call("engine.fetch", || db.fetch_row(table, doc))?;
                Ok(row.is_some_and(|r| {
                    corpus.check_row(*product, ids, r.doc, r.values.first().map(String::as_str))
                }))
            }
            Op::Write { insert, delete } => {
                let text = corpus.doc_text(*insert);
                let victim = ids.get(*delete).ok_or("no DocID for the order to delete")?;
                sp.call("xml.parse", || {
                    rx_xml::Parser::new(db.dict()).parse_to_tokens(&text)
                })?;
                t.parsed_bytes += text.len() as u64;
                let values = [ColValue::Str(corpus.key(*insert)), ColValue::Xml(text)];
                let doc = sp.call("engine.insert", || db.insert_row_txn(&txn, table, &values))?;
                ids.insert(*insert, doc);
                Ok(sp.call("engine.delete", || db.delete_row_txn(&txn, table, victim))?)
            }
            _ => {
                let text = op.path().expect("query op has a path");
                let path = sp.call("xpath.parse", || rx_xpath::XPathParser::new().parse(&text))?;
                let (hits, stats) = sp.call("engine.query", || {
                    db.query_locked(&txn, table, self.column, &path, false)
                })?;
                t.index_entries += stats.index_entries;
                t.docs_evaluated += stats.docs_evaluated;
                t.records_fetched += stats.records_fetched;
                t.hits += hits.len() as u64;
                let refs: Vec<HitRef<'_>> = hits
                    .iter()
                    .map(|h| HitRef {
                        doc: h.doc,
                        value: &h.value,
                    })
                    .collect();
                Ok(corpus.check_hits(op, ids, &refs))
            }
        })();
        match r {
            Ok(ok) => {
                sp.call("txn.commit", || txn.commit())?;
                Ok(ok)
            }
            Err(e) => {
                let _ = txn.rollback();
                Err(e)
            }
        }
    }
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// CPU time of this process (every client, server and executor thread),
/// from `/proc/self/stat`. The kernel leaves time stolen by the hypervisor
/// out of it, so it measures the work done even on a contended host.
fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, in ticks of 1/100 s (USER_HZ).
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

fn e2e_metrics(
    setup_s: &[f64],
    w: &Tally,
    cpu_ms_per_op: Option<f64>,
    space_amp: f64,
) -> Vec<Metric> {
    let secs = w.elapsed.as_secs_f64();
    let lat = |c: Class| &w.latency_ms[class_index(c)];
    let n = |c: Class| w.count(c);
    let pct = |c: Class, p: f64| percentile(lat(c), p);
    let ok = w.attempted - w.failed;
    // Geometric mean of the classes' median round trips, each weighted by
    // its class's share of the ops: a class slowed down by a factor f moves
    // it by f^share, however fast that class is next to the others.
    let classes = [Class::Fetch, Class::Query, Class::Write];
    let log_sum: f64 = classes
        .iter()
        .filter_map(|&c| pct(c, 50.0).map(|p| p.ln() * n(c) as f64))
        .sum();
    let mix_p50 = ratio(log_sum, classes.iter().map(|&c| n(c)).sum::<u64>() as f64).map(f64::exp);
    vec![
        metric(
            "setup_s",
            percentile(setup_s, 50.0),
            "s",
            setup_s.len() as u64,
        ),
        metric("ops_per_s", w.rate(), "ops/s", ok),
        metric("cpu_ms_per_op", cpu_ms_per_op, "ms", ok),
        metric("mix_p50_ms", mix_p50, "ms", ok),
        metric(
            "query_p50_ms",
            pct(Class::Query, 50.0),
            "ms",
            n(Class::Query),
        ),
        metric(
            "query_p99_ms",
            pct(Class::Query, 99.0),
            "ms",
            n(Class::Query),
        ),
        metric(
            "fetch_p50_ms",
            pct(Class::Fetch, 50.0),
            "ms",
            n(Class::Fetch),
        ),
        metric(
            "fetch_p99_ms",
            pct(Class::Fetch, 99.0),
            "ms",
            n(Class::Fetch),
        ),
        metric(
            "write_p50_ms",
            pct(Class::Write, 50.0),
            "ms",
            n(Class::Write),
        ),
        metric(
            "write_p99_ms",
            pct(Class::Write, 99.0),
            "ms",
            n(Class::Write),
        ),
        metric(
            "ingest_mb_s",
            (n(Class::Write) > 0).then(|| w.inserted_bytes as f64 / 1e6 / secs),
            "MB/s",
            n(Class::Write),
        ),
        metric(
            "failed_frac",
            ratio(w.failed as f64, w.attempted as f64),
            "ratio",
            w.attempted,
        ),
        metric("space_amp", Some(space_amp), "ratio", 1),
    ]
}

/// Per-layer metrics. Counters are deltas over the whole sliced wire
/// window (tracing is client-side, so it does not change them); times come
/// from the direct replay's spans. A ratio whose base is zero on this
/// workload (the layer idles) reads 0.
fn layer_metrics(
    plain: &Tally,
    traced: &Tally,
    st: &StatsDelta,
    direct: &Tally,
    self_times: &BTreeMap<&'static str, SelfTime>,
) -> Vec<Metric> {
    let ops_n = plain.attempted + traced.attempted;
    let queries_n = plain.queries() + traced.queries();
    let (ops, queries) = (ops_n as f64, queries_n as f64);
    let inserted = (plain.inserted_bytes + traced.inserted_bytes) as f64;
    let span = |name: &str| self_times.get(name).cloned().unwrap_or_default();
    let span_us = |name: &str| {
        let s = span(name);
        or_zero(ratio(s.total_ns as f64 / 1e3, s.count as f64))
    };
    // Client mean round trip minus the server's mean over the same request
    // classes; the server's timer starts at frame receipt.
    let server_us: f64 = (0..3).map(|c| st.d(|s| s.latency[c].total_us)).sum();
    let server_n: f64 = (0..3).map(|c| st.d(|s| s.latency[c].count)).sum();
    let client_ns: u64 = plain.rpc_ns.iter().chain(&traced.rpc_ns).sum();
    let client_n: u64 = plain.rpc_n.iter().chain(&traced.rpc_n).sum();
    let wire_overhead = ratio(client_ns as f64 / 1e3, client_n as f64)
        .zip(ratio(server_us, server_n))
        .map(|(c, s)| c - s);
    let hit_ratio = |hits: f64, misses: f64| or_zero(ratio(hits, hits + misses));
    let fsyncs = st.db(|d| d.wal_fsyncs);
    let hits = direct.hits as f64;
    let parse = span("xml.parse");
    let (untraced_rate, traced_rate) = (plain.rate(), traced.rate());
    vec![
        metric("server.wire_overhead_us", wire_overhead, "us", client_n),
        metric(
            "server.rejected_frac",
            or_zero(ratio(
                st.d(|s| s.requests_rejected),
                st.d(|s| s.requests_total),
            )),
            "ratio",
            st.d(|s| s.requests_total) as u64,
        ),
        metric(
            "xpath.parse_us",
            span_us("xpath.parse"),
            "us",
            span("xpath.parse").count,
        ),
        metric(
            "plan_cache.hit_ratio",
            hit_ratio(st.db(|d| d.plan_cache_hits), st.db(|d| d.plan_cache_misses)),
            "ratio",
            queries_n,
        ),
        metric(
            "executor.parallel_frac",
            or_zero(ratio(st.db(|d| d.parallel_queries), queries)),
            "ratio",
            queries_n,
        ),
        metric(
            "access.index_entries_per_hit",
            or_zero(ratio(direct.index_entries as f64, hits)),
            "count",
            direct.hits,
        ),
        metric(
            "access.docs_evaluated_per_hit",
            or_zero(ratio(direct.docs_evaluated as f64, hits)),
            "count",
            direct.hits,
        ),
        metric(
            "access.records_fetched_per_query",
            or_zero(ratio(
                direct.records_fetched as f64,
                direct.queries() as f64,
            )),
            "count",
            direct.queries(),
        ),
        metric(
            "engine.query_us",
            span_us("engine.query"),
            "us",
            span("engine.query").count,
        ),
        metric(
            "doc_cache.hit_ratio",
            hit_ratio(st.db(|d| d.doc_cache_hits), st.db(|d| d.doc_cache_misses)),
            "ratio",
            queries_n,
        ),
        metric(
            "doc_cache.evictions_per_query",
            or_zero(ratio(st.db(|d| d.doc_cache_evictions), queries)),
            "count",
            queries_n,
        ),
        metric(
            "engine.fetch_us",
            span_us("engine.fetch"),
            "us",
            span("engine.fetch").count,
        ),
        metric(
            "xml.parse_us_per_kb",
            or_zero(ratio(
                parse.total_ns as f64 / 1e3,
                direct.parsed_bytes as f64 / 1e3,
            )),
            "us/KB",
            parse.count,
        ),
        metric(
            "engine.insert_us",
            span_us("engine.insert"),
            "us",
            span("engine.insert").count,
        ),
        metric(
            "engine.delete_us",
            span_us("engine.delete"),
            "us",
            span("engine.delete").count,
        ),
        metric(
            "txn.commit_us",
            span_us("txn.commit"),
            "us",
            span("txn.commit").count,
        ),
        metric(
            "wal.fsyncs_per_op",
            or_zero(ratio(fsyncs, ops)),
            "count",
            ops_n,
        ),
        // Every op is one transaction: autocommit for reads, Begin..Commit
        // for writes.
        metric(
            "wal.commits_per_fsync",
            or_zero(ratio(ops, fsyncs)),
            "count",
            fsyncs as u64,
        ),
        metric(
            "wal.bytes_per_user_byte",
            or_zero(ratio(st.db(|d| d.wal_bytes), inserted)),
            "ratio",
            inserted as u64,
        ),
        metric(
            "buffer.hit_ratio",
            hit_ratio(st.db(|d| d.buffer_hits), st.db(|d| d.buffer_misses)),
            "ratio",
            ops_n,
        ),
        metric(
            "buffer.misses_per_query",
            or_zero(ratio(st.db(|d| d.buffer_misses), queries)),
            "count",
            queries_n,
        ),
        metric(
            "buffer.evictions_per_query",
            or_zero(ratio(st.db(|d| d.buffer_evictions), queries)),
            "count",
            queries_n,
        ),
        metric(
            "buffer.contention_per_op",
            or_zero(ratio(st.db(|d| d.buffer_contention), ops)),
            "count",
            ops_n,
        ),
        metric(
            "lock.waits_per_op",
            or_zero(ratio(st.db(|d| d.lock_waits), ops)),
            "count",
            ops_n,
        ),
        metric(
            "lock.timeouts",
            Some(st.db(|d| d.lock_timeouts) + st.db(|d| d.lock_deadlocks)),
            "count",
            ops_n,
        ),
        metric(
            "trace.ops_per_s_untraced",
            untraced_rate,
            "ops/s",
            plain.attempted,
        ),
        metric(
            "trace.ops_per_s_traced",
            traced_rate,
            "ops/s",
            traced.attempted,
        ),
        metric(
            "trace.overhead_frac",
            untraced_rate.zip(traced_rate).map(|(u, t)| 1.0 - t / u),
            "ratio",
            traced.attempted,
        ),
    ]
}

/// A per-layer figure whose base is zero on this workload reads 0.
fn or_zero(v: Option<f64>) -> Option<f64> {
    Some(v.unwrap_or(0.0))
}
