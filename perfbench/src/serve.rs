//! The serving edge under a live dashboard: one keep-alive writer pushes
//! remote-write batches and drives the host tick (the single WAL flusher);
//! one keep-alive reader cycles a fixed set of dashboard queries.  Both run
//! closed-loop over loopback from this process.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use teemon_server::percent_encode;

use crate::calib::Calibrator;
use crate::host::{Host, INTERVAL_MS};
use crate::rng::{mix, Rng, DIGEST_SEED};
use crate::Run;

/// Remote-write batches per host tick; batch timestamps step by
/// `INTERVAL_MS / BATCHES_PER_TICK`.
pub const BATCHES_PER_TICK: u64 = 3;

const EDGE_FAMILIES: [(&str, &str); 5] = [
    ("edge_requests_total", "counter"),
    ("edge_errors_total", "counter"),
    ("edge_bytes_total", "counter"),
    ("edge_inflight", "gauge"),
    ("edge_latency_ms", "gauge"),
];
const SERIES_PER_FAMILY: usize = 100;
pub const PUSH_SERIES: usize = EDGE_FAMILIES.len() * SERIES_PER_FAMILY;

/// Dashboard range queries span one hour at a 15 s step.
const RANGE_MS: u64 = 3_600_000;
const STEP_S: u64 = 15;

/// A minimal HTTP/1.1 keep-alive client (the server crate's helpers close
/// the connection after every request).  Reconnects after the server closes.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    request: Vec<u8>,
    buf: Vec<u8>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, stream: None, request: Vec::new(), buf: Vec::new() }
    }

    /// Sends one request and returns the status and body.
    pub fn send(&mut self, method: &str, target: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let result = self.exchange(method, target, body);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, method: &str, target: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        self.request.clear();
        write!(
            self.request,
            "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Type: text/plain\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.request.extend_from_slice(body);
        stream.write_all(&self.request)?;

        self.buf.clear();
        let mut chunk = [0u8; 64 * 1024];
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i;
            }
            let n = stream.read(&mut chunk)?;
            quick_ack(stream);
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed mid-response"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let bad = |why: &str| io::Error::new(io::ErrorKind::InvalidData, why.to_string());
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        let mut close = false;
        for line in head.split("\r\n").skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse().map_err(|_| bad("bad content-length"))?;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let total = head_end + 4 + length;
        while self.buf.len() < total {
            let n = stream.read(&mut chunk)?;
            quick_ack(stream);
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed mid-body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        if close {
            self.stream = None;
        }
        Ok((status, body))
    }
}

/// Re-arms `TCP_QUICKACK` (Linux clears it as it goes), so the client
/// acknowledges every segment at once.  The server writes a response's head
/// and body in two writes on a socket without `TCP_NODELAY`; with the
/// kernel's delayed ACK on the client, Nagle holds the body back ~40 ms on
/// every keep-alive response, and that timer would hide every other cost.
fn quick_ack(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let on: i32 = 1;
    // SAFETY: a valid socket descriptor and a pointer to a live i32 of the
    // length passed; the call only reads the value.
    unsafe {
        setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &on, 4);
    }
}

/// Pins thread `tid` (0: the calling thread) to `cpu`, on machines with
/// more than one.  Returns whether the kernel accepted the mask.
fn pin(tid: i32, cpu: usize) -> bool {
    // Counted once, before any pinning narrows the calling thread's view.
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let cpus = *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    if cpus < 2 {
        return false;
    }
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A 1024-bit cpu_set_t with one bit set.
    let cpu = cpu % cpus;
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed, which the
    // call only reads; a stale `tid` makes the call fail, nothing else.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Thread ids of the server's connection workers.
fn worker_threads() -> Vec<i32> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return Vec::new() };
    tasks
        .filter_map(|task| {
            let task = task.ok()?;
            let tid = task.file_name().to_str()?.parse().ok()?;
            let name = std::fs::read_to_string(task.path().join("comm")).ok()?;
            name.starts_with("teemon-http-wor").then_some(tid)
        })
        .collect()
}

impl Client {
    /// Opens a fresh connection and pins both the calling thread and the
    /// server thread that serves the connection to `cpu`.  Left to the
    /// scheduler, the two client/worker pairs sometimes share one core for
    /// seconds while the other idles, and every request takes twice as long.
    /// Returns whether both threads were pinned.
    pub fn connect_pinned(&mut self, cpu: usize) -> bool {
        if !pin(0, cpu) {
            return false;
        }
        self.stream = None;
        let before = worker_threads();
        let _ = self.send("GET", "/healthz", b"");
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline {
            if let Some(tid) = worker_threads().into_iter().find(|t| !before.contains(t)) {
                return pin(tid, cpu);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        false
    }
}

/// Renders remote-write batches: a fixed set of edge-proxy series whose
/// values the seed drives.
pub struct Pusher {
    rng: Rng,
    values: Vec<f64>,
    body: String,
}

impl Pusher {
    pub fn new(seed: u64) -> Self {
        Self { rng: Rng::new(seed ^ 0x9054), values: vec![0.0; PUSH_SERIES], body: String::new() }
    }

    fn digest(&self) -> u64 {
        self.values.iter().fold(DIGEST_SEED, |h, v| mix(h, v.to_bits()))
    }

    fn render(&mut self, timestamp_ms: u64) -> &[u8] {
        use std::fmt::Write as _;
        self.body.clear();
        for (family, (name, kind)) in EDGE_FAMILIES.iter().enumerate() {
            let _ = writeln!(self.body, "# TYPE {name} {kind}");
            for k in 0..SERIES_PER_FAMILY {
                let value = &mut self.values[family * SERIES_PER_FAMILY + k];
                let step = self.rng.below(50) as f64;
                *value = if *kind == "counter" { *value + step } else { step };
                let _ = writeln!(
                    self.body,
                    "{name}{{edge=\"e{}\",route=\"r{}\"}} {value} {timestamp_ms}",
                    k % 20,
                    k / 20
                );
            }
        }
        self.body.as_bytes()
    }
}

/// The writer's side of the connection pair: pushes batches stamped on the
/// host's timeline and ticks the host every `BATCHES_PER_TICK` batches.
pub struct Writer {
    client: Client,
    pusher: Pusher,
    calib: Calibrator,
}

/// What one closed-loop writer pass produced.
#[derive(Default)]
pub struct WriteLog {
    pub latencies_ms: Vec<f64>,
    /// The same latencies scaled to the reference core speed.
    pub scaled_ms: Vec<f64>,
    pub samples: u64,
    /// Whether the writer and its server thread were pinned to one core.
    pub pinned: bool,
}

impl Writer {
    pub fn new(addr: SocketAddr, seed: u64) -> Self {
        Self { client: Client::new(addr), pusher: Pusher::new(seed), calib: Calibrator::new() }
    }

    /// Pushes one tick's worth of batches and then ticks the host.  Stops
    /// only on tick boundaries, so every acked batch is flushed by a tick.
    pub fn round(
        &mut self,
        host: &mut Host,
        log: &mut WriteLog,
        trace: bool,
    ) -> crate::host::TickRecord {
        let base = host.next_tick_ms() - INTERVAL_MS;
        self.calib.sample();
        let scale = self.calib.scale();
        for batch in 1..=BATCHES_PER_TICK {
            let body = self.pusher.render(base + batch * INTERVAL_MS / BATCHES_PER_TICK);
            let start = Instant::now();
            let result = self.client.send("POST", "/api/v1/write", body);
            let elapsed = start.elapsed().as_secs_f64();
            host.attempted += 1;
            let expected = format!("\"ingested\":{PUSH_SERIES},\"overflow\":0");
            match result {
                Ok((200, resp)) if String::from_utf8_lossy(&resp).contains(&expected) => {
                    log.latencies_ms.push(elapsed * 1e3);
                    log.scaled_ms.push(elapsed * 1e3 * scale);
                    log.samples += PUSH_SERIES as u64;
                }
                Ok((status, resp)) => {
                    host.note(format!(
                        "write answered {status}: {}",
                        String::from_utf8_lossy(&resp).chars().take(200).collect::<String>()
                    ));
                }
                Err(e) => {
                    host.note(format!("write failed: {e}"));
                }
            }
        }
        host.between_ticks();
        let mut record = host.tick(trace);
        record.scale = scale;
        record
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Shape {
    Range,
    Instant,
    /// A short window well behind the head: closed, so its answer must not
    /// change for as long as retention cannot reach it.
    Historic,
}

struct DashQuery {
    expr: &'static str,
    shape: Shape,
}

/// The dashboard, over the application and host series every workload
/// keeps a full retention window of: streamed `sum by`/`rate` panels, one
/// vector–vector ratio that takes the per-step fallback path, one instant
/// stat and one panel over a closed historic window.
fn dashboard() -> [DashQuery; 6] {
    [
        DashQuery { expr: "sum by (shard) (rate(app_requests_total[1m]))", shape: Shape::Range },
        DashQuery { expr: "sum by (job) (rate(scrape_samples_scraped[5m]))", shape: Shape::Range },
        DashQuery { expr: "max by (shard) (app_queue_depth)", shape: Shape::Range },
        DashQuery {
            expr: "sum(rate(app_errors_total{shard=\"0\"}[1m])) \
                   / sum(rate(app_requests_total{shard=\"0\"}[1m]))",
            shape: Shape::Range,
        },
        DashQuery { expr: "sum by (shard) (app_inflight)", shape: Shape::Instant },
        DashQuery { expr: "sum by (job) (rate(app_bytes_in_total[1m]))", shape: Shape::Historic },
    ]
}

/// Samples decoded per streamed dashboard panel, asked once through the
/// query engine's ANALYZE over the hour ending at `head_ms`.  The caller runs
/// this while nothing else queries or writes, so the count is exact.
pub fn decoded_per_streamed_panel(db: &teemon_tsdb::TimeSeriesDb, head_ms: u64) -> f64 {
    let engine = teemon_query::QueryEngine::new(db.clone());
    let (mut decoded, mut streamed) = (0u64, 0u64);
    for query in dashboard().iter().filter(|q| q.shape == Shape::Range) {
        let start = head_ms.saturating_sub(RANGE_MS);
        if let Ok(run) = engine.analyze(query.expr, start, head_ms, STEP_S * 1_000) {
            if run.explain.choice == teemon_query::PlanChoice::Streamed {
                decoded += run.samples_decoded;
                streamed += 1;
            }
        }
    }
    decoded as f64 / streamed.max(1) as f64
}

/// The closed window the historic panel asks about, and the answer it gave
/// the first time.  The window ends a quarter of the retention behind the
/// head it was anchored at; it moves on before `apply_retention` can reach
/// the oldest sample its `rate(...[1m])` reads, with two ticks to spare for
/// a retention pass running while the panel is asked.
struct HistoricWindow {
    start_ms: u64,
    end_ms: u64,
    valid_until_ms: u64,
    answer: Option<Vec<u8>>,
}

impl HistoricWindow {
    const LOOKBACK_MS: u64 = 60_000;

    fn anchor(head_ms: u64, retention_ms: u64) -> Self {
        let end_ms = head_ms.saturating_sub(retention_ms / 4);
        let start_ms = end_ms.saturating_sub(retention_ms / 8);
        // Retention at head `h` drops what is older than `h - retention_ms`.
        let oldest_read = start_ms.saturating_sub(Self::LOOKBACK_MS);
        Self {
            start_ms,
            end_ms,
            valid_until_ms: (oldest_read + retention_ms).saturating_sub(2 * INTERVAL_MS),
            answer: None,
        }
    }
}

fn target(query: &DashQuery, head_ms: u64, window: &HistoricWindow) -> String {
    let expr = percent_encode(query.expr);
    let secs = |ms: u64| format!("{}", ms as f64 / 1e3);
    let (start_ms, end_ms) = match query.shape {
        Shape::Instant => return format!("/api/v1/query?query={expr}&time={}", secs(head_ms)),
        Shape::Range => (head_ms.saturating_sub(RANGE_MS), head_ms),
        Shape::Historic => (window.start_ms, window.end_ms),
    };
    format!(
        "/api/v1/query_range?query={expr}&start={}&end={}&step={STEP_S}",
        secs(start_ms),
        secs(end_ms)
    )
}

/// What the reader saw.
#[derive(Default)]
pub struct ReadLog {
    /// Wall time of each complete dashboard refresh: every panel
    /// once, back to back on the keep-alive connection.
    pub refreshes_ms: Vec<f64>,
    /// The same scaled to the reference core speed.
    pub scaled_refreshes_ms: Vec<f64>,
    /// Every individual query latency.
    pub requests_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Closed-window answers compared with the window's first answer.
    pub historic_checks: u64,
    /// Whether the reader and its server thread were pinned to one core.
    pub pinned: bool,
    /// Per dashboard panel: its expression and every latency it saw.
    pub panels: Vec<(&'static str, Vec<f64>)>,
    pub errors: Vec<String>,
}

/// Refreshes the dashboard (panels in a seeded order per refresh) until
/// `stop`, each range panel ending at the host's latest tick.
pub fn read_loop(
    addr: SocketAddr,
    head_ms: &AtomicU64,
    stop: &AtomicBool,
    retention_ms: u64,
    seed: u64,
) -> ReadLog {
    let queries = dashboard();
    let mut order: Vec<usize> = (0..queries.len()).collect();
    let mut rng = Rng::new(seed ^ 0x4EAD);
    let mut client = Client::new(addr);
    let pinned = client.connect_pinned(1);
    let mut calib = Calibrator::new();
    let mut log = ReadLog {
        panels: queries.iter().map(|q| (q.expr, Vec::new())).collect(),
        pinned,
        ..ReadLog::default()
    };
    let mut window = HistoricWindow::anchor(head_ms.load(Ordering::Acquire), retention_ms);
    'refresh: while !stop.load(Ordering::Relaxed) {
        rng.shuffle(&mut order);
        calib.sample();
        let mut refresh_ms = 0.0;
        let mut complete = true;
        for &panel in &order {
            if stop.load(Ordering::Relaxed) {
                break 'refresh;
            }
            let query = &queries[panel];
            let head = head_ms.load(Ordering::Acquire);
            if head >= window.valid_until_ms {
                window = HistoricWindow::anchor(head, retention_ms);
            }
            let path = target(query, head, &window);
            let start = Instant::now();
            let result = client.send("GET", &path, b"");
            let latency_ms = start.elapsed().as_secs_f64() * 1e3;
            log.attempted += 1;
            let body = match result {
                Ok((200, body)) => body,
                Ok((status, body)) => {
                    log.failed += 1;
                    complete = false;
                    let body = String::from_utf8_lossy(&body).into_owned();
                    log.note(format!("{} answered {status}: {body}", query.expr));
                    continue;
                }
                Err(e) => {
                    log.failed += 1;
                    complete = false;
                    log.note(format!("{} failed: {e}", query.expr));
                    continue;
                }
            };
            if query.shape == Shape::Historic {
                match &window.answer {
                    None => window.answer = Some(body),
                    Some(first) if *first == body => log.historic_checks += 1,
                    Some(_) => {
                        log.historic_checks += 1;
                        log.failed += 1;
                        log.note(format!(
                            "closed-window query `{}` changed its answer",
                            query.expr
                        ));
                    }
                }
            }
            refresh_ms += latency_ms;
            log.requests_ms.push(latency_ms);
            log.panels[panel].1.push(latency_ms);
        }
        if complete {
            log.refreshes_ms.push(refresh_ms);
            log.scaled_refreshes_ms.push(refresh_ms * calib.scale());
        }
    }
    log
}

impl ReadLog {
    fn note(&mut self, message: String) {
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }
}

/// Runs the writer and the reader together for `duration`, then stops on
/// a tick boundary.  Ticks the writer drives are recorded into `run`.
pub fn serve_phase(
    host: &mut Host,
    writer: &mut Writer,
    addr: SocketAddr,
    run: &mut Run,
    duration: Duration,
    retention_ms: u64,
) -> (WriteLog, ReadLog) {
    let head_ms = AtomicU64::new(host.head_ms());
    let stop = AtomicBool::new(false);
    let seed = run.seed;
    let mut write_log = WriteLog::default();
    let read_log = std::thread::scope(|scope| {
        write_log.pinned = writer.client.connect_pinned(0);
        let reader = scope.spawn(|| read_loop(addr, &head_ms, &stop, retention_ms, seed));
        let start = Instant::now();
        while start.elapsed() < duration {
            let traced = run.pick_traced();
            let record = writer.round(host, &mut write_log, traced);
            run.record_tick(host, record, writer.pusher.digest());
            head_ms.store(host.head_ms(), Ordering::Release);
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("reader thread")
    });
    (write_log, read_log)
}
