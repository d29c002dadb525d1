//! End-to-end benchmark of a deployed TEEMon host.
//!
//! ```text
//! teemon-perfbench --workload <host_small|host_churn|serve_dashboard>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets the workload up several times (reporting the median
//! set-up time), measures it for `--seconds`, then drops the monitor
//! without shutdown and times crash recovery over the directory it left.
//! It drives only public entry points (`MonitorBuilder`/`HostMonitor`,
//! `Scraper::scrape_round_due`, `RuleEngine::evaluate_due`,
//! `TimeSeriesDb::{open_with, apply_retention, stats}` and the HTTP server
//! over loopback) and attributes time to layers from outside: by timing
//! those calls, by timing its own client requests, and from deltas of the
//! engine's `teemon_obs` probes and `/proc/self/io`.
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics; with `--trace 1`, with the per-layer metrics.
//! Any failed correctness check makes the exit status non-zero.

mod calib;
mod host;
mod probe;
mod rng;
mod serve;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use teemon_server::{Server, ServerConfig};
use teemon_tsdb::{StorageStats, TimeSeriesDb};

use calib::Calibrator;
use host::{Host, HostPlan, TickRecord, INTERVAL_MS};
use probe::Probes;
use rng::Rng;
use serve::{ReadLog, WriteLog, Writer};
use stats::{mean, median, Dist};

const MINUTE: u64 = 60_000;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Recovery is repeated until it has taken this long in total, at least
/// `MIN_RECOVERIES` and at most `MAX_RECOVERIES` times; `wal.recovery_s` is
/// the median.  One recovery of a small database takes a few tens of
/// milliseconds, too short to time once.
const RECOVERY_BUDGET_S: f64 = 3.0;
const MIN_RECOVERIES: usize = 5;
const MAX_RECOVERIES: usize = 50;
/// The live heap is sampled at the first tick boundary after each such
/// interval of the measured phase; `live_heap_mb` is the samples' mean, a
/// time average.
const HEAP_SAMPLE_EVERY: Duration = Duration::from_millis(250);

struct Workload {
    name: &'static str,
    host: HostPlan,
    /// Ticks run during set-up to fill one retention window of history.
    warmup_ticks: u64,
    /// Whether set-up already serves: the server starts, and the warm-up
    /// ticks are writer rounds (remote-write batches plus a tick).
    serve_in_setup: bool,
    /// Share of `--seconds` spent in the tick-only phase; the rest serves.
    tick_share: f64,
    /// Exact per-run counts are taken over this many measured ticks, so
    /// they do not depend on how many ticks fit in the run.
    checkpoint_ticks: usize,
    /// Tail percentiles: fixed per workload, each with well over ten
    /// samples beyond it at the default run length (the output reports the
    /// count), and no higher than run-to-run steadiness allows.
    tick_tail_q: f64,
    write_tail_q: f64,
    refresh_tail_q: f64,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "host_small",
        host: HostPlan {
            text: false,
            app_series: 1_000,
            pod_restarts_per_tick: 0,
            rules: true,
            retention_ms: 60 * MINUTE,
            retention_every: 20,
            chunk_size: 120,
            segment_bytes: 4 << 20,
        },
        warmup_ticks: 240,
        serve_in_setup: false,
        tick_share: 0.5,
        checkpoint_ticks: 400,
        tick_tail_q: 90.0,
        write_tail_q: 95.0,
        refresh_tail_q: 95.0,
    },
    Workload {
        name: "host_churn",
        host: HostPlan {
            text: true,
            app_series: 10_000,
            pod_restarts_per_tick: 5,
            rules: true,
            retention_ms: 5 * MINUTE,
            retention_every: 5,
            chunk_size: 20,
            segment_bytes: 64 << 10,
        },
        warmup_ticks: 30,
        serve_in_setup: false,
        tick_share: 0.6,
        checkpoint_ticks: 40,
        tick_tail_q: 90.0,
        write_tail_q: 95.0,
        refresh_tail_q: 90.0,
    },
    Workload {
        name: "serve_dashboard",
        host: HostPlan {
            text: false,
            app_series: 1_000,
            pod_restarts_per_tick: 0,
            rules: false,
            retention_ms: 60 * MINUTE,
            retention_every: 20,
            chunk_size: 120,
            segment_bytes: 4 << 20,
        },
        warmup_ticks: 240,
        serve_in_setup: true,
        tick_share: 0.0,
        checkpoint_ticks: 200,
        tick_tail_q: 95.0,
        write_tail_q: 95.0,
        refresh_tail_q: 95.0,
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Per-run measurement state shared by the tick and serving phases.
pub struct Run {
    pub seed: u64,
    trace: bool,
    rng: Rng,
    ticks: Vec<TickRecord>,
    checkpoint_ticks: usize,
    baseline: Probes,
    baseline_samples: u64,
    dropped: u64,
    checkpoint: Option<Checkpoint>,
    /// Live heap samples (MiB) and when the last one was taken.
    heap_mb: Vec<f64>,
    heap_sampled: Instant,
}

/// Exact counts over the first `checkpoint_ticks` measured ticks.
struct Checkpoint {
    ticks: usize,
    storage: StorageStats,
    probes: Probes,
    /// Samples appended since the baseline (stored now + dropped by retention).
    appended: u64,
    /// Write syscalls of each traced tick.
    syscw: Vec<f64>,
    input_digest: u64,
}

impl Run {
    fn new(seed: u64, trace: bool, host: &Host, checkpoint_ticks: usize) -> Self {
        Self {
            seed,
            trace,
            rng: Rng::new(seed ^ 0x77ACE),
            ticks: Vec::new(),
            checkpoint_ticks,
            baseline: Probes::read(false),
            baseline_samples: host.db().stats().samples,
            dropped: 0,
            checkpoint: None,
            heap_mb: vec![probe::live_heap_mb()],
            heap_sampled: Instant::now(),
        }
    }

    /// In traced runs, a seeded half of the ticks are traced;
    /// the other half measures the same work untraced, so the tracing
    /// overhead is read from one process.
    pub fn pick_traced(&mut self) -> bool {
        self.trace && self.rng.below(2) == 0
    }

    /// Records a measured tick; `pushed_digest` is the digest of the
    /// remote-write inputs generated so far (0 outside the serving phase).
    pub fn record_tick(&mut self, host: &Host, record: TickRecord, pushed_digest: u64) {
        self.dropped += record.samples_dropped;
        self.ticks.push(record);
        if self.ticks.len() == self.checkpoint_ticks {
            self.checkpoint = Some(self.take_checkpoint(host, pushed_digest));
        }
        if self.heap_sampled.elapsed() >= HEAP_SAMPLE_EVERY {
            self.heap_mb.push(probe::live_heap_mb());
            self.heap_sampled = Instant::now();
        }
    }

    fn take_checkpoint(&self, host: &Host, pushed_digest: u64) -> Checkpoint {
        let storage = host.db().stats();
        Checkpoint {
            ticks: self.ticks.len(),
            storage,
            probes: Probes::read(false).since(&self.baseline),
            appended: (storage.samples + self.dropped).saturating_sub(self.baseline_samples),
            syscw: self.ticks.iter().filter_map(|t| t.probes).map(|p| p.syscw as f64).collect(),
            input_digest: rng::mix(host.input_digest(), pushed_digest),
        }
    }
}

/// A deployed workload after set-up.
struct Deployed {
    host: Host,
    server: Option<Server>,
    writer: Option<Writer>,
}

/// Loopback clients share one IP, so the per-client limiter is opened
/// wide; it is not under test.
fn server_config() -> ServerConfig {
    ServerConfig { rate_per_sec: 1e12, burst: 1e12, ..ServerConfig::default() }
}

/// Ticks after the set-up's query probe, so the self-telemetry series the
/// probe's queries create exist before measuring.
const SETTLE_TICKS: u64 = 5;

/// Builds and warms one deployment.  `calib` samples the core speed
/// before every warm-up tick.
fn set_up(
    workload: &Workload,
    dir: &Path,
    seed: u64,
    calib: &mut Calibrator,
) -> std::io::Result<(Deployed, f64)> {
    let mut host = Host::build(dir, workload.host, seed)?;
    let (mut server, mut writer) = (None, None);
    if workload.serve_in_setup {
        let started = Server::start("127.0.0.1:0", server_config(), host.db().clone())?;
        writer = Some(Writer::new(started.addr(), seed));
        server = Some(started);
    }
    let mut log = WriteLog::default();
    let mut warm = |host: &mut Host, ticks: u64| {
        for _ in 0..ticks {
            calib.sample();
            match writer.as_mut() {
                Some(writer) => {
                    writer.round(host, &mut log, false);
                }
                None => {
                    host.between_ticks();
                    host.tick(false);
                }
            }
        }
    };
    warm(&mut host, workload.warmup_ticks);
    let decoded_per_query = serve::decoded_per_streamed_panel(host.db(), host.head_ms());
    warm(&mut host, SETTLE_TICKS);
    Ok((Deployed { host, server, writer }, decoded_per_query))
}

/// What must survive a crash: counts and one fixed query's answer.
#[derive(PartialEq, Debug)]
struct Reference {
    series: u64,
    samples: u64,
    answer: String,
}

impl Reference {
    fn take(db: &TimeSeriesDb, head_ms: u64) -> Self {
        let stats = db.stats();
        let engine = teemon_query::QueryEngine::new(db.clone());
        let answer = match engine.range_query(
            "sum by (job) (rate(app_requests_total[1m]))",
            head_ms.saturating_sub(3_600_000),
            head_ms,
            INTERVAL_MS,
        ) {
            Ok(series) => teemon_query::json::range_response(&series),
            Err(e) => format!("error: {e}"),
        };
        Self { series: stats.series, samples: stats.samples, answer }
    }
}

/// Everything one run measured.
struct Outcome {
    /// Each set-up's wall time and the core-speed scale measured before it.
    setup_s: Vec<(f64, f64)>,
    ticks: Vec<TickRecord>,
    checkpoint: Checkpoint,
    checkpoint_complete: bool,
    /// Ticks of the tick-only phase (0 on serve_dashboard).
    tick_phase_ticks: usize,
    write: WriteLog,
    read: ReadLog,
    serve_probes: Probes,
    storage: StorageStats,
    /// Each recovery's wall time.
    recoveries: Vec<f64>,
    records_replayed: u64,
    /// Samples each streamed dashboard panel decodes at the end of set-up.
    decoded_per_query: f64,
    /// Live heap samples over the measured phase, in MiB.
    heap_mb: Vec<f64>,
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn run(workload: &Workload, args: &Args, root: &Path) -> std::io::Result<Outcome> {
    let mut calib = Calibrator::new();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let dir = root.join(format!("setup-{i}"));
        calib.begin_span();
        let start = Instant::now();
        let (deployed, decoded_per_query) = set_up(workload, &dir, args.seed, &mut calib)?;
        setup_s.push((start.elapsed().as_secs_f64(), calib.span_scale()));
        if i + 1 < SETUPS {
            if let Some(server) = deployed.server {
                server.shutdown();
            }
            drop(deployed.host);
            std::fs::remove_dir_all(&dir)?;
        } else {
            kept = Some((deployed, dir, decoded_per_query));
        }
    }
    let (Deployed { mut host, server, writer }, dir, decoded_per_query) =
        kept.expect("at least one set-up");

    let mut run = Run::new(args.seed, args.trace, &host, workload.checkpoint_ticks);
    let total = Duration::from_secs_f64(args.seconds);
    let tick_phase = total.mul_f64(workload.tick_share);
    let start = Instant::now();
    while start.elapsed() < tick_phase {
        calib.sample();
        host.between_ticks();
        let traced = run.pick_traced();
        let mut record = host.tick(traced);
        record.scale = calib.scale();
        run.record_tick(&host, record, 0);
    }
    let phase_one_ticks = run.ticks.len();

    let server = match server {
        Some(server) => server,
        None => Server::start("127.0.0.1:0", server_config(), host.db().clone())?,
    };
    let mut writer = writer.unwrap_or_else(|| Writer::new(server.addr(), args.seed));
    let retention_ms = host.retention_ms();
    let before = Probes::read(false);
    let (write, read) = serve::serve_phase(
        &mut host,
        &mut writer,
        server.addr(),
        &mut run,
        total.saturating_sub(tick_phase),
        retention_ms,
    );
    let serve_probes = Probes::read(false).since(&before);
    drop(writer);
    let mut errors = std::mem::take(&mut host.errors);
    let mut attempted = host.attempted + read.attempted;
    let mut failed = host.failed + read.failed;
    errors.extend(read.errors.iter().cloned());
    if !server.shutdown() {
        attempted += 1;
        failed += 1;
        errors.push("server did not drain".into());
    }

    let checkpoint_complete = run.checkpoint.is_some();
    let checkpoint = run.checkpoint.take().unwrap_or_else(|| run.take_checkpoint(&host, 0));
    let heap_mb = std::mem::take(&mut run.heap_mb);
    let ticks = if phase_one_ticks > 0 {
        run.ticks[..phase_one_ticks].to_vec()
    } else {
        std::mem::take(&mut run.ticks)
    };

    // Crash: the serving edge's graceful shutdown above flushed the WAL; the
    // monitor is dropped without any shutdown, and recovery reads the
    // directory it leaves behind.
    let head_ms = host.head_ms();
    let reference = Reference::take(host.db(), head_ms);
    let storage = host.db().stats();
    let peak_rss_mb = probe::peak_rss_mb();
    drop(host);
    let (config, options) = host::open_options(&workload.host);
    // Write the directory's dirty pages back first, so the kernel's
    // writeback does not compete with the timed recoveries.
    sync_dir(&dir)?;
    // Recover repeatedly from the same directory (recovery only reads it);
    // every recovered database must match the reference.
    let mut recoveries: Vec<f64> = Vec::new();
    let mut records_replayed = 0;
    while recoveries.len() < MIN_RECOVERIES
        || (recoveries.len() < MAX_RECOVERIES && recoveries.iter().sum::<f64>() < RECOVERY_BUDGET_S)
    {
        let replayed_before = Probes::read(false);
        let start = Instant::now();
        let recovered = TimeSeriesDb::open_with(&dir, config.clone(), options.clone())?;
        recoveries.push(start.elapsed().as_secs_f64());
        records_replayed = Probes::read(false).since(&replayed_before).records_replayed;
        let after = Reference::take(&recovered, head_ms);
        drop(recovered);
        for (what, ok) in [
            ("series count", after.series == reference.series),
            ("sample count", after.samples == reference.samples),
            ("fixed query answer", after.answer == reference.answer),
        ] {
            attempted += 1;
            if !ok {
                failed += 1;
                errors.push(format!(
                    "recovery check failed: {what} (before the crash: {} series, {} samples; \
                     after recovery: {} series, {} samples)",
                    reference.series, reference.samples, after.series, after.samples
                ));
            }
        }
    }
    for (what, ok) in [
        ("no rejected samples", storage.rejected_samples == 0),
        ("no failed WAL shards", storage.wal_failed_shards == 0),
    ] {
        attempted += 1;
        if !ok {
            failed += 1;
            errors.push(format!("storage check failed: {what}"));
        }
    }
    Ok(Outcome {
        setup_s,
        ticks,
        checkpoint,
        checkpoint_complete,
        tick_phase_ticks: phase_one_ticks,
        write,
        read,
        serve_probes,
        storage,
        recoveries,
        records_replayed,
        decoded_per_query,
        heap_mb,
        peak_rss_mb,
        attempted,
        failed,
        errors,
    })
}

/// Syncs every file under `dir` to disk.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            sync_dir(&path)?;
        } else {
            std::fs::File::open(&path)?.sync_all()?;
        }
    }
    Ok(())
}

impl Outcome {
    /// Median wall time of the recoveries.
    fn recovery_s(&self) -> f64 {
        median(&self.recoveries)
    }
}

impl Checkpoint {
    fn cache_hit_ratio(&self) -> f64 {
        let lookups = self.probes.cache_hits + self.probes.cache_rebuilds;
        self.probes.cache_hits as f64 / lookups.max(1) as f64
    }

    fn storage_bytes_per_sample(&self) -> f64 {
        self.storage.total_bytes() as f64 / self.storage.samples.max(1) as f64
    }

    fn wal_bytes_per_tick(&self) -> f64 {
        self.probes.wal_bytes as f64 / self.ticks.max(1) as f64
    }
}

/// The counts a seed fixes exactly: two runs with one seed must print the
/// same lines (traced runs print them all; untraced ones what they measure).
fn print_exact_counts(o: &Outcome) {
    let c = &o.checkpoint;
    let or_dash = |values: &[f64]| {
        if values.is_empty() {
            "-".to_string()
        } else {
            format!("{}", median(values))
        }
    };
    let reached = if !o.checkpoint_complete {
        "NOT REACHED: over the whole run, not comparable"
    } else if c.ticks <= o.tick_phase_ticks {
        "in the tick phase"
    } else if o.tick_phase_ticks == 0 {
        "while serving"
    } else {
        "AFTER THE TICK PHASE: not comparable"
    };
    println!("exact counts over the first {} measured ticks, {reached}", c.ticks);
    println!("exact: input_digest = {:016x}", c.input_digest);
    println!("exact: wal.write_syscalls_per_tick = {}", or_dash(&c.syscw));
    println!("exact: wal.bytes_per_tick = {}", c.wal_bytes_per_tick());
    println!("exact: scrape.cache_hit_ratio = {}", c.cache_hit_ratio());
    println!("exact: storage_bytes_per_sample = {}", c.storage_bytes_per_sample());
    println!("exact: query.samples_decoded_per_query = {}", o.decoded_per_query);
    println!("exact: storage.series_at_checkpoint = {}", c.storage.series);
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn end_to_end(o: &Outcome, w: &Workload) -> Vec<Metric> {
    let untraced: Vec<&TickRecord> = o.ticks.iter().filter(|t| t.probes.is_none()).collect();
    let ticks_us: Vec<f64> = untraced.iter().map(|t| t.total_ns as f64 / 1e3).collect();
    let scaled_ticks_us: Vec<f64> =
        untraced.iter().map(|t| t.total_ns as f64 / 1e3 * t.scale).collect();
    let scales: Vec<f64> = untraced.iter().map(|t| t.scale).collect();
    let setups: Vec<f64> = o.setup_s.iter().map(|(s, _)| *s).collect();
    let scaled_setups: Vec<f64> = o.setup_s.iter().map(|(s, scale)| s * scale).collect();

    let tick = Dist::new(&scaled_ticks_us, w.tick_tail_q);
    let write = Dist::new(&o.write.scaled_ms, w.write_tail_q);
    let refresh = Dist::new(&o.read.scaled_refreshes_ms, w.refresh_tail_q);
    println!(
        "core-speed scale over the ticks: p50 {:.3} (kernel p50 {:.1} us vs {} us nominal); \
         raw medians: tick {:.1} us, write {:.4} ms, refresh {:.3} ms, set-up {:.4} s, \
         recovery {:.4} s",
        median(&scales),
        calib::NOMINAL_US / median(&scales).max(1e-9),
        calib::NOMINAL_US,
        median(&ticks_us),
        median(&o.write.latencies_ms),
        median(&o.read.refreshes_ms),
        median(&setups),
        o.recovery_s()
    );
    println!("ticks (untraced, scaled): {}", tick.describe("us"));
    println!("  p50 by quarter of the run: raw {}", stats::quarters(&ticks_us));
    println!("  p50 by quarter of the run: scaled {}", stats::quarters(&scaled_ticks_us));
    println!("writes (scaled): {}", write.describe("ms"));
    println!("  p50 by quarter of the run: scaled {}", stats::quarters(&o.write.scaled_ms));
    println!(
        "dashboard refreshes (scaled): {}; {} closed-window answers compared",
        refresh.describe("ms"),
        o.read.historic_checks
    );
    println!(
        "  p50 by quarter of the run: scaled {}",
        stats::quarters(&o.read.scaled_refreshes_ms)
    );
    for (expr, latencies) in &o.read.panels {
        println!(
            "  panel p50 {:>9.3} ms raw (n={:>5}): {expr}",
            median(latencies),
            latencies.len()
        );
    }
    println!("set-ups: {setups:.4?} s raw; recoveries: {:.4?} s", o.recoveries);
    println!(
        "client threads pinned with their server threads: writer {}, reader {}",
        o.write.pinned, o.read.pinned
    );
    println!(
        "live heap over {} samples: mean {:.3} MiB, median {:.3} MiB, peak {:.3} MiB; \
         peak resident size (VmHWM) {:.3} MiB",
        o.heap_mb.len(),
        mean(&o.heap_mb),
        median(&o.heap_mb),
        o.heap_mb.iter().copied().fold(0.0, f64::max),
        o.peak_rss_mb
    );
    let c = &o.checkpoint;
    let write_busy_s = o.write.scaled_ms.iter().sum::<f64>() / 1e3;
    vec![
        metric("tick_p50_us", tick.p50, "us"),
        metric("tick_tail_us", tick.tail, "us"),
        metric("write_p50_ms", write.p50, "ms"),
        metric("write_tail_ms", write.tail, "ms"),
        metric("write_samples_per_s", o.write.samples as f64 / write_busy_s.max(1e-9), "1/s"),
        metric("refresh_p50_ms", refresh.p50, "ms"),
        metric("refresh_tail_ms", refresh.tail, "ms"),
        metric("setup_s", median(&scaled_setups), "s"),
        metric("storage_bytes_per_sample", c.storage_bytes_per_sample(), "B"),
        metric("wal_bytes_per_sample", c.probes.wal_bytes as f64 / c.appended.max(1) as f64, "B"),
        metric("live_heap_mb", mean(&o.heap_mb), "MiB"),
    ]
}

fn per_layer(o: &Outcome) -> Vec<Metric> {
    let traced: Vec<&TickRecord> = o.ticks.iter().filter(|t| t.probes.is_some()).collect();
    let n = traced.len().max(1) as f64;
    let per_tick = |f: &dyn Fn(&TickRecord, &Probes) -> f64| -> f64 {
        traced.iter().map(|t| f(t, t.probes.as_ref().expect("traced"))).sum::<f64>() / n
    };
    let tick_us = per_tick(&|t, _| t.total_ns as f64 / 1e3);
    let collect_us = per_tick(&|_, p| p.collect_ns as f64 / 1e3);
    let walk_us = per_tick(&|_, p| p.walk_ns as f64 / 1e3);
    let append_us = per_tick(&|_, p| p.append_ns as f64 / 1e3);
    let fsync_us = per_tick(&|_, p| p.fsync_ns as f64 / 1e3);
    let rules_us = per_tick(&|t, _| t.rules_ns as f64 / 1e3);
    let retention_us = per_tick(&|t, _| t.retention_ns.unwrap_or(0) as f64 / 1e3);
    let layers = collect_us + walk_us + append_us + fsync_us + rules_us + retention_us;
    let unattributed_us = tick_us - layers;
    let retention_calls: Vec<&&TickRecord> =
        traced.iter().filter(|t| t.retention_ns.is_some()).collect();
    let per_call = |f: &dyn Fn(&TickRecord) -> f64| -> f64 {
        if retention_calls.is_empty() {
            0.0
        } else {
            retention_calls.iter().map(|t| f(t)).sum::<f64>() / retention_calls.len() as f64
        }
    };

    let c = &o.checkpoint;
    let s = &o.serve_probes;
    let requests_ms: Vec<f64> =
        o.write.latencies_ms.iter().chain(&o.read.requests_ms).copied().collect();
    let handler_us = s.http_ns as f64 / s.http_handled.max(1) as f64 / 1e3;
    let client_us = mean(&requests_ms) * 1e3;

    println!(
        "closure, tick: collect {collect_us:.1} + cache walk {walk_us:.1} + append {append_us:.1} \
         + fsync {fsync_us:.1} + rules {rules_us:.1} + retention {retention_us:.1} = {layers:.1} us \
         of a {tick_us:.1} us mean traced tick ({} traced ticks)",
        traced.len()
    );
    println!(
        "closure, tick: scrape.unattributed_us {unattributed_us:.1} ({:.1}% of the tick)",
        100.0 * unattributed_us / tick_us.max(1e-9)
    );
    println!(
        "closure, request: handler {handler_us:.1} us + edge {:.1} us = {client_us:.1} us mean \
         client latency ({} requests)",
        client_us - handler_us,
        requests_ms.len()
    );
    // Overheads compare end-to-end medians, which are core-speed scaled.
    let scaled_us = |t: &TickRecord| t.total_ns as f64 / 1e3 * t.scale;
    let untraced: Vec<f64> = o.ticks.iter().filter(|t| t.probes.is_none()).map(scaled_us).collect();
    let traced_us: Vec<f64> = traced.iter().map(|t| scaled_us(t)).collect();
    let tick_overhead_us = median(&traced_us) - median(&untraced);
    println!(
        "tracing overhead: tick p50 {tick_overhead_us:+.1} us ({} traced vs {} untraced ticks); \
         requests are not traced one by one (serving-phase probes are read once around the phase)",
        traced_us.len(),
        untraced.len()
    );

    vec![
        metric("scrape.collect_us", collect_us, "us"),
        metric("scrape.cache_walk_us", walk_us, "us"),
        metric("scrape.cache_hit_ratio", c.cache_hit_ratio(), "ratio"),
        metric("scrape.stale_handles", per_tick(&|_, p| p.stale_handles as f64), "count"),
        metric("scrape.unattributed_us", unattributed_us, "us"),
        metric("storage.append_us", append_us, "us"),
        metric("storage.series", o.storage.series as f64, "count"),
        metric("storage.symbols", o.storage.symbols as f64, "count"),
        metric("storage.index_bytes", o.storage.index_bytes as f64, "B"),
        metric("storage.resident_bytes", o.storage.resident_bytes as f64, "B"),
        metric(
            "storage.retention_us",
            per_call(&|t| t.retention_ns.unwrap_or(0) as f64 / 1e3),
            "us",
        ),
        metric("storage.series_evicted", per_call(&|t| t.series_evicted as f64), "count"),
        metric("wal.symbols_swept", per_tick(&|_, p| p.symbols_swept as f64), "count"),
        metric("wal.write_syscalls_per_tick", median(&c.syscw), "count"),
        metric("wal.bytes_per_tick", c.wal_bytes_per_tick(), "B"),
        metric("wal.fsyncs", per_tick(&|_, p| p.fsyncs as f64), "count"),
        metric("wal.fsync_us", fsync_us, "us"),
        metric("wal.recovery_s", o.recovery_s(), "s"),
        metric(
            "wal.replay_samples_per_s",
            o.storage.samples as f64 / o.recovery_s().max(1e-9),
            "1/s",
        ),
        metric("wal.records_replayed", o.records_replayed as f64, "count"),
        metric("rules.eval_us", rules_us, "us"),
        metric("rules.evaluated", per_tick(&|t, _| t.groups_evaluated as f64), "count"),
        metric("query.engine_us", s.query_ns as f64 / s.queries.max(1) as f64 / 1e3, "us"),
        metric("query.samples_decoded_per_query", o.decoded_per_query, "count"),
        metric(
            "query.streamed_ratio",
            s.streamed as f64 / (s.streamed + s.fallback).max(1) as f64,
            "ratio",
        ),
        metric(
            "query.window_rebuilds",
            s.window_rebuilds as f64 / s.streamed.max(1) as f64,
            "count",
        ),
        metric("http.handler_us", handler_us, "us"),
        metric("http.edge_us", client_us - handler_us, "us"),
        metric("http.non2xx", s.http_non2xx as f64, "count"),
        metric("http.shed", s.http_shed as f64, "count"),
        metric("http.rate_limited", s.http_rate_limited as f64, "count"),
        metric("http.connections", s.http_connections as f64, "count"),
        metric("trace.tick_overhead_us", tick_overhead_us, "us"),
        metric("process.peak_rss_mb", o.peak_rss_mb, "MiB"),
    ]
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: teemon-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!(
            "unknown workload {:?}; known: {:?}",
            args.workload,
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        return ExitCode::from(2);
    };
    let root: PathBuf =
        PathBuf::from(".bench_data").join(format!("{}-{}", workload.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let result = run(workload, &args, &root);
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(".bench_data");
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{}: {e}", workload.name);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let metrics = if args.trace { per_layer(&outcome) } else { end_to_end(&outcome, workload) };
    for m in &metrics {
        println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "error_ratio {:.6} ({} failed of {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    print_exact_counts(&outcome);
    for error in &outcome.errors {
        println!("CHECK FAILED: {error}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
