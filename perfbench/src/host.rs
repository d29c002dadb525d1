//! The monitored host every workload runs: a Full-mode `HostMonitor` over a
//! durable database, one application target, simulated Redis-under-SCONE
//! requests between ticks, and the monitoring tick the benchmark times.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use teemon::ScrapeTransport;
use teemon::{HostMonitor, MonitorBuilder, MonitoringMode, RecordingRule, RuleGroup};
use teemon_exporters::ContainerSpec;
use teemon_frameworks::{Deployment, FrameworkKind, FrameworkParams, RequestProfile};
use teemon_metrics::{FamilySnapshot, Labels, MetricKind, MetricPoint, PointValue};
use teemon_sim_core::SimTime;
use teemon_tsdb::{
    DurabilityOptions, MetricsEndpoint, ScrapeError, ScrapeTargetConfig, TimeSeriesDb, TsdbConfig,
};

use crate::probe::Probes;
use crate::rng::{mix, Rng, DIGEST_SEED};

/// The scrape interval of every workload, in simulated milliseconds.
pub const INTERVAL_MS: u64 = 15_000;

/// Series of one application pod; a pod restart relabels all of them.
const SERIES_PER_POD: usize = 20;

const APP_FAMILIES: [(&str, MetricKind); 8] = [
    ("app_requests_total", MetricKind::Counter),
    ("app_errors_total", MetricKind::Counter),
    ("app_bytes_in_total", MetricKind::Counter),
    ("app_bytes_out_total", MetricKind::Counter),
    ("app_queue_depth", MetricKind::Gauge),
    ("app_inflight", MetricKind::Gauge),
    ("app_cache_ratio", MetricKind::Gauge),
    ("app_mem_bytes", MetricKind::Gauge),
];

/// What distinguishes the hosts of the workloads.
#[derive(Clone, Copy)]
pub struct HostPlan {
    /// Route every scrape through the exposition text edge, and serve the
    /// application target as text.
    pub text: bool,
    pub app_series: usize,
    /// Pods restarted per tick; each restart gives `SERIES_PER_POD` series
    /// a new `pod` label.
    pub pod_restarts_per_tick: usize,
    /// Self-observe and cardinality alert groups plus a recording pack.
    pub rules: bool,
    /// The database's retention window, and how many ticks apart the
    /// benchmark calls `apply_retention` (no production loop does, so without
    /// it history — and the cost of every select over it — grows without
    /// bound).
    pub retention_ms: u64,
    pub retention_every: u64,
    /// Samples per chunk; retention drops whole chunks, so a short
    /// retention needs short chunks to take effect.
    pub chunk_size: usize,
    pub segment_bytes: u64,
}

/// The application's series and how their values and pods evolve.
struct AppModel {
    rng: Rng,
    values: Vec<f64>,
    pod_generation: Vec<u32>,
}

impl AppModel {
    fn new(series: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x0A99);
        let values = (0..series).map(|_| rng.below(1_000) as f64).collect();
        Self { rng, values, pod_generation: vec![0; series.div_ceil(SERIES_PER_POD)] }
    }

    fn step_values(&mut self) {
        for (i, value) in self.values.iter_mut().enumerate() {
            let step = self.rng.below(100) as f64;
            match APP_FAMILIES[i % APP_FAMILIES.len()].1 {
                MetricKind::Counter => *value += step,
                _ => *value = (*value + step - 49.0).abs(),
            }
        }
    }

    fn restart_pods(&mut self, restarts: usize) {
        let pods = self.pod_generation.len() as u64;
        for _ in 0..restarts {
            let pod = self.rng.below(pods) as usize;
            self.pod_generation[pod] += 1;
        }
    }

    /// Digest of the generated inputs so far: every value and pod.
    fn digest(&self) -> u64 {
        let values = self.values.iter().fold(DIGEST_SEED, |h, v| mix(h, v.to_bits()));
        self.pod_generation.iter().fold(values, |h, g| mix(h, u64::from(*g)))
    }

    fn pod_label(&self, series: usize) -> String {
        let pod = series / SERIES_PER_POD;
        format!("app-{pod}-{}", self.pod_generation[pod])
    }

    fn labels(&self, series: usize) -> Labels {
        Labels::from_pairs([
            ("pod", self.pod_label(series)),
            ("shard", (series / SERIES_PER_POD % 16).to_string()),
            ("slot", series.to_string()),
        ])
    }

    fn families(&self) -> Vec<FamilySnapshot> {
        let mut families: Vec<FamilySnapshot> = APP_FAMILIES
            .iter()
            .map(|(name, kind)| FamilySnapshot::new(*name, "application", *kind))
            .collect();
        for (i, value) in self.values.iter().enumerate() {
            let family = i % APP_FAMILIES.len();
            families[family].points.push(MetricPoint::new(self.labels(i), point(family, *value)));
        }
        families
    }

    /// Exposition text of every series, family by family.
    fn render(&self, out: &mut String) {
        out.clear();
        for (family, (name, kind)) in APP_FAMILIES.iter().enumerate() {
            let _ = writeln!(out, "# TYPE {name} {}", kind.as_str());
            for i in (family..self.values.len()).step_by(APP_FAMILIES.len()) {
                let _ = writeln!(
                    out,
                    "{name}{{pod=\"{}\",shard=\"{}\",slot=\"{i}\"}} {}",
                    self.pod_label(i),
                    i / SERIES_PER_POD % 16,
                    self.values[i]
                );
            }
        }
    }
}

fn point(family: usize, value: f64) -> PointValue {
    match APP_FAMILIES[family].1 {
        MetricKind::Counter => PointValue::Counter(value),
        _ => PointValue::Gauge(value),
    }
}

/// A typed application target that updates its snapshots in place, so its
/// series set never changes and every scrape hits the cache.
struct SteadyApp(Mutex<(AppModel, Vec<FamilySnapshot>)>);

impl MetricsEndpoint for SteadyApp {
    fn scrape(&self) -> Result<Vec<FamilySnapshot>, ScrapeError> {
        Ok(self.0.lock().1.clone())
    }

    fn scrape_visit(&self, visit: &mut dyn FnMut(&[FamilySnapshot])) -> Result<(), ScrapeError> {
        let mut guard = self.0.lock();
        let (model, families) = &mut *guard;
        model.step_values();
        for (family, snapshot) in families.iter_mut().enumerate() {
            for (k, p) in snapshot.points.iter_mut().enumerate() {
                p.value = point(family, model.values[family + k * APP_FAMILIES.len()]);
            }
        }
        visit(families);
        Ok(())
    }
}

enum App {
    Steady(Arc<SteadyApp>),
    /// The generator renders the exposition text before each tick; the
    /// scrape fetches the rendered document.
    Text {
        model: AppModel,
        text: Arc<Mutex<String>>,
        restarts: usize,
    },
}

/// One timed monitoring tick.
#[derive(Clone, Copy, Default)]
pub struct TickRecord {
    pub total_ns: u64,
    /// Core-speed scale at the time of the tick (see `calib`).
    pub scale: f64,
    pub rules_ns: u64,
    /// Set on the ticks where the benchmark applied retention.
    pub retention_ns: Option<u64>,
    pub samples_dropped: u64,
    pub series_evicted: u64,
    pub groups_evaluated: u64,
    /// Probe deltas over the tick, when traced.
    pub probes: Option<Probes>,
}

pub struct Host {
    pub monitor: HostMonitor,
    plan: HostPlan,
    app: App,
    redis: Deployment,
    request: RequestProfile,
    rng: Rng,
    next_ms: u64,
    ticks: u64,
    targets: usize,
    /// Checked operations (ticks, writes) and how many failed a check.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Host {
    pub fn build(dir: &Path, plan: HostPlan, seed: u64) -> std::io::Result<Self> {
        let (config, options) = open_options(&plan);
        let db = TimeSeriesDb::open_with(dir, config, options)?;
        let mut builder = MonitorBuilder::new("bench-node")
            .mode(MonitoringMode::Full)
            .db(db)
            .scrape_interval_ms(INTERVAL_MS);
        if plan.text {
            builder = builder.transport(ScrapeTransport::Text);
        }
        if plan.rules {
            builder = builder.with_self_observe_alerts().with_rules(recording_pack());
        }
        let monitor = builder.build();

        let app_config =
            ScrapeTargetConfig::new("app", "bench-node:6379").with_label("node", "bench-node");
        let model = AppModel::new(plan.app_series, seed);
        let app = if plan.text {
            let text = Arc::new(Mutex::new(String::new()));
            let source = Arc::clone(&text);
            monitor.scraper().add_text_source(
                app_config,
                Arc::new(move || Ok::<String, String>(source.lock().clone())),
            );
            App::Text { model, text, restarts: plan.pod_restarts_per_tick }
        } else {
            let families = model.families();
            let app = Arc::new(SteadyApp(Mutex::new((model, families))));
            monitor.scraper().add_target(app_config, Arc::clone(&app) as Arc<dyn MetricsEndpoint>);
            App::Steady(app)
        };

        let redis = Deployment::deploy(
            monitor.kernel(),
            FrameworkParams::for_kind(FrameworkKind::Scone),
            "redis-server",
            64 << 20,
            4,
            seed,
        )
        .map_err(|e| std::io::Error::other(format!("deploy redis: {e:?}")))?;
        monitor.register_container(ContainerSpec {
            name: "redis-0".into(),
            image: "sconecuratedimages/redis:6-scone".into(),
            pid: redis.pid().as_u32(),
            memory_limit_bytes: 1 << 30,
        });
        let targets = monitor.scraper().target_count();
        Ok(Self {
            monitor,
            plan,
            app,
            redis,
            request: RequestProfile::keyvalue_get(64, 8_000),
            rng: Rng::new(seed ^ 0x7ED1),
            next_ms: INTERVAL_MS,
            ticks: 0,
            targets,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        })
    }

    pub fn db(&self) -> &TimeSeriesDb {
        self.monitor.db()
    }

    pub fn retention_ms(&self) -> u64 {
        self.plan.retention_ms
    }

    /// Time of the most recent tick (0 before the first).
    pub fn head_ms(&self) -> u64 {
        self.next_ms - INTERVAL_MS
    }

    /// Time the next tick will run at.
    pub fn next_tick_ms(&self) -> u64 {
        self.next_ms
    }

    /// Digest of every input generated so far (application values and
    /// pods, Redis request counts, tick times).
    pub fn input_digest(&self) -> u64 {
        let app = match &self.app {
            App::Steady(app) => app.0.lock().0.digest(),
            App::Text { model, .. } => model.digest(),
        };
        mix(mix(app, self.rng.peek()), self.next_ms)
    }

    /// Untimed work between ticks: Redis requests move the exporters'
    /// values; the text application re-renders its document.
    pub fn between_ticks(&mut self) {
        for _ in 0..5 + self.rng.below(10) {
            self.redis.execute(&self.request, 64);
        }
        if let App::Text { model, text, restarts } = &mut self.app {
            model.restart_pods(*restarts);
            model.step_values();
            model.render(&mut text.lock());
        }
    }

    /// One monitoring tick at the next interval boundary: the scrape round
    /// (which ends with the WAL flush), rule evaluation and, on the
    /// retention cadence, `apply_retention`.
    pub fn tick(&mut self, trace: bool) -> TickRecord {
        let now = self.next_ms;
        self.next_ms += INTERVAL_MS;
        self.ticks += 1;
        self.attempted += 1;
        self.monitor.kernel().clock().advance_to(SimTime::from_millis(now));
        let retain = self.ticks.is_multiple_of(self.plan.retention_every);
        let before = trace.then(|| Probes::read(true));
        let series_before = (trace && retain).then(|| self.db().stats().series);

        let start = Instant::now();
        let round = self.monitor.scraper().scrape_round_due(now);
        let scraped = Instant::now();
        let rules = self.monitor.rules().evaluate_due(now);
        let evaluated = Instant::now();
        let dropped = if retain { self.db().apply_retention() as u64 } else { 0 };
        let end = Instant::now();

        let probes = before.map(|b| Probes::read(true).since(&b));
        let series_evicted =
            series_before.map_or(0, |s| s.saturating_sub(self.db().stats().series));
        let mut problems = Vec::new();
        if round.samples_added != round.samples_scraped {
            problems.push(format!(
                "{} of {} scraped samples stored",
                round.samples_added, round.samples_scraped
            ));
        }
        if round.targets != self.targets || round.healthy != round.targets {
            problems.push(format!(
                "{} of {} targets healthy (expected {})",
                round.healthy, round.targets, self.targets
            ));
        }
        if !rules.errors.is_empty() {
            problems.push(format!("rule errors {:?}", rules.errors));
        }
        if !problems.is_empty() {
            self.note(format!("tick at {now} ms: {}", problems.join("; ")));
        }
        TickRecord {
            total_ns: nanos(end - start),
            scale: 1.0,
            rules_ns: nanos(evaluated - scraped),
            retention_ns: retain.then(|| nanos(end - evaluated)),
            samples_dropped: dropped,
            series_evicted,
            groups_evaluated: rules.groups_evaluated as u64,
            probes,
        }
    }

    /// Records a failed check of one attempted operation (the first few
    /// messages are kept for the report).
    pub fn note(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }
}

/// How a workload's database is opened, at start and at recovery.  The WAL
/// keeps the default `FsyncMode::OnRotation`.
pub fn open_options(plan: &HostPlan) -> (TsdbConfig, DurabilityOptions) {
    let config = TsdbConfig {
        retention_ms: plan.retention_ms,
        chunk_size: plan.chunk_size,
        ..TsdbConfig::default()
    };
    let options =
        DurabilityOptions { segment_bytes: plan.segment_bytes, ..DurabilityOptions::default() };
    (config, options)
}

fn nanos(d: std::time::Duration) -> u64 {
    d.as_nanos() as u64
}

/// A small recording-rule pack over the application and host series.
fn recording_pack() -> RuleGroup {
    let rules = [
        ("job:app_requests:rate1m", "sum by (job) (rate(app_requests_total[1m]))"),
        ("shard:app_queue_depth:avg", "avg by (shard) (app_queue_depth)"),
        ("node:syscalls:rate1m", "sum by (node) (rate(teemon_syscalls_total[1m]))"),
        ("job:scrape_samples:sum", "sum by (job) (scrape_samples_scraped)"),
    ];
    rules.iter().fold(RuleGroup::new("bench_recording", INTERVAL_MS), |group, (record, expr)| {
        let expr = teemon_query::parse(expr).expect("recording rule parses");
        group.with_rule(RecordingRule::new(*record, expr))
    })
}
