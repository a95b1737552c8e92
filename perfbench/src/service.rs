//! `service_cold` and `service_warm`: the sweep service over loopback TCP,
//! driven by two closed-loop client connections, every answer checked
//! against an in-process runner with a tier of its own.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rescache::core::experiment::{
    Measurement, RunSetup, Runner, ServeConfig, ServerHandle, SweepServer, TraceStore,
};
use rescache::core::json::{obj, Json};
use rescache::core::{
    CachePoint, ConfigSpace, DynamicParams, Organization, ResizableCacheSide, SystemConfig,
};
use rescache::energy::Objective;
use rescache::trace::{spec, AppProfile, WorkloadRegistry};

use crate::check::{self, store_health_ok};
use crate::client::{Client, Ends, Exchange};
use crate::probes::{self, Observed, Target, TierCounts};
use crate::spans::Tracer;
use crate::{host, stats, timed, Ctx, Metrics, Phase, SETUP_REPS};

/// From a working set that fits in 4 KiB to one over 48 KiB, against the
/// base system's 32 KiB d-cache.
const APPS: [&str; 4] = ["tight_kernel", "stream_scan", "nominal", "pointer_chase"];
const CLIENTS: usize = 2;
const SIDE: ResizableCacheSide = ResizableCacheSide::Data;
const COLD_ORGS: [Organization; 2] = [Organization::SelectiveSets, Organization::Hybrid];
const WARM_ORGS: [Organization; 3] = [
    Organization::SelectiveSets,
    Organization::SelectiveWays,
    Organization::Hybrid,
];
/// How long the clients' connections may take to close once they leave.
const CLOSE_DEADLINE: Duration = Duration::from_secs(2);

/// The application a protocol name resolves to, exactly as the server
/// resolves it.
pub fn profile(name: &str) -> AppProfile {
    spec::profile(name)
        .or_else(|| WorkloadRegistry::builtin().get(name).map(|w| w.profile()))
        .expect("benchmark applications are registered")
}

pub fn org_tag(org: Organization) -> &'static str {
    match org {
        Organization::SelectiveSets => "selective_sets",
        Organization::SelectiveWays => "selective_ways",
        Organization::Hybrid => "hybrid",
    }
}

/// The system a request without `"system"` runs on.
pub fn base_system() -> SystemConfig {
    SystemConfig::base().with_env_policy()
}

pub fn space(system: &SystemConfig, org: Organization) -> ConfigSpace {
    ConfigSpace::enumerate(SIDE.config_of(&system.hierarchy), org)
        .expect("every organization applies to a 2- or 4-way d-cache")
}

pub fn tag_bits(system: &SystemConfig, org: Organization) -> u32 {
    if org.needs_resizing_tag_bits() {
        SIDE.config_of(&system.hierarchy).resizing_tag_bits()
    } else {
        0
    }
}

fn target(orgs: &[Organization], disk_dir: Option<PathBuf>) -> Target {
    Target {
        apps: APPS.iter().map(|a| profile(a)).collect(),
        system: base_system(),
        orgs: orgs.to_vec(),
        disk_dir,
        figure_sweep: false,
    }
}

/// One request a client sends, by application index.
#[derive(Debug, Clone, Copy)]
enum Req {
    Sweep(usize, Organization),
    Dynamic(usize),
    Point(usize, Organization, CachePoint),
}

/// A dynamic request with explicit parameters, and what the in-process run
/// of it produced.
#[derive(Debug, Clone)]
pub struct DynamicRef {
    pub base: Measurement,
    pub params: DynamicParams,
    pub setup: RunSetup,
    pub measurement: Measurement,
    pub decisions: u64,
}

/// The dynamic request the service workloads send for `app`: the
/// selective-sets controller with the profiling default miss-bound (the
/// baseline's misses per interval) and the smallest offered size as floor.
pub fn dynamic_ref(runner: &Runner, app: &AppProfile, system: &SystemConfig) -> DynamicRef {
    let base = runner.run_static(app, system, None, None, 0, 0);
    let space = space(system, Organization::SelectiveSets);
    let interval = runner.config().dynamic_interval;
    let miss_bound = (base.l1d_miss_ratio.max(1e-4) * interval as f64)
        .ceil()
        .max(1.0) as u64;
    let size_bound = space.snap_size_bound(space.min_bytes());
    let params = DynamicParams::new(interval, miss_bound, size_bound)
        .expect("the runner's interval is positive");
    let setup = RunSetup {
        dynamic: Some((SIDE, space, params)),
        d_tag_bits: tag_bits(system, Organization::SelectiveSets),
        ..RunSetup::default()
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let measurement = runner.run_dynamic_observed(app, system, &setup, Some(&tx));
    drop(tx);
    DynamicRef {
        base,
        params,
        setup,
        measurement,
        decisions: rx.iter().count() as u64,
    }
}

pub fn dynamic_request(id: u64, app: &str, params: &DynamicParams) -> String {
    obj([
        ("id", Json::Num(id as f64)),
        ("req", Json::Str("dynamic".into())),
        ("app", Json::Str(app.into())),
        (
            "org",
            Json::Str(org_tag(Organization::SelectiveSets).into()),
        ),
        ("interval", Json::Num(params.interval_accesses as f64)),
        ("miss_bound", Json::Num(params.miss_bound as f64)),
        ("size_bound", Json::Num(params.size_bound_bytes as f64)),
    ])
    .render()
}

pub fn point_request(id: u64, app: &str, org: Organization, point: CachePoint) -> String {
    obj([
        ("id", Json::Num(id as f64)),
        ("req", Json::Str("point".into())),
        ("app", Json::Str(app.into())),
        ("org", Json::Str(org_tag(org).into())),
        ("sets", Json::Num(point.sets as f64)),
        ("ways", Json::Num(f64::from(point.ways))),
    ])
    .render()
}

/// In-process answers to every request the clients may send.
struct Reference {
    base: Vec<Measurement>,
    points: HashMap<(usize, Organization, CachePoint), Measurement>,
    spaces: HashMap<Organization, ConfigSpace>,
    dynamic: Vec<DynamicRef>,
}

impl Reference {
    fn compute(ctx: &Ctx, t: &Target, with_dynamic: bool) -> Self {
        let runner = Runner::with_store(ctx.config, TraceStore::with_dir(None));
        let mut reference = Self {
            base: Vec::new(),
            points: HashMap::new(),
            spaces: HashMap::new(),
            dynamic: Vec::new(),
        };
        for &org in &t.orgs {
            reference.spaces.insert(org, space(&t.system, org));
        }
        for (a, app) in t.apps.iter().enumerate() {
            reference
                .base
                .push(runner.run_static(app, &t.system, None, None, 0, 0));
            for &org in &t.orgs {
                let tag = tag_bits(&t.system, org);
                for &p in reference.spaces[&org].points() {
                    let m = runner.run_static(app, &t.system, Some(p), None, tag, 0);
                    reference.points.insert((a, org, p), m);
                }
            }
            if with_dynamic {
                reference.dynamic.push(dynamic_ref(&runner, app, &t.system));
            }
        }
        reference
    }

    fn line(&self, id: u64, req: Req) -> String {
        match req {
            Req::Sweep(a, org) => obj([
                ("id", Json::Num(id as f64)),
                ("req", Json::Str("sweep".into())),
                ("app", Json::Str(APPS[a].into())),
                ("org", Json::Str(org_tag(org).into())),
            ])
            .render(),
            Req::Dynamic(a) => dynamic_request(id, APPS[a], &self.dynamic[a].params),
            Req::Point(a, org, p) => point_request(id, APPS[a], org, p),
        }
    }

    fn check_result(&self, a: usize, org: Organization, line: &Json) -> Result<CachePoint, String> {
        if line.get("kind").and_then(Json::as_str) != Some("result") {
            return Err(format!("expected a result line: {}", line.render()));
        }
        let point = check::result_point(line)?;
        let want = self
            .points
            .get(&(a, org, point))
            .ok_or(format!("point {point:?} is not offered"))?;
        check::result_matches(line, want).map_err(|e| format!("{} {point:?}: {e}", APPS[a]))?;
        Ok(point)
    }

    /// Checks every line of one exchange against the in-process answers.
    fn check(&self, id: u64, req: Req, lines: &[Json]) -> Result<(), String> {
        for line in lines {
            check::ok_line(line)?;
            if line.get("id").and_then(Json::as_u64) != Some(id) {
                return Err(format!("line for another request: {}", line.render()));
            }
        }
        let (last, body) = lines.split_last().ok_or("no response")?;
        match req {
            Req::Point(a, org, p) => {
                let got = self.check_result(a, org, last)?;
                (got == p && body.is_empty())
                    .then_some(())
                    .ok_or(format!("point reply for {got:?}, asked {p:?}"))
            }
            Req::Sweep(a, org) => {
                let space = &self.spaces[&org];
                let mut seen: Vec<CachePoint> = body
                    .iter()
                    .map(|l| self.check_result(a, org, l))
                    .collect::<Result<_, _>>()?;
                seen.sort_by_key(|p| (p.sets, p.ways));
                let mut want = space.points().to_vec();
                want.sort_by_key(|p| (p.sets, p.ways));
                if seen != want {
                    return Err(format!("sweep streamed {seen:?}, space is {want:?}"));
                }
                let base = &self.base[a];
                let (best, m) = space
                    .points()
                    .iter()
                    .map(|p| (*p, self.points[&(a, org, *p)]))
                    .min_by(|x, y| {
                        x.1.score(Objective::Edp)
                            .total_cmp(&y.1.score(Objective::Edp))
                    })
                    .expect("spaces are not empty");
                let num = |k: &str| last.get(k).and_then(Json::as_f64);
                let best_sets = last
                    .get("best")
                    .and_then(|b| b.get("sets"))
                    .and_then(Json::as_u64);
                let best_ways = last
                    .get("best")
                    .and_then(|b| b.get("ways"))
                    .and_then(Json::as_u64);
                let ok = last.get("kind").and_then(Json::as_str) == Some("done")
                    && num("points") == Some(space.len() as f64)
                    && best_sets == Some(best.sets)
                    && best_ways == Some(u64::from(best.ways))
                    && num("best_score").map(f64::to_bits)
                        == Some(m.score(Objective::Edp).to_bits())
                    && num("edp_reduction_percent").map(f64::to_bits)
                        == Some(
                            m.energy_delay()
                                .reduction_vs(&base.energy_delay())
                                .to_bits(),
                        );
                ok.then_some(())
                    .ok_or(format!("sweep summary differs: {}", last.render()))
            }
            Req::Dynamic(a) => {
                let d = &self.dynamic[a];
                if body
                    .iter()
                    .any(|l| l.get("kind").and_then(Json::as_str) != Some("resize"))
                {
                    return Err("dynamic stream carries a non-resize line".into());
                }
                if body.len() as u64 != d.decisions {
                    return Err(format!(
                        "{} resize lines, in-process run made {} decisions",
                        body.len(),
                        d.decisions
                    ));
                }
                check::dynamic_done_matches(last, &d.measurement, &self.base[a], d.decisions)
                    .map_err(|e| format!("{} dynamic: {e}", APPS[a]))
            }
        }
    }
}

/// Sample counts shared by the clients, so each knows when the phase is
/// done.
struct Progress {
    start: Instant,
    seconds: f64,
    sweeps: AtomicUsize,
    results: AtomicUsize,
}

impl Progress {
    fn new(seconds: f64) -> Self {
        Self {
            start: Instant::now(),
            seconds,
            sweeps: AtomicUsize::new(0),
            results: AtomicUsize::new(0),
        }
    }

    fn finished(&self) -> bool {
        crate::phase_done(
            self.start,
            self.seconds,
            self.sweeps.load(Ordering::Relaxed),
            self.results.load(Ordering::Relaxed),
        )
    }
}

/// Sends one request, records its latencies and returns the check of its
/// lines. The outer error means the connection broke, leaving the stream
/// out of step.
fn exchange(
    reference: &Reference,
    tracer: &Tracer,
    client: &mut Client,
    id: u64,
    req: Req,
    phase: &mut Phase,
) -> Result<Result<(), String>, String> {
    let line = {
        let _s = tracer.span_for("json.render", Some(id));
        reference.line(id, req)
    };
    let (name, ends) = match req {
        Req::Sweep(..) => ("server.sweep", Ends::Done),
        Req::Dynamic(..) => ("server.dynamic", Ends::Done),
        Req::Point(..) => ("server.point", Ends::OneLine),
    };
    let ex: Exchange = {
        let _s = tracer.span_for(name, Some(id));
        client
            .request(&line, ends)
            .map_err(|e| format!("request {id}: {e}"))?
    };
    let results = ex.lines.len() - usize::from(!matches!(req, Req::Point(..)));
    match req {
        Req::Sweep(..) => {
            phase.sweep_ms.push(ex.total_ms());
            phase.result_ms.extend((0..results).map(|i| ex.ms_to(i)));
        }
        Req::Dynamic(..) => phase.dynamic_ms.push(ex.total_ms()),
        Req::Point(..) => phase.result_ms.push(ex.ms_to(0)),
    }
    if !matches!(req, Req::Dynamic(..)) {
        phase.points += results as u64;
    }
    let parsed: Result<Vec<Json>, String> = ex
        .lines
        .iter()
        .map(|(_, l)| {
            let _s = tracer.span_for("json.parse", Some(id));
            Json::parse(l.trim_end()).map_err(|e| format!("unparsable line {l:?}: {e}"))
        })
        .collect();
    let _s = tracer.span_for("bench.check", Some(id));
    Ok(parsed.and_then(|lines| reference.check(id, req, &lines)))
}

/// One client connection: sends `reqs` once in order, or cycles through
/// them until `progress` says the phase is done, and returns its samples.
fn client_session(
    ctx: &Ctx,
    reference: &Reference,
    tracer: &Tracer,
    addr: std::net::SocketAddr,
    client_no: usize,
    reqs: &[Req],
    progress: Option<&Progress>,
) -> Phase {
    let _lane = tracer.lane();
    let mut phase = Phase::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            ctx.tally.op(Err(format!("connect: {e}")));
            return phase;
        }
    };
    let mut seq = 0u64;
    for &req in reqs.iter().cycle() {
        if progress.map_or(seq as usize == reqs.len(), Progress::finished) {
            break;
        }
        seq += 1;
        let id = (client_no as u64 + 1) * 1_000_000 + seq;
        let (sweeps, results) = (phase.sweep_ms.len(), phase.result_ms.len());
        match exchange(reference, tracer, &mut client, id, req, &mut phase) {
            Ok(checked) => ctx.tally.op(checked),
            Err(broken) => {
                ctx.tally.op(Err(broken));
                break;
            }
        }
        if let Some(p) = progress {
            p.sweeps
                .fetch_add(phase.sweep_ms.len() - sweeps, Ordering::Relaxed);
            p.results
                .fetch_add(phase.result_ms.len() - results, Ordering::Relaxed);
        }
    }
    phase
}

/// Runs `CLIENTS` sessions at once, client `c` starting its list at
/// `offset(c)`.
fn run_clients(
    ctx: &Ctx,
    reference: &Reference,
    tracer: &Tracer,
    addr: std::net::SocketAddr,
    reqs: &[Req],
    offset: impl Fn(usize) -> usize,
    progress: Option<&Progress>,
) -> Phase {
    let barrier = Barrier::new(CLIENTS);
    let sessions: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut list = reqs.to_vec();
                list.rotate_left(offset(c) % reqs.len());
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    client_session(ctx, reference, tracer, addr, c, &list, progress)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut phase = Phase::default();
    for s in sessions {
        phase.merge(s);
    }
    phase
}

struct Server {
    handle: ServerHandle,
    join: JoinHandle<()>,
    store: TraceStore,
    threads_before: u64,
}

fn start_server(ctx: &Ctx, store: TraceStore, tracer: &Tracer) -> Result<Server, String> {
    let threads_before = host::threads().ok_or("thread count unreadable")?;
    let _s = tracer.span("server.bind");
    let server = SweepServer::bind(
        Runner::with_store(ctx.config, store.clone()),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let (handle, join) = server.spawn().map_err(|e| format!("spawn: {e}"))?;
    Ok(Server {
        handle,
        join,
        store,
        threads_before,
    })
}

/// Checks a server once its clients have left, then stops it. Returns the
/// tier's counters and the connections other than the health probe's that
/// were still open.
fn finish_server(ctx: &Ctx, server: Server, tracer: &Tracer) -> (TierCounts, u64) {
    let mut others = u64::MAX;
    let health = {
        let _s = tracer.span("server.health");
        let deadline = Instant::now() + CLOSE_DEADLINE;
        let mut outcome = Err("no health reply".to_string());
        if let Ok(mut probe) = Client::connect(server.handle.addr()) {
            loop {
                outcome = probe
                    .request(r#"{"req":"health"}"#, Ends::OneLine)
                    .map_err(|e| e.to_string())
                    .and_then(|ex| {
                        Json::parse(ex.lines[0].1.trim_end()).map_err(|e| e.to_string())
                    });
                let open = outcome
                    .as_ref()
                    .ok()
                    .and_then(|h| h.get("connections").and_then(Json::as_u64));
                others = open.map_or(u64::MAX, |n| n.saturating_sub(1));
                if others == 0 || Instant::now() >= deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        outcome
    };
    ctx.tally.op(health.and_then(|h| {
        check::ok_line(&h)?;
        if others == 0 {
            Ok(())
        } else {
            Err(format!(
                "{others} connections still open after the clients left"
            ))
        }
    }));
    let snapshot = server.store.health();
    ctx.tally.op(store_health_ok(&snapshot));
    {
        let _s = tracer.span("server.stop");
        server.handle.stop();
        let joined = server.join.join();
        ctx.tally.op(match joined {
            Err(_) => Err("server thread panicked".into()),
            Ok(()) if server.handle.open_connections() != 0 => {
                Err("open-connection gauge is not 0 after shutdown".into())
            }
            Ok(()) => host::threads_settle(server.threads_before),
        });
    }
    (TierCounts::of(&snapshot), others)
}

fn store_dir(ctx: &Ctx) -> PathBuf {
    ctx.out_dir.join(format!("store-{}", std::process::id()))
}

/// Persists the applications' traces to a fresh v3 store in `dir`.
fn persist(ctx: &Ctx, t: &Target, dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    let store = TraceStore::with_dir(Some(dir.to_path_buf()));
    for app in &t.apps {
        store.fetch(app, &ctx.config);
    }
    let entries = std::fs::read_dir(dir).map_err(|e| e.to_string())?.count();
    if entries != t.apps.len() {
        return Err(format!(
            "store holds {entries} entries, want {}",
            t.apps.len()
        ));
    }
    store_health_ok(&store.health())
}

/// The list each `service_cold` client sends once per round: per
/// application a sweep, the dynamic controller, and a second sweep.
fn cold_list() -> Vec<Req> {
    (0..APPS.len())
        .flat_map(|a| {
            [
                Req::Sweep(a, COLD_ORGS[0]),
                Req::Dynamic(a),
                Req::Sweep(a, COLD_ORGS[1]),
            ]
        })
        .collect()
}

/// One `service_cold` round: a fresh server over the persisted store, both
/// clients sending the whole list, then the checks.
fn cold_round(
    ctx: &Ctx,
    reference: &Reference,
    dir: &Path,
    tracer: &Tracer,
    tier: &mut TierCounts,
) -> Result<(Phase, usize, u64), String> {
    let store = TraceStore::with_dir(Some(dir.to_path_buf()));
    let server = {
        let _lane = tracer.lane();
        start_server(ctx, store.clone(), tracer)?
    };
    let phase = run_clients(
        ctx,
        reference,
        tracer,
        server.handle.addr(),
        &cold_list(),
        |_| 0,
        None,
    );
    let _lane = tracer.lane();
    let resident = store.resident_full_traces();
    let (counts, open) = finish_server(ctx, server, tracer);
    tier.add(counts);
    Ok((phase, resident, open))
}

fn cold_phase(
    ctx: &Ctx,
    reference: &Reference,
    dir: &Path,
    seconds: f64,
    tracer: &Tracer,
) -> Result<(Phase, TierCounts, usize, u64), String> {
    let mut phase = Phase::default();
    let mut tier = TierCounts::default();
    let (mut resident, mut open) = (0, 0);
    let start = Instant::now();
    while !phase.finished(start, seconds) {
        let (round, r, o) = cold_round(ctx, reference, dir, tracer, &mut tier)?;
        phase.merge(round);
        (resident, open) = (r, o);
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    Ok((phase, tier, resident, open))
}

pub fn run_cold(ctx: &Ctx, trace: bool) -> Result<Metrics, String> {
    let dir = store_dir(ctx);
    let outcome = cold(ctx, &dir, trace);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn cold(ctx: &Ctx, dir: &Path, trace: bool) -> Result<Metrics, String> {
    let t = target(&COLD_ORGS, Some(dir.to_path_buf()));
    let reference = Reference::compute(ctx, &t, true);
    let off = Tracer::off();
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let (server, seconds) = timed(|| {
            persist(ctx, &t, dir)?;
            start_server(ctx, TraceStore::with_dir(Some(dir.to_path_buf())), &off)
        });
        let server = server?;
        setups.push(seconds);
        finish_server(ctx, server, &off);
    }
    if !trace {
        let (phase, ..) = cold_phase(ctx, &reference, dir, ctx.seconds, &off)?;
        report_dynamic(&phase);
        return Ok(phase.e2e(&setups));
    }
    let (untraced, ..) = cold_phase(ctx, &reference, dir, ctx.seconds / 2.0, &off)?;
    let tracer = Tracer::new(true);
    let (traced, tier, resident_traces, open_connections) =
        cold_phase(ctx, &reference, dir, ctx.seconds / 2.0, &tracer)?;
    probes::per_layer(
        ctx,
        &tracer,
        &t,
        Observed {
            untraced,
            traced,
            tier,
            resident_traces,
            open_connections,
        },
    )
}

/// `dynamic` latency is not an end-to-end metric of every workload, so the
/// untraced run prints it for the reader.
fn report_dynamic(phase: &Phase) {
    let n = phase.dynamic_ms.len();
    for p in [50.0, 90.0] {
        if stats::reportable(n, p) {
            let v = stats::percentile(&phase.dynamic_ms, p).unwrap_or(f64::NAN);
            println!("# dynamic_ms_p{p} {v:.6} ms (n={n})");
        }
    }
}

/// The list `service_warm` clients cycle through: per (application,
/// organization) a sweep, then single points from its space.
fn warm_list(reference: &Reference) -> Vec<Req> {
    let mut reqs = Vec::new();
    for a in 0..APPS.len() {
        for org in WARM_ORGS {
            reqs.push(Req::Sweep(a, org));
            let points = reference.spaces[&org].points();
            for i in [0, points.len() / 2, points.len() - 1] {
                reqs.push(Req::Point(a, org, points[i]));
            }
        }
    }
    reqs
}

/// A server over an in-memory store whose tier holds every simulation the
/// clients will ask for.
fn warm_setup(ctx: &Ctx, t: &Target, tracer: &Tracer) -> Result<Server, String> {
    let store = TraceStore::with_dir(None);
    let runner = Runner::with_store(ctx.config, store.clone());
    for app in &t.apps {
        runner.run_static(app, &t.system, None, None, 0, 0);
        for &org in &t.orgs {
            let tag = tag_bits(&t.system, org);
            for &p in space(&t.system, org).points() {
                runner.run_static(app, &t.system, Some(p), None, tag, 0);
            }
        }
    }
    start_server(ctx, store, tracer)
}

fn warm_phase(
    ctx: &Ctx,
    reference: &Reference,
    server: &Server,
    seconds: f64,
    tracer: &Tracer,
) -> Phase {
    let reqs = warm_list(reference);
    let progress = Progress::new(seconds);
    let mut phase = run_clients(
        ctx,
        reference,
        tracer,
        server.handle.addr(),
        &reqs,
        |c| c * reqs.len() / CLIENTS,
        Some(&progress),
    );
    phase.elapsed_s = progress.start.elapsed().as_secs_f64();
    phase
}

pub fn run_warm(ctx: &Ctx, trace: bool) -> Result<Metrics, String> {
    let t = target(&WARM_ORGS, None);
    let reference = Reference::compute(ctx, &t, false);
    let off = Tracer::off();
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = server.take() {
            finish_server(ctx, previous, &off);
        }
        let (s, seconds) = timed(|| warm_setup(ctx, &t, &off));
        setups.push(seconds);
        server = Some(s?);
    }
    let server = server.expect("set up at least once");
    if !trace {
        let phase = warm_phase(ctx, &reference, &server, ctx.seconds, &off);
        finish_server(ctx, server, &off);
        return Ok(phase.e2e(&setups));
    }
    let untraced = warm_phase(ctx, &reference, &server, ctx.seconds / 2.0, &off);
    let before = TierCounts::of(&server.store.health());
    let tracer = Tracer::new(true);
    let traced = warm_phase(ctx, &reference, &server, ctx.seconds / 2.0, &tracer);
    let resident_traces = server.store.resident_full_traces();
    let (after, open_connections) = {
        let _lane = tracer.lane();
        finish_server(ctx, server, &tracer)
    };
    probes::per_layer(
        ctx,
        &tracer,
        &t,
        Observed {
            untraced,
            traced,
            tier: after.minus(before),
            resident_traces,
            open_connections,
        },
    )
}
