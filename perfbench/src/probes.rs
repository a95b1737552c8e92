//! The traced run's per-layer numbers.
//!
//! The workload phases give what only they can: the shared tier's counters,
//! the server's gauges and the traced-versus-untraced overhead. Every other
//! layer number comes from a fixed set of probes that call each layer's
//! public function directly, with a span around each call, over the
//! workload's own applications, system and store kind. Every workload runs
//! the same probes, so each per-layer metric exists on each workload.

use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

use rescache::cache::MemoryHierarchy;
use rescache::core::experiment::{
    effective_workers, per_app_org_comparison, Runner, ServeConfig, StoreHealth, SweepServer,
    TraceStore,
};
use rescache::core::json::Json;
use rescache::core::{
    CachePoint, DynamicController, Organization, ResizableCacheSide, SystemConfig,
};
use rescache::cpu::Simulator;
use rescache::energy::{EnergyModel, ResizingTagOverhead};
use rescache::trace::{codec, AppProfile, TraceFileSource, TraceGenerator, TraceSource};

use crate::check;
use crate::client::{Client, Ends};
use crate::service::{self, dynamic_request, point_request};
use crate::spans::{attribute, Tracer};
use crate::{stats, Ctx, Metrics, Phase};

/// Layers whose self-time share the traced run reports, named after the
/// modules they call into; `bench` is the benchmark's own checking.
const LAYERS: [&str; 10] = [
    "trace",
    "trace_store",
    "shared_tier",
    "cpu",
    "energy",
    "runner",
    "org_comparison",
    "json",
    "server",
    "bench",
];

/// Repetitions of the sub-millisecond probes; their medians are reported.
const FAST_REPS: usize = 400;
/// Round trips per server probe.
const ROUND_TRIPS: usize = 200;

/// What a workload runs on.
pub struct Target {
    pub apps: Vec<AppProfile>,
    pub system: SystemConfig,
    pub orgs: Vec<Organization>,
    /// The persisted store the workload serves from, if it uses one.
    pub disk_dir: Option<PathBuf>,
    /// Whether one of the workload's sweeps covers every (application,
    /// organization) pair (the figure) rather than one.
    pub figure_sweep: bool,
}

/// The shared tier's counters that a phase moves.
#[derive(Debug, Default, Clone, Copy)]
pub struct TierCounts {
    pub hits: u64,
    pub misses: u64,
    pub coalesced: u64,
    pub evictions: u64,
    pub requests: u64,
    pub served: u64,
}

impl TierCounts {
    pub fn of(h: &StoreHealth) -> Self {
        Self {
            hits: h.hits,
            misses: h.misses,
            coalesced: h.coalesced,
            evictions: h.evictions,
            requests: h.requests,
            served: h.served,
        }
    }

    pub fn add(&mut self, o: Self) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.coalesced += o.coalesced;
        self.evictions += o.evictions;
        self.requests += o.requests;
        self.served += o.served;
    }

    pub fn minus(self, earlier: Self) -> Self {
        Self {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            coalesced: self.coalesced - earlier.coalesced,
            evictions: self.evictions - earlier.evictions,
            requests: self.requests - earlier.requests,
            served: self.served - earlier.served,
        }
    }
}

/// What the workload's own phases measured.
pub struct Observed {
    pub untraced: Phase,
    pub traced: Phase,
    pub tier: TierCounts,
    pub resident_traces: usize,
    pub open_connections: u64,
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn p50(samples: &[f64]) -> f64 {
    stats::median(samples).unwrap_or(f64::NAN)
}

/// Pulls every record out of a source.
fn drain(source: &mut impl TraceSource) -> usize {
    let mut n = 0;
    loop {
        let chunk = source.next_chunk().len();
        if chunk == 0 {
            return n;
        }
        n += chunk;
    }
}

/// `run_static` of one sweep point (`None`: the baseline), priced as the
/// service prices it.
fn run_point(
    runner: &Runner,
    app: &AppProfile,
    t: &Target,
    org: Organization,
    p: Option<CachePoint>,
) {
    let tag = if p.is_some() {
        service::tag_bits(&t.system, org)
    } else {
        0
    };
    std::hint::black_box(runner.run_static(app, &t.system, p, None, tag, 0));
}

/// Generation, encoding and decoding rates over the target's traces.
fn trace_layer(ctx: &Ctx, tracer: &Tracer, t: &Target, scratch: &Path, m: &mut Metrics) {
    let cfg = &ctx.config;
    let total = cfg.warmup_instructions + cfg.measure_instructions;
    let (mut gen_s, mut enc_s, mut dec_s) = (0.0, 0.0, 0.0);
    let (mut records, mut bytes) = (0usize, 0u64);
    for app in &t.apps {
        let generator =
            TraceGenerator::new(app.clone(), cfg.trace_seed).with_format(cfg.trace_format);
        let start = Instant::now();
        let n = {
            let _s = tracer.span("trace.gen");
            drain(&mut generator.stream(total))
        };
        gen_s += start.elapsed().as_secs_f64();
        let trace = {
            let _s = tracer.span("trace.generate");
            generator.generate(total)
        };
        let path = scratch.join(format!("{}.rctrace", app.name));
        let start = Instant::now();
        let saved = {
            let _s = tracer.span("trace.encode");
            codec::save_trace(&path, &trace)
        };
        enc_s += start.elapsed().as_secs_f64();
        ctx.tally.op(saved.map_err(|e| format!("save_trace: {e}")));
        bytes += std::fs::metadata(&path).map_or(0, |md| md.len());
        let start = Instant::now();
        let decoded = {
            let _s = tracer.span("trace.decode");
            TraceFileSource::open(&path, None).map(|mut s| (drain(&mut s), s.fault().is_none()))
        };
        dec_s += start.elapsed().as_secs_f64();
        ctx.tally.op(match decoded {
            Ok((d, true)) if d == n && n == total => Ok(()),
            other => Err(format!("decode of {} gave {other:?}", app.name)),
        });
        records += n;
    }
    let mrec = records as f64 / 1e6;
    m.add("trace.gen_mips", mrec / gen_s, "Mrecords/s");
    m.add("trace.encode_mips", mrec / enc_s, "Mrecords/s");
    m.add("trace.bytes_per_record", bytes as f64 / records as f64, "B");
    m.add("trace.decode_mips", mrec / dec_s, "Mrecords/s");
}

/// A store of the workload's kind: over its persisted directory, or in
/// memory.
fn store(t: &Target) -> TraceStore {
    TraceStore::with_dir(t.disk_dir.clone())
}

fn trace_store_layer(ctx: &Ctx, tracer: &Tracer, t: &Target, m: &mut Metrics) {
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for app in &t.apps {
        let s = store(t);
        let start = Instant::now();
        {
            let _s = tracer.span("trace_store.fetch");
            std::hint::black_box(s.fetch(app, &ctx.config));
        }
        cold.push(ms(start));
        for _ in 0..FAST_REPS / t.apps.len() {
            let _s = tracer.span("trace_store.fetch");
            let start = Instant::now();
            std::hint::black_box(s.fetch(app, &ctx.config));
            warm.push(ms(start) * 1e3);
        }
        let _s = tracer.span("trace_store.source");
        drain(&mut store(t).source(app, &ctx.config));
    }
    m.add_n("trace_store.fetch_cold_ms", p50(&cold), "ms", cold.len());
    m.add_n("trace_store.fetch_warm_us", p50(&warm), "us", warm.len());
}

/// The engine over the target's traces, plain and with the dynamic
/// controller hooked in, and the energy model pricing the plain runs.
fn engine_layers(ctx: &Ctx, tracer: &Tracer, t: &Target, runner: &Runner, m: &mut Metrics) {
    let cfg = &ctx.config;
    let side = ResizableCacheSide::Data;
    let (mut plain_s, mut hooked_s) = (0.0, 0.0);
    let (mut cycles, mut instructions, mut delayed) = (0u64, 0u64, 0u64);
    let (mut d_acc, mut d_hit, mut i_acc, mut i_hit) = (0u64, 0u64, 0u64, 0u64);
    let (mut decisions, mut resizes) = (0u64, 0u64);
    let mut price_us = Vec::new();
    for app in &t.apps {
        let (warm, measure) = {
            let _s = tracer.span("trace_store.fetch");
            runner.trace(app)
        };
        let sim = Simulator::new(t.system.cpu);
        let mut h = MemoryHierarchy::new(t.system.hierarchy).expect("base hierarchy is valid");
        let start = Instant::now();
        let result = {
            let _s = tracer.span("cpu.run");
            sim.run(&warm, &mut h);
            h.reset_stats();
            sim.run(&measure, &mut h)
        };
        plain_s += start.elapsed().as_secs_f64();
        let snap = h.snapshot();
        cycles += result.cycles;
        instructions += result.instructions;
        delayed += result.latency.delayed_hits;
        (d_acc, d_hit) = (d_acc + snap.l1d.accesses, d_hit + snap.l1d.hits);
        (i_acc, i_hit) = (i_acc + snap.l1i.accesses, i_hit + snap.l1i.hits);
        for _ in 0..FAST_REPS / t.apps.len() {
            let _s = tracer.span("energy.price");
            let start = Instant::now();
            let model =
                EnergyModel::with_overhead(&t.system.hierarchy, ResizingTagOverhead::default());
            std::hint::black_box(model.breakdown_snapshot(&result, &snap));
            price_us.push(ms(start) * 1e3);
        }

        let dynamic = service::dynamic_ref(runner, app, &t.system);
        let (_, space, params) = dynamic.setup.dynamic.clone().expect("a dynamic setup");
        let (tx, rx) = std::sync::mpsc::channel();
        let mut controller = DynamicController::new(side, space, params)
            .expect("parameters fit the space")
            .with_objective(cfg.objective)
            .with_decision_sink(tx);
        let mut hh = MemoryHierarchy::new(t.system.hierarchy).expect("base hierarchy is valid");
        let mut source = {
            let _s = tracer.span("trace_store.source");
            runner.trace_store().source(app, cfg)
        };
        let start = Instant::now();
        let hooked = {
            let _s = tracer.span("cpu.run_hooked");
            sim.run_warm_measure_with_hook(
                &mut source,
                cfg.warmup_instructions,
                cfg.measure_instructions,
                &mut hh,
                &mut controller,
            )
        };
        hooked_s += start.elapsed().as_secs_f64();
        drop(controller);
        decisions += rx.iter().count() as u64;
        resizes += hh.snapshot().l1d.resizes;
        ctx.tally
            .op(if hooked.cycles == dynamic.measurement.cycles {
                Ok(())
            } else {
                Err(format!(
                    "hooked engine run of {} differs from run_dynamic",
                    app.name
                ))
            });
    }
    let total = (cfg.warmup_instructions + cfg.measure_instructions) * t.apps.len();
    let ooo = total as f64 / 1e6 / plain_s;
    let hooked = total as f64 / 1e6 / hooked_s;
    m.add("cpu.ooo_mips", ooo, "MIPS");
    m.add("cpu.hooked_mips", hooked, "MIPS");
    m.add("cpu.cycles", cycles as f64, "cycles");
    m.add("cpu.instructions", instructions as f64, "count");
    m.add(
        "cache.l1d_miss_ratio",
        1.0 - d_hit as f64 / d_acc as f64,
        "fraction",
    );
    m.add(
        "cache.l1i_miss_ratio",
        1.0 - i_hit as f64 / i_acc as f64,
        "fraction",
    );
    m.add("cache.delayed_hits", delayed as f64, "count");
    m.add("cache.l1d_resizes", resizes as f64, "count");
    m.add_n("energy.price_us", p50(&price_us), "us", price_us.len());
    m.add("strategy.decisions", decisions as f64, "count");
    m.add("strategy.hook_overhead", ooo / hooked, "ratio");
}

/// `run_static` misses and hits, the in-process cost of the workload's
/// sweeps replayed as hits, and `run_dynamic_observed`.
fn runner_layer(tracer: &Tracer, t: &Target, runner: &Runner, m: &mut Metrics) -> (f64, f64) {
    let (mut miss, mut hit, mut sweep_hits, mut dynamic) = (vec![], vec![], vec![], vec![]);
    let sys = &t.system;
    let space = |org| service::space(sys, org);
    for app in &t.apps {
        for &org in &t.orgs {
            for p in std::iter::once(None).chain(space(org).points().iter().copied().map(Some)) {
                let misses = runner.trace_store().health().misses;
                let start = Instant::now();
                let _s = tracer.span("runner.run_static");
                run_point(runner, app, t, org, p);
                // Baselines and full-size points share one simulation: only
                // the first of them is a miss.
                if runner.trace_store().health().misses > misses {
                    miss.push(ms(start));
                }
            }
        }
    }
    for _ in 0..3 {
        for app in &t.apps {
            for &org in &t.orgs {
                let mut sum = 0.0;
                for p in std::iter::once(None).chain(space(org).points().iter().copied().map(Some))
                {
                    let _s = tracer.span("runner.run_static");
                    let start = Instant::now();
                    run_point(runner, app, t, org, p);
                    let took = ms(start);
                    hit.push(took * 1e3);
                    sum += took;
                }
                sweep_hits.push(sum);
            }
        }
    }
    for app in &t.apps {
        let start = Instant::now();
        let _s = tracer.span("runner.run_dynamic");
        std::hint::black_box(service::dynamic_ref(runner, app, sys));
        dynamic.push(ms(start));
    }
    m.add_n("runner.static_miss_ms", p50(&miss), "ms", miss.len());
    m.add_n("runner.static_hit_us", p50(&hit), "us", hit.len());
    m.add_n("runner.dynamic_ms", p50(&dynamic), "ms", dynamic.len());
    let pairs = t.apps.len() * t.orgs.len();
    let sweep_hit_ms = if t.figure_sweep {
        sweep_hits.iter().sum::<f64>() / (sweep_hits.len() / pairs) as f64
    } else {
        p50(&sweep_hits)
    };
    (sweep_hit_ms, p50(&dynamic))
}

/// How long a `run_static` call waits on a sibling computing the same cold
/// key. The trace is not fetched first, so the sibling's work (generation
/// and simulation) is long enough for the second caller to find it in
/// flight.
fn shared_tier_wait(ctx: &Ctx, tracer: &Tracer, t: &Target, m: &mut Metrics) {
    let org = Organization::SelectiveSets;
    let mut waits = Vec::new();
    let points = service::space(&t.system, org).points().to_vec();
    for (app, &p) in t
        .apps
        .iter()
        .flat_map(|a| points.iter().map(move |p| (a, p)))
    {
        let runner = Runner::with_store(ctx.config, TraceStore::with_dir(None));
        let barrier = Barrier::new(2);
        let _s = tracer.span("shared_tier.coalesce");
        let times: Vec<f64> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let start = Instant::now();
                        run_point(&runner, app, t, org, Some(p));
                        ms(start)
                    })
                })
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("probe threads do not panic"))
                .collect()
        });
        // Both calls return when the one computation ends, and the caller
        // that waited started no earlier: its time is the shorter. Only
        // pairs that did coalesce count.
        if runner.trace_store().health().coalesced == 1 {
            waits.push(times[0].min(times[1]));
        }
    }
    m.add_n("shared_tier.wait_ms_p50", p50(&waits), "ms", waits.len());
}

/// Serial `static_best` per (application, organization) against the
/// parallel figure sweep, each from a cold runner.
fn parallel_layer(ctx: &Ctx, tracer: &Tracer, t: &Target, m: &mut Metrics) {
    let (mut serial, mut parallel) = (vec![], vec![]);
    let side = ResizableCacheSide::Data;
    for _ in 0..3 {
        let runner = Runner::with_store(ctx.config, TraceStore::with_dir(None));
        let start = Instant::now();
        for &org in &t.orgs {
            for app in &t.apps {
                let _s = tracer.span("runner.static_best");
                ctx.tally.op(runner
                    .static_best(app, &t.system, org, side)
                    .map(|_| ())
                    .map_err(|e| e.to_string()));
            }
        }
        serial.push(ms(start));
        let runner = Runner::with_store(ctx.config, TraceStore::with_dir(None));
        let start = Instant::now();
        let _s = tracer.span("org_comparison.per_app_org_comparison");
        let assoc = t.system.hierarchy.l1d.associativity;
        ctx.tally.op(
            per_app_org_comparison(&runner, &t.apps, assoc, &t.orgs, side)
                .map(|_| ())
                .map_err(|e| e.to_string()),
        );
        parallel.push(ms(start));
    }
    let speedup = p50(&serial) / p50(&parallel);
    m.add("parallel.speedup", speedup, "ratio");
    m.add(
        "parallel.efficiency",
        speedup / effective_workers() as f64,
        "ratio",
    );
}

/// Round trips to a private server with a warm tier, over the workload's
/// first application, and the JSON cost of one result line. Returns the
/// `dynamic` round-trip times.
fn server_and_json(
    ctx: &Ctx,
    tracer: &Tracer,
    t: &Target,
    m: &mut Metrics,
) -> Result<Vec<f64>, String> {
    let system = service::base_system();
    let org = Organization::SelectiveSets;
    let runner = Runner::with_store(ctx.config, TraceStore::with_dir(None));
    let points = service::space(&system, org).points().to_vec();
    let tag = service::tag_bits(&system, org);
    let app = &t.apps[0];
    let expected: Vec<_> = points
        .iter()
        .map(|&p| runner.run_static(app, &system, Some(p), None, tag, 0))
        .collect();
    let dynamic = service::dynamic_ref(&runner, app, &system);
    let server = SweepServer::bind(
        runner,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let (handle, join) = server.spawn().map_err(|e| format!("spawn: {e}"))?;
    let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    let (mut ping, mut point, mut dyn_ms) = (vec![], vec![], vec![]);
    let mut line = String::new();
    for i in 0..ROUND_TRIPS {
        let ex = {
            let _s = tracer.span("server.ping");
            client.request(r#"{"req":"ping"}"#, Ends::OneLine)
        };
        ping.push(ex.map_err(|e| e.to_string())?.total_ms());
        let k = i % points.len();
        let request = point_request(i as u64, app.name, org, points[k]);
        let ex = {
            let _s = tracer.span("server.point");
            client.request(&request, Ends::OneLine)
        }
        .map_err(|e| e.to_string())?;
        point.push(ex.total_ms());
        let _s = tracer.span("bench.check");
        let parsed = Json::parse(ex.lines[0].1.trim_end()).map_err(|e| e.to_string())?;
        ctx.tally.op(check::ok_line(&parsed).and_then(|()| check::result_matches(&parsed, &expected[k])));
        line = ex.lines[0].1.trim_end().to_string();
    }
    for i in 0..3 {
        let _s = tracer.span("server.dynamic");
        let ex = client
            .request(&dynamic_request(i, app.name, &dynamic.params), Ends::Done)
            .map_err(|e| e.to_string())?;
        dyn_ms.push(ex.total_ms());
        let done = Json::parse(ex.lines.last().expect("a done line").1.trim_end())
            .map_err(|e| e.to_string())?;
        ctx.tally.op(check::dynamic_done_matches(
            &done,
            &dynamic.measurement,
            &dynamic.base,
            dynamic.decisions,
        ));
    }
    drop(client);
    handle.stop();
    ctx.tally
        .op(join.join().map_err(|_| "probe server panicked".to_string()));

    let (mut parse, mut render) = (vec![], vec![]);
    let mut value = Json::Null;
    for _ in 0..FAST_REPS {
        let _s = tracer.span("json.parse");
        let start = Instant::now();
        value = Json::parse(&line).map_err(|e| e.to_string())?;
        parse.push(ms(start) * 1e3);
    }
    for _ in 0..FAST_REPS {
        let _s = tracer.span("json.render");
        let start = Instant::now();
        std::hint::black_box(value.render());
        render.push(ms(start) * 1e3);
    }
    m.add_n("json.parse_us", p50(&parse), "us", parse.len());
    m.add_n("json.render_us", p50(&render), "us", render.len());
    m.add_n("server.ping_ms_p50", p50(&ping), "ms", ping.len());
    m.add_n("server.point_ms_p50", p50(&point), "ms", point.len());
    Ok(dyn_ms)
}

/// Runs every probe on the calling thread's lane, attributes the traced
/// run's time to layers, writes the spans, and returns every per-layer
/// metric.
pub fn per_layer(
    ctx: &Ctx,
    tracer: &Tracer,
    t: &Target,
    observed: Observed,
) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let scratch = ctx.out_dir.join(format!("probe-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {scratch:?}: {e}"))?;
    let probes = {
        let _lane = tracer.lane();
        trace_layer(ctx, tracer, t, &scratch, &mut m);
        trace_store_layer(ctx, tracer, t, &mut m);
        let runner = Runner::with_store(ctx.config, TraceStore::with_dir(None));
        engine_layers(ctx, tracer, t, &runner, &mut m);
        let (sweep_hit_ms, dynamic_ms) = runner_layer(tracer, t, &runner, &mut m);
        shared_tier_wait(ctx, tracer, t, &mut m);
        parallel_layer(ctx, tracer, t, &mut m);
        server_and_json(ctx, tracer, t, &mut m).map(|dyn_ms| (sweep_hit_ms, dynamic_ms, dyn_ms))
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let (sweep_hit_ms, runner_dynamic_ms, probe_dyn_ms) = probes?;

    let o = &observed;
    m.add(
        "trace_store.resident_traces",
        o.resident_traces as f64,
        "count",
    );
    let tier = o.tier;
    m.add("shared_tier.hits", tier.hits as f64, "count");
    m.add("shared_tier.misses", tier.misses as f64, "count");
    m.add("shared_tier.coalesced", tier.coalesced as f64, "count");
    let lookups = (tier.hits + tier.misses).max(1);
    m.add(
        "shared_tier.hit_rate",
        tier.hits as f64 / lookups as f64,
        "fraction",
    );
    m.add("shared_tier.evictions", tier.evictions as f64, "count");

    let sweep_p50 = p50(&o.untraced.sweep_ms);
    m.add("server.sweep_overhead", sweep_p50 / sweep_hit_ms, "ratio");
    let dyn_samples = if o.untraced.dynamic_ms.is_empty() {
        &probe_dyn_ms
    } else {
        &o.untraced.dynamic_ms
    };
    let dyn_p50 = p50(dyn_samples);
    m.add_n("server.dynamic_ms_p50", dyn_p50, "ms", dyn_samples.len());
    m.add(
        "server.dynamic_overhead",
        dyn_p50 / runner_dynamic_ms,
        "ratio",
    );
    m.add("server.requests", tier.requests as f64, "count");
    m.add("server.served", tier.served as f64, "count");
    m.add(
        "server.open_connections",
        o.open_connections as f64,
        "count",
    );

    let attribution = attribute(&tracer.spans(), &tracer.lanes());
    let residual = attribution.lane_time as i128
        - (attribution.self_total() + attribution.unattributed) as i128;
    ctx.tally.op(if residual == 0 {
        Ok(())
    } else {
        Err(format!(
            "span self times miss the lane time by {residual} ns"
        ))
    });
    for layer in LAYERS {
        m.add(
            format!("{layer}.self_frac"),
            attribution.layer_frac(layer),
            "fraction",
        );
    }
    m.add(
        "traced.unattributed_frac",
        attribution.unattributed_frac(),
        "fraction",
    );
    m.add("traced.lane_s", attribution.lane_time as f64 / 1e9, "s");
    m.add("traced.spans", attribution.spans as f64, "count");
    m.add(
        "traced.overhead",
        o.untraced.points_per_s() / o.traced.points_per_s(),
        "ratio",
    );
    let path = ctx.out_dir.join(format!("spans-{}.jsonl", ctx.workload));
    tracer
        .write(&path)
        .map_err(|e| format!("write {path:?}: {e}"))?;
    println!("# spans written to {}", path.display());
    Ok(m)
}
