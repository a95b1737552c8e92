//! `fig5_cold`: the paper's Figure 5 sweep in process. Every sweep runs on a
//! fresh runner over an in-memory store, so its traces are generated and its
//! simulations run cold; the host's default worker count fans it out.
//!
//! This workload's times are process CPU time. The sweep is CPU-bound on
//! every core the host has, so its wall time follows other tenants' load:
//! on a shared 2-core host it moved by more than half between runs minutes
//! apart while its CPU time moved by a tenth. Wall-clock sweep times are
//! printed beside the metrics.

use std::time::Instant;

use rescache::core::experiment::{per_app_org_comparison, PerAppOrgRow, Runner, TraceStore};
use rescache::core::{ConfigSpace, CoreError, Organization, ResizableCacheSide, SystemConfig};
use rescache::trace::spec;

use crate::check::{store_health_ok, Digest};
use crate::probes::{self, Observed, Target, TierCounts};
use crate::spans::Tracer;
use crate::{host, stats, Ctx, Metrics, Phase, DEFAULT_SEED, SETUP_REPS};

const SIDE: ResizableCacheSide = ResizableCacheSide::Data;
const ORGS: [Organization; 3] = [
    Organization::SelectiveWays,
    Organization::SelectiveSets,
    Organization::Hybrid,
];

/// Digest of the reference rows and every simulated statistic behind them
/// at [`DEFAULT_SEED`] and [`crate::runner_config`]. A change that only
/// speeds the simulator up must leave it unchanged.
const PINNED_DIGEST: u64 = 0x79ea_e9cc_2d28_0939;

pub fn target() -> Target {
    Target {
        apps: vec![
            spec::ammp(),
            spec::m88ksim(),
            spec::compress(),
            spec::su2cor(),
        ],
        system: SystemConfig::with_l1(32 * 1024, 4),
        orgs: ORGS.to_vec(),
        disk_dir: None,
        figure_sweep: true,
    }
}

fn fresh_runner(ctx: &Ctx) -> Runner {
    Runner::with_store(ctx.config, TraceStore::with_dir(None))
}

fn rows_digest(rows: &[PerAppOrgRow]) -> u64 {
    rows.iter()
        .fold(Digest::default(), |d, r| {
            d.str(&r.app)
                .str(r.organization.label())
                .f64(r.size_reduction)
                .f64(r.edp_reduction)
                .f64(r.slowdown)
        })
        .value()
}

/// The reference: `static_best` per (organization, application), one after
/// the other, in the figure's row order. Returns the rows' digest and a
/// digest that also covers every simulated statistic behind them.
fn reference(runner: &Runner, t: &Target) -> Result<(u64, u64), CoreError> {
    let mut rows = Vec::new();
    let mut stats = Digest::default();
    for org in ORGS {
        for app in &t.apps {
            let outcome = runner.static_best(app, &t.system, org, SIDE)?;
            for m in std::iter::once(&outcome.base).chain(outcome.evaluated.iter().map(|e| &e.1)) {
                stats = stats
                    .u64(m.cycles)
                    .f64(m.energy_pj)
                    .f64(m.l1d_miss_ratio)
                    .f64(m.l1i_miss_ratio)
                    .u64(m.l1d_resizes)
                    .u64(m.latency.delayed_hits);
            }
            rows.push(PerAppOrgRow {
                app: outcome.app.clone(),
                organization: org,
                size_reduction: outcome.best.size_reduction_percent,
                edp_reduction: outcome.best.edp_reduction_percent,
                slowdown: outcome.best.slowdown_percent,
            });
        }
    }
    let rows = rows_digest(&rows);
    Ok((rows, stats.u64(rows).value()))
}

/// Sweep points including baselines: per (application, organization) one
/// baseline plus every offered point.
fn points_per_sweep(t: &Target) -> u64 {
    ORGS.iter()
        .map(|&org| {
            let space = ConfigSpace::enumerate(SIDE.config_of(&t.system.hierarchy), org)
                .expect("every organization applies to a 4-way cache");
            t.apps.len() as u64 * (1 + space.len() as u64)
        })
        .sum()
}

/// CPU milliseconds since `since` (a [`host::cpu_seconds`] reading).
fn cpu_ms(since: f64) -> f64 {
    (host::cpu_seconds() - since) * 1e3
}

/// Runs cold sweeps for `seconds` of wall time, checking each against the
/// reference rows. With tracing on, the traces are fetched (generated)
/// before the sweep so generation and simulation show as separate spans.
fn measure(
    ctx: &Ctx,
    t: &Target,
    reference_rows: u64,
    seconds: f64,
    tracer: &Tracer,
    tier: &mut TierCounts,
) -> (Phase, usize) {
    let per_sweep = points_per_sweep(t);
    let threads = host::threads().unwrap_or(0);
    let mut phase = Phase::default();
    let mut wall_ms = Vec::new();
    let mut resident = 0;
    let (start, cpu_start) = (Instant::now(), host::cpu_seconds());
    while !phase.finished(start, seconds) {
        let runner = fresh_runner(ctx);
        let _sweep = tracer.span("bench.sweep");
        let (t0, c0) = (Instant::now(), host::cpu_seconds());
        if tracer.enabled() {
            for app in &t.apps {
                let _s = tracer.span("trace_store.fetch");
                runner.trace(app);
            }
        }
        let mut rows = Vec::new();
        let mut outcome = Ok(());
        for org in ORGS {
            let _s = tracer.span("org_comparison.per_app_org_comparison");
            match per_app_org_comparison(&runner, &t.apps, 4, &[org], SIDE) {
                Ok(got) => {
                    let at = cpu_ms(c0);
                    phase.result_ms.extend(got.iter().map(|_| at));
                    rows.extend(got);
                }
                Err(e) => outcome = Err(format!("sweep failed: {e}")),
            }
        }
        phase.sweep_ms.push(cpu_ms(c0));
        wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        phase.points += per_sweep;
        let _check = tracer.span("bench.check");
        ctx.tally.op(outcome.and_then(|()| {
            if rows_digest(&rows) == reference_rows {
                Ok(())
            } else {
                Err("sweep rows differ from the serial reference".into())
            }
        }));
        let health = runner.trace_store().health();
        ctx.tally
            .op(store_health_ok(&health).and_then(|()| host::threads_settle(threads)));
        tier.add(TierCounts::of(&health));
        resident = runner.trace_store().resident_full_traces();
    }
    phase.elapsed_s = cpu_ms(cpu_start) / 1e3;
    for p in [50.0, 90.0] {
        let v = stats::percentile(&wall_ms, p).unwrap_or(f64::NAN);
        println!("# wall-clock sweep_ms_p{p} {v:.6} ms (n={})", wall_ms.len());
    }
    (phase, resident)
}

pub fn run(ctx: &Ctx, trace: bool) -> Result<Metrics, String> {
    let t = target();
    let mut setups = Vec::new();
    let mut digests = Vec::new();
    for _ in 0..SETUP_REPS {
        let runner = fresh_runner(ctx);
        let c0 = host::cpu_seconds();
        let digest = reference(&runner, &t);
        setups.push(cpu_ms(c0) / 1e3);
        digests.push(digest.map_err(|e| format!("reference sweep: {e}"))?);
    }
    let (reference_rows, full) = digests[0];
    ctx.tally.op(if digests.iter().all(|&d| d == digests[0]) {
        Ok(())
    } else {
        Err("reference sweeps disagree with each other".into())
    });
    println!("# fig5 digest {full:#018x} at seed {}", ctx.seed);
    if ctx.seed == DEFAULT_SEED {
        ctx.tally.op(if full == PINNED_DIGEST {
            Ok(())
        } else {
            Err(format!(
                "fig5 digest {full:#018x} differs from the pinned {PINNED_DIGEST:#018x}"
            ))
        });
    }

    let off = Tracer::off();
    let untraced_seconds = if trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let (untraced, _) = measure(
        ctx,
        &t,
        reference_rows,
        untraced_seconds,
        &off,
        &mut TierCounts::default(),
    );
    if !trace {
        return Ok(untraced.e2e(&setups));
    }
    let tracer = Tracer::new(true);
    let mut tier = TierCounts::default();
    let (traced, resident_traces) = {
        let _lane = tracer.lane();
        measure(
            ctx,
            &t,
            reference_rows,
            ctx.seconds / 2.0,
            &tracer,
            &mut tier,
        )
    };
    probes::per_layer(
        ctx,
        &tracer,
        &t,
        Observed {
            untraced,
            traced,
            tier,
            resident_traces,
            open_connections: 0,
        },
    )
}
