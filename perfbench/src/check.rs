//! Output checks and failure accounting.
//!
//! Every operation the benchmark attempts — a sweep, a request, a validity
//! check — is counted here, and one that fails (a non-ok line, an I/O error,
//! an output that differs from the in-process reference, a run that breaks
//! a validity condition) is counted as failed with its reason.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rescache::core::experiment::{Measurement, StoreHealth};
use rescache::core::json::Json;
use rescache::core::CachePoint;

/// Reasons kept for the report; the counts cover every failure.
const KEPT_REASONS: usize = 8;

#[derive(Debug, Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    reasons: Mutex<Vec<String>>,
}

impl Tally {
    /// Counts one attempted operation, failed when `outcome` is an error.
    pub fn op(&self, outcome: Result<(), String>) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if let Err(reason) = outcome {
            self.failed.fetch_add(1, Ordering::Relaxed);
            let mut kept = self.reasons.lock().expect("reason lock poisoned");
            if kept.len() < KEPT_REASONS {
                kept.push(reason);
            }
        }
    }

    /// Adds another run's counts.
    pub fn absorb(&self, attempted: u64, failed: u64, source: &str) {
        self.attempted.fetch_add(attempted, Ordering::Relaxed);
        self.failed.fetch_add(failed, Ordering::Relaxed);
        if failed > 0 {
            let mut kept = self.reasons.lock().expect("reason lock poisoned");
            kept.push(format!("{failed} failed in {source}"));
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }

    pub fn reasons(&self) -> Vec<String> {
        self.reasons.lock().expect("reason lock poisoned").clone()
    }
}

/// A run that needed store recovery measured a different program.
pub fn store_health_ok(health: &StoreHealth) -> Result<(), String> {
    if health.retries > 0 || health.regenerations > 0 || health.quarantines > 0 || health.degraded {
        return Err(format!(
            "store recovered: retries {} regenerations {} quarantines {} degraded {}",
            health.retries, health.regenerations, health.quarantines, health.degraded
        ));
    }
    Ok(())
}

/// FNV-1a over the exact bits of what it is fed.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    pub fn str(self, s: &str) -> Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

fn num(line: &Json, path: &[&str]) -> Option<f64> {
    let mut v = line;
    for key in path {
        v = v.get(key)?;
    }
    v.as_f64()
}

/// Fails unless the field at `path` holds exactly `want`, bit for bit.
fn field(line: &Json, path: &[&str], want: f64) -> Result<(), String> {
    match num(line, path) {
        Some(got) if got.to_bits() == want.to_bits() => Ok(()),
        got => Err(format!("{} = {got:?}, in-process {want}", path.join("."))),
    }
}

fn latency_fields(line: &Json, m: &Measurement) -> Result<(), String> {
    let l = &m.latency;
    field(line, &["latency", "delayed_hits"], l.delayed_hits as f64)?;
    field(
        line,
        &["latency", "delayed_hit_cycles"],
        l.delayed_hit_cycles as f64,
    )?;
    field(
        line,
        &["latency", "mean_delayed_hit_cycles"],
        l.mean_delayed_hit_cycles(),
    )?;
    field(
        line,
        &["latency", "d_primary_misses"],
        l.d_primary_misses as f64,
    )?;
    field(line, &["latency", "d_miss_cycles"], l.d_miss_cycles as f64)?;
    field(line, &["latency", "mean_miss_cycles"], l.mean_miss_cycles())
}

fn common_fields(line: &Json, m: &Measurement) -> Result<(), String> {
    field(line, &["cycles"], m.cycles as f64)?;
    field(line, &["ipc"], m.ipc)?;
    field(line, &["energy_pj"], m.energy_pj)?;
    field(line, &["edp"], m.energy_delay().product())?;
    latency_fields(line, m)
}

/// The (sets, ways) point a `result` line names.
pub fn result_point(line: &Json) -> Result<CachePoint, String> {
    let point = line.get("point").ok_or("result line has no point")?;
    let sets = point.get("sets").and_then(Json::as_u64);
    let ways = point.get("ways").and_then(Json::as_u64);
    match (sets, ways) {
        (Some(sets), Some(ways)) => Ok(CachePoint {
            sets,
            ways: u32::try_from(ways).map_err(|_| "ways out of range")?,
        }),
        _ => Err(format!("result line names no point: {}", line.render())),
    }
}

/// A `result` line against the in-process measurement of the same point.
pub fn result_matches(line: &Json, m: &Measurement) -> Result<(), String> {
    common_fields(line, m)?;
    field(line, &["l1d_miss_ratio"], m.l1d_miss_ratio)?;
    field(line, &["l1i_miss_ratio"], m.l1i_miss_ratio)
}

/// A `dynamic` request's `done` line against the in-process run of the same
/// request, which made `decisions` resize decisions.
pub fn dynamic_done_matches(
    line: &Json,
    m: &Measurement,
    base: &Measurement,
    decisions: u64,
) -> Result<(), String> {
    common_fields(line, m)?;
    field(line, &["resizes"], m.l1d_resizes as f64)?;
    field(line, &["decisions"], decisions as f64)?;
    field(line, &["mean_bytes"], m.l1d_mean_bytes)?;
    field(
        line,
        &["edp_reduction_percent"],
        m.energy_delay().reduction_vs(&base.energy_delay()),
    )
}

/// Fails on a line the server marked not ok.
pub fn ok_line(line: &Json) -> Result<(), String> {
    match line.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(()),
        _ => Err(format!("non-ok line: {}", line.render())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_failures_against_attempts() {
        let tally = Tally::default();
        tally.op(Ok(()));
        tally.op(Err("mismatch".into()));
        tally.op(Ok(()));
        tally.op(Err("non-ok line".into()));
        assert_eq!(tally.attempted(), 4);
        assert_eq!(tally.failed(), 2);
        assert_eq!(tally.failed_frac(), 0.5);
        assert_eq!(tally.reasons(), vec!["mismatch", "non-ok line"]);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn store_recovery_invalidates_the_run() {
        assert!(store_health_ok(&StoreHealth::default()).is_ok());
        let retried = StoreHealth {
            retries: 1,
            ..StoreHealth::default()
        };
        assert!(store_health_ok(&retried).is_err());
        let degraded = StoreHealth {
            degraded: true,
            ..StoreHealth::default()
        };
        assert!(store_health_ok(&degraded).is_err());
    }

    #[test]
    fn fields_compare_bit_for_bit() {
        let line = Json::parse(r#"{"ok":true,"ipc":0.1,"x":{"y":3}}"#).unwrap();
        assert!(field(&line, &["ipc"], 0.1).is_ok());
        assert!(field(&line, &["ipc"], f64::from_bits(0.1f64.to_bits() + 1)).is_err());
        assert!(field(&line, &["x", "y"], 3.0).is_ok());
        assert!(field(&line, &["missing"], 3.0).is_err());
        assert!(ok_line(&line).is_ok());
        assert!(ok_line(&Json::parse(r#"{"ok":false}"#).unwrap()).is_err());
    }

    #[test]
    fn digest_sees_every_bit() {
        let a = Digest::default().f64(0.5).str("ammp").value();
        assert_eq!(a, Digest::default().f64(0.5).str("ammp").value());
        assert_ne!(
            a,
            Digest::default()
                .f64(0.5 + f64::EPSILON)
                .str("ammp")
                .value()
        );
        assert_ne!(a, Digest::default().str("ammp").f64(0.5).value());
    }
}
