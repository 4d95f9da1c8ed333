//! The harness every workload runs under: warm-up until flash writes per
//! transaction level off, then the timed phase with its power cuts and
//! post-recovery audits.
//!
//! The timed phase lasts `--seconds` of host time, and at least until the
//! first `prefix` transactions and every power cut after them have run.
//! Simulated metrics and counters come from the prefix only and the cuts
//! land at fixed transactions, so both are the same on every run of a
//! seed; host metrics come from the whole phase.

use xftl_db::PagerStats;
use xftl_flash::{FlashStats, Nanos};
use xftl_fs::FsStats;
use xftl_ftl::FtlStats;
use xftl_trace::{HistSummary, OpClass, Telemetry};

use crate::timed::{host_ns, speed_of, Calibrator, Cpus, DbTrace, DevTrace, TraceSwitch};

/// What a transaction did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Update,
    Read,
}

/// One acknowledged transaction, as seen on the simulated clock.
#[derive(Debug, Clone, Copy)]
pub struct Ack {
    /// Index of the transaction in the workload's stream.
    pub n: u64,
    pub kind: Kind,
    /// BEGIN → commit acknowledged.
    pub sim_ns: Nanos,
    /// The read-latency sample this transaction gives: the whole of a
    /// read-only transaction, or the reads of an update transaction on a
    /// workload that has no read-only ones.
    pub read_sim_ns: Option<Nanos>,
}

/// Every counter the layers keep, read through their public accessors.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub ftl: FtlStats,
    pub flash: FlashStats,
    pub fs: FsStats,
    pub pager: PagerStats,
    pub dev: DevTrace,
    pub db: DbTrace,
    pub sim_ns: Nanos,
    /// Flash channels of the device (a constant of the geometry).
    pub channels: u32,
}

/// An error a layer returned, or a broken benchmark invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure(pub String);

macro_rules! failure_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Failure {
            fn from(e: $t) -> Self {
                Failure(format!("{e:?}"))
            }
        }
    )*};
}

failure_from!(xftl_ftl::DevError, xftl_fs::FsError, xftl_db::DbError);

impl Failure {
    /// Prefixes where the failure happened.
    pub fn at(self, place: impl std::fmt::Display) -> Failure {
        Failure(format!("{place}: {}", self.0))
    }
}

/// What the post-cut recovery and audit found.
#[derive(Debug, Default, Clone, Copy)]
pub struct Recovery {
    pub dev_sim_ns: Nanos,
    pub fs_sim_ns: Nanos,
    pub db_sim_ns: Nanos,
    pub dev_host_ns: u64,
    pub fs_host_ns: u64,
    pub db_host_ns: u64,
    /// Rows or pages audited (each one check).
    pub audited: u64,
    /// Audited rows or pages that did not match an allowed state.
    pub lost: u64,
}

/// A workload under the harness.
pub trait Workload {
    /// Runs the next transaction of the stream. Pushes every transaction
    /// acknowledged by this call (a pipelined workload acknowledges
    /// earlier ones) and returns the kind of the one it ran.
    fn step(&mut self, acks: &mut Vec<Ack>) -> Result<Kind, Failure>;
    /// Transactions started so far; the next one gets this index.
    fn issued(&self) -> u64;
    /// Reads that returned something other than the model's value.
    fn mismatches(&self) -> u64;
    fn counters(&self) -> Counters;
    fn telemetry(&self) -> Telemetry;
    fn switch(&self) -> &TraceSwitch;
    /// Makes the next update transaction one a power cut lands in.
    fn arm_cut(&mut self);
    /// If a power cut has been taken since the last call, brings a copy of
    /// the stack up from its flash image and audits every row or page
    /// against the model. The running stack carries on untouched, but the
    /// shared simulated clock advances by the recovery's time. An error
    /// means the cut was taken and its recovery failed.
    fn recover_cut(&mut self) -> Result<Option<Recovery>, Failure>;
    /// Rows or pages one audit checks.
    fn audit_size(&self) -> u64;
}

/// How much a workload runs.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Transactions per warm-up window.
    pub warm_window: u64,
    /// Transactions measured on the simulated clock.
    pub prefix: u64,
    /// Power cuts after the prefix, one every `cut_gap` transactions.
    /// The gap must exceed the commits a workload keeps in flight, so no
    /// prefix transaction is still waiting when the first recovery moves
    /// the clock.
    pub cuts: usize,
    pub cut_gap: u64,
    /// Transactions per timed window; the traced run alternates untraced
    /// and traced windows.
    pub window: u64,
}

/// Warm-up windows, at most; not levelling off by then is an error.
const WARM_MAX: usize = 40;

/// Relative change of flash writes per update transaction between windows
/// under which the warm-up counts as levelled off.
const WARM_TOL: f64 = 0.05;

/// The warm-up outcome.
#[derive(Debug, Clone, Copy)]
pub struct Warmup {
    pub windows: usize,
    pub levelled: bool,
    /// Flash programs per update transaction in the last window.
    pub programs_per_txn: f64,
}

/// Runs warm-up windows until flash programs per update transaction
/// change by less than the tolerance twice in a row.
pub fn warm_up(w: &mut dyn Workload, plan: &Plan) -> Result<Warmup, Failure> {
    let mut acks = Vec::new();
    let mut rates: Vec<f64> = Vec::new();
    let stable = |r: &[f64]| -> bool {
        r.len() >= 3
            && r[r.len() - 3..]
                .windows(2)
                .all(|p| (p[1] - p[0]).abs() <= WARM_TOL * p[0].max(1e-9))
    };
    while rates.len() < WARM_MAX {
        let p0 = w.counters().flash.programs;
        let mut updates = 0u64;
        for _ in 0..plan.warm_window {
            let n = w.issued();
            let kind = w
                .step(&mut acks)
                .map_err(|f| f.at(format!("warm-up transaction {n}")))?;
            updates += u64::from(kind == Kind::Update);
            acks.clear();
        }
        let p1 = w.counters().flash.programs;
        rates.push((p1 - p0) as f64 / updates.max(1) as f64);
        if stable(&rates) {
            break;
        }
    }
    Ok(Warmup {
        windows: rates.len(),
        levelled: stable(&rates),
        programs_per_txn: rates.last().copied().unwrap_or(0.0),
    })
}

/// Everything the timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Simulated latency of the prefix's update transactions.
    pub sim_txn_ns: Vec<Nanos>,
    /// Simulated latency of the prefix's reads (see [`Ack::read_sim_ns`]).
    pub sim_read_ns: Vec<Nanos>,
    pub prefix_txns: u64,
    pub prefix_updates: u64,
    pub prefix_sim_ns: Nanos,
    /// Counters over the prefix.
    pub before: Counters,
    pub after: Counters,
    /// Telemetry class summaries over the prefix.
    pub classes: Vec<(OpClass, HistSummary)>,
    /// Host measurements of the untraced windows, by round.
    pub rounds: Vec<Round>,
    pub untraced_txns: u64,
    pub untraced_wall_ns: u64,
    pub traced_txns: u64,
    pub traced_wall_ns: u64,
    /// Device and database span totals over the traced windows.
    pub traced_dev: DevTrace,
    pub traced_db: DbTrace,
    /// One per power cut whose recovery came up.
    pub recoveries: Vec<Recovery>,
    /// One per power cut whose recovery failed: every row or page of its
    /// audit counts as failed.
    pub failed_recoveries: Vec<Failure>,
    /// Scales host times of the whole phase to the reference machine.
    pub speed: f64,
    /// Host peak resident memory when the prefix ended, before the first
    /// power cut copies the flash array.
    pub rss_mb: f64,
}

/// Host wall time a round of untraced windows spans, at least.
const ROUND_NS: u64 = 1_000_000_000;

/// Untraced host measurements over about a second of the timed phase.
/// Rounds move between the allowed CPUs in turn; host metrics are medians
/// across each CPU's rounds, averaged over the CPUs, so that a burst of
/// load from elsewhere on the machine moves one round, not the result.
#[derive(Debug, Default)]
pub struct Round {
    /// CPU slot the round ran on (see [`Cpus::pin`]).
    pub cpu: usize,
    pub txns: u64,
    pub wall_ns: u64,
    /// Host time of each update transaction.
    pub txn_ns: Vec<u64>,
    /// Calibration loop time summed over the round's samples, and their
    /// number.
    pub cal_ns: u64,
    pub cal_samples: u64,
}

impl Round {
    /// Scales the round's host times to the reference machine.
    pub fn speed(&self) -> f64 {
        speed_of(self.cal_ns as f64 / self.cal_samples.max(1) as f64)
    }
}

/// Runs the timed phase for at least `seconds` of measured host time and
/// until every power cut has been recovered, alternating untraced and
/// traced windows when `trace` is set. Recoveries run inside windows but
/// their host time is taken out of the windows' wall time.
pub fn timed_phase(
    w: &mut dyn Workload,
    plan: &Plan,
    seconds: f64,
    trace: bool,
    cpus: &Cpus,
    cal: &mut Calibrator,
) -> Result<Phase, Failure> {
    let origin = cal.origin();
    let budget_ns = (seconds * 1e9) as u64;
    let mut ph = Phase::default();
    let mut acks = Vec::new();
    w.telemetry().reset();
    ph.before = w.counters();
    let base = w.issued();
    let mut n = 0u64;
    let mut window = 0u64;
    let mut round = Round {
        cpu: cpus.pin(0),
        ..Round::default()
    };
    let mut measured_ns = 0u64;
    let mut armed = 0usize;
    let (mut cal_total, mut cal_samples) = (0u64, 0u64);
    loop {
        // Calibration runs between windows, outside their wall time.
        let c = cal.sample();
        round.cal_ns += c;
        round.cal_samples += 1;
        cal_total += c;
        cal_samples += 1;
        let traced = trace && window % 2 == 1;
        w.switch().set(traced);
        let c0 = w.counters();
        let t0 = host_ns(origin);
        // A step that takes a power cut copies the flash array, and its
        // recovery runs right after: benchmark work, left out of the
        // window's wall time, transactions and spans.
        let mut excluded_ns = 0u64;
        let mut excluded_txns = 0u64;
        let (mut excluded_dev, mut excluded_db) = (DevTrace::default(), DbTrace::default());
        for _ in 0..plan.window {
            if armed < plan.cuts && n == plan.prefix + plan.cut_gap * (armed as u64 + 1) {
                w.arm_cut();
                armed += 1;
            }
            let taken = ph.recoveries.len() + ph.failed_recoveries.len();
            let before = (traced && armed > taken).then(|| w.counters());
            let h0 = host_ns(origin);
            let kind = w
                .step(&mut acks)
                .map_err(|f| f.at(format!("transaction {}", base + n)))?;
            let h1 = host_ns(origin);
            for a in acks.drain(..) {
                if a.n < base || a.n >= base + plan.prefix {
                    continue;
                }
                if a.kind == Kind::Update {
                    ph.sim_txn_ns.push(a.sim_ns);
                }
                ph.sim_read_ns.extend(a.read_sim_ns);
            }
            n += 1;
            if n == plan.prefix {
                ph.after = w.counters();
                ph.classes = w.telemetry().summaries();
                ph.rss_mb = peak_rss_mb();
            }
            let spans = before.map(|b| {
                let c = w.counters();
                (c.dev - b.dev, c.db - b.db)
            });
            w.switch().set(false);
            match w.recover_cut() {
                Ok(None) => {}
                Ok(Some(rec)) => ph.recoveries.push(rec),
                Err(f) => ph
                    .failed_recoveries
                    .push(f.at(format!("recovery from power cut {}", taken + 1))),
            }
            w.switch().set(traced);
            if ph.recoveries.len() + ph.failed_recoveries.len() > taken {
                excluded_ns += host_ns(origin) - h0;
                excluded_txns += 1;
                if let Some((dev, db)) = spans {
                    excluded_dev = excluded_dev + dev;
                    excluded_db = excluded_db + db;
                }
            } else if kind == Kind::Update && !traced {
                round.txn_ns.push(h1 - h0);
            }
        }
        let wall = host_ns(origin) - t0 - excluded_ns;
        let txns = plan.window - excluded_txns;
        measured_ns += wall;
        if traced {
            let c1 = w.counters();
            ph.traced_txns += txns;
            ph.traced_wall_ns += wall;
            ph.traced_dev = ph.traced_dev + (c1.dev - c0.dev - excluded_dev);
            ph.traced_db = ph.traced_db + (c1.db - c0.db - excluded_db);
        } else {
            ph.untraced_txns += txns;
            ph.untraced_wall_ns += wall;
            round.txns += txns;
            round.wall_ns += wall;
            if round.wall_ns >= ROUND_NS {
                let next = Round {
                    cpu: cpus.pin(ph.rounds.len() + 1),
                    ..Round::default()
                };
                ph.rounds.push(std::mem::replace(&mut round, next));
            }
        }
        window += 1;
        let cuts = ph.recoveries.len() + ph.failed_recoveries.len();
        let done = measured_ns >= budget_ns && cuts == plan.cuts;
        // The traced run ends on a traced window, so both kinds are present.
        if done && (!trace || traced) {
            break;
        }
    }
    w.switch().set(false);
    // A run too short for a whole round is measured by its partial one.
    if ph.rounds.is_empty() {
        ph.rounds.push(round);
    }
    ph.prefix_txns = plan.prefix;
    ph.prefix_updates = ph.sim_txn_ns.len() as u64;
    ph.prefix_sim_ns = ph.after.sim_ns - ph.before.sim_ns;
    ph.speed = speed_of(cal_total as f64 / cal_samples.max(1) as f64);
    Ok(ph)
}

/// The `q`-quantile of `v` by the nearest-rank rule (`v` need not be
/// sorted).
pub fn quantile(v: &[u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1] as f64
}

/// The `q`-quantile of `v` by the mid-distribution rule for discrete data
/// (Parzen's mid-quantile): each distinct value sits at the middle of its
/// step of the empirical distribution, `(share below + share at or
/// below) / 2`, and the quantile interpolates linearly between
/// neighbouring values. Simulated latencies take few distinct values, one
/// of them often shared by most transactions; the nearest rank then
/// returns that value on every seed, while this one moves with the share
/// of transactions on each side of it.
pub fn mid_quantile(v: &[u64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_unstable();
    let n = s.len() as f64;
    // (value, mid-distribution position) of each distinct value.
    let mut steps: Vec<(f64, f64)> = Vec::new();
    let mut below = 0usize;
    for run in s.chunk_by(|a, b| a == b) {
        let at = below + run.len();
        steps.push((run[0] as f64, (below + at) as f64 / (2.0 * n)));
        below = at;
    }
    let (Some(&first), Some(&last)) = (steps.first(), steps.last()) else {
        return 0.0;
    };
    if q <= first.1 {
        return first.0;
    }
    if q >= last.1 {
        return last.0;
    }
    let k = steps.partition_point(|&(_, m)| m <= q);
    let ((x0, m0), (x1, m1)) = (steps[k - 1], steps[k]);
    x0 + (q - m0) / (m1 - m0) * (x1 - x0)
}

/// The median of `v`, averaging the middle pair.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Host peak resident memory of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The mean over CPU slots of the median of each slot's values: host
/// time measured on every CPU counts each CPU once.
pub fn per_cpu_median(values: &[(usize, f64)]) -> f64 {
    let mut slots: Vec<usize> = values.iter().map(|&(s, _)| s).collect();
    slots.sort_unstable();
    slots.dedup();
    if slots.is_empty() {
        return 0.0;
    }
    let total: f64 = slots
        .iter()
        .map(|&slot| {
            let v: Vec<f64> = values
                .iter()
                .filter(|&&(s, _)| s == slot)
                .map(|&(_, x)| x)
                .collect();
            median(&v)
        })
        .sum();
    total / slots.len() as f64
}

#[cfg(test)]
mod tests {
    use super::mid_quantile;

    #[test]
    fn mid_quantile_interpolates_between_steps() {
        // Steps at 0.4 (value 1) and 0.9 (value 2).
        assert!((mid_quantile(&[1, 1, 2, 1, 1], 0.5) - 1.2).abs() < 1e-12);
        assert_eq!(mid_quantile(&[4, 1, 3, 2], 0.5), 2.5);
        assert_eq!(mid_quantile(&[7, 7, 7], 0.99), 7.0);
        assert_eq!(mid_quantile(&[], 0.5), 0.0);
    }
}
