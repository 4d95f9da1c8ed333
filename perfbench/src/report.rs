//! Turning a run's measurements into named metrics, the layer-profile
//! guards, and the result line.

use xftl_trace::OpClass;

use crate::measure::{mid_quantile, per_cpu_median, quantile, Phase, Recovery, Round, Warmup};

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn m(out: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.into(),
        value,
        unit,
    });
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The telemetry classes reported per layer, under their metric names.
const CLASSES: [(OpClass, &str); 13] = [
    (OpClass::SqlStatement, "db.sql_statement"),
    (OpClass::PagerFetch, "db.pager_fetch"),
    (OpClass::PagerFlush, "db.pager_flush"),
    (OpClass::FsFsync, "fs.fsync"),
    (OpClass::FtlHostRead, "ftl.host_read"),
    (OpClass::FtlHostWrite, "ftl.host_write"),
    (OpClass::GcCopy, "ftl.gc_copy"),
    (OpClass::TxCommit, "core.tx_commit"),
    (OpClass::GroupCommitCoalesce, "core.group_commit"),
    (OpClass::ChipRead, "flash.chip_read"),
    (OpClass::ChipProgram, "flash.chip_program"),
    (OpClass::ChipErase, "flash.chip_erase"),
    (OpClass::ChanQueueWait, "flash.queue_wait"),
];

/// End-to-end metrics, from the untraced run.
pub fn end_to_end(ph: &Phase, setup_s: &[(usize, f64)]) -> Vec<Metric> {
    let mut out = Vec::new();
    let us = |v: f64| v / 1e3;
    m(
        &mut out,
        "sim_tps",
        ratio(ph.prefix_txns as f64, ph.prefix_sim_ns as f64 / 1e9),
        "1/s",
    );
    m(
        &mut out,
        "sim_txn_p50_us",
        us(mid_quantile(&ph.sim_txn_ns, 0.50)),
        "us",
    );
    m(
        &mut out,
        "sim_txn_p99_us",
        us(mid_quantile(&ph.sim_txn_ns, 0.99)),
        "us",
    );
    out.extend(host(ph, true, ""));
    let programs = ph.after.flash.programs - ph.before.flash.programs;
    m(
        &mut out,
        "flash_writes_per_txn",
        ratio(programs as f64, ph.prefix_updates as f64),
        "count",
    );
    m(
        &mut out,
        "recovery_sim_ms",
        recovery_ms(ph, |r| r.dev_sim_ns + r.fs_sim_ns + r.db_sim_ns),
        "ms",
    );
    m(&mut out, "setup_s", per_cpu_median(setup_s), "s");
    m(&mut out, "peak_rss_mb", ph.rss_mb, "MiB");
    out
}

/// `host_tps` and the host transaction latencies of the untraced rounds,
/// under `prefix`: scaled to the reference machine by each round's
/// calibration, or as measured.
pub fn host(ph: &Phase, scaled: bool, prefix: &str) -> Vec<Metric> {
    let mut out = Vec::new();
    let speed = |r: &Round| if scaled { r.speed() } else { 1.0 };
    let by_round = |f: &dyn Fn(&Round) -> f64| -> f64 {
        per_cpu_median(&ph.rounds.iter().map(|r| (r.cpu, f(r))).collect::<Vec<_>>())
    };
    m(
        &mut out,
        format!("{prefix}host_tps"),
        by_round(&|r| ratio(r.txns as f64, r.wall_ns as f64 * speed(r) / 1e9)),
        "1/s",
    );
    for (name, q) in [("host_txn_p50_us", 0.50), ("host_txn_p99_us", 0.99)] {
        m(
            &mut out,
            format!("{prefix}{name}"),
            by_round(&|r| quantile(&r.txn_ns, q) * speed(r) / 1e3),
            "us",
        );
    }
    out
}

/// Per-layer metrics, from the traced run. Counters are normalised by the
/// transactions of the measured prefix; host times by the transactions
/// of the traced windows.
pub fn per_layer(ph: &Phase, warm: &Warmup) -> Vec<Metric> {
    let mut out = Vec::new();
    let (a, b) = (&ph.after, &ph.before);
    let txns = ph.prefix_txns as f64;
    let per = |v: u64| ratio(v as f64, txns);
    let traced = ph.traced_txns as f64;
    let host_per = |v: u64| ratio(v as f64 * ph.speed, traced);

    // Host time, by span.
    let dev = ph.traced_dev;
    let db = ph.traced_db;
    let dev_outside_db = dev.host_ns - db.nested_dev_ns;
    let bench_self = ph
        .traced_wall_ns
        .saturating_sub(db.host_ns + dev_outside_db);
    m(&mut out, "db.host_ns_per_txn", host_per(db.host_ns), "ns");
    m(
        &mut out,
        "db.self_host_ns_per_txn",
        host_per(db.host_ns - db.nested_dev_ns),
        "ns",
    );
    m(&mut out, "dev.host_ns_per_txn", host_per(dev.host_ns), "ns");
    m(
        &mut out,
        "bench.self_host_ns_per_txn",
        host_per(bench_self),
        "ns",
    );
    let untraced_tps = ratio(ph.untraced_txns as f64, ph.untraced_wall_ns as f64);
    let traced_tps = ratio(traced, ph.traced_wall_ns as f64);
    m(
        &mut out,
        "bench.trace_overhead",
        ratio(untraced_tps, traced_tps),
        "ratio",
    );

    // Device calls and their simulated time, over the prefix.
    let d = a.dev - b.dev;
    m(&mut out, "dev.read_calls_per_txn", per(d.reads), "count");
    m(&mut out, "dev.write_calls_per_txn", per(d.writes), "count");
    m(
        &mut out,
        "dev.commit_calls_per_txn",
        per(d.commits),
        "count",
    );
    m(&mut out, "dev.flush_calls_per_txn", per(d.flushes), "count");
    m(&mut out, "dev.sim_ns_per_txn", per(d.sim_ns), "ns");
    m(
        &mut out,
        "dev.commit_wait_sim_ns_per_txn",
        per(d.commit_wait_sim_ns),
        "ns",
    );

    // Simulated read latency (see `Ack::read_sim_ns`).
    for (name, q) in [("sim_read_p50_us", 0.50), ("sim_read_p99_us", 0.99)] {
        m(&mut out, name, mid_quantile(&ph.sim_read_ns, q) / 1e3, "us");
    }

    // Telemetry classes. These nest; they do not sum.
    for (op, name) in CLASSES {
        let s = ph
            .classes
            .iter()
            .find(|(o, _)| *o == op)
            .map(|(_, s)| *s)
            .unwrap_or_default();
        m(
            &mut out,
            format!("{name}.count_per_txn"),
            per(s.count),
            "count",
        );
        m(
            &mut out,
            format!("{name}.sim_ns_per_txn"),
            per(s.sum_ns),
            "ns",
        );
    }

    // Pager.
    let (pa, pb) = (a.pager, b.pager);
    m(
        &mut out,
        "db.pager_reads_per_txn",
        per(pa.reads - pb.reads),
        "count",
    );
    m(
        &mut out,
        "db.journal_writes_per_txn",
        per(pa.journal_writes - pb.journal_writes),
        "count",
    );
    m(
        &mut out,
        "db.wal_checkpoints",
        (pa.checkpoints - pb.checkpoints) as f64,
        "count",
    );

    // File system.
    let fs = a.fs - b.fs;
    m(&mut out, "fs.device_reads_per_txn", per(fs.reads), "count");
    m(
        &mut out,
        "fs.journal_writes_per_txn",
        per(fs.journal_writes),
        "count",
    );
    m(
        &mut out,
        "fs.meta_writes_per_txn",
        per(fs.meta_writes),
        "count",
    );
    m(&mut out, "fs.fsyncs_per_txn", per(fs.fsyncs), "count");
    m(&mut out, "fs.barriers_per_txn", per(fs.barriers), "count");

    // X-FTL core.
    let f = a.ftl - b.ftl;
    m(
        &mut out,
        "core.commits_per_group_flush",
        ratio(f.commits_coalesced as f64, f.group_commit_flushes as f64),
        "count",
    );
    m(
        &mut out,
        "core.xl2p_writes_per_txn",
        per(f.xl2p_writes),
        "count",
    );
    m(
        &mut out,
        "core.versions_retained",
        f.versions_retained as f64,
        "count",
    );

    // FTL.
    m(
        &mut out,
        "ftl.write_amp",
        ratio(f.total_writes() as f64, f.data_writes as f64),
        "ratio",
    );
    m(&mut out, "ftl.gc_copies_per_txn", per(f.gc_copies), "count");
    m(
        &mut out,
        "ftl.gc_victim_validity",
        f.mean_gc_validity().unwrap_or(0.0),
        "ratio",
    );
    m(
        &mut out,
        "ftl.meta_writes_per_txn",
        per(f.meta_writes),
        "count",
    );
    m(&mut out, "ftl.map_hit_rate", map_hit_rate(ph), "ratio");
    m(
        &mut out,
        "ftl.map_loads_per_txn",
        per(f.map_demand_loads),
        "count",
    );
    m(
        &mut out,
        "ftl.map_writes_per_txn",
        per(f.map_writes + f.gtd_writes),
        "count",
    );

    // Flash.
    let fl = a.flash - b.flash;
    m(
        &mut out,
        "flash.programs_per_txn",
        per(fl.programs),
        "count",
    );
    m(&mut out, "flash.reads_per_txn", per(fl.reads), "count");
    m(&mut out, "flash.erases_per_txn", per(fl.erases), "count");
    let busy: u64 = fl.busy_channel_ns.iter().sum();
    m(
        &mut out,
        "flash.channel_util",
        ratio(
            busy as f64,
            f64::from(a.channels.max(1)) * ph.prefix_sim_ns as f64,
        ),
        "ratio",
    );
    m(
        &mut out,
        "flash.queue_wait_share",
        ratio(
            fl.queue_wait_ns as f64,
            (fl.queue_wait_ns + fl.busy_ns()) as f64,
        ),
        "ratio",
    );

    // Recovery from the power cuts, mean per cut.
    type Part = fn(&Recovery) -> u64;
    let phases: [(&str, Part); 6] = [
        ("recover.dev_sim_ms", |r| r.dev_sim_ns),
        ("recover.fs_sim_ms", |r| r.fs_sim_ns),
        ("recover.db_sim_ms", |r| r.db_sim_ns),
        ("recover.dev_host_ms", |r| r.dev_host_ns),
        ("recover.fs_host_ms", |r| r.fs_host_ns),
        ("recover.db_host_ms", |r| r.db_host_ns),
    ];
    for (name, f) in phases {
        let host = if name.ends_with("host_ms") {
            ph.speed
        } else {
            1.0
        };
        m(&mut out, name, recovery_ms(ph, f) * host, "ms");
    }
    m(&mut out, "bench.host_speed", ph.speed, "ratio");
    // Host metrics before scaling, so a comparison can see whether the
    // calibration moved between two runs.
    out.extend(host(ph, false, "bench.unscaled_"));
    m(
        &mut out,
        "bench.power_cuts",
        ph.recoveries.len() as f64,
        "count",
    );

    // The run itself.
    m(
        &mut out,
        "bench.warmup_windows",
        warm.windows as f64,
        "count",
    );
    m(
        &mut out,
        "bench.txn_samples",
        ph.sim_txn_ns.len() as f64,
        "count",
    );
    m(
        &mut out,
        "bench.read_samples",
        ph.sim_read_ns.len() as f64,
        "count",
    );
    out
}

/// Mean over the run's power cuts of one recovery time, in ms.
fn recovery_ms(ph: &Phase, f: impl Fn(&Recovery) -> u64) -> f64 {
    let total: u64 = ph.recoveries.iter().map(f).sum();
    ratio(total as f64 / 1e6, ph.recoveries.len() as f64)
}

/// Share of mapping lookups served from RAM over the prefix (1 when the
/// mapping is fully resident and no lookup missed).
pub fn map_hit_rate(ph: &Phase) -> f64 {
    (ph.after.ftl - ph.before.ftl)
        .map_cache_hit_rate()
        .unwrap_or(1.0)
}

/// Checks the traced run's span accounting: device spans nest inside
/// database spans on the SQL workloads, and no self time is negative.
pub fn check_spans(ph: &Phase, sql: bool) -> Result<(), String> {
    let dev = ph.traced_dev;
    let db = ph.traced_db;
    if db.nested_dev_ns > db.host_ns {
        return Err(format!(
            "device time inside database calls ({} ns) exceeds their span ({} ns)",
            db.nested_dev_ns, db.host_ns
        ));
    }
    if sql && dev.host_ns != db.nested_dev_ns {
        return Err(format!(
            "{} ns of device time ran outside any database call",
            dev.host_ns - db.nested_dev_ns
        ));
    }
    let spans = db.host_ns + (dev.host_ns - db.nested_dev_ns);
    if spans > ph.traced_wall_ns {
        return Err(format!(
            "spans ({spans} ns) exceed the traced windows' wall time ({} ns)",
            ph.traced_wall_ns
        ));
    }
    Ok(())
}

/// The result line: one JSON object.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|mt| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                mt.name,
                json_number(mt.value),
                mt.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite number as JSON; a non-finite one (which no metric should
/// produce) as `null`, so the line stays parseable.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
