//! The repository benchmark: one closed-loop workload per run, on the
//! simulated and the host clock.
//!
//! ```text
//! xftl-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the result line carries the end-to-end metrics; with
//! `--trace 1` the per-layer ones. Earlier lines of standard output list
//! every metric by name with its unit. The exit code is 0 for a clean run,
//! 1 when an operation failed or a read or the post-cut audit disagreed
//! with the model, 2 for a usage error and 3 when the run did not show the
//! layer profile its workload exists for. See `README.md` in this
//! directory for the workloads.

#![forbid(unsafe_code)]

mod dev;
mod measure;
mod report;
mod sql;
mod stack;
mod timed;

use std::process::ExitCode;

use xftl_core::XFtl;
use xftl_ftl::PageMappedFtl;

use crate::dev::{DevScale, DevWorkload};
use crate::measure::{timed_phase, warm_up, Failure, Plan, Workload};
use crate::report::Metric;
use crate::sql::{SqlScale, SqlWorkload};
use crate::timed::{host_ns, host_origin, Calibrator, Cpus, TraceSwitch};

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    SqlUpdateXftl,
    DevZipfXftl,
    SqlMixWal,
}

impl Which {
    pub const ALL: [Which; 3] = [Which::SqlUpdateXftl, Which::DevZipfXftl, Which::SqlMixWal];

    pub fn name(self) -> &'static str {
        match self {
            Which::SqlUpdateXftl => "sql_update_xftl",
            Which::DevZipfXftl => "dev_zipf_xftl",
            Which::SqlMixWal => "sql_mix_wal",
        }
    }

    fn parse(s: &str) -> Option<Which> {
        Which::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Run sizes: `Full` is the benchmark, `Tiny` the seconds-long version the
/// tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

fn sql_scale(which: Which, scale: Scale) -> SqlScale {
    let tiny = scale == Scale::Tiny;
    match which {
        // The table (about 1,100 pages) is four times the pager's 256
        // frames and fits the file-system cache.
        Which::SqlUpdateXftl => SqlScale {
            logical_pages: 6_500,
            cold_fill: 0.8,
            fs_cache_pages: 2_048,
            tuples: if tiny { 12_000 } else { 20_000 },
            read_share: 0.0,
            scan_rows: 0,
        },
        // The table (about 1,850 pages) is seven times the file-system
        // cache; WAL frames share that cache.
        _ => SqlScale {
            logical_pages: 5_000,
            cold_fill: 0.3,
            fs_cache_pages: 256,
            tuples: if tiny { 16_000 } else { 40_000 },
            read_share: 0.5,
            scan_rows: 100,
        },
    }
}

fn dev_scale(scale: Scale) -> DevScale {
    let tiny = scale == Scale::Tiny;
    DevScale {
        blocks: if tiny { 96 } else { 400 },
        // The mapping (one slab per 1,024 pages) is about six times the
        // cache budget.
        logical_pages: if tiny { 9_000 } else { 40_000 },
        map_budget: if tiny { 2 } else { 7 },
    }
}

fn plan(which: Which, scale: Scale) -> Plan {
    let tiny = scale == Scale::Tiny;
    // A warm-up window of `sql_mix_wal` spans several WAL checkpoints, so
    // where they fall does not decide whether the warm-up levelled off.
    let (warm_window, prefix) = match which {
        Which::SqlUpdateXftl => (1_000, 8_000),
        Which::DevZipfXftl => (4_000, 40_000),
        Which::SqlMixWal => (3_000, 8_000),
    };
    Plan {
        warm_window: if tiny { warm_window / 4 } else { warm_window },
        prefix: if tiny { prefix / 20 } else { prefix },
        cuts: if tiny { 4 } else { 16 },
        cut_gap: if tiny { 40 } else { 250 },
        window: if tiny { 50 } else { 250 },
    }
}

fn build(
    which: Which,
    scale: Scale,
    seed: u64,
    switch: &TraceSwitch,
) -> Result<Box<dyn Workload>, Failure> {
    Ok(match which {
        Which::SqlUpdateXftl => Box::new(SqlWorkload::<XFtl>::build(
            sql_scale(which, scale),
            seed,
            switch,
        )?),
        Which::SqlMixWal => Box::new(SqlWorkload::<PageMappedFtl>::build(
            sql_scale(which, scale),
            seed,
            switch,
        )?),
        Which::DevZipfXftl => Box::new(DevWorkload::build(dev_scale(scale), seed, switch)?),
    })
}

/// The layer profile each workload was chosen for.
fn guards(which: Which, layer: &[Metric]) -> Vec<String> {
    let get = |name: &str| {
        layer
            .iter()
            .find(|mt| mt.name == name)
            .map_or(f64::NAN, |mt| mt.value)
    };
    let checks: Vec<(&str, bool)> = match which {
        Which::SqlUpdateXftl => vec![
            (
                "fs.device_reads_per_txn == 0",
                get("fs.device_reads_per_txn") == 0.0,
            ),
            (
                "db.pager_reads_per_txn > 0",
                get("db.pager_reads_per_txn") > 0.0,
            ),
            ("ftl.map_hit_rate == 1", get("ftl.map_hit_rate") == 1.0),
        ],
        Which::DevZipfXftl => vec![
            ("ftl.map_hit_rate < 1", get("ftl.map_hit_rate") < 1.0),
            (
                "ftl.gc_copies_per_txn > 0",
                get("ftl.gc_copies_per_txn") > 0.0,
            ),
            (
                "core.commits_per_group_flush > 1",
                get("core.commits_per_group_flush") > 1.0,
            ),
        ],
        Which::SqlMixWal => vec![
            (
                "fs.device_reads_per_txn > 0",
                get("fs.device_reads_per_txn") > 0.0,
            ),
            (
                "core.xl2p_writes_per_txn == 0",
                get("core.xl2p_writes_per_txn") == 0.0,
            ),
            ("db.wal_checkpoints > 0", get("db.wal_checkpoints") > 0.0),
        ],
    };
    checks
        .into_iter()
        .filter(|(_, ok)| !ok)
        .map(|(name, _)| format!("layer-profile guard failed: {name}"))
        .collect()
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub which: Which,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut which = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                which =
                    Some(Which::parse(value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        which: which.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Set-ups per CPU in an untraced run; `setup_s` is the mean over CPUs
/// of each CPU's median.
const SETUPS_PER_CPU: usize = 2;

/// The outcome of one run.
#[derive(Debug)]
pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Guard or span-accounting violations: the run is not a valid
    /// measurement of what its workload is for.
    pub errors: Vec<String>,
    /// Power cuts whose recovery failed, and why.
    pub failed_recoveries: Vec<String>,
}

pub fn run(args: &Args, scale: Scale) -> Result<Outcome, (Failure, u64)> {
    let plan = plan(args.which, scale);
    let origin = host_origin();
    let switch = TraceSwitch::new(origin);
    let cpus = Cpus::allowed();
    let mut cal = Calibrator::new(origin);
    let repeats = if args.trace {
        1
    } else {
        SETUPS_PER_CPU * cpus.count()
    };
    let mut setup_s = Vec::new();
    let mut built: Option<(Box<dyn Workload>, _)> = None;
    for i in 0..repeats {
        // The previous stack is dropped first, so peak memory is one stack's.
        drop(built.take());
        let cpu = cpus.pin(i);
        let speed0 = cal.speed(3);
        let t0 = host_ns(origin);
        let mut w = build(args.which, scale, args.seed, &switch).map_err(|f| (f, 0))?;
        let warm = warm_up(w.as_mut(), &plan).map_err(|f| (f, 1))?;
        let raw_s = (host_ns(origin) - t0) as f64 / 1e9;
        let speed = (speed0 + cal.speed(3)) / 2.0;
        setup_s.push((cpu, raw_s * speed));
        built = Some((w, warm));
    }
    let Some((mut w, warm)) = built else {
        return Err((Failure("no set-up ran".into()), 0));
    };
    let warm_txns = w.issued();
    let ph = timed_phase(w.as_mut(), &plan, args.seconds, args.trace, &cpus, &mut cal)
        .map_err(|f| (f, warm_txns + 1))?;

    let end_to_end = report::end_to_end(&ph, &setup_s);
    let per_layer = report::per_layer(&ph, &warm);
    let mut errors = guards(args.which, &per_layer);
    if !warm.levelled {
        errors.push(format!(
            "warm-up did not level off in {} windows ({:.2} flash programs per transaction in the last)",
            warm.windows, warm.programs_per_txn
        ));
    }
    if args.trace {
        if let Err(e) = report::check_spans(&ph, args.which != Which::DevZipfXftl) {
            errors.push(format!("span accounting: {e}"));
        }
    }
    let unverified = ph.failed_recoveries.len() as u64 * w.audit_size();
    Ok(Outcome {
        end_to_end,
        per_layer,
        attempted: w.issued() + ph.recoveries.iter().map(|r| r.audited).sum::<u64>() + unverified,
        failed: w.mismatches() + ph.recoveries.iter().map(|r| r.lost).sum::<u64>() + unverified,
        errors,
        failed_recoveries: ph.failed_recoveries.into_iter().map(|f| f.0).collect(),
    })
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for mt in metrics {
        println!("{:<40} {:>16.4} {}", mt.name, mt.value, mt.unit);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xftl-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args, Scale::Full) {
        Ok(out) => out,
        Err((failure, attempted)) => {
            eprintln!("xftl-perfbench: {}: {}", args.which.name(), failure.0);
            println!("{}", report::result_json(false, attempted.max(1), 1, &[]));
            return ExitCode::from(1);
        }
    };
    println!("# workload {} seed {}", args.which.name(), args.seed);
    print_metrics("end to end", &out.end_to_end);
    print_metrics("per layer", &out.per_layer);
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!("{:<40} {:>16.4} ratio", "failed_frac", failed_frac);
    for e in out.failed_recoveries.iter().chain(&out.errors) {
        eprintln!("xftl-perfbench: {}: {e}", args.which.name());
    }
    if !out.errors.is_empty() {
        return ExitCode::from(3);
    }
    let correct = out.failed == 0;
    let metrics = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    println!(
        "{}",
        report::result_json(correct, out.attempted, out.failed, metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Workload;
    use xftl_trace::{parse_json, JsonValue};

    /// The metric names `BENCHMARK.json` lists under `key`.
    fn listed(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc = parse_json(&text).unwrap();
        let Some(JsonValue::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    fn names(metrics: &[Metric]) -> Vec<String> {
        metrics.iter().map(|m| m.name.clone()).collect()
    }

    fn tiny(which: Which, seed: u64, trace: bool) -> Args {
        Args {
            which,
            seed,
            seconds: 0.3,
            trace,
        }
    }

    fn clean_run(args: &Args) -> Outcome {
        let out = run(args, Scale::Tiny)
            .unwrap_or_else(|(f, _)| panic!("{}: {}", args.which.name(), f.0));
        assert_eq!(out.failed, 0, "{}", args.which.name());
        assert!(
            out.errors.is_empty(),
            "{}: {:?}",
            args.which.name(),
            out.errors
        );
        out
    }

    #[test]
    fn tiny_runs_emit_every_listed_metric() {
        for which in Which::ALL {
            let out = clean_run(&tiny(which, 3, true));
            assert_eq!(
                names(&out.end_to_end),
                listed("end_to_end"),
                "{}",
                which.name()
            );
            assert_eq!(
                names(&out.per_layer),
                listed("per_layer"),
                "{}",
                which.name()
            );
            assert!(out.attempted > 0);
        }
    }

    /// Host time, set-up time and memory vary between runs; everything
    /// else is simulated or counted and must repeat exactly.
    fn simulated(metrics: &[Metric]) -> Vec<(String, f64)> {
        metrics
            .iter()
            .filter(|m| {
                !(m.name.contains("host_")
                    || m.name == "bench.trace_overhead"
                    || m.name == "setup_s"
                    || m.name == "peak_rss_mb")
            })
            .map(|m| (m.name.clone(), m.value))
            .collect()
    }

    #[test]
    fn same_seed_repeats_simulated_metrics_and_counts() {
        for which in Which::ALL {
            let a = clean_run(&tiny(which, 5, false));
            let b = clean_run(&tiny(which, 5, true));
            assert_eq!(
                simulated(&a.end_to_end),
                simulated(&b.end_to_end),
                "{}",
                which.name()
            );
            assert_eq!(
                simulated(&a.per_layer),
                simulated(&b.per_layer),
                "{}",
                which.name()
            );
            let c = clean_run(&tiny(which, 6, false));
            assert_ne!(
                simulated(&a.end_to_end),
                simulated(&c.end_to_end),
                "{}",
                which.name()
            );
        }
    }

    #[test]
    fn corrupted_model_entry_is_counted_as_a_failure() {
        let switch = TraceSwitch::new(host_origin());
        let scale = sql_scale(Which::SqlUpdateXftl, Scale::Tiny);
        let mut w = SqlWorkload::<XFtl>::build(scale, 9, &switch).unwrap();
        w.corrupt_model(17);
        w.arm_cut();
        let mut acks = Vec::new();
        let rec = loop {
            w.step(&mut acks).unwrap();
            if let Some(rec) = w.recover_cut().unwrap() {
                break rec;
            }
        };
        assert_eq!(rec.audited, scale.tuples as u64);
        assert_eq!(rec.lost, 1, "the audit must flag exactly the corrupted row");
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload dev_zipf_xftl --seed 4 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!((ok.which, ok.seed, ok.trace), (Which::DevZipfXftl, 4, true));
        for bad in [
            "--workload nope --seed 4 --seconds 10 --trace 1",
            "--workload dev_zipf_xftl --seed x --seconds 10 --trace 1",
            "--workload dev_zipf_xftl --seed 4 --seconds 0 --trace 1",
            "--workload dev_zipf_xftl --seed 4 --seconds 10 --trace 2",
            "--workload dev_zipf_xftl --seed 4 --seconds 10",
            "--workload dev_zipf_xftl --seed 4 --seconds 10 --trace 1 --extra 1",
            "--workload dev_zipf_xftl --seed 4 --seconds 10 --trace 1 --scale tiny",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
