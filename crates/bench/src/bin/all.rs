//! Regenerates every table and figure of the paper in one run, writing
//! `BENCH_all.json` next to the text tables. `--quick` runs a reduced
//! scale; `--smoke` runs the minimal CI scale that
//! `xtask bench-check` diffs against `BENCH_BASELINE.json`.
use xftl_bench::experiments::*;
use xftl_bench::{metrics, write_report, RunScale};

fn main() {
    let scale = RunScale::from_args();
    metrics::reset();
    let syn = match scale {
        RunScale::Full => synthetic_exp::SynScale::full(),
        RunScale::Quick => synthetic_exp::SynScale::quick(),
        RunScale::Smoke => synthetic_exp::SynScale::smoke(),
    };
    let sweep: Vec<usize> = match scale {
        RunScale::Full => vec![1, 5, 10, 15, 20],
        RunScale::Quick => vec![1, 5, 20],
        RunScale::Smoke => vec![1, 5],
    };
    print!("{}", synthetic_exp::fig5(syn, &sweep));
    print!("{}", synthetic_exp::table1(syn));
    print!("{}", synthetic_exp::fig6(syn));
    let tr_scale = match scale {
        RunScale::Full => 1.0,
        RunScale::Quick => 0.05,
        RunScale::Smoke => 0.02,
    };
    print!("{}", android_exp::table2(tr_scale));
    print!("{}", android_exp::fig7(tr_scale));
    let tp = match scale {
        RunScale::Full => tpcc_exp::TpccExpScale::full(),
        RunScale::Quick => tpcc_exp::TpccExpScale::quick(),
        RunScale::Smoke => tpcc_exp::TpccExpScale::smoke(),
    };
    print!("{}", tpcc_exp::tables_3_4(tp));
    let fio = match scale {
        RunScale::Full => fio_exp::FioScale::full(),
        RunScale::Quick => fio_exp::FioScale::quick(),
        RunScale::Smoke => fio_exp::FioScale::smoke(),
    };
    print!("{}", fio_exp::fig8(fio));
    print!("{}", fio_exp::fig9(fio));
    print!("{}", channel_exp::channel_scaling(fio));
    let conc = match scale {
        RunScale::Full => concurrent_exp::ConcScale::full(),
        RunScale::Quick => concurrent_exp::ConcScale::quick(),
        RunScale::Smoke => concurrent_exp::ConcScale::smoke(),
    };
    print!("{}", concurrent_exp::concurrent_scaling(conc));
    let rec = match scale {
        RunScale::Full => recovery_exp::RecoveryScale::full(),
        RunScale::Quick => recovery_exp::RecoveryScale::quick(),
        RunScale::Smoke => recovery_exp::RecoveryScale::smoke(),
    };
    print!("{}", recovery_exp::table5(rec));
    let fl = match scale {
        RunScale::Full => fault_exp::FaultScale::full(),
        RunScale::Quick => fault_exp::FaultScale::quick(),
        RunScale::Smoke => fault_exp::FaultScale::smoke(),
    };
    print!("{}", fault_exp::fault_sweep(fl));
    print!("{}", ablation::all(scale != RunScale::Full));
    write_report("all", scale);
}
