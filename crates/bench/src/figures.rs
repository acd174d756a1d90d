//! Shared figure drivers (Figures 9–17 differ only in corpus or axis).
//!
//! Every driver funnels through [`run_system`], so its TSV data rows are
//! bit-identical at every `--threads` value; the thread count appears
//! only in the `# threads` comment. `--engines` gates the row-oriented
//! figures (9–12, 16); the column-style comparisons (13–15, 17) always
//! simulate the systems they compare, since each column normalizes
//! against another.

use crate::{
    boss_engine, f, geomean, header, iiu_engine, lucene_engine, row, run_system, BenchArgs,
    BenchTarget, SystemRun, TypedSuite,
};
use boss_core::power::AreaPowerModel;
use boss_core::{EtMode, QueryAlgorithm};
use boss_scm::{AccessCategory, MemoryConfig};
use boss_workload::queries::QueryType;

/// Core counts swept by Figures 9–12.
pub const CORE_SWEEP: [u32; 4] = [1, 2, 4, 8];

/// The dynamic-pruning plans must be opt-in only: under the default
/// `--algorithm exhaustive`, no simulated system may book pruning work,
/// i.e. the figures' counts are unchanged from before pruning existed.
fn assert_exhaustive_untouched(args: &BenchArgs, system: &str, run: &SystemRun) {
    if args.tuning.algorithm == QueryAlgorithm::Exhaustive {
        assert_eq!(
            (run.eval.blocks_skipped_prune, run.eval.docs_skipped_prune),
            (0, 0),
            "exhaustive {system} run booked dynamic-pruning work"
        );
    }
}

/// Figures 9/10: per-query-type throughput of IIU and BOSS with 1/2/4/8
/// cores, normalized to 8-thread Lucene on SCM.
pub fn multicore_throughput(
    name: &str,
    target: &BenchTarget,
    suite: &TypedSuite,
    args: &BenchArgs,
) {
    let k = args.k;
    println!("# Figure 9/10 ({name}): throughput normalized to Lucene x8 on SCM");
    println!("# paper shape: BOSS ~7.5-8.7x at 8 cores, IIU ~1.7x, IIU flattens early");
    args.print_threads_comment();
    header(&["qtype", "system", "cores", "norm_throughput", "qps"]);
    let mut boss8_norms = Vec::new();
    let mut iiu8_norms = Vec::new();
    for (qt, queries) in &suite.per_type {
        // The Lucene baseline always runs: every row normalizes to it.
        let lucene = run_system(
            &lucene_engine(target, 8, MemoryConfig::host_scm_6ch(), &args.tuning),
            queries,
            k,
            args.threads,
        );
        let base = lucene.qps;
        if args.engines.lucene {
            row(&[
                qt.label().into(),
                "Lucene".into(),
                "8".into(),
                "1.00".into(),
                f(base),
            ]);
        }
        if args.engines.iiu {
            for &cores in &CORE_SWEEP {
                let iiu = run_system(
                    &iiu_engine(target, cores, MemoryConfig::optane_dcpmm(), &args.tuning),
                    queries,
                    k,
                    args.threads,
                );
                row(&[
                    qt.label().into(),
                    "IIU".into(),
                    cores.to_string(),
                    f(iiu.qps / base),
                    f(iiu.qps),
                ]);
                if cores == 8 {
                    iiu8_norms.push(iiu.qps / base);
                }
            }
        }
        if args.engines.boss {
            for &cores in &CORE_SWEEP {
                let boss = run_system(
                    &boss_engine(
                        target,
                        cores,
                        EtMode::Full,
                        MemoryConfig::optane_dcpmm(),
                        k,
                        &args.tuning,
                    ),
                    queries,
                    k,
                    args.threads,
                );
                row(&[
                    qt.label().into(),
                    "BOSS".into(),
                    cores.to_string(),
                    f(boss.qps / base),
                    f(boss.qps),
                ]);
                if cores == 8 {
                    boss8_norms.push(boss.qps / base);
                }
            }
        }
    }
    println!(
        "# geomean at 8 cores: BOSS {}x, IIU {}x (paper {}: BOSS 7.54x/8.7x, IIU 1.69x/1.75x)",
        f(geomean(&boss8_norms)),
        f(geomean(&iiu8_norms)),
        name
    );
}

/// Figures 11/12: achieved bandwidth (GB/s) of IIU and BOSS per query
/// type and core count.
pub fn bandwidth_utilization(
    name: &str,
    target: &BenchTarget,
    suite: &TypedSuite,
    args: &BenchArgs,
) {
    let k = args.k;
    println!("# Figure 11/12 ({name}): bandwidth utilization (GB/s)");
    println!("# paper shape: IIU consumes more bandwidth than BOSS at equal core counts");
    args.print_threads_comment();
    header(&[
        "qtype",
        "system",
        "cores",
        "bandwidth_gbps",
        "bytes_per_query_mb",
    ]);
    for (qt, queries) in &suite.per_type {
        for &cores in &CORE_SWEEP {
            let mut runs: Vec<(&str, SystemRun)> = Vec::new();
            if args.engines.iiu {
                runs.push((
                    "IIU",
                    run_system(
                        &iiu_engine(target, cores, MemoryConfig::optane_dcpmm(), &args.tuning),
                        queries,
                        k,
                        args.threads,
                    ),
                ));
            }
            if args.engines.boss {
                runs.push((
                    "BOSS",
                    run_system(
                        &boss_engine(
                            target,
                            cores,
                            EtMode::Full,
                            MemoryConfig::optane_dcpmm(),
                            k,
                            &args.tuning,
                        ),
                        queries,
                        k,
                        args.threads,
                    ),
                ));
            }
            for (label, run) in &runs {
                row(&[
                    qt.label().into(),
                    (*label).into(),
                    cores.to_string(),
                    f(run.bandwidth_gbps),
                    f(run.mem.total_bytes() as f64 / queries.len() as f64 / 1e6),
                ]);
            }
        }
    }
}

/// Figure 13: single-core throughput of Lucene / IIU / BOSS-exhaustive /
/// BOSS, normalized to 1-core Lucene on SCM.
pub fn single_core(name: &str, target: &BenchTarget, suite: &TypedSuite, args: &BenchArgs) {
    let k = args.k;
    println!("# Figure 13 ({name}): single-core throughput normalized to Lucene x1 on SCM");
    println!("# paper shape: BOSS > BOSS-exhaustive > IIU on most types; ET gain shrinks with union width, grows with intersection width");
    args.print_threads_comment();
    header(&["qtype", "Lucene", "IIU", "BOSS-exhaustive", "BOSS"]);
    for (qt, queries) in &suite.per_type {
        let lucene = run_system(
            &lucene_engine(target, 1, MemoryConfig::host_scm_6ch(), &args.tuning),
            queries,
            k,
            args.threads,
        );
        let base = lucene.qps;
        let iiu = run_system(
            &iiu_engine(target, 1, MemoryConfig::optane_dcpmm(), &args.tuning),
            queries,
            k,
            args.threads,
        );
        let ex = run_system(
            &boss_engine(
                target,
                1,
                EtMode::Exhaustive,
                MemoryConfig::optane_dcpmm(),
                k,
                &args.tuning,
            ),
            queries,
            k,
            args.threads,
        );
        let full = run_system(
            &boss_engine(
                target,
                1,
                EtMode::Full,
                MemoryConfig::optane_dcpmm(),
                k,
                &args.tuning,
            ),
            queries,
            k,
            args.threads,
        );
        row(&[
            qt.label().into(),
            "1.00".into(),
            f(iiu.qps / base),
            f(ex.qps / base),
            f(full.qps / base),
        ]);
    }
}

/// Figure 14: number of evaluated (scored) documents for the union query
/// types, normalized to IIU (which scores everything).
pub fn evaluated_docs(name: &str, target: &BenchTarget, suite: &TypedSuite, args: &BenchArgs) {
    let k = args.k;
    println!("# Figure 14 ({name}): evaluated documents, normalized to IIU (=1.0)");
    println!("# paper shape: block-only skips shrink as terms grow; WAND recovers them");
    args.print_threads_comment();
    header(&["qtype", "IIU", "BOSS-block-only", "BOSS"]);
    for (qt, queries) in &suite.per_type {
        if !matches!(qt, QueryType::Q1 | QueryType::Q3 | QueryType::Q5) {
            continue; // the paper plots the union types
        }
        let iiu = run_system(
            &iiu_engine(target, 1, MemoryConfig::optane_dcpmm(), &args.tuning),
            queries,
            k,
            args.threads,
        );
        let block = run_system(
            &boss_engine(
                target,
                1,
                EtMode::BlockOnly,
                MemoryConfig::optane_dcpmm(),
                k,
                &args.tuning,
            ),
            queries,
            k,
            args.threads,
        );
        let full = run_system(
            &boss_engine(
                target,
                1,
                EtMode::Full,
                MemoryConfig::optane_dcpmm(),
                k,
                &args.tuning,
            ),
            queries,
            k,
            args.threads,
        );
        assert_exhaustive_untouched(args, "IIU", &iiu);
        assert_exhaustive_untouched(args, "BOSS-block-only", &block);
        assert_exhaustive_untouched(args, "BOSS", &full);
        let base = iiu.eval.docs_scored.max(1) as f64;
        row(&[
            qt.label().into(),
            "1.00".into(),
            f(block.eval.docs_scored as f64 / base),
            f(full.eval.docs_scored as f64 / base),
        ]);
    }
    let _ = name;
}

/// Figure 15: memory access bytes by category, normalized to IIU's total.
pub fn memory_accesses(name: &str, target: &BenchTarget, suite: &TypedSuite, args: &BenchArgs) {
    let k = args.k;
    println!(
        "# Figure 15 ({name}): memory access volume by category, normalized to IIU total per type"
    );
    println!(
        "# paper shape: BOSS eliminates LD/ST Inter and ST Result, shrinks LD List + LD Score"
    );
    args.print_threads_comment();
    header(&[
        "qtype",
        "system",
        "ld_list",
        "ld_score",
        "ld_inter",
        "st_inter",
        "st_result",
        "total",
    ]);
    for (qt, queries) in &suite.per_type {
        let iiu = run_system(
            &iiu_engine(target, 1, MemoryConfig::optane_dcpmm(), &args.tuning),
            queries,
            k,
            args.threads,
        );
        let boss = run_system(
            &boss_engine(
                target,
                1,
                EtMode::Full,
                MemoryConfig::optane_dcpmm(),
                k,
                &args.tuning,
            ),
            queries,
            k,
            args.threads,
        );
        assert_exhaustive_untouched(args, "IIU", &iiu);
        assert_exhaustive_untouched(args, "BOSS", &boss);
        let base = iiu.mem.total_bytes().max(1) as f64;
        for (label, m) in [("IIU", &iiu.mem), ("BOSS", &boss.mem)] {
            let ld_list = m.bytes(AccessCategory::LdList) + m.bytes(AccessCategory::LdMeta);
            row(&[
                qt.label().into(),
                label.into(),
                f(ld_list as f64 / base),
                f(m.bytes(AccessCategory::LdScore) as f64 / base),
                f(m.bytes(AccessCategory::LdInter) as f64 / base),
                f(m.bytes(AccessCategory::StInter) as f64 / base),
                f(m.bytes(AccessCategory::StResult) as f64 / base),
                f(m.total_bytes() as f64 / base),
            ]);
        }
    }
    let _ = name;
}

/// Figure 16: all three systems on DRAM vs SCM, 8 cores, normalized to
/// Lucene x8 on SCM.
pub fn dram_vs_scm(name: &str, target: &BenchTarget, suite: &TypedSuite, args: &BenchArgs) {
    let k = args.k;
    println!("# Figure 16 ({name}): DRAM vs SCM at 8 cores, normalized to Lucene x8 on SCM");
    println!("# paper shape: Lucene barely moves (<=15%); IIU gains ~3.3x on DRAM, BOSS ~2.3x");
    args.print_threads_comment();
    header(&["qtype", "system", "memory", "norm_throughput"]);
    let mut ratios: Vec<(String, Vec<f64>, Vec<f64>)> = vec![
        ("Lucene".into(), vec![], vec![]),
        ("IIU".into(), vec![], vec![]),
        ("BOSS".into(), vec![], vec![]),
    ];
    for (qt, queries) in &suite.per_type {
        let base = run_system(
            &lucene_engine(target, 8, MemoryConfig::host_scm_6ch(), &args.tuning),
            queries,
            k,
            args.threads,
        )
        .qps;
        let mut runs: Vec<(&str, &str, SystemRun)> = Vec::new();
        if args.engines.lucene {
            runs.push((
                "Lucene",
                "SCM",
                run_system(
                    &lucene_engine(target, 8, MemoryConfig::host_scm_6ch(), &args.tuning),
                    queries,
                    k,
                    args.threads,
                ),
            ));
            runs.push((
                "Lucene",
                "DRAM",
                run_system(
                    &lucene_engine(target, 8, MemoryConfig::host_ddr4_6ch(), &args.tuning),
                    queries,
                    k,
                    args.threads,
                ),
            ));
        }
        if args.engines.iiu {
            runs.push((
                "IIU",
                "SCM",
                run_system(
                    &iiu_engine(target, 8, MemoryConfig::optane_dcpmm(), &args.tuning),
                    queries,
                    k,
                    args.threads,
                ),
            ));
            runs.push((
                "IIU",
                "DRAM",
                run_system(
                    &iiu_engine(target, 8, MemoryConfig::ddr4_2666(), &args.tuning),
                    queries,
                    k,
                    args.threads,
                ),
            ));
        }
        if args.engines.boss {
            runs.push((
                "BOSS",
                "SCM",
                run_system(
                    &boss_engine(
                        target,
                        8,
                        EtMode::Full,
                        MemoryConfig::optane_dcpmm(),
                        k,
                        &args.tuning,
                    ),
                    queries,
                    k,
                    args.threads,
                ),
            ));
            runs.push((
                "BOSS",
                "DRAM",
                run_system(
                    &boss_engine(
                        target,
                        8,
                        EtMode::Full,
                        MemoryConfig::ddr4_2666(),
                        k,
                        &args.tuning,
                    ),
                    queries,
                    k,
                    args.threads,
                ),
            ));
        }
        for (sys, mem_label, r) in &runs {
            row(&[
                qt.label().into(),
                (*sys).into(),
                (*mem_label).into(),
                f(r.qps / base),
            ]);
            let slot = ratios
                .iter_mut()
                .find(|(n, _, _)| n == sys)
                .expect("known system");
            if *mem_label == "SCM" {
                slot.1.push(r.qps);
            } else {
                slot.2.push(r.qps);
            }
        }
    }
    for (sys, scm, dram) in &ratios {
        if scm.is_empty() {
            continue;
        }
        let r: Vec<f64> = scm.iter().zip(dram).map(|(s, d)| d / s).collect();
        println!("# {sys}: DRAM/SCM geomean {}x", f(geomean(&r)));
    }
    let _ = name;
}

/// Figure 17: energy per query batch, normalized to Lucene x8 on SCM
/// (log-scale bars in the paper; we print the ratio).
pub fn energy(name: &str, target: &BenchTarget, suite: &TypedSuite, args: &BenchArgs) {
    let k = args.k;
    println!("# Figure 17 ({name}): energy normalized to Lucene x8 on SCM (lower is better)");
    println!("# paper shape: BOSS ~189x less energy on average");
    args.print_threads_comment();
    header(&["qtype", "lucene_j", "boss_j", "savings_x"]);
    let model = AreaPowerModel::new(8);
    let mut savings = Vec::new();
    for (qt, queries) in &suite.per_type {
        let lucene = run_system(
            &lucene_engine(target, 8, MemoryConfig::host_scm_6ch(), &args.tuning),
            queries,
            k,
            args.threads,
        );
        let boss = run_system(
            &boss_engine(
                target,
                8,
                EtMode::Full,
                MemoryConfig::optane_dcpmm(),
                k,
                &args.tuning,
            ),
            queries,
            k,
            args.threads,
        );
        let e_lucene = AreaPowerModel::host_energy_joules(lucene.seconds);
        let e_boss = model.device_power_w() * boss.seconds;
        let s = e_lucene / e_boss.max(1e-12);
        savings.push(s);
        row(&[qt.label().into(), f(e_lucene), f(e_boss), f(s)]);
    }
    println!(
        "# geomean savings {}x (paper: 189x average)",
        f(geomean(&savings))
    );
    let _ = name;
}
