//! Prints the calibration statistics DESIGN.md §5 requires of the
//! simulator, for the tiny and scaled presets.
//!
//! Run with `cargo run --release -p titan-sim --example calibrate`.

use std::collections::BTreeMap;
use titan_sim::config::SimConfig;
use titan_sim::engine::generate_full;

fn report(name: &str, cfg: &SimConfig) {
    let t0 = std::time::Instant::now();
    let (trace, faults) =
        generate_full(cfg, &mut obskit::Recorder::null()).expect("generation succeeds");
    let elapsed = t0.elapsed();
    let samples = trace.samples();
    let positives = samples.iter().filter(|s| s.is_affected()).count();
    let offenders = trace.offender_nodes();
    let n_nodes = cfg.topology.n_nodes() as usize;

    // Within offender-node samples: positive ratio (stage-2 balance).
    let offender_set: std::collections::BTreeSet<u32> = offenders.iter().map(|n| n.0).collect();
    let on_offender: Vec<_> = samples
        .iter()
        .filter(|s| offender_set.contains(&s.node.0))
        .collect();
    let pos_on_offender = on_offender.iter().filter(|s| s.is_affected()).count();

    // App concentration: share of SBEs held by the top 20% of apps.
    let mut per_app: BTreeMap<u32, u64> = BTreeMap::new();
    for s in samples {
        let app = trace.app_of(s.aprun).expect("valid aprun");
        *per_app.entry(app.0).or_insert(0) += s.sbe_true as u64;
    }
    let mut counts: Vec<u64> = per_app.values().copied().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = counts.iter().sum();
    let top20: u64 = counts.iter().take(counts.len() / 5 + 1).sum();

    // Temperature / power shift between affected and free samples on
    // offender nodes.
    let mean = |aff: bool, f: &dyn Fn(&titan_sim::trace::SampleRecord) -> f64| -> f64 {
        let v: Vec<f64> = on_offender
            .iter()
            .filter(|s| s.is_affected() == aff)
            .map(|s| f(s))
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let dt = mean(true, &|s| s.avg_gpu_temp_c as f64) - mean(false, &|s| s.avg_gpu_temp_c as f64);
    let dp = mean(true, &|s| s.avg_gpu_power_w as f64) - mean(false, &|s| s.avg_gpu_power_w as f64);

    println!("== {name} ==  (generated in {elapsed:.1?})");
    println!(
        "  nodes={n_nodes} apruns={} samples={} jobs={}",
        trace.apruns().len(),
        samples.len(),
        trace.jobs().len()
    );
    println!(
        "  positive rate: {:.4}  (target ~0.02)",
        positives as f64 / samples.len().max(1) as f64
    );
    println!(
        "  offender nodes: {} ({:.1}% of nodes; weak ground truth {})",
        offenders.len(),
        100.0 * offenders.len() as f64 / n_nodes as f64,
        faults.n_weak()
    );
    println!(
        "  positives within offender samples: {:.3} (target ~0.33)",
        pos_on_offender as f64 / on_offender.len().max(1) as f64
    );
    println!(
        "  top-20% apps hold {:.1}% of SBEs (target >90%)",
        100.0 * top20 as f64 / total.max(1) as f64
    );
    println!("  affected-vs-free temp shift: {dt:+.2} C (target ~+3)");
    println!("  affected-vs-free power shift: {dp:+.2} W (target ~+15)");
    let util = trace.schedule().utilization(n_nodes, cfg.total_minutes());
    println!("  utilization: {util:.2}");
}

fn main() {
    for seed in [1u64, 2, 3] {
        report(&format!("tiny seed {seed}"), &SimConfig::tiny(seed));
    }
    report("scaled seed 42", &SimConfig::scaled(42));
}
