//! Property-based tests for the simulator substrate.

use parkit::Threads;
use proptest::prelude::*;
use std::sync::OnceLock;
use titan_sim::config::SimConfig;
use titan_sim::engine::{generate, SampleTelemetry, TelemetryQueryEngine};
use titan_sim::rng::{derive_seed_indexed, OuProcess, XorShift64};
use titan_sim::schedule::ApRunId;
use titan_sim::telemetry::{window_stats, SeriesKind};
use titan_sim::topology::{NodeId, Topology};
use titan_sim::trace::TraceSet;

/// One short tiny trace per thread policy (Serial, Fixed(2), Fixed(8)).
/// Generation is thread-invariant, so the traces differ only in the
/// policy their query engines fan slots out with.
fn policy_traces() -> &'static [TraceSet; 3] {
    static TRACES: OnceLock<[TraceSet; 3]> = OnceLock::new();
    TRACES.get_or_init(|| {
        [Threads::Serial, Threads::Fixed(2), Threads::Fixed(8)].map(|threads| {
            let mut cfg = SimConfig::tiny(23).with_threads(threads);
            cfg.days = 6;
            generate(&cfg).expect("generates")
        })
    })
}

/// The policy traces' data after a `serde_json` round trip. Checkpoints
/// are not serialized, so an engine over this trace replays every slot
/// from minute 0: the reference the resumed engines are held to.
fn loaded_trace() -> &'static TraceSet {
    static LOADED: OnceLock<TraceSet> = OnceLock::new();
    LOADED.get_or_init(|| {
        let json = serde_json::to_string(&policy_traces()[0]).expect("serializes");
        serde_json::from_str(&json).expect("deserializes")
    })
}

/// Minutes at, one before and one after each of the eight telemetry
/// checkpoints a generated trace holds per slot, which stand evenly
/// spaced at stride `⌈horizon / 9⌉`.
fn checkpoint_edges(horizon: u64) -> Vec<u64> {
    let stride = horizon.div_ceil(9);
    (1..=8)
        .flat_map(|i| [i * stride - 1, i * stride, i * stride + 1])
        .collect()
}

/// Every field of a telemetry answer, floats as raw bits.
fn telemetry_bits(answers: &[SampleTelemetry]) -> Vec<u32> {
    let mut bits = Vec::new();
    for st in answers {
        bits.extend([st.aprun.0, st.node.0]);
        let windows = [
            st.run_temp,
            st.run_power,
            st.cpu_temp,
            st.nei_temp,
            st.nei_power,
        ];
        for w in windows.iter().chain(&st.prev_temp).chain(&st.prev_power) {
            bits.extend([w.mean, w.std, w.diff_mean, w.diff_std].map(f32::to_bits));
        }
    }
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_node_maps_into_exactly_one_slot_and_cabinet(
        gx in 1u16..8, gy in 1u16..8, cages in 1u16..4, slots in 1u16..5, nodes in 1u16..5,
    ) {
        let topo = Topology::new(gx, gy, cages, slots, nodes).expect("valid");
        let mut slot_counts = vec![0u32; topo.n_slots() as usize];
        for node in topo.nodes() {
            let slot = topo.slot_of(node).expect("in range");
            slot_counts[slot.0 as usize] += 1;
            let cab = topo.cabinet_index(node).expect("in range");
            prop_assert!(cab < topo.n_cabinets());
        }
        for c in slot_counts {
            prop_assert_eq!(c, nodes as u32);
        }
    }

    #[test]
    fn slot_members_partition_the_machine(
        gx in 1u16..6, gy in 1u16..4, slots in 1u16..4, nodes in 1u16..5,
    ) {
        let topo = Topology::new(gx, gy, 1, slots, nodes).expect("valid");
        let mut seen = vec![false; topo.n_nodes() as usize];
        for slot in topo.slots() {
            for m in topo.slot_members(slot).expect("valid slot") {
                prop_assert!(!seen[m.0 as usize], "node in two slots");
                seen[m.0 as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn derived_seeds_rarely_collide(a in 0u64..5000, b in 0u64..5000) {
        prop_assume!(a != b);
        prop_assert_ne!(
            derive_seed_indexed(42, "stream", a),
            derive_seed_indexed(42, "stream", b)
        );
    }

    #[test]
    fn xorshift_streams_with_same_seed_agree(seed in 1u64..u64::MAX) {
        let mut a = XorShift64::new(seed);
        let mut b = XorShift64::new(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ou_process_stays_finite(
        theta in 0.01f64..1.0,
        mu in -100.0f64..100.0,
        sigma in 0.0f64..10.0,
        seed in 1u64..1000,
    ) {
        let mut rng = XorShift64::new(seed);
        let mut ou = OuProcess::new(theta, mu, sigma);
        for _ in 0..500 {
            let v = ou.step(&mut rng);
            prop_assert!(v.is_finite());
            // Stationary sd is sigma / sqrt(theta(2-theta)); 12 sds is a
            // generous bound.
            let bound = mu.abs() + 1.0 + 12.0 * sigma / (theta * (2.0 - theta)).sqrt();
            prop_assert!(v.abs() <= bound, "value {v} beyond {bound}");
        }
    }

    #[test]
    fn window_stats_shift_invariance(
        xs in prop::collection::vec(0.0f32..50.0, 2..100),
        shift in -100.0f32..100.0,
    ) {
        let base = window_stats(&xs);
        let shifted: Vec<f32> = xs.iter().map(|&v| v + shift).collect();
        let s = window_stats(&shifted);
        // Mean shifts, spread and differences are invariant.
        prop_assert!((s.mean - (base.mean + shift)).abs() < 1e-2);
        prop_assert!((s.std - base.std).abs() < 1e-2);
        prop_assert!((s.diff_mean - base.diff_mean).abs() < 1e-2);
        prop_assert!((s.diff_std - base.diff_std).abs() < 1e-2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The query engine resumes each slot from a kept state or from the
    /// trace's checkpoints; whatever order batches arrive in, each answer
    /// must equal that of a fresh engine over the checkpoint-free loaded
    /// trace, which replays from minute 0. Probes between batches start
    /// on a checkpoint minute or one minute either side of it.
    #[test]
    fn resumed_queries_equal_a_fresh_engine_per_call(
        picks in prop::collection::vec(
            prop::collection::vec(0usize..1_000_000, 1..6),
            1..5,
        ),
        order in 0u8..4,
        probes in prop::collection::vec((0usize..24, 1u64..200), 1..5),
    ) {
        let loaded = loaded_trace();
        let edges = checkpoint_edges(loaded.config().total_minutes());
        for trace in policy_traces() {
            let samples = trace.samples();
            let mut batches: Vec<Vec<(ApRunId, NodeId)>> = picks
                .iter()
                .map(|batch| {
                    batch
                        .iter()
                        .map(|&ix| {
                            let s = &samples[ix % samples.len()];
                            (s.aprun, s.node)
                        })
                        .collect()
                })
                .collect();
            let start = |p: &(ApRunId, NodeId)| trace.aprun(p.0).expect("valid id").start_min;
            match order {
                // Time-ordered or reversed: the same pairs re-chunked in
                // the same batch sizes after sorting by run start. Reversed
                // windows start before the kept states, forcing restarts.
                0 | 1 => {
                    let sizes: Vec<usize> = batches.iter().map(Vec::len).collect();
                    let mut flat: Vec<_> = batches.concat();
                    flat.sort_by_key(start);
                    if order == 1 {
                        flat.reverse();
                    }
                    let mut rest = flat.as_slice();
                    batches = sizes
                        .iter()
                        .map(|&n| {
                            let (batch, tail) = rest.split_at(n);
                            rest = tail;
                            batch.to_vec()
                        })
                        .collect();
                }
                // Shuffled: batches as drawn.
                2 => {}
                // Repeated pairs: every batch is asked twice in a row.
                _ => batches = batches.iter().flat_map(|b| [b.clone(), b.clone()]).collect(),
            }
            let engine = TelemetryQueryEngine::new(trace).expect("engine builds");
            let fresh = || TelemetryQueryEngine::new(loaded).expect("engine builds");
            for (i, batch) in batches.iter().enumerate() {
                let resumed = engine.query(batch).expect("queries");
                let reference = fresh().query(batch).expect("queries");
                prop_assert_eq!(telemetry_bits(&resumed), telemetry_bits(&reference));
                if let Some(&(edge, len)) = probes.get(i) {
                    let lo = edges[edge];
                    let node = batch[0].1;
                    for kind in [SeriesKind::GpuTemp, SeriesKind::GpuPower, SeriesKind::CpuTemp] {
                        let resumed = engine.node_series(node, kind, lo, lo + len).expect("probes");
                        let reference = fresh().node_series(node, kind, lo, lo + len).expect("probes");
                        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        prop_assert_eq!(bits(&resumed), bits(&reference));
                    }
                }
            }
        }
    }
}

// Non-proptest cross-checks that are too slow to randomise widely.
#[test]
fn tiny_trace_invariants_hold_across_seeds() {
    for seed in [1u64, 17, 123] {
        let trace = titan_sim::engine::generate(&SimConfig::tiny(seed)).expect("generates");
        let horizon = trace.config().total_minutes();
        for run in trace.apruns() {
            assert!(run.end_min <= horizon);
            assert!(!run.nodes.is_empty());
        }
        // Every sample's aprun/node pair is consistent with the schedule.
        for s in trace.samples() {
            let run = trace.aprun(s.aprun).expect("valid id");
            assert!(run.nodes.contains(&s.node));
            assert!(s.avg_gpu_temp_c > 0.0);
            assert!(s.avg_gpu_power_w > 0.0);
        }
    }
}

#[test]
fn slot_range_queries_compose() {
    let trace = generate(&SimConfig::tiny(5)).expect("generates");
    let horizon = trace.config().total_minutes();
    let mid = horizon / 2;
    // A fresh engine per query: the full horizon replays from minute 0 and
    // the second half resumes from a generation checkpoint.
    let query = |lo, hi| {
        let engine = TelemetryQueryEngine::new(&trace).expect("engine builds");
        let xs = engine
            .node_series(NodeId(0), SeriesKind::GpuPower, lo, hi)
            .expect("in range");
        xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    };
    let full = query(0, horizon);
    // Two half-range queries agree with the full range.
    assert_eq!(query(0, mid), &full[..mid as usize]);
    assert_eq!(query(mid, horizon), &full[mid as usize..]);
}
