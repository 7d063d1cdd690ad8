//! `replay`: the paper's full feature set served as a stream.
//!
//! Set-up trains a `FeatureSpec::all()` GBDT champion on DS1 of each of
//! [`INPUTS`] sub-seeded scaled traces; the timed phase is
//! `streamd::serve::serve` over each DS1 test window at
//! `ServeConfig::window` defaults, with history replayed from minute 0.
//! Telemetry queries inside batch flushes do nearly all the work; `sbed`
//! and `driftd` do none.

use crate::report::Outcome;
use crate::setup::{self, BoxResult, Champion, Reference};
use crate::stats::Ledger;
use crate::steps::{self, traced_pass};
use sbepred::features::FeatureSpec;
use streamd::serve::{serve, NullSink, ScoredLaunch, ServeConfig};

/// Trace length. The test window is 2 days; every flush's telemetry
/// query re-simulates its slots over the whole trace, so a pass costs
/// about the square of this.
pub const DAYS: u32 = 30;
/// Independent inputs (trace + champion) of an untraced run: their
/// set-up times give `setup_s` as a median, and their passes are timed
/// round-robin, so one machine's offender share does not set the figure.
pub const INPUTS: usize = 5;

/// Mismatches between a serve output and the batch reference.
fn gate(scored: &[ScoredLaunch], reference: &Reference) -> u64 {
    let mut wrong = scored.len().abs_diff(reference.len()) as u64;
    for s in scored {
        match reference.get(&(s.aprun, s.node)) {
            Some(&(p, pred)) if p.to_bits() == s.probability.to_bits() && pred == s.predicted => {}
            _ => wrong += 1,
        }
    }
    wrong
}

fn serve_pass(c: &Champion, cfg: &ServeConfig) -> BoxResult<Vec<ScoredLaunch>> {
    Ok(serve(&c.trace, &c.artifact, cfg, &mut NullSink)?.scored)
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> BoxResult<Outcome> {
    let k = if traced { 1 } else { INPUTS };
    let (champions, times) = setup::train_set(seed, DAYS, FeatureSpec::all(), k)?;
    let cfgs: Vec<ServeConfig> = champions
        .iter()
        .map(|c| ServeConfig::window(c.test_window.0, c.test_window.1))
        .collect();
    let mut out = Outcome::default();
    out.context(
        "offenders",
        champions
            .iter()
            .map(|c| c.artifact.offenders().len())
            .sum::<usize>() as f64,
    );
    out.context("trace_days", f64::from(DAYS));
    out.context("inputs", k as f64);

    if !traced {
        // Every pass is timed and checked against its batch reference.
        let requests: Vec<u64> = champions.iter().map(|c| c.reference.len() as u64).collect();
        let mut stage2 = vec![0u64; k];
        let (mut attempted, mut wrong) = (0u64, 0u64);
        let passes = steps::round_robin(k, seconds, 2, |i| {
            let (scored, pass) = steps::timed(|| serve_pass(&champions[i], &cfgs[i]));
            let scored = scored?;
            attempted += scored.len() as u64;
            wrong += gate(&scored, &champions[i].reference);
            stage2[i] = scored.iter().filter(|s| s.stage2).count() as u64;
            Ok(pass)
        })?;
        out.attempted += attempted;
        out.fail(
            wrong,
            "replay scores differ from the batch run_classifier reference",
        );
        out.context("requests_per_round", requests.iter().sum::<u64>() as f64);
        out.context("stage2_per_round", stage2.iter().sum::<u64>() as f64);
        out.context("rounds", passes[0].len() as f64);
        out.set(
            "samples_per_s",
            steps::throughput(&requests, &passes, |p| p.wall),
        );
        out.set(
            "samples_per_cpu_s",
            steps::throughput(&requests, &passes, |p| p.cpu),
        );
        out.set("setup_s", times.total_s);
        return Ok(out);
    }

    let (champion, cfg) = (&champions[0], &cfgs[0]);
    let first = serve_pass(champion, cfg)?;
    out.attempted += first.len() as u64;
    out.fail(
        gate(&first, &champion.reference),
        "replay scores differ from the batch run_classifier reference",
    );
    out.context("requests", first.len() as f64);
    out.context("stage2", first.iter().filter(|s| s.stage2).count() as f64);
    let (untraced, pass) = steps::timed(|| serve_pass(champion, cfg));
    untraced?;
    let untraced_s = pass.wall;
    let mut ledger = Ledger::start();
    let (scored, counts) =
        traced_pass(&champion.trace, &champion.artifact, cfg, true, &mut ledger)?;
    let (wall, residual) = ledger.close()?;
    out.attempted += scored.len() as u64;
    if !steps::same_scores(&scored, &first) {
        out.fail(
            scored.len() as u64,
            "the traced StepScorer pass differs from serve",
        );
    }
    let (serial_scored, serial) = steps::serially(|| steps::timed(|| serve_pass(champion, cfg)));
    let (serial_scored, serial_s) = (serial_scored?, serial.wall);
    if !steps::same_scores(&serial_scored, &first) {
        out.fail(serial_scored.len() as u64, "serve at SBE_THREADS=1 differs");
    }

    out.setup_layers(&times);
    let query_s = ledger.get(steps::REQUERY);
    let flush_s = ledger.get(steps::FLUSH);
    out.set("titan_sim.telemetry_query_s", query_s);
    out.set("titan_sim.telemetry_queries", counts.queries as f64);
    out.set(
        "titan_sim.slots_per_query",
        counts.query_slots as f64 / counts.queries.max(1) as f64,
    );
    out.set("titan_sim.event_stream_s", ledger.get(steps::EVENT_STREAM));
    out.set("streamd.step_s", ledger.get(steps::STEP));
    out.set("streamd.flush_s", flush_s);
    out.set("streamd.flushes", counts.flushes as f64);
    out.set(
        "streamd.rows_per_flush",
        counts.n_stage2 as f64 / counts.flushes.max(1) as f64,
    );
    out.set("streamd.flush_other_s", flush_s - query_s);
    out.set(
        "streamd.stage2_share",
        counts.n_stage2 as f64 / counts.n_requests.max(1) as f64,
    );
    out.set("parkit.serial_ratio", untraced_s / serial_s);
    out.set("residual_s", residual);
    out.set("trace_overhead", wall / untraced_s);
    out.context("traced_wall_s", wall);
    out.context("untraced_pass_s", untraced_s);
    out.context("serial_pass_s", serial_s);
    out.absent_layers(
        &["sbed", "driftd", "obskit"],
        "the replay path does not run this layer",
    );
    Ok(out)
}
