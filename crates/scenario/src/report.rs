//! The scenario-grid bench report (`BENCH_scenario.json`).
//!
//! Mirrors the repo's other perf-trajectory artifacts (`BENCH_margin`,
//! `BENCH_sim`, `BENCH_astar`): a machine-readable record produced by the
//! `mh bench scenario`, committed at the repo root
//! and structure-diffed by CI against a fresh reduced-grid run. The
//! builder **asserts bit-identical traces** between the columnar engine
//! and `sim::reference` on every scenario of the equivalence grid before
//! reporting any timing — a drifting engine can never produce a
//! plausible-looking baseline.

use serde::Serialize;

use multihonest_core::pool;
use multihonest_sim::{Simulation, Strategy};

use crate::engine::Execution;
use crate::scenario::{scenario_library, Scenario};
use crate::{execution_fingerprint, ColumnarSchedule};

/// One scenario's row in the grid sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioRow {
    /// Scenario name (unique within the library).
    pub name: String,
    /// Compiled strategy name.
    pub strategy: String,
    /// Network schedule name.
    pub schedule: String,
    /// Withholding release lag `L`.
    pub release_lag: usize,
    /// Network delay bound Δ.
    pub delta: usize,
    /// Honest nodes.
    pub honest_nodes: usize,
    /// Simulated slots.
    pub slots: usize,
    /// Wall-clock seconds for the columnar run (including the online
    /// divergence fold).
    pub run_seconds: f64,
    /// Millions of slots executed per wall-clock second.
    pub mslots_per_second: f64,
    /// Blocks minted (excluding genesis).
    pub blocks: usize,
    /// Final best-chain height.
    pub final_height: usize,
    /// Chain quality (honest fraction of the final chain).
    pub chain_quality: f64,
    /// Recorded honest rollbacks.
    pub rollbacks: usize,
    /// Largest observed settlement lag (`-1` when none).
    pub max_settlement_lag: i64,
    /// Violating anchors at each of the report's `ks`.
    pub violating_anchors: Vec<usize>,
    /// The execution fingerprint (see `execution_fingerprint`).
    pub fingerprint: u64,
}

/// The full scenario bench report.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioBenchReport {
    /// Schema tag for downstream tooling.
    pub schema: String,
    /// What was timed.
    pub name: String,
    /// Worker threads used for the grid fan-out.
    pub threads: usize,
    /// Execution seed shared by every run.
    pub seed: u64,
    /// Settlement parameters swept per scenario.
    pub ks: Vec<usize>,
    /// Slots of the equivalence grid replayed on both engines.
    pub equivalence_slots: usize,
    /// Scenarios asserted bit-identical between the engines.
    pub equivalence_scenarios: usize,
    /// Reference-engine seconds summed over the equivalence grid.
    pub reference_seconds: f64,
    /// Columnar-engine seconds summed over the equivalence grid.
    pub columnar_seconds: f64,
    /// `reference_seconds / columnar_seconds` on identical work.
    pub speedup: f64,
    /// Slots of each grid row.
    pub grid_slots: usize,
    /// The thread-parallel scenario sweep.
    pub rows: Vec<ScenarioRow>,
    /// Slots of the single-run throughput headline.
    pub million_slots: usize,
    /// Wall-clock seconds of the throughput headline (a
    /// `PrivateWithholding` execution — the acceptance bar).
    pub million_run_seconds: f64,
    /// Headline slots per wall-clock second.
    pub million_slots_per_second: f64,
    /// Seconds since the Unix epoch when the run finished.
    pub unix_time_seconds: u64,
}

/// Asserts one scenario's columnar run is trace-identical to the
/// reference engine, returning `(reference seconds, columnar seconds)`.
fn assert_equivalent(sc: &Scenario, seed: u64) -> (f64, f64) {
    let ref_schedule = sc.reference_schedule(seed);
    let mut ref_strategy = sc.strategy();
    let ref_start = std::time::Instant::now();
    let reference = Simulation::run_with_schedule(&sc.config, ref_schedule, ref_strategy.as_mut());
    let ref_seconds = ref_start.elapsed().as_secs_f64();

    let col_schedule = sc.schedule(seed);
    let mut col_strategy = sc.strategy();
    let col_start = std::time::Instant::now();
    let (columnar, _) = Execution::new(&sc.config, &col_schedule, col_strategy.as_mut()).trace();
    let col_seconds = col_start.elapsed().as_secs_f64();

    for t in 1..=sc.config.slots {
        let expect: Vec<u32> = reference
            .tips_at(t)
            .iter()
            .map(|b| b.index() as u32)
            .collect();
        assert_eq!(
            columnar.tips_at(t),
            expect.as_slice(),
            "{}: tip trace diverged at slot {t}",
            sc.name
        );
    }
    let expect_rb: Vec<(u32, u32, u32)> = reference
        .rollbacks()
        .iter()
        .map(|&(t, o, n)| (t as u32, o.index() as u32, n.index() as u32))
        .collect();
    assert_eq!(
        columnar.rollbacks(),
        expect_rb.as_slice(),
        "{}: rollback trace diverged",
        sc.name
    );
    assert_eq!(
        columnar.metrics(),
        reference.metrics(),
        "{}: metrics diverged",
        sc.name
    );
    assert_eq!(
        columnar.divergence_index(),
        reference.divergence_index(),
        "{}: settlement index diverged",
        sc.name
    );
    (ref_seconds, col_seconds)
}

/// Builds the scenario bench report: (1) replays every library scenario
/// at `equivalence_slots` on **both** engines and asserts bit-identical
/// tip/rollback/metric/settlement traces, (2) sweeps the grid at
/// `grid_slots` thread-parallel on the columnar engine, and (3) times the
/// acceptance-bar throughput run (`million_slots` of
/// `PrivateWithholding`).
///
/// # Panics
///
/// Panics if any scenario's traces diverge between the engines.
pub fn scenario_bench_report(
    equivalence_slots: usize,
    grid_slots: usize,
    million_slots: usize,
    seed: u64,
    ks: &[usize],
    threads: usize,
) -> ScenarioBenchReport {
    // 1. Equivalence grid (serial: the reference engine is the cost here,
    //    and the assertion must see deterministic scenario order anyway).
    let equiv = scenario_library(equivalence_slots);
    let mut reference_seconds = 0.0;
    let mut columnar_seconds = 0.0;
    for sc in &equiv {
        let (r, c) = assert_equivalent(sc, seed);
        reference_seconds += r;
        columnar_seconds += c;
    }

    // 2. The thread-parallel scenario sweep.
    let grid = scenario_library(grid_slots);
    let rows = pool::map(grid.len(), threads, |i| {
        let sc = &grid[i];
        let schedule = sc.schedule(seed);
        let mut strategy = sc.strategy();
        let start = std::time::Instant::now();
        let (sim, _) = Execution::new(&sc.config, &schedule, strategy.as_mut()).trace();
        let run_seconds = start.elapsed().as_secs_f64();
        let m = *sim.metrics();
        ScenarioRow {
            name: sc.name.to_string(),
            strategy: sc.strategy().name().to_string(),
            schedule: sc.net.name().to_string(),
            release_lag: sc.release_lag,
            delta: sc.config.delta,
            honest_nodes: sc.config.honest_nodes,
            slots: sc.config.slots,
            run_seconds,
            mslots_per_second: sc.config.slots as f64 / 1e6 / run_seconds.max(f64::MIN_POSITIVE),
            blocks: sim.store().len() - 1,
            final_height: m.final_height,
            chain_quality: m.chain_quality(),
            rollbacks: m.rollback_count,
            max_settlement_lag: m.max_settlement_lag.map_or(-1, |l| l as i64),
            violating_anchors: ks
                .iter()
                .map(|&k| sim.count_violating_slots(k, sc.config.slots))
                .collect(),
            fingerprint: execution_fingerprint(&sim),
        }
    });

    // 3. The acceptance-bar throughput headline: a streaming
    //    million-slot PrivateWithholding execution.
    let headline_cfg = headline_config(million_slots);
    let schedule = ColumnarSchedule::for_config(&headline_cfg, seed);
    let mut strategy = headline_cfg.strategy.instantiate();
    let start = std::time::Instant::now();
    let (metrics, _, _) = Execution::new(&headline_cfg, &schedule, strategy.as_mut()).stream();
    let million_run_seconds = start.elapsed().as_secs_f64();
    assert_eq!(metrics.slots, million_slots);

    ScenarioBenchReport {
        schema: "multihonest-bench-scenario/v1".to_string(),
        name: "scenario_grid".to_string(),
        threads,
        seed,
        ks: ks.to_vec(),
        equivalence_slots,
        equivalence_scenarios: equiv.len(),
        reference_seconds,
        columnar_seconds,
        speedup: reference_seconds / columnar_seconds.max(f64::MIN_POSITIVE),
        grid_slots,
        rows,
        million_slots,
        million_run_seconds,
        million_slots_per_second: million_slots as f64 / million_run_seconds.max(f64::MIN_POSITIVE),
        unix_time_seconds: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
    }
}

/// The configuration of the throughput headline: the library's
/// `private-withholding` scenario at `slots` slots.
fn headline_config(slots: usize) -> multihonest_sim::SimConfig {
    let mut cfg = scenario_library(slots)
        .into_iter()
        .find(|s| s.name == "private-withholding")
        .expect("library names the withholding scenario")
        .config;
    cfg.strategy = Strategy::PrivateWithholding;
    cfg
}

/// Re-runs the throughput headline (`slots` of `PrivateWithholding`) with
/// the kernel's per-phase profiler attached — the engine behind
/// `mh scenario --profile`. Returns the phase breakdown; note the
/// instrumented run is slower than the plain headline (one timestamp per
/// executed phase per slot), so its total is not a throughput figure.
pub fn profile_headline(slots: usize, seed: u64) -> crate::profile::PhaseTimes {
    let cfg = headline_config(slots);
    let schedule = ColumnarSchedule::for_config(&cfg, seed);
    let mut strategy = cfg.strategy.instantiate();
    let mut prof = crate::profile::PhaseTimes::new();
    let (metrics, _, _) = Execution::new(&cfg, &schedule, strategy.as_mut())
        .recorder(&mut prof)
        .stream();
    assert_eq!(metrics.slots, slots);
    prof
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_well_formed_and_equivalence_holds() {
        // A reduced grid of the acceptance sweep: equivalence is asserted
        // inside scenario_bench_report on every scenario.
        let report = scenario_bench_report(250, 400, 2_000, 7, &[5, 20], 2);
        assert_eq!(report.schema, "multihonest-bench-scenario/v1");
        assert_eq!(report.equivalence_scenarios, scenario_library(1).len());
        assert_eq!(report.rows.len(), report.equivalence_scenarios);
        assert!(report.million_run_seconds > 0.0);
        for row in &report.rows {
            assert_eq!(row.violating_anchors.len(), 2, "{}", row.name);
            assert!(row.blocks > 0, "{}", row.name);
        }
        // The withholding attack must bite harder than the honest-mirror
        // baseline (the adversary holds stake in both, so neither has
        // perfect chain quality — but only withholding rolls chains back
        // at depth).
        let honest = report.rows.iter().find(|r| r.name == "honest").unwrap();
        let wh = report
            .rows
            .iter()
            .find(|r| r.name == "private-withholding")
            .unwrap();
        assert!(wh.chain_quality < 1.0);
        assert!(wh.rollbacks > 0);
        assert!(
            wh.violating_anchors[1] >= honest.violating_anchors[1],
            "withholding must violate at least as much as honest play: {:?} vs {:?}",
            wh.violating_anchors,
            honest.violating_anchors
        );
        let json = serde_json::to_string_pretty(&report).expect("serializable");
        assert!(json.contains("multihonest-bench-scenario/v1"));
        assert!(json.contains("\"million_slots_per_second\""));
    }
}
