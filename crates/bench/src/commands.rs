//! What each `mh` subcommand does with a parsed [`Command`].
//!
//! Every file the CLI writes (`--out`, `--csv`, `--trace`, `--events`)
//! goes through one writer, so an unwritable path is an error message
//! and exit status 1, never a panic.

use std::path::{Path, PathBuf};
use std::time::Instant;

use multihonest::adversary::CanonicalMonteCarlo;
use multihonest::obs::{Heartbeat, ObsRecorder};
use multihonest::prelude::*;
use multihonest_scenario::report::profile_headline;
use multihonest_scenario::{run_horizon, run_horizon_observed, HorizonOptions, LeaderProbs};
use multihonest_sweep::{
    campaign_report, report_csv, report_json, run_campaign, run_campaign_observed, RunOptions,
};
use serde::Serialize;

use crate::cli::{Command, Sub};
use crate::regress::{
    baseline_path, campaign_spec, regress, scenario_report, settlement_grid, table1_grid, target,
    TARGETS,
};

/// Runs a parsed command, printing its tables and summaries.
///
/// # Errors
///
/// A runtime or I/O failure (unwritable output, unreadable baseline,
/// failed regression checks, a checkpoint or WAL error), rendered for
/// `error: …` on stderr.
pub fn run(cmd: &Command) -> Result<(), String> {
    match cmd.sub {
        Sub::Table1 => table1(cmd),
        Sub::Experiments => experiments(cmd),
        Sub::Settlement => settlement(cmd),
        Sub::Astar => astar(cmd),
        Sub::Scenario => scenario(cmd),
        Sub::Horizon => horizon(cmd),
        Sub::Sweep => sweep(cmd),
        Sub::Bench => bench(cmd),
        Sub::Regress => regress_all(cmd),
    }
}

/// The one output writer.
fn write(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn pretty<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("serializable")
}

fn table1(cmd: &Command) -> Result<(), String> {
    let (alphas, ratios, ks) = table1_grid(cmd.quick);
    let start = Instant::now();
    let cells = crate::generate_table1_threads(&alphas, &ratios, &ks, cmd.threads);
    let elapsed = start.elapsed();
    if cmd.json {
        println!("{}", pretty(&cells));
    } else {
        print!("{}", crate::render_table1(&cells, &alphas, &ratios, &ks));
        eprintln!(
            "\n{} cells in {elapsed:.1?} (banded exact DP per (α, ratio) pair, {} thread(s))",
            cells.len(),
            cmd.threads
        );
        eprintln!("note: published k = 500 row under-reports; see EXPERIMENTS.md finding F1");
    }
    Ok(())
}

/// Prints one experiment section: its rows as JSON, or a titled table.
fn section<T: Serialize>(json: bool, rows: &[T], header: [&str; 2], row: impl Fn(&T) -> String) {
    if json {
        println!("{}", pretty(rows));
        return;
    }
    println!("{}\n{}", header[0], header[1]);
    for r in rows {
        println!("{}", row(r));
    }
    println!();
}

fn experiments(cmd: &Command) -> Result<(), String> {
    let (quick, json, threads) = (cmd.quick, cmd.json, cmd.threads);
    let run = |name: &str| cmd.sections.is_empty() || cmd.sections.iter().any(|s| s == name);
    if run("bound-vs-exact") {
        let ks: &[usize] = if quick {
            &[40, 80]
        } else {
            &[50, 100, 200, 400]
        };
        let header = [
            "== E6: exact settlement probability vs Theorem-1 machinery ==",
            "  ε   p_h    k |      exact | Bound1 series | Theorem 1",
        ];
        let rows = crate::bound_vs_exact_threads(ks, threads);
        section(json, &rows, header, |r| {
            format!(
                "{:4} {:5} {:4} | {:10.3e} | {:13.3e} | {:9.3e}",
                r.epsilon, r.p_h, r.k, r.exact, r.bound1_series, r.theorem1
            )
        });
    }
    if run("tiebreak") {
        let (trials, sims) = if quick { (4_000, 3) } else { (20_000, 10) };
        let header = [
            "== E7: consistent tie-breaking, p_h = 0 (Theorem 2) ==",
            "  ε    k | Theorem 2 | MC no-pair | sim div (A0) | sim div (A0')",
        ];
        let rows = crate::tiebreak_experiment(trials, sims, threads);
        section(json, &rows, header, |r| {
            format!(
                "{:4} {:4} | {:9.3e} | {:10.4} | {:12.1} | {:13.1}",
                r.epsilon,
                r.k,
                r.theorem2,
                r.mc_no_consecutive_catalan,
                r.sim_divergence_adversarial_ties,
                r.sim_divergence_consistent
            )
        });
    }
    if run("delta-sync") {
        let (k, slots) = if quick { (30, 400) } else { (60, 2_000) };
        let header = format!("  Δ |   ε_Δ   | Theorem 7 (k={k}) | sim violations");
        let header = ["== E8: Δ-synchronous setting (Theorem 7) ==", &header];
        let rows = crate::delta_experiment(k, slots);
        section(json, &rows, header, |r| {
            format!(
                "{:3} | {:7.4} | {:16.3e} | {:14}",
                r.delta, r.effective_epsilon, r.theorem7, r.sim_violations
            )
        });
    }
    if run("thresholds") {
        let k = if quick { 50 } else { 100 };
        let header = format!("  p_h   p_H | ours | Praos | SnowWhite | exact err at k={k}");
        let header = [
            "== E9: threshold comparison at p_A = 0.40 (paper Section 1) ==",
            &header,
        ];
        let rows = crate::threshold_experiment_threads(k, threads);
        section(json, &rows, header, |r| {
            format!(
                "{:5.2} {:5.2} | {:4} | {:5} | {:9} | {:12.3e}",
                r.p_h, r.p_hh, r.optimal, r.praos, r.snow_white, r.exact_at_k
            )
        });
    }
    if run("catalan-tails") {
        let trials = if quick { 4_000 } else { 40_000 };
        let header = [
            "== E10: Catalan-slot rarity, Monte Carlo vs series tails ==",
            "  ε   p_h    k | MC unique | Bound1 | MC consec | Bound2",
        ];
        let rows = crate::catalan_tail_experiment(trials, threads);
        section(json, &rows, header, |r| {
            format!(
                "{:4} {:5} {:4} | {:9.4} | {:6.4} | {:9.4} | {:6.4}",
                r.epsilon,
                r.p_h,
                r.k,
                r.mc_unique,
                r.bound1_series,
                r.mc_consecutive,
                r.bound2_series
            )
        });
    }
    Ok(())
}

fn settlement(cmd: &Command) -> Result<(), String> {
    let (cfg, ks) = settlement_grid(cmd.quick);
    let seed = cmd.seed.unwrap_or(9);
    let sim = Simulation::run(&cfg, seed);
    let m = sim.metrics();
    println!(
        "== observed settlement violations ({} slots, {} strategy, Δ = {}) ==",
        cfg.slots, cfg.strategy, cfg.delta
    );
    println!(
        "growth {:.3}, quality {:.3}, max slot divergence {}, max settlement lag {:?}\n",
        m.chain_growth(),
        m.chain_quality(),
        m.max_slot_divergence,
        m.max_settlement_lag
    );
    println!("    k | violated anchors | first violating slot");
    for &k in &ks {
        let violated = sim.count_violating_slots(k, cfg.slots);
        let first = sim
            .first_violating_slot(k)
            .map_or("-".to_string(), |s| s.to_string());
        println!("{k:>5} | {violated:>15} | {first:>20}");
    }
    Ok(())
}

/// The margin/ρ statistics of canonical forks over sampled strings —
/// the game-theoretic side of Table 1's settlement story, at horizons
/// the definitional path could never reach.
fn astar(cmd: &Command) -> Result<(), String> {
    let cond = crate::astar_bench_condition();
    let seed = cmd.seed.unwrap_or(4);
    let trials = if cmd.quick { 8 } else { 48 };
    println!(
        "== canonical-fork Monte Carlo (ε = {}, p_h = {}, {} trials/row, {} threads) ==",
        cond.epsilon(),
        cond.p_unique_honest(),
        trials,
        cmd.threads
    );
    println!("      n |    mean ρ |    max ρ |  mean µ_ε(w) |    µ_ε(w) ≥ 0 |  ρ agreement");
    let lens: &[usize] = if cmd.quick {
        &[500, 2_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    for &len in lens {
        let s = CanonicalMonteCarlo::new(cond, trials, seed)
            .with_threads(cmd.threads)
            .summary(len);
        println!(
            "{:>7} | {:>9.3} | {:>8} | {:>12.3} | {:>10}/{:<2} | {:>9}/{:<2}",
            len,
            s.mean_rho,
            s.max_rho,
            s.mean_margin,
            s.nonneg_margin_trials,
            s.trials,
            s.rho_agreements,
            s.trials
        );
    }
    Ok(())
}

fn scenario(cmd: &Command) -> Result<(), String> {
    let seed = cmd.seed.unwrap_or(9);
    let report = scenario_report(cmd.quick, seed, cmd.threads);
    println!(
        "== scenario grid ({} slots per row, seed {seed}, {} threads) ==",
        report.grid_slots, report.threads
    );
    println!(
        "equivalence: {} scenarios bit-identical to sim::reference at {} slots \
         (reference {:.2}s vs columnar {:.3}s, {:.0}x)",
        report.equivalence_scenarios,
        report.equivalence_slots,
        report.reference_seconds,
        report.columnar_seconds,
        report.speedup
    );
    println!(
        "throughput headline: {} slots of private-withholding in {:.2}s ({:.2} Mslots/s)\n",
        report.million_slots,
        report.million_run_seconds,
        report.million_slots_per_second / 1e6
    );
    println!("scenario                 |    run s |  Mslots/s | quality | rollbacks | max lag | viol@k20 |  fingerprint");
    for row in &report.rows {
        println!(
            "{:<24} | {:>8.3} | {:>9.2} | {:>7.3} | {:>9} | {:>7} | {:>8} | {:>12x}",
            row.name,
            row.run_seconds,
            row.mslots_per_second,
            row.chain_quality,
            row.rollbacks,
            row.max_settlement_lag,
            row.violating_anchors[1],
            row.fingerprint
        );
    }
    if cmd.profile {
        // Re-run the headline with per-phase counters (instrumented:
        // slower than the plain headline timed above).
        eprintln!("{}", profile_headline(report.million_slots, seed));
    }
    Ok(())
}

/// One bounded-memory long-horizon execution of the canonical
/// private-withholding shape ([`crate::sim_bench_config`]), with
/// settled-prefix eviction and (optionally) WAL checkpointing — interrupt
/// it and rerun the same command line to resume.
fn horizon(cmd: &Command) -> Result<(), String> {
    let seed = cmd.seed.unwrap_or(9);
    let slots = cmd.slots.unwrap_or(100_000_000);
    let segment = cmd.segment.unwrap_or(1 << 20);
    let config = crate::sim_bench_config(slots);
    let probs = LeaderProbs::uniform(
        config.honest_nodes,
        config.adversarial_stake,
        config.active_slot_coeff,
    );
    let opts = HorizonOptions {
        segment_slots: segment,
        ks: vec![16, 32, 64, 128],
        max_live_blocks: 0,
        wal: cmd.wal.clone(),
    };
    // Observability is opt-in: without --trace/--events/--heartbeat the
    // run takes the plain path with the no-op `()` recorder.
    let observing = cmd.trace.is_some() || cmd.events.is_some() || cmd.heartbeat.is_some();
    let mut rec = ObsRecorder::new();
    let mut hb = cmd.heartbeat.map(Heartbeat::new);
    let start = Instant::now();
    let report = if observing {
        run_horizon_observed(&config, &probs, seed, &opts, &mut rec, hb.as_mut())
    } else {
        run_horizon(&config, &probs, seed, &opts)
    }
    .map_err(|e| format!("horizon run failed: {e}"))?;
    let seconds = start.elapsed().as_secs_f64();
    if let Some(path) = &cmd.trace {
        write(path, &rec.chrome_trace_json())?;
        eprintln!(
            "trace: {} span events -> {} (load in chrome://tracing or Perfetto)",
            rec.events().len(),
            path.display()
        );
    }
    if let Some(path) = &cmd.events {
        write(path, &rec.jsonl())?;
        eprintln!("events: -> {}", path.display());
    }
    if let Some(at) = report.resumed_at {
        println!("resumed from WAL checkpoint at slot {at}");
    }
    println!(
        "horizon: {slots} slots in {seconds:.1}s ({:.2} Mslots/s wall, seed {seed}, segment {segment})",
        slots as f64 / seconds.max(f64::MIN_POSITIVE) / 1e6
    );
    println!(
        "eviction: {} compactions, peak live blocks {} ({:.1} blocks/Mslot retained)",
        report.compactions,
        report.peak_live_blocks,
        report.peak_live_blocks as f64 / (slots as f64 / 1e6)
    );
    println!(
        "chain: height {}, {} blocks ({:.4} quality), {} rollbacks, max settlement lag {:?}",
        report.metrics.final_height,
        report.metrics.chain_blocks,
        report.metrics.chain_quality(),
        report.metrics.rollback_count,
        report.metrics.max_settlement_lag
    );
    for (i, &k) in opts.ks.iter().enumerate() {
        println!(
            "settlement: k={k:<4} violating anchors {:<12} first {:?}",
            report.violating_anchors[i], report.first_violation[i]
        );
    }
    Ok(())
}

/// A deterministic seeded campaign with checkpointed resume. An
/// interrupted run (`--stop-after-cells`, or an actual kill) writes the
/// checkpoint but no report; rerunning the same command line resumes and
/// renders a report byte-identical to an uninterrupted run.
fn sweep(cmd: &Command) -> Result<(), String> {
    let mut spec = campaign_spec(cmd.quick);
    if let Some(seed) = cmd.seed {
        spec.seed = seed;
    }
    let opts = RunOptions {
        threads: cmd.threads,
        checkpoint: cmd.checkpoint.clone(),
        stop_after_cells: cmd.stop_after_cells,
    };
    // Observability is opt-in: without --trace/--heartbeat the campaign
    // takes the plain path (no per-worker shards, no span events).
    let observing = cmd.trace.is_some() || cmd.heartbeat.is_some();
    let mut rec = ObsRecorder::new();
    let mut hb = cmd.heartbeat.map(Heartbeat::new);
    let outcome = if observing {
        run_campaign_observed(&spec, &opts, Some(&mut rec), hb.as_mut())
    } else {
        run_campaign(&spec, &opts)
    }
    .map_err(|e| e.to_string())?;
    if let Some(path) = &cmd.trace {
        write(path, &rec.chrome_trace_json())?;
        eprintln!(
            "trace: {} span events from {} workers -> {} (load in chrome://tracing or Perfetto)",
            rec.events().len(),
            cmd.threads,
            path.display()
        );
    }
    if !outcome.is_complete() {
        // The checkpoint holds the completed prefix, so the same
        // command line resumes the rest.
        eprintln!(
            "campaign interrupted: {}/{} cells complete ({} resumed, {} executions this run); \
             rerun with the same --checkpoint to resume",
            outcome.completed_cells,
            spec.cell_count(),
            outcome.resumed_cells,
            outcome.executions_run,
        );
        return Ok(());
    }
    let report = campaign_report(&spec, &outcome);
    let out = cmd.out.clone().unwrap_or_else(|| {
        PathBuf::from(if cmd.quick {
            "sweep_campaign_quick.json"
        } else {
            "sweep_campaign.json"
        })
    });
    write(&out, &report_json(&report))?;
    if let Some(path) = &cmd.csv {
        write(path, &report_csv(&report))?;
    }
    eprintln!(
        "campaign complete: {} executions over {} cells ({} resumed) -> {}",
        report.executions,
        report.completed_cells,
        outcome.resumed_cells,
        out.display()
    );
    Ok(())
}

/// Builds one target's report and writes it. Quick-grid reports default
/// to `BENCH_<name>_quick.json`: `BENCH_<name>.json` is the committed
/// full-grid baseline and must not be silently clobbered with
/// incomparable quick-grid numbers.
fn bench(cmd: &Command) -> Result<(), String> {
    let t = cmd
        .target
        .and_then(target)
        .expect("parse checks the target");
    let start = Instant::now();
    let report = t.build(cmd.quick, cmd.threads, cmd.seed.or(t.seed()).unwrap_or(0));
    let seconds = start.elapsed().as_secs_f64();
    let out = cmd.out.clone().unwrap_or_else(|| {
        PathBuf::from(format!(
            "BENCH_{}{}.json",
            t.name(),
            if cmd.quick { "_quick" } else { "" }
        ))
    });
    write(&out, &format!("{}\n", pretty(&report)))?;
    let headline = t
        .headline()
        .and_then(|field| Some(format!(", {field} {:.4}", report.get(field)?.as_f64()?)))
        .unwrap_or_default();
    eprintln!(
        "bench {}: {} grid in {seconds:.2}s{headline} -> {}",
        t.name(),
        if cmd.quick { "quick" } else { "full" },
        out.display()
    );
    Ok(())
}

fn regress_all(cmd: &Command) -> Result<(), String> {
    let dir = cmd.dir.clone().unwrap_or_else(|| PathBuf::from("."));
    let tolerance = cmd.tolerance.unwrap_or(0.5);
    let roster: Vec<_> = match cmd.only.and_then(target) {
        Some(t) => vec![t],
        None => TARGETS.to_vec(),
    };
    let (mut checks, mut failed) = (0, Vec::new());
    for t in &roster {
        let c = regress(*t, cmd.quick, cmd.threads, tolerance, &dir)?;
        let ok = c.failures.is_empty();
        println!(
            "regress {:<9} {:>4} checks  {}  vs {}",
            t.name(),
            c.n,
            if ok { "ok  " } else { "FAIL" },
            baseline_path(&dir, t.name()).display()
        );
        for f in &c.failures {
            println!("  {}: {f}", t.name());
        }
        checks += c.n;
        if !ok {
            failed.push(t.name());
        }
    }
    if !failed.is_empty() {
        return Err(format!(
            "bench-regress: {} of {} targets FAILED: {failed:?}",
            failed.len(),
            roster.len()
        ));
    }
    eprintln!(
        "bench-regress: {} targets ok ({checks} checks, {} grids)",
        roster.len(),
        if cmd.quick { "quick" } else { "full" }
    );
    Ok(())
}
