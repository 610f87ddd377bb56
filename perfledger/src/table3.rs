//! `compile-table3`: the paper's own question. The nine distinct
//! Table 3 programs are scheduled whole, each under the daemon's
//! default configuration (Warren, n2-forward construction) and under
//! table-forward construction, with no cache: 17 pairs, because fpppp
//! runs only under table-forward.

use std::time::{Duration, Instant};

use dagsched_core::{PhaseStats, Scratch};
use dagsched_driver::{
    schedule_program_batch_scratch, DriverConfig, Limits, NoCache, ScheduledProgram,
};
use dagsched_isa::{MachineModel, Program};
use dagsched_proto::json::Json;
use dagsched_proto::{build_driver_config, ScheduleRequest};
use dagsched_workloads::{generate, BenchmarkProfile, PAPER_SEED};

use crate::check::{check_schedule, render_reply, schedule_digest, self_test};
use crate::host::{peak_rss_mib, Noise};
use crate::ledger::{ms, Ledger};
use crate::report::{geomean, latency_diag, median, Latencies, Metric, Outcome};
use crate::{Args, SETUPS};

/// The nine distinct Table 3 programs.
const PROGRAMS: [&str; 9] = [
    "grep", "regex", "dfa", "cccp", "linpack", "lloops", "tomcatv", "nasa7", "fpppp",
];

/// One whole-program compile under one configuration, with the
/// reference its every timed repeat must reproduce.
struct Pair {
    name: String,
    program: usize,
    config: usize,
    digest: u64,
    counts: PhaseStats,
    cycles: u64,
    reference: ScheduledProgram,
}

struct Setup {
    programs: Vec<Program>,
    configs: Vec<DriverConfig>,
    model: MachineModel,
    pairs: Vec<Pair>,
    generate_ms: f64,
}

/// The daemon's default configuration and its table-forward variant,
/// resolved through the same request path the daemon uses.
fn configs() -> Result<(Vec<DriverConfig>, MachineModel), String> {
    let mut req = ScheduleRequest::asm("");
    let (n2, model) = build_driver_config(&req).map_err(|e| e.to_string())?;
    req.algo = "table-forward".to_string();
    let (table, _) = build_driver_config(&req).map_err(|e| e.to_string())?;
    Ok((vec![n2, table], model))
}

fn compile(
    s: &Setup,
    program: usize,
    config: usize,
    scratch: &mut Scratch,
) -> Result<(ScheduledProgram, PhaseStats), String> {
    schedule_program_batch_scratch(
        &s.programs[program],
        &s.model,
        &s.configs[config],
        &Limits::none(),
        &NoCache,
        scratch,
    )
    .map_err(|e| e.to_string())
}

/// Generate the programs and run one untimed warm-up pass, which also
/// records each pair's reference output and work counters.
fn setup(scratch: &mut Scratch) -> Result<Setup, String> {
    let t = Instant::now();
    let mut programs = Vec::new();
    for name in PROGRAMS {
        let profile = BenchmarkProfile::by_name(name).ok_or(format!("no profile {name}"))?;
        programs.push(generate(profile, PAPER_SEED).program);
    }
    let generate_ms = ms(t.elapsed());
    let (configs, model) = configs()?;
    let mut s = Setup {
        programs,
        configs,
        model,
        pairs: Vec::new(),
        generate_ms,
    };
    for (p, name) in PROGRAMS.iter().enumerate() {
        for (c, cname) in ["n2", "table"].iter().enumerate() {
            // One fpppp compile under n2 takes seconds: it would turn
            // the workload into a single-operation measurement.
            if *name == "fpppp" && c == 0 {
                continue;
            }
            let (reference, counts) = compile(&s, p, c, scratch)?;
            s.pairs.push(Pair {
                name: format!("{name}/{cname}"),
                program: p,
                config: c,
                digest: schedule_digest(&reference),
                counts,
                cycles: reference.blocks.iter().map(|b| b.scheduled_makespan).sum(),
                reference,
            });
        }
    }
    Ok(s)
}

/// Timed passes over every pair until `seconds` have gone by, in whole
/// passes. With a ledger, each pass is also booked layer by layer.
struct Passes {
    pass_ns: Latencies,
    per_pair_ms: Vec<Vec<f64>>,
    passes: u64,
    failed: u64,
    wrong: u64,
    wall: Duration,
}

fn run_passes(
    s: &Setup,
    order: &[usize],
    seconds: f64,
    scratch: &mut Scratch,
    mut ledger: Option<&mut Ledger>,
) -> Passes {
    let mut out = Passes {
        pass_ns: Latencies::default(),
        per_pair_ms: vec![Vec::new(); s.pairs.len()],
        passes: 0,
        failed: 0,
        wrong: 0,
        wall: Duration::ZERO,
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let pass = Instant::now();
        for &i in order {
            let pair = &s.pairs[i];
            let t = Instant::now();
            let result = compile(s, pair.program, pair.config, scratch);
            let dt = t.elapsed();
            match result {
                Ok((scheduled, stats)) => {
                    out.per_pair_ms[i].push(ms(dt));
                    if schedule_digest(&scheduled) != pair.digest
                        || !stats.same_counts(&pair.counts)
                    {
                        out.failed += 1;
                        out.wrong += 1;
                    }
                    if let Some(l) = ledger.as_deref_mut() {
                        l.add_batch(dt, &stats, None);
                    }
                }
                Err(_) => out.failed += 1,
            }
        }
        let pass_time = pass.elapsed();
        out.pass_ns
            .push(u64::try_from(pass_time.as_nanos()).unwrap_or(u64::MAX));
        if let Some(l) = ledger.as_deref_mut() {
            l.op(pass_time);
        }
        out.passes += 1;
    }
    out.wall = start.elapsed();
    out
}

/// Fisher-Yates shuffle driven by SplitMix64 from `seed`.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut scratch = Scratch::new();
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut s = None;
    for _ in 0..SETUPS {
        // Free the previous set-up first: set-up then holds no more
        // than the timed passes do, so a growth in them moves the peak.
        drop(s.take());
        let t = Instant::now();
        let fresh = setup(&mut scratch)?;
        setup_s.push(t.elapsed().as_secs_f64());
        generate_ms.push(fresh.generate_ms);
        s = Some(fresh);
    }
    let s = s.expect("at least one set-up");
    let mut order: Vec<usize> = (0..s.pairs.len()).collect();
    shuffle(&mut order, args.seed);

    let mut ledger = Ledger::default();
    let mut diag: Vec<(&'static str, Json)> = Vec::new();
    let noise0 = Noise::sample();
    let timed = if args.trace {
        // Untraced first half, traced second half: the difference of
        // their median passes is the tracing overhead.
        let plain = run_passes(&s, &order, args.seconds / 2.0, &mut scratch, None);
        let traced = run_passes(
            &s,
            &order,
            args.seconds / 2.0,
            &mut scratch,
            Some(&mut ledger),
        );
        let (p, t) = (plain.pass_ns.median_ms(), traced.pass_ns.median_ms());
        diag.push(("trace_overhead_share", Json::from((t - p) / p)));
        Passes {
            passes: plain.passes + traced.passes,
            failed: plain.failed + traced.failed,
            wrong: plain.wrong + traced.wrong,
            ..traced
        }
    } else {
        run_passes(&s, &order, args.seconds, &mut scratch, None)
    };
    let (steal_ms, runq_ms) = noise0.since(&Noise::sample());
    let peak = peak_rss_mib();

    // Checks, after the timed interval: every pair's reference passes
    // the oracle (every timed repeat matched its digest and counters).
    let mut bad_pairs = Vec::new();
    for pair in &s.pairs {
        if let Err(e) = check_schedule(&s.programs[pair.program], &pair.reference) {
            bad_pairs.push(Json::from(format!("{}: {e}", pair.name).as_str()));
        }
    }
    let grep = &s.pairs[0];
    let selftest = self_test(&s.programs[grep.program], &render_reply(&grep.reference).0);
    let attempted = timed.passes * s.pairs.len() as u64;
    // Every repeat of a pair whose reference fails the oracle is wrong.
    let failed = timed.failed + timed.passes * bad_pairs.len() as u64;
    let wall = timed.wall.as_secs_f64();
    let pass_insns: usize = s.pairs.iter().map(|p| s.programs[p.program].len()).sum();
    let mut adds_up = true;
    let metrics = if args.trace {
        ledger.set_generate_ms(median(&generate_ms));
        let (ok, add_diag) = ledger.add_up();
        adds_up = ok;
        diag.push(("ledger", add_diag));
        ledger.metrics()
    } else {
        let per_pair: Vec<f64> = timed.per_pair_ms.iter().map(|v| median(v)).collect();
        vec![
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new(
                "insns_per_s",
                (timed.passes as f64 * pass_insns as f64) / wall,
                "insn/s",
            ),
            Metric::new("compile_ms_geomean", geomean(&per_pair), "ms"),
            Metric::new(
                "sched_cycles",
                s.pairs.iter().map(|p| p.cycles).sum::<u64>() as f64,
                "cycles",
            ),
            Metric::new("req_per_s", attempted as f64 / wall, "1/s"),
            Metric::new("latency_ms_p50", timed.pass_ns.pct_ms(50.0), "ms"),
            Metric::new("latency_ms_p90", timed.pass_ns.pct_ms(90.0), "ms"),
            Metric::new("peak_rss_mb", peak, "MiB"),
        ]
    };
    let correct = bad_pairs.is_empty() && timed.wrong == 0 && selftest.is_ok() && adds_up;
    diag.extend([
        (
            "operation",
            Json::from("one whole-program compile; latency is per pass of 17"),
        ),
        ("pairs", Json::from(s.pairs.len() as u64)),
        ("passes", Json::from(timed.passes)),
        ("latency", latency_diag(&timed.pass_ns)),
        ("per_pair_samples", Json::from(timed.passes)),
        (
            "setups",
            Json::Arr(setup_s.iter().map(|&v| Json::from(v)).collect()),
        ),
        ("steal_ms", Json::from(steal_ms)),
        ("runq_wait_ms", Json::from(runq_ms)),
        ("oracle_failures", Json::Arr(bad_pairs)),
        (
            "selftest",
            Json::from(selftest.err().unwrap_or_else(|| "ok".to_string()).as_str()),
        ),
    ]);
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        diag,
    })
}
