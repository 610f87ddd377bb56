//! `serve-hit` and `serve-churn`: one closed-loop client connection
//! sending asm-text requests to an in-process daemon with one compile
//! worker and the default cache.
//!
//! * `serve-hit` alternates between a hot set of two `cccp`-profile
//!   programs whose distinct blocks fit the cache; set-up warms it, so
//!   every timed block hits.
//! * `serve-churn` sends a `cccp`-profile program the daemon has never
//!   seen with every request, into a cache set-up has already filled:
//!   reads, misses, inserts and evictions all happen.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use dagsched_core::Scratch;
use dagsched_driver::{schedule_program_batch_scratch, DriverConfig, Limits};
use dagsched_isa::{MachineModel, Program};
use dagsched_proto::json::Json;
use dagsched_proto::{build_driver_config, RequestInput, ScheduleRequest, ScheduleResponse};
use dagsched_service::{
    execute, serve, CacheConfig, Client, EngineLimits, Listen, ScheduleCache, ServerConfig,
    ServerHandle,
};
use dagsched_workloads::{generate, parse_asm, BenchmarkProfile};

use crate::check::{
    asm_text, check_schedule, library_compile, render_reply, reply_digest, self_test,
};
use crate::host::{peak_rss_mib, unpin, Noise};
use crate::ledger::{ms, Ledger, TimedCache};
use crate::report::{geomean, latency_diag, median, Latencies, Metric, Outcome};
use crate::{Args, SETUPS};

/// Profile of every served program.
const PROFILE: &str = "cccp";
/// The hot set: two programs with 3,202 distinct blocks between them,
/// inside the default 4,096-entry cache.
const HOT_SEEDS: [u64; 2] = [1991, 1992];
/// Programs set-up sends to fill the cache before churn starts.
const FILL_PROGRAMS: u64 = 3;
/// Fill programs are drawn from seeds far from the churn rule
/// (workload seed + request index), so no request repeats one.
const FILL_SEED_BASE: u64 = 1 << 40;
/// Churn programs generated at a time; the clock stops while more are
/// generated.
const CHUNK: u64 = 16;
/// Seeds of the churn programs whose schedules make up `sched_cycles`
/// on `serve-churn`: the first eight programs churn sends for workload
/// seed 1. They do not follow `--seed`, so the metric is exact.
const CYCLE_SEEDS: std::ops::Range<u64> = 1..9;
/// Threads that check replies after the timed interval.
const CHECKERS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Hit,
    Churn,
}

fn program_text(seed: u64) -> Result<String, String> {
    let profile = BenchmarkProfile::by_name(PROFILE).ok_or("no cccp profile")?;
    Ok(asm_text(&generate(profile, seed).program.insns))
}

fn churn_seed(args: &Args, index: u64) -> u64 {
    args.seed.wrapping_add(index)
}

fn text_of(req: &ScheduleRequest) -> &str {
    match &req.input {
        RequestInput::Asm(text) => text,
        RequestInput::Profile { .. } => "",
    }
}

/// The daemon plus its one client connection.
struct Daemon {
    handle: ServerHandle,
    client: Client,
    sock: PathBuf,
}

impl Daemon {
    fn start(n: usize) -> Result<Daemon, String> {
        // A relative path keeps the socket inside the working directory
        // and under the length limit of a socket address.
        let sock = PathBuf::from(format!(".perfledger-{}-{n}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let config = ServerConfig {
            workers: 1,
            cache: CacheConfig::default(),
            ..ServerConfig::default()
        };
        let handle =
            serve(Listen::Unix(sock.clone()), config).map_err(|e| format!("serve: {e}"))?;
        let client = match Client::connect(&handle.endpoint()) {
            Ok(c) => c,
            Err(e) => {
                handle.begin_drain();
                handle.join();
                let _ = std::fs::remove_file(&sock);
                return Err(format!("connect: {e}"));
            }
        };
        Ok(Daemon {
            handle,
            client,
            sock,
        })
    }

    fn stop(self) {
        drop(self.client);
        self.handle.begin_drain();
        self.handle.join();
        let _ = std::fs::remove_file(&self.sock);
    }

    /// The daemon's cache counters, from its metrics frame.
    fn cache_counters(&mut self) -> Result<[u64; 3], String> {
        let m = self.client.metrics().map_err(|e| e.to_string())?;
        let c = m.get("cache").ok_or("metrics frame without cache")?;
        let g = |k: &str| c.get(k).and_then(Json::as_u64).unwrap_or(0);
        Ok([g("hits"), g("misses"), g("evictions")])
    }
}

/// The in-process twins of the daemon's cache, fed the same request
/// stream in the same order, so the traced replay meets the cache in
/// the state the daemon's worker met it. `cache` serves the replay with
/// spans; `twin` serves `engine::execute`, the daemon's own request
/// path, whose measured time the replay's self times must add up to.
struct Replica {
    cache: ScheduleCache,
    twin: ScheduleCache,
    limits: EngineLimits,
    scratch: Scratch,
    /// Which of the two runs of a traced request goes first; it
    /// alternates, so neither always meets the other's warm caches.
    engine_first: bool,
}

impl Replica {
    fn new() -> Replica {
        // The daemon's engine limits with the default server config.
        let server = ServerConfig::default();
        Replica {
            cache: ScheduleCache::new(CacheConfig::default()),
            twin: ScheduleCache::new(CacheConfig::default()),
            limits: EngineLimits {
                max_block: server.max_block,
                default_deadline_ms: server.default_deadline_ms,
                max_jobs: server.max_jobs,
            },
            scratch: Scratch::new(),
            engine_first: false,
        }
    }

    /// Feed one request through both caches untraced.
    fn feed(&mut self, req: &ScheduleRequest) -> Result<(), String> {
        for cache in [&self.cache, &self.twin] {
            execute(req, &self.limits, cache, &mut self.scratch).map_err(|e| e.message)?;
        }
        Ok(())
    }

    /// Time the daemon's request path, `engine::execute`, on the twin.
    fn engine(&mut self, req: &ScheduleRequest) -> Result<(Duration, u64), String> {
        let t = Instant::now();
        let resp =
            execute(req, &self.limits, &self.twin, &mut self.scratch).map_err(|e| e.message)?;
        let elapsed = t.elapsed();
        Ok((elapsed, reply_digest(&resp.insns, &resp.blocks)))
    }

    /// Replay one request through every layer's entry point with spans,
    /// as the client and the daemon's engine run it, and time
    /// `engine::execute` on the same request. Returns the reply's
    /// digest and the client-side time the replay accounts for: the
    /// proto spans plus the measured engine time.
    fn traced(&mut self, req: &ScheduleRequest, ledger: &mut Ledger) -> Result<(u64, f64), String> {
        let outer = Instant::now();
        let t = Instant::now();
        let payload = req.to_json().to_string();
        let encode = t.elapsed();
        let t = Instant::now();
        let value = Json::parse(&payload).map_err(|e| e.to_string())?;
        let decoded = ScheduleRequest::from_json(&value).map_err(|e| e.to_string())?;
        let (config, model) = build_driver_config(&decoded).map_err(|e| e.to_string())?;
        let decode = t.elapsed();
        let mut engine = None;
        if self.engine_first {
            engine = Some(self.engine(&decoded)?);
        }
        let t = Instant::now();
        let program = parse_asm(text_of(&decoded)).map_err(|e| e.to_string())?;
        ledger.add("workloads.parse_asm_ms", ms(t.elapsed()));
        let timed = TimedCache::new(&self.cache);
        let t = Instant::now();
        let (scheduled, stats) = schedule_program_batch_scratch(
            &program,
            &model,
            &config,
            &Limits::none(),
            &timed,
            &mut self.scratch,
        )
        .map_err(|e| e.to_string())?;
        ledger.add_batch(t.elapsed(), &stats, Some(&timed));
        let t = Instant::now();
        let (insns, blocks) = render_reply(&scheduled);
        let response = ScheduleResponse {
            insns,
            blocks,
            degraded: stats.degraded_blocks > 0,
            stats,
            cycles: None,
        };
        ledger.add("service.engine.render_ms", ms(t.elapsed()));
        if !self.engine_first {
            engine = Some(self.engine(&decoded)?);
        }
        self.engine_first = !self.engine_first;
        let (engine_time, engine_digest) = engine.expect("the engine ran");
        let t = Instant::now();
        let body = response.to_json().to_string();
        let response_encode = t.elapsed();
        let t = Instant::now();
        let parsed = Json::parse(&body).map_err(|e| e.to_string())?;
        let back = ScheduleResponse::from_json(&parsed).ok_or("undecodable response")?;
        let response_decode = t.elapsed();
        ledger.op(outer.elapsed() - engine_time);
        ledger.add_engine(engine_time);
        let proto = [
            ("proto.request_encode_ms", encode),
            ("proto.request_decode_ms", decode),
            ("proto.response_encode_ms", response_encode),
            ("proto.response_decode_ms", response_decode),
        ];
        let mut accounted = ms(engine_time);
        for (layer, d) in proto {
            ledger.add(layer, ms(d));
            accounted += ms(d);
        }
        ledger.add("proto.request_bytes", payload.len() as f64);
        ledger.add("proto.response_bytes", body.len() as f64);
        let digest = reply_digest(&back.insns, &back.blocks);
        if digest != engine_digest {
            return Err("the traced replay's reply differs from engine::execute's".to_string());
        }
        Ok((digest, accounted))
    }
}

/// What the client kept of one completed request.
struct Served {
    /// Index into the workload's program list.
    program: u64,
    digest: u64,
    insns: usize,
    misses: u64,
    latency_ms: f64,
}

/// The request stream: fixed for `serve-hit`, generated chunk by chunk
/// for `serve-churn`.
struct Stream {
    mode: Mode,
    hot: Vec<ScheduleRequest>,
    /// Churn requests generated so far, from index `base`.
    pending: Vec<ScheduleRequest>,
    base: u64,
    next: u64,
    generate: Duration,
}

impl Stream {
    fn new(args: &Args, mode: Mode) -> Result<Stream, String> {
        let t = Instant::now();
        let mut s = Stream {
            mode,
            hot: Vec::new(),
            pending: Vec::new(),
            base: 0,
            next: 0,
            generate: Duration::ZERO,
        };
        if mode == Mode::Hit {
            // The seed picks which hot program goes first.
            let first = (args.seed % 2) as usize;
            for k in 0..2 {
                s.hot.push(ScheduleRequest::asm(program_text(
                    HOT_SEEDS[(first + k) % 2],
                )?));
            }
        }
        s.generate = t.elapsed();
        if mode == Mode::Churn {
            s.refill(args)?;
        }
        Ok(s)
    }

    fn refill(&mut self, args: &Args) -> Result<(), String> {
        let t = Instant::now();
        self.base = self.next;
        self.pending = (self.next..self.next + CHUNK)
            .map(|i| program_text(churn_seed(args, i)).map(ScheduleRequest::asm))
            .collect::<Result<_, _>>()?;
        self.generate += t.elapsed();
        Ok(())
    }

    /// Make sure the next churn program is generated; returns the time
    /// that took, to be taken off the clock.
    fn prepare(&mut self, args: &Args) -> Result<Duration, String> {
        let t = Instant::now();
        if self.mode == Mode::Churn && self.next >= self.base + CHUNK {
            self.refill(args)?;
        }
        Ok(t.elapsed())
    }

    /// The next round as `(program index, request)` pairs: both hot
    /// programs, or one churn program (after [`Stream::prepare`]).
    fn round(&mut self) -> Vec<(u64, &ScheduleRequest)> {
        match self.mode {
            Mode::Hit => self
                .hot
                .iter()
                .enumerate()
                .map(|(i, r)| (i as u64, r))
                .collect(),
            Mode::Churn => {
                let i = self.next;
                self.next += 1;
                vec![(i, &self.pending[(i - self.base) as usize])]
            }
        }
    }
}

/// Set-up: generate the inputs, start the daemon, connect, and warm
/// (hit) or fill (churn) its cache; in a traced run the replica gets
/// the same requests.
fn setup(args: &Args, mode: Mode, n: usize) -> Result<(Daemon, Stream, Replica, f64), String> {
    let mut stream = Stream::new(args, mode)?;
    let warm: Vec<ScheduleRequest> = match mode {
        Mode::Hit => stream.hot.clone(),
        Mode::Churn => {
            let t = Instant::now();
            let fill = (0..FILL_PROGRAMS)
                .map(|j| {
                    program_text(FILL_SEED_BASE + args.seed.wrapping_mul(FILL_PROGRAMS) + j)
                        .map(ScheduleRequest::asm)
                })
                .collect::<Result<_, _>>()?;
            stream.generate += t.elapsed();
            fill
        }
    };
    let mut daemon = Daemon::start(n)?;
    let mut replica = Replica::new();
    for req in &warm {
        let fed = daemon
            .client
            .request(req)
            .map_err(|e| format!("warm-up request failed: {e}"));
        // Only a traced run replays requests, so only it needs the replica.
        if let Err(e) = fed.and_then(|_| {
            if args.trace {
                replica.feed(req)
            } else {
                Ok(())
            }
        }) {
            daemon.stop();
            return Err(e);
        }
    }
    let generate_ms = ms(stream.generate);
    Ok((daemon, stream, replica, generate_ms))
}

/// Requests sent and what came back, over one timed stretch.
#[derive(Default)]
struct Stretch {
    lat: Latencies,
    served: Vec<Served>,
    sent: Vec<u64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    wall: Duration,
}

fn run_stretch(
    args: &Args,
    daemon: &mut Daemon,
    stream: &mut Stream,
    seconds: f64,
    mut trace: Option<(&mut Replica, &mut Ledger)>,
) -> Result<Stretch, String> {
    let mut out = Stretch::default();
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let mut counters = match trace {
        Some(_) => daemon.cache_counters()?,
        None => [0; 3],
    };
    while (start.elapsed() - paused).as_secs_f64() < seconds {
        paused += stream.prepare(args)?;
        for (program, req) in stream.round() {
            out.attempted += 1;
            out.sent.push(program);
            let t = Instant::now();
            let result = daemon.client.request(req);
            let latency = t.elapsed();
            let resp = match result {
                Ok(resp) => resp,
                Err(e) => {
                    out.failed += 1;
                    out.errors.push(e.to_string());
                    continue;
                }
            };
            let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
            out.lat.push(ns);
            let digest = reply_digest(&resp.insns, &resp.blocks);
            out.served.push(Served {
                program,
                digest,
                insns: resp.insns.len(),
                misses: resp.stats.cache_misses,
                latency_ms: ms(latency),
            });
            if let Some((replica, ledger)) = trace.as_mut() {
                let t = Instant::now();
                let now = daemon.cache_counters()?;
                for (k, name) in [
                    "service.cache.hits",
                    "service.cache.misses",
                    "service.cache.evictions",
                ]
                .into_iter()
                .enumerate()
                {
                    ledger.add(name, (now[k] - counters[k]) as f64);
                }
                counters = now;
                let (replayed, accounted_ms) = replica.traced(req, ledger)?;
                if replayed != digest {
                    return Err("the traced replay's reply differs from the daemon's".to_string());
                }
                ledger.add_client(latency, accounted_ms);
                paused += t.elapsed();
            }
        }
    }
    out.wall = start.elapsed() - paused;
    Ok(out)
}

/// The library reference for one program: uncached compile, rendered
/// as the engine renders it, judged by the oracle.
struct Reference {
    digest: u64,
    cycles: u64,
    oracle: Result<(), String>,
    original: Program,
    reply: Vec<String>,
}

fn reference(
    text: &str,
    model: &MachineModel,
    config: &DriverConfig,
    scratch: &mut Scratch,
) -> Result<Reference, String> {
    let original = parse_asm(text).map_err(|e| e.to_string())?;
    let scheduled = library_compile(&original, model, config, scratch)?;
    let (reply, blocks) = render_reply(&scheduled);
    Ok(Reference {
        digest: reply_digest(&reply, &blocks),
        cycles: blocks.iter().map(|b| b.scheduled_makespan).sum(),
        oracle: check_schedule(&original, &scheduled),
        original,
        reply,
    })
}

pub fn run(args: &Args, mode: Mode) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut kept: Option<(Daemon, Stream, Replica)> = None;
    for n in 0..SETUPS {
        if let Some((daemon, ..)) = kept.take() {
            Daemon::stop(daemon);
        }
        let t = Instant::now();
        let (daemon, stream, replica, gen) = setup(args, mode, n)?;
        setup_s.push(t.elapsed().as_secs_f64());
        generate_ms.push(gen);
        kept = Some((daemon, stream, replica));
    }
    let (mut daemon, mut stream, mut replica) = kept.expect("at least one set-up");

    let mut ledger = Ledger::default();
    let mut diag: Vec<(&'static str, Json)> = Vec::new();
    let noise0 = Noise::sample();
    let timed = if args.trace {
        let plain = run_stretch(args, &mut daemon, &mut stream, args.seconds / 2.0, None);
        // Bring the replica to the daemon's cache state, off the clock.
        let plain = plain.and_then(|p| {
            for &i in &p.sent {
                let req = match mode {
                    Mode::Hit => stream.hot[i as usize].clone(),
                    Mode::Churn => ScheduleRequest::asm(program_text(churn_seed(args, i))?),
                };
                replica.feed(&req)?;
            }
            // The catch-up can outlast the daemon's idle timeout, which
            // closes the connection: dial a fresh one.
            daemon.client =
                Client::connect(&daemon.handle.endpoint()).map_err(|e| format!("connect: {e}"))?;
            Ok(p)
        });
        let traced = plain.and_then(|p| {
            let t = run_stretch(
                args,
                &mut daemon,
                &mut stream,
                args.seconds / 2.0,
                Some((&mut replica, &mut ledger)),
            )?;
            Ok((p, t))
        });
        traced.map(|(p, mut t)| {
            let (a, b) = (p.lat.median_ms(), t.lat.median_ms());
            diag.push(("trace_overhead_share", Json::from((b - a) / a)));
            // Both halves' replies are counted and checked.
            t.served.extend(p.served);
            t.errors.extend(p.errors);
            t.attempted += p.attempted;
            t.failed += p.failed;
            t
        })
    } else {
        run_stretch(args, &mut daemon, &mut stream, args.seconds, None)
    };
    let (steal_ms, runq_ms) = noise0.since(&Noise::sample());
    let peak = peak_rss_mib();
    daemon.stop();
    let timed = timed?;

    // Checks, after the timed interval. References are keyed by seed.
    let (config, model) =
        build_driver_config(&ScheduleRequest::asm("")).map_err(|e| e.to_string())?;
    let first = (args.seed % 2) as usize;
    let seed_of = |i: u64| match mode {
        Mode::Hit => HOT_SEEDS[(first + i as usize) % 2],
        Mode::Churn => churn_seed(args, i),
    };
    let cycle_seeds: Vec<u64> = match mode {
        Mode::Hit => HOT_SEEDS.to_vec(),
        Mode::Churn => CYCLE_SEEDS.collect(),
    };
    let mut needed: Vec<u64> = timed.served.iter().map(|s| seed_of(s.program)).collect();
    needed.extend(&cycle_seeds);
    needed.sort_unstable();
    needed.dedup();
    // The daemon has stopped: the checks may use every CPU again.
    unpin();
    let parts: Vec<Vec<u64>> = (0..CHECKERS)
        .map(|k| needed.iter().copied().skip(k).step_by(CHECKERS).collect())
        .collect();
    let checked: Vec<Result<Vec<(u64, Reference)>, String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = parts
            .iter()
            .map(|part| {
                let (model, config) = (&model, &config);
                scope.spawn(move || {
                    let mut scratch = Scratch::new();
                    part.iter()
                        .map(|&seed| {
                            let text = program_text(seed)?;
                            Ok((seed, reference(&text, model, config, &mut scratch)?))
                        })
                        .collect()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("a checker thread panicked".to_string()))
            })
            .collect()
    });
    let mut refs: std::collections::BTreeMap<u64, Reference> = Default::default();
    for part in checked {
        refs.extend(part?);
    }
    let mut failed = timed.failed;
    let mut wrong = 0u64;
    let mut mismatches = Vec::new();
    for s in &timed.served {
        let seed = seed_of(s.program);
        let r = &refs[&seed];
        if s.digest != r.digest || r.oracle.is_err() {
            failed += 1;
            wrong += 1;
            mismatches.push(Json::from(format!("seed {seed}: {:?}", r.oracle).as_str()));
        } else if mode == Mode::Hit && s.misses > 0 {
            failed += 1;
            mismatches.push(Json::from(
                format!("seed {seed}: {} cache misses", s.misses).as_str(),
            ));
        }
    }
    mismatches.truncate(8);
    let sample = &refs[&cycle_seeds[0]];
    let selftest = self_test(&sample.original, &sample.reply);
    let cycles: u64 = cycle_seeds.iter().map(|seed| refs[seed].cycles).sum();

    let wall = timed.wall.as_secs_f64();
    let completed = timed.served.len() as f64;
    let mut adds_up = true;
    let metrics = if args.trace {
        ledger.set_generate_ms(median(&generate_ms));
        let (ok, add_diag) = ledger.add_up();
        adds_up = ok;
        diag.push(("ledger", add_diag));
        ledger.metrics()
    } else {
        let mut by_program: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
        for s in &timed.served {
            by_program.entry(s.program).or_default().push(s.latency_ms);
        }
        let medians: Vec<f64> = by_program.values().map(|v| median(v)).collect();
        vec![
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new(
                "insns_per_s",
                timed.served.iter().map(|s| s.insns).sum::<usize>() as f64 / wall,
                "insn/s",
            ),
            Metric::new("compile_ms_geomean", geomean(&medians), "ms"),
            Metric::new("sched_cycles", cycles as f64, "cycles"),
            Metric::new("req_per_s", completed / wall, "1/s"),
            Metric::new("latency_ms_p50", timed.lat.pct_ms(50.0), "ms"),
            Metric::new("latency_ms_p90", timed.lat.pct_ms(90.0), "ms"),
            Metric::new("peak_rss_mb", peak, "MiB"),
        ]
    };
    let correct = wrong == 0 && selftest.is_ok() && adds_up;
    diag.extend([
        (
            "operation",
            Json::from("one asm-text request over a Unix socket"),
        ),
        ("latency", latency_diag(&timed.lat)),
        (
            "setups",
            Json::Arr(setup_s.iter().map(|&v| Json::from(v)).collect()),
        ),
        ("steal_ms", Json::from(steal_ms)),
        ("runq_wait_ms", Json::from(runq_ms)),
        (
            "errors",
            Json::Arr(
                timed
                    .errors
                    .iter()
                    .take(8)
                    .map(|e| Json::from(e.as_str()))
                    .collect(),
            ),
        ),
        ("check_failures", Json::Arr(mismatches)),
        (
            "selftest",
            Json::from(selftest.err().unwrap_or_else(|| "ok".to_string()).as_str()),
        ),
    ]);
    Ok(Outcome {
        correct,
        attempted: timed.attempted,
        failed,
        metrics,
        diag,
    })
}
