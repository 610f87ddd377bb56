//! The traced run's per-layer ledger.
//!
//! Spans are recorded from the benchmark's own code, around the calls
//! into each layer's public entry points. A layer's figure is its self
//! time: span time minus the child spans inside it. Self times are
//! summed over the traced operations and reported per operation (per
//! pass on `compile-table3`, per request on the serve workloads).
//!
//! The self times must add up to a time measured apart from the spans:
//! on `compile-table3`, the pass time; on the serve workloads, the time
//! of `engine::execute`, the daemon's own request path, run on the same
//! request against a twin of the replay's cache.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dagsched_core::PhaseStats;
use dagsched_driver::{BlockCache, BlockOutcome, DriverConfig};
use dagsched_isa::{Instruction, MachineModel};
use dagsched_proto::json::Json;
use dagsched_service::cache::{block_key, ScheduleCache};

use crate::report::Metric;

/// Every per-layer metric, with its unit, in the order it is printed.
pub const LAYERS: &[(&str, &str)] = &[
    ("workloads.generate_ms", "ms"),
    ("workloads.parse_asm_ms", "ms"),
    ("proto.request_encode_ms", "ms"),
    ("proto.request_decode_ms", "ms"),
    ("service.cache.block_key_ms", "ms"),
    ("service.cache.lookup_ms", "ms"),
    ("service.cache.store_ms", "ms"),
    ("core.construct_ms", "ms"),
    ("core.heur_ms", "ms"),
    ("sched.schedule_ms", "ms"),
    ("driver.self_ms", "ms"),
    ("service.engine.render_ms", "ms"),
    ("proto.response_encode_ms", "ms"),
    ("proto.response_decode_ms", "ms"),
    ("service.server.transport_ms", "ms"),
    ("core.nodes", "count"),
    ("core.arcs_added", "count"),
    ("core.comparisons", "count"),
    ("core.table_probes", "count"),
    ("proto.request_bytes", "bytes"),
    ("proto.response_bytes", "bytes"),
    ("service.cache.hits", "count"),
    ("service.cache.misses", "count"),
    ("service.cache.evictions", "count"),
];

/// Largest share of the measured time that the self times may miss or
/// over-count before the traced run reports that they do not add up.
pub const ADD_UP_TOLERANCE: f64 = 0.05;

/// Layers whose self times partition a `compile-table3` pass.
const PASS: &[&str] = &[
    "core.construct_ms",
    "core.heur_ms",
    "sched.schedule_ms",
    "driver.self_ms",
];

/// Layers whose self times partition `engine::execute` on a served
/// request (transport is the remainder of the client's latency after
/// the engine and the proto spans; generation is set-up).
const ENGINE: &[&str] = &[
    "workloads.parse_asm_ms",
    "service.cache.block_key_ms",
    "service.cache.lookup_ms",
    "service.cache.store_ms",
    "core.construct_ms",
    "core.heur_ms",
    "sched.schedule_ms",
    "driver.self_ms",
    "service.engine.render_ms",
];

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-layer totals over the traced operations.
#[derive(Debug, Default)]
pub struct Ledger {
    sums: BTreeMap<&'static str, f64>,
    /// Traced operations (passes or requests).
    ops: u64,
    /// Wall time of the traced operations, spans included.
    covered_ms: f64,
    /// Measured time of `engine::execute` on the traced requests.
    engine_ms: f64,
    /// Time the spans themselves added (repeated cache keys).
    overhead_ms: f64,
    /// Client-observed latency of the traced requests.
    client_ms: f64,
}

impl Ledger {
    pub fn add(&mut self, layer: &'static str, value: f64) {
        debug_assert!(LAYERS.iter().any(|(n, _)| *n == layer), "{layer}");
        *self.sums.entry(layer).or_default() += value;
    }

    fn get(&self, layer: &str) -> f64 {
        self.sums.get(layer).copied().unwrap_or(0.0)
    }

    /// Count one traced operation whose traced work took `covered`.
    pub fn op(&mut self, covered: Duration) {
        self.ops += 1;
        self.covered_ms += ms(covered);
    }

    /// Book the measured time of `engine::execute` on a traced request.
    pub fn add_engine(&mut self, engine: Duration) {
        self.engine_ms += ms(engine);
    }

    /// Set-up figures are per set-up, not per operation: record the
    /// median set-up's generation time once.
    pub fn set_generate_ms(&mut self, value: f64) {
        self.sums.insert("workloads.generate_ms", value);
    }

    /// Book one driver batch: the phase clocks and work counters from
    /// `stats`, the cache spans from `cache`, and the batch's own self
    /// time (partition, prepare, makespans, report) as the remainder of
    /// its wall time `batch`.
    pub fn add_batch(&mut self, batch: Duration, stats: &PhaseStats, cache: Option<&TimedCache>) {
        let phases = (stats.construct_ns + stats.heur_ns + stats.sched_ns) as f64 / 1e6;
        self.add("core.construct_ms", stats.construct_ns as f64 / 1e6);
        self.add("core.heur_ms", stats.heur_ns as f64 / 1e6);
        self.add("sched.schedule_ms", stats.sched_ns as f64 / 1e6);
        self.add("core.nodes", stats.nodes as f64);
        self.add("core.arcs_added", stats.arcs_added as f64);
        self.add("core.comparisons", stats.comparisons as f64);
        self.add("core.table_probes", stats.table_probes as f64);
        let mut inside_cache = 0.0;
        if let Some(c) = cache {
            let get = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 / 1e6;
            let (lk, li) = (get(&c.lookup_key_ns), get(&c.lookup_inner_ns));
            let (sk, si) = (get(&c.store_key_ns), get(&c.store_inner_ns));
            self.add("service.cache.block_key_ms", lk + sk);
            self.add("service.cache.lookup_ms", li - lk);
            self.add("service.cache.store_ms", si - sk);
            // The wrapper computes each key once more than the cache
            // does; that repeat is the span's own cost.
            self.overhead_ms += lk + sk;
            inside_cache = li + si + lk + sk;
        }
        self.add("driver.self_ms", ms(batch) - phases - inside_cache);
    }

    /// Book one client request of latency `client`, of which the
    /// engine and the proto spans account for `accounted_ms`: transport
    /// is the remainder.
    pub fn add_client(&mut self, client: Duration, accounted_ms: f64) {
        self.client_ms += ms(client);
        self.add("service.server.transport_ms", ms(client) - accounted_ms);
    }

    /// Every per-layer metric, per operation.
    pub fn metrics(&self) -> Vec<Metric> {
        let per = self.ops.max(1) as f64;
        LAYERS
            .iter()
            .map(|&(name, unit)| {
                let total = self.get(name);
                let value = if name == "workloads.generate_ms" {
                    total
                } else {
                    total / per
                };
                Metric::new(name, value, unit)
            })
            .collect()
    }

    /// Whether the self times add up, with the figures behind the
    /// verdict.
    pub fn add_up(&self) -> (bool, Json) {
        let (against, measured, layers) = if self.engine_ms > 0.0 {
            ("engine::execute", self.engine_ms, ENGINE)
        } else {
            ("pass", self.covered_ms - self.overhead_ms, PASS)
        };
        let sum: f64 = layers.iter().map(|l| self.get(l)).sum();
        let gap = if measured > 0.0 {
            (sum - measured) / measured
        } else {
            f64::INFINITY
        };
        let transport = self.get("service.server.transport_ms");
        let ok = self.ops > 0 && gap.abs() <= ADD_UP_TOLERANCE && transport >= 0.0;
        let per = self.ops.max(1) as f64;
        let diag = Json::obj(vec![
            ("ops", Json::from(self.ops)),
            ("measured", Json::from(against)),
            ("measured_ms_per_op", Json::from(measured / per)),
            ("self_sum_ms_per_op", Json::from(sum / per)),
            ("gap_share", Json::from(gap)),
            ("tolerance", Json::from(ADD_UP_TOLERANCE)),
            (
                "span_overhead_ms_per_op",
                Json::from(self.overhead_ms / per),
            ),
            ("client_ms_per_op", Json::from(self.client_ms / per)),
            ("adds_up", Json::from(ok)),
        ]);
        (ok, diag)
    }
}

/// A [`BlockCache`] that times the schedule cache's key, lookup and
/// store calls. Each call's key is computed once on its own (the key
/// span) and again inside the wrapped call; the call's self time is its
/// duration minus that key time. The key span runs before the wrapped
/// call on even calls and after it on odd ones, so the one that meets
/// the block's instructions already in the CPU caches alternates.
pub struct TimedCache<'a> {
    inner: &'a ScheduleCache,
    lookup_key_ns: AtomicU64,
    lookup_inner_ns: AtomicU64,
    store_key_ns: AtomicU64,
    store_inner_ns: AtomicU64,
    calls: AtomicU64,
}

impl<'a> TimedCache<'a> {
    pub fn new(inner: &'a ScheduleCache) -> TimedCache<'a> {
        TimedCache {
            inner,
            lookup_key_ns: AtomicU64::new(0),
            lookup_inner_ns: AtomicU64::new(0),
            store_key_ns: AtomicU64::new(0),
            store_inner_ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }
}

fn bump(counter: &AtomicU64, d: Duration) {
    counter.fetch_add(
        u64::try_from(d.as_nanos()).unwrap_or(u64::MAX),
        Ordering::Relaxed,
    );
}

impl TimedCache<'_> {
    /// Run `call` and a separate `block_key` of the same block, booking
    /// their durations to `inner_ns` and `key_ns`.
    fn timed<T>(
        &self,
        insns: &[Instruction],
        model: &MachineModel,
        config: &DriverConfig,
        key_ns: &AtomicU64,
        inner_ns: &AtomicU64,
        call: impl FnOnce() -> T,
    ) -> T {
        let key = || {
            let t = Instant::now();
            black_box(block_key(insns, model, config));
            t.elapsed()
        };
        let key_first = self.calls.fetch_add(1, Ordering::Relaxed).is_multiple_of(2);
        let before = if key_first { Some(key()) } else { None };
        let t = Instant::now();
        let out = call();
        bump(inner_ns, t.elapsed());
        bump(key_ns, before.unwrap_or_else(key));
        out
    }
}

impl BlockCache for TimedCache<'_> {
    fn lookup(
        &self,
        block: usize,
        insns: &[Instruction],
        model: &MachineModel,
        config: &DriverConfig,
    ) -> Option<BlockOutcome> {
        self.timed(
            insns,
            model,
            config,
            &self.lookup_key_ns,
            &self.lookup_inner_ns,
            || self.inner.lookup(block, insns, model, config),
        )
    }

    fn store(
        &self,
        insns: &[Instruction],
        model: &MachineModel,
        config: &DriverConfig,
        outcome: &BlockOutcome,
    ) {
        self.timed(
            insns,
            model,
            config,
            &self.store_key_ns,
            &self.store_inner_ns,
            || self.inner.store(insns, model, config, outcome),
        );
    }
}
