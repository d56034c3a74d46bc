//! Per-crate layer attribution.
//!
//! The probe takes a workload's own inputs — its `(kernel, graph)` pairs —
//! and passes them through each crate of the pipeline on its own, with a
//! span around every call into a crate:
//!
//! | metric                      | crate           | span                                  |
//! |-----------------------------|-----------------|---------------------------------------|
//! | `graph_build_ms`            | popt-graph      | generating the input graphs           |
//! | `kernel_ns_per_event`       | popt-kernels    | one kernel run into a counting sink   |
//! | `trace_encode_ns_per_event` | popt-tracestore | POPTTRC2 encode of the event stream   |
//! | `trace_decode_ns_per_event` | popt-tracestore | POPTTRC2 decode of the same stream    |
//! | `sim_*_ns_per_event`        | popt-sim/-core  | replaying the events into a hierarchy |
//! | `matrix_build_ms`           | popt-core       | Rereference Matrix preprocessing      |
//! | `cache_store_ms`/`_load_ms` | popt-harness    | artifact-cache persist / cold load    |
//! | `service_rtt_ms`            | popt-service    | median `GET /v1/healthz` round trip   |
//! | `oracle_*_ns_per_access`    | popt-oracle     | one differential check of a prefix    |
//!
//! Replays are checked against the production cell path
//! ([`popt_cli::runner::simulate`]): the probe must measure the same
//! simulation a sweep cell runs. The oracle spans are the checks the
//! `experiments oracle` verb runs — LRU against the Mattson stack model,
//! Belady against the independent MIN model — on the first
//! [`ORACLE_ACCESSES`] accesses of each kernel trace, and each must find
//! no violation.

use crate::Metric;
use popt_cli::runner::{popt_bindings, reserved_ways_for, simulate, PolicySpec};
use popt_core::{Encoding, Popt, PoptConfig, Quantization, Topt};
use popt_graph::Graph;
use popt_harness::{ArtifactCache, ArtifactKey, ArtifactKind};
use popt_kernels::App;
use popt_oracle::{check_belady_exact, check_mattson_exact, TraceCase};
use popt_service::client;
use popt_sim::{Hierarchy, HierarchyConfig, HierarchyStats, PolicyKind};
use popt_trace::{RecordingSink, TraceEvent, TraceSink};
use popt_tracestore::ChunkWriter;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Health-check round trips per probe.
const RTT_SAMPLES: usize = 200;

/// Accesses of each kernel trace the oracle checks run on.
const ORACLE_ACCESSES: usize = 1 << 17;

/// Sets and ways of the single-level cache the oracle checks model.
const ORACLE_SETS: usize = 64;
const ORACLE_WAYS: usize = 16;

/// Counts events without storing them.
struct EventCount(u64);

impl TraceSink for EventCount {
    fn event(&mut self, _event: TraceEvent) {
        self.0 += 1;
    }
}

/// Accumulated probe totals over all inputs.
#[derive(Default)]
struct Totals {
    events: u64,
    trace_bytes: u64,
    kernel: Duration,
    encode: Duration,
    decode: Duration,
    sim_lru: Duration,
    sim_popt: Duration,
    sim_topt: Duration,
    matrix: Duration,
    store: Duration,
    load: Duration,
    oracle_accesses: u64,
    oracle_lru: Duration,
    oracle_min: Duration,
    llc_accesses: u64,
    llc_misses_lru: u64,
    llc_misses_popt: u64,
}

fn timed<T>(total: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *total += t.elapsed();
    out
}

fn replay(h: &mut Hierarchy, events: &[TraceEvent]) {
    for &e in events {
        h.event(e);
    }
}

/// Runs the probe over the inputs `build` generates. Returns the layer
/// metrics, or an error naming the first layer whose output disagreed
/// with the production path.
pub fn probe(build: &dyn Fn() -> Vec<(App, Graph)>, work: &Path) -> Result<Vec<Metric>, String> {
    let t = Instant::now();
    let inputs = build();
    let graph_build = t.elapsed();

    let cfg = HierarchyConfig::small_test();
    let mut tot = Totals::default();
    for (i, (app, g)) in inputs.iter().enumerate() {
        let app = *app;
        let plan = app.plan(g);

        let mut count = EventCount(0);
        timed(&mut tot.kernel, || app.trace(g, &plan, &mut count));
        let mut recorder = RecordingSink::new();
        app.trace(g, &plan, &mut recorder);
        let events = recorder.into_events();
        if events.len() as u64 != count.0 {
            return Err(format!("{app}: kernel event count is not repeatable"));
        }
        tot.events += count.0;

        let bytes = timed(&mut tot.encode, || {
            let mut w = ChunkWriter::create(Vec::new(), &plan.space, "perfbench")
                .map_err(|e| e.to_string())?;
            for &e in &events {
                w.event(e);
            }
            w.finish()
                .map(|(bytes, _)| bytes)
                .map_err(|e| e.to_string())
        })?;
        tot.trace_bytes += bytes.len() as u64;
        let mut decoded = EventCount(0);
        timed(&mut tot.decode, || {
            popt_tracestore::replay_any(&bytes[..], &mut decoded)
        })
        .map_err(|e| format!("{app}: trace decode failed: {e}"))?;
        let mut roundtrip = RecordingSink::new();
        popt_tracestore::replay_any(&bytes[..], &mut roundtrip)
            .map_err(|e| format!("{app}: trace decode failed: {e}"))?;
        if decoded.0 != count.0 || roundtrip.events() != &events[..] {
            return Err(format!("{app}: trace round trip changed the event stream"));
        }

        let bindings = timed(&mut tot.matrix, || {
            popt_bindings(app, g, &plan, Quantization::EIGHT, Encoding::InterIntra)
        });
        let dir = work.join(format!("probe-cache-{i}"));
        let store = ArtifactCache::open(&dir).map_err(|e| format!("cache open: {e}"))?;
        let load = ArtifactCache::open(&dir).map_err(|e| format!("cache open: {e}"))?;
        for (j, b) in bindings.iter().enumerate() {
            let key = ArtifactKey::new(ArtifactKind::Matrix, format!("perfbench/{i}/{j}"));
            timed(&mut tot.store, || {
                store.matrix(&key, || (*b.matrix).clone())
            });
            let mut rebuilt = false;
            let loaded = timed(&mut tot.load, || {
                load.matrix(&key, || {
                    rebuilt = true;
                    (*b.matrix).clone()
                })
            });
            if rebuilt || *loaded != *b.matrix {
                return Err(format!(
                    "{app}: artifact cache did not return the stored matrix"
                ));
            }
        }

        let check = |spec: &PolicySpec, got: HierarchyStats| {
            if simulate(app, g, &cfg, spec) == got {
                Ok(got)
            } else {
                Err(format!(
                    "{app}: {} replay differs from the cell path",
                    spec.label()
                ))
            }
        };

        let mut lru = Hierarchy::new(&cfg, |s, w| PolicyKind::Lru.build(s, w));
        lru.set_address_space(&plan.space);
        timed(&mut tot.sim_lru, || replay(&mut lru, &events));
        let lru = check(&PolicySpec::Baseline(PolicyKind::Lru), lru.stats())?;
        tot.llc_accesses += lru.llc.demand_accesses();
        tot.llc_misses_lru += lru.llc.misses;

        let popt_cfg = cfg
            .clone()
            .with_reserved_ways(reserved_ways_for(&bindings, &cfg));
        let mut popt = Hierarchy::new(&popt_cfg, |s, w| {
            Box::new(Popt::new(PoptConfig::new(bindings.clone()), s, w))
        });
        popt.set_address_space(&plan.space);
        timed(&mut tot.sim_popt, || replay(&mut popt, &events));
        let popt = check(&PolicySpec::popt_default(), popt.stats())?;
        tot.llc_misses_popt += popt.llc.misses;

        let transpose = Arc::new(g.transpose_of(app.direction()).clone());
        let streams = plan.irregular_streams();
        let mut topt = Hierarchy::new(&cfg, |s, w| {
            Box::new(Topt::new(Arc::clone(&transpose), streams.clone(), s, w))
        });
        topt.set_address_space(&plan.space);
        timed(&mut tot.sim_topt, || replay(&mut topt, &events));
        check(&PolicySpec::Topt, topt.stats())?;

        let case = TraceCase::from_events(
            &app.to_string(),
            ORACLE_SETS,
            ORACLE_WAYS,
            &events,
            Some(&plan.space),
        )
        .prefix(ORACLE_ACCESSES);
        tot.oracle_accesses += case.num_accesses() as u64;
        let mut violations = timed(&mut tot.oracle_lru, || check_mattson_exact(&case));
        violations.extend(timed(&mut tot.oracle_min, || check_belady_exact(&case)));
        if let Some(v) = violations.first() {
            return Err(format!("{app}: oracle {}: {}", v.check, v.detail));
        }
    }

    let rtt = service_rtt(&work.join("probe-service"))?;

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let per_event = |d: Duration| d.as_secs_f64() * 1e9 / tot.events as f64;
    let per_access = |d: Duration| d.as_secs_f64() * 1e9 / tot.oracle_accesses as f64;
    let m = |name, value, unit| Metric { name, value, unit };
    Ok(vec![
        m("graph_build_ms", ms(graph_build), "ms"),
        m("kernel_ns_per_event", per_event(tot.kernel), "ns"),
        m("trace_encode_ns_per_event", per_event(tot.encode), "ns"),
        m("trace_decode_ns_per_event", per_event(tot.decode), "ns"),
        m("sim_lru_ns_per_event", per_event(tot.sim_lru), "ns"),
        m("sim_popt_ns_per_event", per_event(tot.sim_popt), "ns"),
        m("sim_topt_ns_per_event", per_event(tot.sim_topt), "ns"),
        m("matrix_build_ms", ms(tot.matrix), "ms"),
        m("cache_store_ms", ms(tot.store), "ms"),
        m("cache_load_ms", ms(tot.load), "ms"),
        m("service_rtt_ms", rtt * 1e3, "ms"),
        m("oracle_lru_ns_per_access", per_access(tot.oracle_lru), "ns"),
        m("oracle_min_ns_per_access", per_access(tot.oracle_min), "ns"),
        m("events", tot.events as f64, "count"),
        m("trace_bytes", tot.trace_bytes as f64, "bytes"),
        m("llc_accesses", tot.llc_accesses as f64, "count"),
        m("llc_misses_lru", tot.llc_misses_lru as f64, "count"),
        m("llc_misses_popt", tot.llc_misses_popt as f64, "count"),
    ])
}

/// Median health-check round trip of a freshly started daemon, seconds.
fn service_rtt(out: &Path) -> Result<f64, String> {
    let service = crate::workloads::start_daemon(out)?;
    let addr = service.local_addr();
    let mut samples = Vec::with_capacity(RTT_SAMPLES);
    let mut result = Ok(());
    for _ in 0..RTT_SAMPLES {
        let t = Instant::now();
        match client::request(addr, "GET", "/v1/healthz", None) {
            Ok(r) if r.status == 200 => samples.push(t.elapsed()),
            Ok(r) => {
                result = Err(format!("healthz answered {}", r.status));
                break;
            }
            Err(e) => {
                result = Err(format!("healthz failed: {e}"));
                break;
            }
        }
    }
    service
        .shutdown()
        .map_err(|e| format!("service shutdown: {e}"))?;
    result.map(|()| crate::median_secs(&samples))
}
