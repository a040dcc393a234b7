//! The serving workloads, serve-paper and shadow-burst.
//!
//! Both replay the merged fleet stream through `FleetServer::ingest` as one closed-loop
//! caller: the next event is sent when `ingest` returns. A pass serves the whole stream
//! on a fresh server and passes repeat until the main phase has run for `--seconds`.
//! The secondary phase replays policies offline through `run_policy` for half as long.

use std::sync::Arc;
use std::time::Instant;
use uerl_core::{
    AlwaysMitigate, MitigationConfig, MitigationPolicy, NeverMitigate, OraclePolicy,
    RecordRetention, RlPolicy, TimelineSet, STATE_DIM,
};
use uerl_eval::run_policy;
use uerl_rl::{AgentConfig, DqnAgent};
use uerl_serve::{
    merged_fleet_stream, FleetServer, NodeServeReport, ServeConfig, ServeReport, ServedDecision,
    ShadowPolicy, ShadowScore,
};
use uerl_trace::log::MergedEvent;

use crate::bench::{
    load_fleet, on_threads, repeat_setup, replay_phase, run_bits, time_boxed, totals_bits,
    traced_run_policy, Report, Run, TotalsBits,
};
use crate::inputs::{InputText, Workload};
use crate::reference::{Reference, ScaledClock};
use crate::stats::{median, percentile_sorted, Fnv};
use crate::timed::{PolicyTime, Timed};

/// Every `PARITY_STRIDE`-th node of serve-paper is replayed offline and checked
/// against its served totals.
const PARITY_STRIDE: usize = 16;

/// Forward FLOPs of one row through the paper's dueling network, computed from the
/// layer shapes (two per multiply-add): the 256-256-128-64 trunk on the 15 features,
/// then the value (1) and advantage (2) heads.
pub fn paper_forward_flops_per_row() -> f64 {
    let config = AgentConfig::paper(STATE_DIM);
    let mut macs = 0usize;
    let mut width = config.state_dim;
    for &next in &config.hidden {
        macs += width * next;
        width = next;
    }
    macs += width * (1 + config.n_actions);
    2.0 * macs as f64
}

/// Seed of the served model's weights. The model is part of the system under test and
/// stays fixed; the workload seed varies only the input logs. Inference time does
/// depend on the weight values: serving with per-seed weights spread the throughput
/// of the same inputs by up to 20%.
const SERVED_MODEL_SEED: u64 = 0;

/// The served paper-network policy: an untrained agent compacted for inference.
fn paper_policy() -> RlPolicy {
    let mut agent = DqnAgent::new(AgentConfig::paper(STATE_DIM).with_seed(SERVED_MODEL_SEED));
    agent.compact_for_inference();
    RlPolicy::new(agent)
}

fn serve_config(timelines: &TimelineSet, seed: u64) -> ServeConfig {
    ServeConfig::for_timelines(timelines, MitigationConfig::paper_default(), seed)
        .with_retention(RecordRetention::TotalsOnly)
}

/// Events served between two reference samples, about 13 ms of serve-paper.
const LAP_EVENTS: usize = 256;

/// What one serving pass measured.
#[derive(Debug, Clone, Default)]
struct Pass {
    events: u64,
    rejected: u64,
    decisions: u64,
    /// Calls that emitted at least one decision.
    emitting_calls: u64,
    /// Wall time inside `ingest`/`flush` calls.
    call_nanos: u64,
    /// Wall time of the whole ingest loop plus the final flush, reference samples
    /// excluded.
    wall_nanos: u64,
    /// The same time scaled by the reference speed, lap by lap.
    scaled_nanos: f64,
    /// Scaled time of the decision-emitting calls at p50 and p99. The calls' times
    /// themselves are dropped when the pass ends.
    latency_p50_nanos: u64,
    latency_p99_nanos: u64,
    digest: Fnv,
}

impl Pass {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.scaled_nanos / 1e9)
    }

    fn wall_events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_nanos as f64 / 1e9)
    }
}

/// Serve the whole stream through `server`, timing every `ingest`/`flush` call. With a
/// reference, the pass is timed in laps of [`LAP_EVENTS`] events, each scaled by the
/// reference speed sampled around it.
fn serve_pass<P: MitigationPolicy>(
    server: &mut FleetServer<P>,
    stream: &[MergedEvent],
    reference: Option<&Reference>,
) -> Pass {
    let mut pass = Pass::default();
    let mut latencies = Vec::new();
    let mut out: Vec<ServedDecision> = Vec::with_capacity(256);
    let emitted =
        |pass: &mut Pass, latencies: &mut Vec<u64>, out: &mut Vec<ServedDecision>, nanos: u64| {
            pass.call_nanos += nanos;
            if out.is_empty() {
                return;
            }
            latencies.push(nanos);
            pass.emitting_calls += 1;
            pass.decisions += out.len() as u64;
            for d in out.drain(..) {
                pass.digest.word(u64::from(d.node.0));
                pass.digest.word(d.time.0 as u64);
                pass.digest.word(u64::from(d.mitigated));
            }
        };
    let mut clock = ScaledClock::start(reference);
    for (i, event) in stream.iter().enumerate() {
        if i > 0 && i % LAP_EVENTS == 0 {
            clock.lap_latencies(&mut latencies);
        }
        let event = event.clone();
        let call = Instant::now();
        let result = server.ingest(event, &mut out);
        let nanos = call.elapsed().as_nanos() as u64;
        pass.rejected += u64::from(result.is_err());
        emitted(&mut pass, &mut latencies, &mut out, nanos);
    }
    let call = Instant::now();
    server.flush(&mut out);
    let nanos = call.elapsed().as_nanos() as u64;
    emitted(&mut pass, &mut latencies, &mut out, nanos);
    clock.lap_latencies(&mut latencies);
    (pass.wall_nanos, pass.scaled_nanos) = (clock.wall_nanos, clock.scaled_nanos);
    pass.events = stream.len() as u64;
    latencies.sort_unstable();
    pass.latency_p50_nanos = percentile_sorted(&latencies, 0.50);
    pass.latency_p99_nanos = percentile_sorted(&latencies, 0.99);
    pass
}

fn report_bits(r: &ServeReport) -> TotalsBits {
    totals_bits(
        r.mitigations,
        r.non_mitigations,
        r.ue_count,
        r.mitigation_cost,
        r.ue_cost,
    )
}

fn node_bits(n: &NodeServeReport) -> TotalsBits {
    totals_bits(
        n.mitigations,
        n.non_mitigations,
        n.ue_count,
        n.mitigation_cost,
        n.ue_cost,
    )
}

fn shadow_bits(s: &ShadowScore) -> TotalsBits {
    totals_bits(
        s.mitigations,
        s.non_mitigations,
        s.ue_count,
        s.mitigation_cost,
        s.ue_cost,
    )
}

/// Everything a serving pass leaves behind for the gates and metrics.
struct Served {
    pass: Pass,
    report: ServeReport,
    shadows: Vec<ShadowScore>,
    /// Σ `NodeSession::approx_bytes` ÷ live nodes at the end of the pass.
    bytes_per_node: f64,
}

fn finish<P: MitigationPolicy>(server: &FleetServer<P>, pass: Pass) -> Served {
    let live = server.live_nodes().max(1);
    let bytes: usize = server.sessions().map(|s| s.approx_bytes()).sum();
    Served {
        pass,
        report: server.report(),
        shadows: server.shadow_report(),
        bytes_per_node: bytes as f64 / live as f64,
    }
}

/// `served` without its per-node reports unless it is the `first` pass, which the
/// parity gate reads. The other passes are checked on their totals and decision digest,
/// and keep nothing that grows with the fleet, so peak memory does not grow with the
/// number of passes a faster program fits into the run.
fn compact(mut served: Served, first: bool) -> Served {
    if !first {
        served.report.per_node = Vec::new();
    }
    served
}

/// The per-pass gates: no rejected event, one decision per non-fatal event, every
/// event reported, and every pass identical to the first.
fn check_passes(report: &mut Report, served: &[Served], stream: &[MergedEvent]) {
    let non_fatal = stream.iter().filter(|e| !e.fatal).count() as u64;
    let events: u64 = served.iter().map(|s| s.pass.events).sum();
    let rejected: u64 = served.iter().map(|s| s.pass.rejected).sum();
    report.ops("events ingested", events, rejected);
    let decisions: u64 = served.iter().map(|s| s.pass.decisions).sum();
    let missing = served
        .iter()
        .map(|s| s.pass.decisions.abs_diff(non_fatal))
        .sum();
    report.ops("decisions emitted", decisions.max(1), missing);
    let first = &served[0];
    for s in served {
        report.check(
            s.report.events == stream.len() as u64,
            "served report counts every event",
        );
        report.check(
            s.report.mitigations + s.report.non_mitigations == non_fatal,
            "served report holds one decision per non-fatal event",
        );
        report.check(
            s.pass.digest == first.pass.digest
                && report_bits(&s.report) == report_bits(&first.report)
                && s.shadows
                    .iter()
                    .map(shadow_bits)
                    .eq(first.shadows.iter().map(shadow_bits)),
            "every pass serves the same decisions and costs",
        );
    }
}

/// End-to-end serving metrics, each the median over passes of the pass's scaled
/// figure: a burst of other load on the machine moves a few passes, not the median.
fn report_serving(report: &mut Report, served: &[Served]) {
    let rates: Vec<f64> = served.iter().map(|s| s.pass.events_per_sec()).collect();
    let wall: Vec<f64> = served
        .iter()
        .map(|s| s.pass.wall_events_per_sec())
        .collect();
    let calls = served[0].pass.emitting_calls;
    report.note(format!(
        "serve: {} passes of {} events; per pass {rates:.0?} scaled events/s, {wall:.0?} wall events/s; {calls} decision-emitting calls per pass, {} beyond p99",
        served.len(),
        served[0].pass.events,
        calls - (calls as f64 * 0.99).ceil() as u64,
    ));
    report.metric("throughput_per_sec", median(&rates), "1/s");
    let latency_us = |nanos: fn(&Pass) -> u64| {
        let per_pass: Vec<f64> = served.iter().map(|s| nanos(&s.pass) as f64 / 1e3).collect();
        median(&per_pass)
    };
    report.metric("latency_p50_us", latency_us(|p| p.latency_p50_nanos), "us");
    report.metric("latency_p99_us", latency_us(|p| p.latency_p99_nanos), "us");
}

/// Per-layer serving metrics from the wrapped passes of the traced run.
fn report_serving_layers(
    report: &mut Report,
    served: &[Served],
    policy_time: PolicyTime,
    rl: Option<PolicyTime>,
) {
    let events: u64 = served.iter().map(|s| s.pass.events).sum();
    let calls: u64 = served.iter().map(|s| s.pass.call_nanos).sum();
    let emitting: u64 = served.iter().map(|s| s.pass.emitting_calls).sum();
    let self_nanos = calls.saturating_sub(policy_time.nanos);
    let self_us = self_nanos as f64 / events as f64 / 1e3;
    let policy_us = policy_time.nanos as f64 / events as f64 / 1e3;
    report.note(format!(
        "serve split per event: {:.3} us in ingest/flush = {policy_us:.3} us inside policies ({} rows, {} calls) + {self_us:.3} us serve self",
        calls as f64 / events as f64 / 1e3,
        policy_time.rows,
        policy_time.calls,
    ));
    report.metric("serve.self_us_per_event", self_us, "us");
    report.metric(
        "serve.events_per_tick",
        events as f64 / emitting as f64,
        "count",
    );
    report.metric("serve.bytes_per_node", served[0].bytes_per_node, "bytes");
    report.metric("serve.decision_calls", emitting as f64, "count");
    if let Some(rl) = rl {
        let decide_us = rl.nanos as f64 / rl.rows as f64 / 1e3;
        report.note(format!(
            "rl: {decide_us:.3} us/row over {} rows in {} decide_batch calls; forward FLOPs computed from layer shapes, not counted",
            rl.rows, rl.calls
        ));
        report.metric("rl.decide_us_per_row", decide_us, "us");
        report.metric(
            "rl.rows_per_call",
            rl.rows as f64 / rl.calls as f64,
            "count",
        );
        report.metric(
            "nn.forward_gflops",
            paper_forward_flops_per_row() * rl.rows as f64 / rl.nanos as f64,
            "GFLOP/s",
        );
    }
}

/// The unwrapped pass of the traced run.
fn plain_pass<P: MitigationPolicy>(mut server: FleetServer<P>, stream: &[MergedEvent]) -> Served {
    let pass = serve_pass(&mut server, stream, None);
    finish(&server, pass)
}

/// Tracing overhead: wrapped serving time over unwrapped serving time.
fn report_overhead(report: &mut Report, plain: &Served, wrapped: &[Served]) {
    let plain_ns = plain.pass.wall_nanos as f64 / plain.pass.events as f64;
    let wrapped_ns = wrapped.iter().map(|s| s.pass.wall_nanos).sum::<u64>() as f64
        / wrapped.iter().map(|s| s.pass.events).sum::<u64>() as f64;
    let overhead = 100.0 * (wrapped_ns / plain_ns - 1.0);
    report.note(format!(
        "tracing overhead: {plain_ns:.1} ns/event unwrapped vs {wrapped_ns:.1} ns/event wrapped ({overhead:+.2}%)"
    ));
    report.metric("bench.trace_overhead_pct", overhead, "%");
    let transparent = wrapped.iter().all(|w| {
        w.report == plain.report && w.shadows == plain.shadows && w.pass.digest == plain.pass.digest
    });
    report.check(
        transparent,
        "wrapped and unwrapped serves give identical reports",
    );
}

/// serve-paper: the paper network served at batch ≈ 1 on one thread.
pub fn serve_paper(text: &InputText, run: &Run) -> Result<Report, String> {
    on_threads(1, || serve_paper_on_pool(text, run))?
}

fn serve_paper_on_pool(text: &InputText, run: &Run) -> Result<Report, String> {
    uerl_obs::set_enabled(false);
    let seed = run.seed;
    let mut report = Report::default();
    let reference = run.reference(Reference::inference);
    let (fleet, stream, policy, server) = repeat_setup(&mut report, reference.as_ref(), |t| {
        let fleet = load_fleet(text, Workload::ServePaper.fleet(), t)?;
        let stream = t.span("serve.merge_stream", || {
            merged_fleet_stream(&fleet.timelines)
        });
        let policy = t.span("rl.build_policy", paper_policy);
        let server = t.span("serve.build_server", || {
            FleetServer::new(
                serve_config(&fleet.timelines, seed),
                policy.clone(),
                fleet.sampler.clone(),
            )
        });
        Ok((fleet, stream, policy, server))
    })?;
    let config = *server.config();
    let new_server = || FleetServer::new(config, policy.clone(), fleet.sampler.clone());

    let mut served = Vec::new();
    let mut first_server = Some(server);
    if run.trace {
        let plain = plain_pass(first_server.take().expect("set-up server"), &stream);
        let mut rl = PolicyTime::default();
        time_boxed(run.seconds, || {
            let mut wrapped =
                FleetServer::new(config, Timed::new(policy.clone()), fleet.sampler.clone());
            let pass = serve_pass(&mut wrapped, &stream, None);
            rl = rl + wrapped.policy().time();
            served.push(finish(&wrapped, pass));
        });
        report_serving_layers(&mut report, &served, rl, Some(rl));
        report_overhead(&mut report, &plain, &served);
    } else {
        time_boxed(run.seconds, || {
            let mut server = first_server.take().unwrap_or_else(&new_server);
            let pass = serve_pass(&mut server, &stream, reference.as_ref());
            served.push(compact(finish(&server, pass), served.is_empty()));
        });
        report_serving(&mut report, &served);
    }
    check_passes(&mut report, &served, &stream);

    // Offline replay of every PARITY_STRIDE-th node, one `run_policy` call per node, so
    // each node's served totals can be checked bit for bit.
    let sampled: Vec<TimelineSet> = fleet
        .timelines
        .timelines()
        .iter()
        .step_by(PARITY_STRIDE)
        .map(|t| {
            TimelineSet::from_timelines(
                fleet.timelines.window_start(),
                fleet.timelines.window_end(),
                vec![t.clone()],
            )
        })
        .collect();
    let timed = Timed::new(policy.clone());
    let runs = replay_phase(&mut report, |report| {
        sampled
            .iter()
            .map(|set| {
                if run.trace {
                    traced_run_policy(report, &timed, set, &fleet, seed)
                } else {
                    run_policy(
                        &policy,
                        set,
                        &fleet.sampler,
                        MitigationConfig::paper_default(),
                        seed,
                    )
                }
            })
            .collect()
    });
    let served_report = &served[0].report;
    let mut mismatched = 0;
    for (set, offline) in sampled.iter().zip(&runs) {
        let node = set.timelines()[0].node();
        let online = served_report.per_node.iter().find(|n| n.node == node);
        if online.map(node_bits) != Some(run_bits(offline)) {
            mismatched += 1;
        }
    }
    report.ops(
        "parity: served node totals equal run_policy",
        sampled.len() as u64,
        mismatched,
    );
    report.note(format!(
        "fingerprint: input={:016x} decisions={:016x} served={:x?}",
        text.digest(),
        served[0].pass.digest.0,
        report_bits(served_report)
    ));
    Ok(report)
}

/// shadow-burst: an observe-only rollout with two shadow lanes over a correlated-burst
/// fleet, plus the offline cost-benefit replay of the same policies. One thread: on a
/// shared 2-vCPU machine, two threads measured the neighbours' load as much as the
/// program (passes of one run spread ±20%, against ±5% on one thread) and served no
/// faster.
pub fn shadow_burst(text: &InputText, run: &Run) -> Result<Report, String> {
    on_threads(1, || shadow_burst_on_pool(text, run))?
}

fn shadow_burst_on_pool(text: &InputText, run: &Run) -> Result<Report, String> {
    uerl_obs::set_enabled(true);
    let seed = run.seed;
    let mut report = Report::default();
    let reference = run.reference(Reference::inference);
    let (fleet, stream, oracle, server) = repeat_setup(&mut report, reference.as_ref(), |t| {
        let fleet = load_fleet(text, Workload::ShadowBurst.fleet(), t)?;
        let stream = t.span("serve.merge_stream", || {
            merged_fleet_stream(&fleet.timelines)
        });
        let oracle = t.span("core.build_oracle", || {
            Arc::new(OraclePolicy::from_timelines(&fleet.timelines))
        });
        let server = t.span("serve.build_server", || {
            let shadows = vec![Arc::new(AlwaysMitigate) as ShadowPolicy, oracle.clone()];
            FleetServer::new(
                serve_config(&fleet.timelines, seed),
                NeverMitigate,
                fleet.sampler.clone(),
            )
            .with_shadow_policies(shadows)
        });
        Ok((fleet, stream, oracle, server))
    })?;
    let config = *server.config();

    let mut served = Vec::new();
    let mut first_server = Some(server);
    if run.trace {
        let plain = plain_pass(first_server.take().expect("set-up server"), &stream);
        let always = Arc::new(Timed::new(AlwaysMitigate));
        let oracle_timed = Arc::new(Timed::new((*oracle).clone()));
        let mut never = PolicyTime::default();
        time_boxed(run.seconds, || {
            let shadows = vec![
                always.clone() as ShadowPolicy,
                oracle_timed.clone() as ShadowPolicy,
            ];
            let mut wrapped =
                FleetServer::new(config, Timed::new(NeverMitigate), fleet.sampler.clone())
                    .with_shadow_policies(shadows);
            let pass = serve_pass(&mut wrapped, &stream, None);
            never = never + wrapped.policy().time();
            served.push(finish(&wrapped, pass));
        });
        let policy_time = never + always.time() + oracle_timed.time();
        report_serving_layers(&mut report, &served, policy_time, None);
        report_overhead(&mut report, &plain, &served);
    } else {
        time_boxed(run.seconds, || {
            let mut server = first_server.take().unwrap_or_else(|| {
                FleetServer::new(config, NeverMitigate, fleet.sampler.clone()).with_shadow_policies(
                    vec![Arc::new(AlwaysMitigate) as ShadowPolicy, oracle.clone()],
                )
            });
            let pass = serve_pass(&mut server, &stream, reference.as_ref());
            served.push(compact(finish(&server, pass), served.is_empty()));
        });
        report_serving(&mut report, &served);
    }
    check_passes(&mut report, &served, &stream);

    // The paper's cost-benefit replay of the same three policies over the same fleet.
    let never = Timed::new(NeverMitigate);
    let always = Timed::new(AlwaysMitigate);
    let oracle_timed = Timed::new((*oracle).clone());
    let timelines = &fleet.timelines;
    let runs = replay_phase(&mut report, |report| {
        if run.trace {
            vec![
                traced_run_policy(report, &never, timelines, &fleet, seed),
                traced_run_policy(report, &always, timelines, &fleet, seed),
                traced_run_policy(report, &oracle_timed, timelines, &fleet, seed),
            ]
        } else {
            let replay = |p: &(dyn MitigationPolicy + Sync)| {
                run_policy(
                    p,
                    timelines,
                    &fleet.sampler,
                    MitigationConfig::paper_default(),
                    seed,
                )
            };
            vec![
                replay(&NeverMitigate),
                replay(&AlwaysMitigate),
                replay(&*oracle),
            ]
        }
    });
    let first = &served[0];
    report.check(
        report_bits(&first.report) == run_bits(&runs[0]),
        "served lane equals run_policy(Never-mitigate)",
    );
    report.check(first.shadows.len() == 2, "two shadow lanes");
    for (shadow, offline) in first.shadows.iter().zip(&runs[1..]) {
        report.check(
            shadow.policy == offline.policy && shadow_bits(shadow) == run_bits(offline),
            "shadow lane equals run_policy of its policy",
        );
    }
    report.note(format!(
        "fingerprint: input={:016x} decisions={:016x} served={:x?} shadows={:x?}",
        text.digest(),
        first.pass.digest.0,
        report_bits(&first.report),
        first.shadows.iter().map(shadow_bits).collect::<Vec<_>>()
    ));
    Ok(report)
}
