//! `serve_guarded`: the Grid World policy served on the native `Q(1,4,11)`
//! backend to 4096 sessions, each striking observation bits at BER 1e-3 and
//! scrubbing activations through one shared range guard.
//!
//! An open-loop generator on the calling thread drives one serve shard
//! (two busy threads in all) through two phases:
//!
//! * `steady` — seeded Poisson arrivals at 100k decisions/s; latency runs
//!   from each request's scheduled send to the reply being observed, so a
//!   stall is charged to every request it delays. The reported mean and p99
//!   are taken block by block (see [`BlockLatency`]);
//! * `saturate` — every session resubmits the moment its reply lands, which
//!   measures raw capacity: every reply over the phase's wall time.
//!
//! The traced run wraps each session's hook in [`TimedHook`] to see when
//! its row enters and leaves the sweep, and splits every request into
//! generator lag, submit, queue wait, sweep (with fault strike and guard
//! scrub inside it) and reply.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use navft_core::grid_policies::{train_clean_policy, PolicyKind};
use navft_core::Scale;
use navft_fault::{FaultKind, FaultSpec};
use navft_gridworld::{GridWorld, ObstacleDensity};
use navft_mitigation::{RangeGuard, RangeGuardConfig};
use navft_nn::{argmax, HooksFor, LayerKind, QForwardHooks, QNetwork, QTensor};
use navft_qformat::QFormat;
use navft_rl::{DiscreteEnvironment, EvalElement};
use navft_serve::{Decision, ServeConfig, ServeError, Server, SessionHook, SessionId, Ticket};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::hist::{BlockLatency, LogHistogram};
use crate::loadgen::PoissonSchedule;
use crate::trace::Tracer;
use crate::{mix, us, Measured, Workload};

const SESSIONS: usize = 4096;
const STEADY_RATE_PER_S: f64 = 100_000.0;
const FORMAT: QFormat = QFormat::Q4_11;
const OBS_BER: f64 = 1e-3;
/// Every this many sessions, one is recorded and replayed for the output
/// check.
const CHECK_EVERY: usize = 64;
/// How long a phase may take to drain its in-flight requests before the
/// rest count as unserved.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);

pub struct ServeGuarded;

pub struct Setup {
    server: Server<i32>,
    policy: QNetwork,
    guard: Arc<RangeGuard>,
    states: usize,
}

impl Workload for ServeGuarded {
    type Setup = Setup;
    /// Requests overlap, so their spans do not tile the run.
    const SPANS_TILE: bool = false;

    /// Trains the served policy from a fixed seed (it is the program, not
    /// an input: the workload seed drives sessions, arrivals and faults),
    /// then starts the server.
    fn setup(_seed: u64) -> Setup {
        let params = Scale::Quick.grid();
        let run = train_clean_policy(PolicyKind::Network, ObstacleDensity::Middle, &params, 0);
        let float_policy = run.network.expect("a network policy").network().clone();
        let policy = QNetwork::quantize(&float_policy, FORMAT);
        let guard =
            Arc::new(RangeGuard::from_network(&float_policy, FORMAT, RangeGuardConfig::paper()));
        let states = GridWorld::with_density(ObstacleDensity::Middle).num_states();
        let config = ServeConfig::default().with_workers(1).with_queue_capacity(SESSIONS);
        let server = Server::start(policy.clone(), &[states], config);
        Setup { server, policy, guard, states }
    }

    fn measure(setup: &Setup, seed: u64, seconds: f64, tracer: Option<&mut Tracer>) -> Measured {
        let phase = Duration::from_secs_f64(seconds / 2.0);
        let mut gen = Generator::open(setup, seed, tracer.as_ref().map(|t| t.epoch()));
        let steady = gen.run_phase(Phase::Steady, seed, phase, tracer.is_some());
        let saturate = gen.run_phase(Phase::Saturate, seed, phase, tracer.is_some());
        let mismatched = gen.check_replays(setup, seed);
        gen.close(setup);

        let attempted = steady.attempted + saturate.attempted;
        let failed =
            steady.errors + steady.unserved + saturate.errors + saturate.unserved + mismatched;
        let mean = us(steady.blocks.block_mean());
        let p99 = us(steady.blocks.p99());
        // Capacity: every reply of the phase, drain included, over its wall.
        let rate = saturate.completed as f64 / saturate.wall.as_secs_f64();
        let mut layers = Vec::new();
        if let Some(tracer) = tracer {
            steady.layers(Phase::Steady, &mut layers);
            saturate.layers(Phase::Saturate, &mut layers);
            steady.emit_spans(tracer, 0);
            saturate.emit_spans(tracer, SPAN_REQUESTS as u64);
        }
        Measured {
            attempted,
            failed,
            latency_mean_us: mean,
            latency_p99_us: p99,
            decisions_per_s: rate,
            wall_s: (steady.wall + saturate.wall).as_secs_f64(),
            named: vec![
                ("decision_mean_us", mean, "us"),
                ("decision_p50_us_all_requests", us(steady.latency.quantile(0.5)), "us"),
                ("decision_p99_us", p99, "us"),
                ("decision_p99_us_all_requests", us(steady.latency.quantile(0.99)), "us"),
                ("decisions_per_s", rate, "1/s"),
                ("steady_samples", steady.latency.len() as f64, "count"),
                ("steady_lag_p99_us", us(steady.lag.quantile(0.99)), "us"),
            ],
            layers,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Steady,
    Saturate,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Steady => "steady",
            Phase::Saturate => "saturate",
        }
    }
}

/// What a traced session hook saw of its latest request, in nanoseconds
/// since the tracer's epoch. Written on the batcher thread before the reply
/// is sent and read on the generator thread after the reply arrives; the
/// reply channel orders the two, so relaxed atomics suffice.
#[derive(Default)]
struct Probe {
    first_ns: AtomicU64,
    input_start_ns: AtomicU64,
    input_end_ns: AtomicU64,
    scrub_first_ns: AtomicU64,
    scrub_ns: AtomicU64,
    last_ns: AtomicU64,
    struck: AtomicU64,
    scrubbed: AtomicU64,
}

/// Batch boundaries seen from the hooks: a batch starts at the first input
/// row after an output row and ends at its last output row. Touched only by
/// the batcher thread while serving, and by the generator after a drain.
#[derive(Default)]
struct BatchClock {
    open: Option<(u64, u64, u64)>, // (start, end, rows)
    last_was_input: bool,
    sweep_ns: LogHistogram,
    rows: LogHistogram,
}

impl BatchClock {
    fn input(&mut self, at: u64) {
        if !self.last_was_input {
            self.flush();
            self.open = Some((at, at, 0));
        }
        if let Some(open) = self.open.as_mut() {
            open.2 += 1;
        }
        self.last_was_input = true;
    }

    fn output(&mut self, at: u64) {
        if let Some(open) = self.open.as_mut() {
            open.1 = at;
        }
        self.last_was_input = false;
    }

    fn flush(&mut self) {
        if let Some((start, end, rows)) = self.open.take() {
            self.sweep_ns.record(end.saturating_sub(start));
            self.rows.record(rows);
        }
    }
}

/// The timing wrapper around a session's hook: transparent to the values,
/// it stamps the row's first and last hook calls and times the fault strike
/// (input hook) and the guard scrubs (activation hooks).
struct TimedHook {
    inner: SessionHook<i32>,
    probe: Arc<Probe>,
    clock: Arc<Mutex<BatchClock>>,
    epoch: Instant,
    output_layer: usize,
}

impl TimedHook {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl QForwardHooks for TimedHook {
    fn on_input(&mut self, words: &mut [i32]) {
        let first = self.now();
        self.clock.lock().expect("batch clock").input(first);
        let before = self.inner.struck();
        // The strike interval covers the hook call only, not the clock.
        let start = self.now();
        HooksFor::<i32>::input(&mut self.inner, words);
        let end = self.now();
        let p = &self.probe;
        p.first_ns.store(first, Ordering::Relaxed);
        p.input_start_ns.store(start, Ordering::Relaxed);
        p.input_end_ns.store(end, Ordering::Relaxed);
        p.struck.store((self.inner.struck() - before) as u64, Ordering::Relaxed);
        p.scrub_ns.store(0, Ordering::Relaxed);
        p.scrubbed.store(0, Ordering::Relaxed);
    }

    fn on_activation(&mut self, layer: usize, kind: LayerKind, words: &mut [i32]) {
        let start = self.now();
        let before = self.inner.scrubbed();
        HooksFor::<i32>::activation(&mut self.inner, layer, kind, words);
        let end = self.now();
        let p = &self.probe;
        if layer == 0 {
            p.scrub_first_ns.store(start, Ordering::Relaxed);
        }
        p.scrub_ns.fetch_add(end - start, Ordering::Relaxed);
        p.scrubbed.fetch_add((self.inner.scrubbed() - before) as u64, Ordering::Relaxed);
        if layer == self.output_layer {
            p.last_ns.store(end, Ordering::Relaxed);
            self.clock.lock().expect("batch clock").output(end);
        }
    }
}

/// One session as the generator sees it.
struct Slot {
    id: SessionId,
    obs: SmallRng,
    ticket: Option<Ticket<i32>>,
    /// Scheduled, sent and submit-returned times of the in-flight request.
    sched_ns: u64,
    sent_ns: u64,
    submitted_ns: u64,
    state: usize,
    /// Arrivals due while a request was in flight (one in flight per
    /// session), sent as soon as it lands.
    backlog: VecDeque<u64>,
    probe: Option<Arc<Probe>>,
    /// The served requests of a checked session.
    record: Option<Record>,
}

/// A checked session's served requests: every request's state, in order,
/// and a digest of the replies. It grows by one `u32` per request, not by a
/// stored reply, so peak memory does not follow the request rate (storing
/// the replies made it swing by 5 MB with the host's speed).
struct Record {
    states: Vec<u32>,
    digest: u64,
}

impl Record {
    fn new() -> Record {
        Record { states: Vec::new(), digest: FNV_OFFSET }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one reply (its action and output words) into an FNV-1a digest.
fn fold_reply(digest: u64, action: usize, values: &[i32]) -> u64 {
    let words = std::iter::once(action as u64).chain(values.iter().map(|&v| v as u32 as u64));
    words
        .flat_map(u64::to_le_bytes)
        .fold(digest, |h, byte| (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3))
}

/// One request's timeline, kept in traced runs to emit its spans.
struct RequestTimes {
    sched: u64,
    sent: u64,
    submitted: u64,
    first: u64,
    input_start: u64,
    input_end: u64,
    scrub_first: u64,
    scrub: u64,
    last: u64,
    observed: u64,
}

#[derive(Default)]
struct PhaseStats {
    attempted: u64,
    completed: u64,
    errors: u64,
    unserved: u64,
    busy: u64,
    wall: Duration,
    /// Scheduled send to reply observed, every completed request, whole
    /// and block by block.
    latency: LogHistogram,
    blocks: BlockLatency,
    lag: LogHistogram,
    submit: LogHistogram,
    queue_wait: LogHistogram,
    reply: LogHistogram,
    strike_ns: f64,
    scrub_ns: f64,
    struck: u64,
    scrubbed: u64,
    traced_rows: u64,
    batches: Option<BatchClock>,
    requests: Vec<RequestTimes>,
}

/// Traced requests per phase that become spans; the histograms above cover
/// every request.
const SPAN_REQUESTS: usize = 20_000;

impl PhaseStats {
    fn layers(&self, phase: Phase, out: &mut Vec<(String, f64)>) {
        let p = phase.name();
        let rows = self.traced_rows.max(1) as f64;
        let batches = self.batches.as_ref();
        let mut push = |name: &str, value: f64| out.push((format!("{name}.{p}"), value));
        push("serve.submit_us_p50", us(self.submit.quantile(0.5)));
        push("serve.queue_wait_us_p50", us(self.queue_wait.quantile(0.5)));
        push("serve.queue_wait_us_p99", us(self.queue_wait.quantile(0.99)));
        push("serve.sweep_us_p50", batches.map_or(0.0, |b| us(b.sweep_ns.quantile(0.5))));
        push("serve.reply_us_p50", us(self.reply.quantile(0.5)));
        push("serve.batch_rows_mean", batches.map_or(0.0, |b| b.rows.mean()));
        push("serve.busy_rejects", self.busy as f64);
        push("fault.strike_ns_per_row", self.strike_ns / rows);
        push("fault.bits_struck", self.struck as f64);
        push("mitigation.scrub_ns_per_row", self.scrub_ns / rows);
        push("mitigation.values_scrubbed", self.scrubbed as f64);
        push("loadgen.lag_us_p99", us(self.lag.quantile(0.99)));
    }

    /// Emits the kept requests' spans, numbering requests from `first_id`.
    fn emit_spans(&self, tracer: &mut Tracer, first_id: u64) {
        for (index, t) in self.requests.iter().enumerate() {
            let request = first_id + index as u64;
            let root = tracer.open();
            let sweep = tracer.open();
            let leaf = |tracer: &mut Tracer, name, parent, start, end| {
                let id = tracer.open();
                tracer.close_ns(id, name, Some(parent), request, start, end);
            };
            leaf(tracer, "fault.strike", sweep, t.input_start, t.input_end);
            leaf(tracer, "mitigation.scrub", sweep, t.scrub_first, t.scrub_first + t.scrub);
            tracer.close_ns(sweep, "serve.sweep", Some(root), request, t.first, t.last);
            leaf(tracer, "loadgen.lag", root, t.sched, t.sent);
            leaf(tracer, "serve.submit", root, t.sent, t.submitted);
            leaf(tracer, "serve.queue_wait", root, t.submitted, t.first);
            leaf(tracer, "serve.reply", root, t.last, t.observed);
            tracer.close_ns(root, "loadgen.request", None, request, t.sched, t.observed);
        }
    }
}

struct Generator<'a> {
    server: &'a Server<i32>,
    epoch: Instant,
    slots: Vec<Slot>,
    clock: Option<Arc<Mutex<BatchClock>>>,
}

fn hook_seed(seed: u64, session: usize) -> u64 {
    mix(seed ^ 0x5E55_1011, session as u64)
}

fn session_hook(setup: &Setup, seed: u64, session: usize) -> SessionHook<i32> {
    SessionHook::<i32>::new(FORMAT, hook_seed(seed, session))
        .with_faults(FaultSpec::new(OBS_BER, FaultKind::BitFlip, FORMAT))
        .with_guard(Arc::clone(&setup.guard))
}

impl<'a> Generator<'a> {
    /// Opens the sessions; traced runs (`epoch` given) wrap each hook in a
    /// [`TimedHook`] stamping times against that epoch.
    fn open(setup: &'a Setup, seed: u64, epoch: Option<Instant>) -> Generator<'a> {
        let clock = epoch.map(|_| Arc::new(Mutex::new(BatchClock::default())));
        let output_layer = setup.policy.num_layers() - 1;
        let slots = (0..SESSIONS)
            .map(|session| {
                let hook = session_hook(setup, seed, session);
                let (id, probe) = match (&clock, epoch) {
                    (Some(clock), Some(epoch)) => {
                        let probe = Arc::new(Probe::default());
                        let timed = TimedHook {
                            inner: hook,
                            probe: Arc::clone(&probe),
                            clock: Arc::clone(clock),
                            epoch,
                            output_layer,
                        };
                        (setup.server.open_session(Box::new(timed)), Some(probe))
                    }
                    _ => (setup.server.open_session(Box::new(hook)), None),
                };
                Slot {
                    id,
                    obs: SmallRng::seed_from_u64(mix(seed ^ 0x0B5, session as u64)),
                    ticket: None,
                    sched_ns: 0,
                    sent_ns: 0,
                    submitted_ns: 0,
                    state: 0,
                    backlog: VecDeque::new(),
                    probe,
                    record: (session % CHECK_EVERY == 0).then(Record::new),
                }
            })
            .collect();
        Generator { server: &setup.server, epoch: epoch.unwrap_or_else(Instant::now), slots, clock }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sends session `s`'s next request, scheduled at `sched`. Returns
    /// whether it is now in flight.
    fn send(&mut self, s: usize, sched: u64, stats: &mut PhaseStats, states: usize) -> bool {
        stats.attempted += 1;
        let sent = self.now();
        let slot = &mut self.slots[s];
        slot.state = slot.obs.gen_range(0..states);
        match self.server.submit_one_hot(slot.id, slot.state) {
            Ok(ticket) => {
                let submitted = self.epoch.elapsed().as_nanos() as u64;
                let slot = &mut self.slots[s];
                slot.ticket = Some(ticket);
                slot.sched_ns = sched;
                slot.sent_ns = sent;
                slot.submitted_ns = submitted;
                stats.lag.record(sent.saturating_sub(sched));
                true
            }
            Err(error) => {
                if error == ServeError::Busy {
                    stats.busy += 1;
                }
                stats.errors += 1;
                false
            }
        }
    }

    /// Handles a landed reply of session `s` observed at `observed`.
    fn land(
        &mut self,
        s: usize,
        result: Result<Decision<i32>, ServeError>,
        observed: u64,
        stats: &mut PhaseStats,
        traced: bool,
    ) {
        let slot = &mut self.slots[s];
        slot.ticket = None;
        let decision = match result {
            Ok(decision) => decision,
            Err(_) => {
                stats.errors += 1;
                return;
            }
        };
        stats.completed += 1;
        let latency = observed.saturating_sub(slot.sched_ns);
        stats.latency.record(latency);
        stats.blocks.record(latency);
        if let Some(record) = slot.record.as_mut() {
            record.states.push(slot.state as u32);
            record.digest = fold_reply(record.digest, decision.action, &decision.values);
        }
        if let (true, Some(probe)) = (traced, slot.probe.as_ref()) {
            let t = RequestTimes {
                sched: slot.sched_ns,
                sent: slot.sent_ns,
                submitted: slot.submitted_ns,
                first: probe.first_ns.load(Ordering::Relaxed),
                input_start: probe.input_start_ns.load(Ordering::Relaxed),
                input_end: probe.input_end_ns.load(Ordering::Relaxed),
                scrub_first: probe.scrub_first_ns.load(Ordering::Relaxed),
                scrub: probe.scrub_ns.load(Ordering::Relaxed),
                last: probe.last_ns.load(Ordering::Relaxed),
                observed,
            };
            stats.submit.record(t.submitted.saturating_sub(t.sent));
            stats.queue_wait.record(t.first.saturating_sub(t.submitted));
            stats.reply.record(t.observed.saturating_sub(t.last));
            stats.strike_ns += t.input_end.saturating_sub(t.input_start) as f64;
            stats.scrub_ns += t.scrub as f64;
            stats.struck += probe.struck.load(Ordering::Relaxed);
            stats.scrubbed += probe.scrubbed.load(Ordering::Relaxed);
            stats.traced_rows += 1;
            if stats.requests.len() < SPAN_REQUESTS {
                stats.requests.push(t);
            }
        }
    }

    fn run_phase(&mut self, phase: Phase, seed: u64, length: Duration, traced: bool) -> PhaseStats {
        let mut stats = PhaseStats::default();
        let states = self.server.input_shape()[0];
        let start = self.now();
        let end = start + length.as_nanos() as u64;
        let drain_end = end + DRAIN_LIMIT.as_nanos() as u64;
        // In-flight sessions in submission order: one shard serves its queue
        // first in, first out, so replies land roughly in this order.
        let mut inflight: VecDeque<usize> = VecDeque::new();
        let mut schedule = PoissonSchedule::new(mix(seed, 0x57EAD), STEADY_RATE_PER_S, SESSIONS);
        let mut next = match phase {
            Phase::Steady => schedule.next().map(|a| (start + a.at_ns, a.session)),
            Phase::Saturate => {
                for s in 0..SESSIONS {
                    let now = self.now();
                    if self.send(s, now, &mut stats, states) {
                        inflight.push_back(s);
                    }
                }
                None
            }
        };
        loop {
            let now = self.now();
            while let Some((at, s)) = next.filter(|&(at, _)| at <= now && at < end) {
                let slot = &mut self.slots[s];
                if slot.ticket.is_none() && slot.backlog.is_empty() {
                    if self.send(s, at, &mut stats, states) {
                        inflight.push_back(s);
                    }
                } else {
                    slot.backlog.push_back(at);
                }
                next = schedule.next().map(|a| (start + a.at_ns, a.session));
            }
            let mut checked = 0;
            while checked < inflight.len() {
                let s = inflight[checked];
                let ready = self.slots[s].ticket.as_ref().and_then(Ticket::poll);
                let Some(result) = ready else {
                    checked += 1;
                    // Later requests rarely land before an earlier one;
                    // look a few deep so a reordering server is not
                    // mismeasured, without scanning every ticket.
                    if checked >= 4 {
                        break;
                    }
                    continue;
                };
                let observed = self.now();
                inflight.remove(checked);
                self.land(s, result, observed, &mut stats, traced);
                let resend = match phase {
                    Phase::Steady => self.slots[s].backlog.pop_front(),
                    Phase::Saturate => (observed < end).then_some(observed),
                };
                if let Some(sched) = resend {
                    if self.send(s, sched, &mut stats, states) {
                        inflight.push_back(s);
                    }
                }
            }
            let arrivals_done = next.is_none_or(|(at, _)| at >= end);
            let backlog_empty = || self.slots.iter().all(|slot| slot.backlog.is_empty());
            if arrivals_done && inflight.is_empty() && backlog_empty() {
                break;
            }
            if now > drain_end {
                stats.unserved = inflight.len() as u64
                    + self.slots.iter().map(|slot| slot.backlog.len() as u64).sum::<u64>();
                break;
            }
        }
        stats.wall = Duration::from_nanos(self.now() - start);
        if let Some(clock) = &self.clock {
            let mut clock = clock.lock().expect("batch clock");
            clock.flush();
            stats.batches = Some(std::mem::take(&mut *clock));
        }
        stats
    }

    /// Replays each recorded session through the library's single-sample
    /// forward with an identically seeded hook; returns how many sessions'
    /// served replies differ from the replay in any action or output word.
    fn check_replays(&self, setup: &Setup, seed: u64) -> u64 {
        let mut mismatched = 0;
        let mut input = QTensor::zeros(&[setup.states], FORMAT);
        for (session, slot) in self.slots.iter().enumerate() {
            let Some(record) = &slot.record else { continue };
            let mut hook = session_hook(setup, seed, session);
            let mut digest = FNV_OFFSET;
            for &state in &record.states {
                <i32 as EvalElement>::one_hot(state as usize, &mut input);
                let out = setup.policy.forward_with(&input, &mut hook);
                digest = fold_reply(digest, argmax(out.data()), out.data());
            }
            mismatched += u64::from(digest != record.digest);
        }
        mismatched
    }

    fn close(self, setup: &Setup) {
        for slot in &self.slots {
            // A session still in flight after the drain limit refuses to
            // close; its request already counts as unserved.
            let _ = setup.server.close_session(slot.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_digest_sees_every_action_and_word_in_order() {
        let digest = |replies: &[(usize, [i32; 2])]| {
            replies.iter().fold(FNV_OFFSET, |d, (action, values)| fold_reply(d, *action, values))
        };
        let served = [(1, [5, -3]), (0, [7, 7])];
        assert_eq!(digest(&served), digest(&[(1, [5, -3]), (0, [7, 7])]));
        assert_ne!(digest(&served), digest(&[(0, [5, -3]), (0, [7, 7])]), "an action");
        assert_ne!(digest(&served), digest(&[(1, [5, -2]), (0, [7, 7])]), "a word");
        assert_ne!(digest(&served), digest(&[(0, [7, 7]), (1, [5, -3])]), "the order");
    }
}
