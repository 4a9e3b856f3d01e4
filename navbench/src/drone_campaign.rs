//! `drone_campaign`: Fig. 10 drone trials on one trial thread.
//!
//! Set-up trains the C3F2 drone policy (`Scale::Quick`). Each trial samples
//! a weight-buffer bit-flip pattern, corrupts a copy of the policy, scrubs
//! it with the range guard on the guarded arm, and flies 16 episodes of at
//! most 150 steps as one vectorized rollout (width 16). Trials cycle through
//! BER {1e-5 … 1e-1} × {base, guarded}.
//!
//! Convolution, pooling and depth-camera ray casting dominate; fault and
//! guard work runs once per trial. The traced run times each layer sweep as
//! the gap between consecutive per-layer hook calls, and each environment
//! step through a [`VecEnv`] wrapper. The end-to-end latency is one rollout
//! tick: a batched forward sweep plus the steps of the rows it decided. The
//! decision rate is flight steps over the whole wall time, so per-trial
//! work (fault sampling, corruption, scrubbing, environment build) counts.

use std::cell::RefCell;
use std::time::Instant;

use navft_core::drone_policy::train_drone_policy;
use navft_core::Scale;
use navft_dronesim::{DepthCamera, DroneSim, DroneWorld};
use navft_fault::{FaultKind, FaultSite, FaultTarget, Injector};
use navft_mitigation::{RangeGuard, RangeGuardConfig};
use navft_nn::{EngineConfig, ForwardHooks, LayerKind, Network, NoHooks};
use navft_qformat::QFormat;
use navft_rl::{
    corrupt_network_weights, evaluate_policy_vision, evaluate_policy_vision_hooked_batched,
    DummyVisionVecEnv, EvalResult, InferenceFaultMode, RowStep, VecEnv,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::hist::BlockLatency;
use crate::trace::{SpanId, Tracer};
use crate::{mix, us, Measured, Workload};

const WIDTH: usize = 16;
const EPISODES: usize = 16;
const MAX_STEPS: usize = 150;
const FORMAT: QFormat = QFormat::Q4_11;
const BERS: [f64; 5] = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1];
const CELLS: usize = BERS.len() * 2;

pub struct DroneCampaign;

pub struct Setup {
    policy: Network,
    guard: RangeGuard,
    sim: DroneSim,
}

impl Workload for DroneCampaign {
    type Setup = Setup;
    const SPANS_TILE: bool = true;

    /// Trains the policy the Fig. 10 experiment trains (same world, scale and
    /// seed): the workload seed drives the fault patterns and flights, so
    /// every seed flies the same policy.
    fn setup(_seed: u64) -> Setup {
        let world = DroneWorld::indoor_long();
        let policy = train_drone_policy(&world, &Scale::Quick.drone(), 0x0D0E);
        let guard = RangeGuard::from_network(&policy, FORMAT, RangeGuardConfig::paper());
        let sim = DroneSim::new(world, DepthCamera::scaled(), MAX_STEPS);
        Setup { policy, guard, sim }
    }

    fn measure(setup: &Setup, seed: u64, seconds: f64, tracer: Option<&mut Tracer>) -> Measured {
        let tracer = tracer.map(RefCell::new);
        let start = Instant::now();
        let mut flights = Flights::default();
        let mut checked: Vec<(Network, SmallRng, EvalResult)> = Vec::new();
        let mut sweeps = SweepCounts::default();
        // Two trials per run are re-flown by the serial oracle: one per arm.
        let check_at = [seed % 5, seed % 5 + 5];
        let mut trial = 0u64;
        while trial == 0 || start.elapsed().as_secs_f64() < seconds {
            let (network, rng, result) =
                run_trial(setup, seed, trial, tracer.as_ref(), &mut sweeps, &mut flights);
            if check_at.contains(&trial) {
                checked.push((network, rng, result));
            }
            trial += 1;
        }
        let wall = start.elapsed().as_secs_f64();
        let failed = checked
            .iter()
            .filter(|(network, rng, served)| {
                let mut sim = setup.sim.clone();
                let mut rng = rng.clone();
                let none = InferenceFaultMode::None;
                let oracle =
                    evaluate_policy_vision(&mut sim, network, EPISODES, MAX_STEPS, &none, &mut rng);
                !same_result(&oracle, served)
            })
            .count() as u64;

        let mean = us(flights.ticks.mean());
        let p99 = us(flights.ticks.p99());
        let decisions = flights.steps as f64 / wall;
        let layers = tracer.map_or_else(Vec::new, |t| layer_metrics(&t.borrow(), &sweeps));
        Measured {
            attempted: trial,
            failed,
            latency_mean_us: mean,
            latency_p99_us: p99,
            decisions_per_s: decisions,
            wall_s: wall,
            named: vec![
                ("tick_mean_us", mean, "us"),
                ("tick_p99_us", p99, "us"),
                ("trials_per_s", trial as f64 / wall, "1/s"),
                ("flight_decisions_per_s", decisions, "1/s"),
                ("checked_trials", checked.len() as f64, "count"),
            ],
            layers,
        }
    }
}

type Shared<'t, 'a> = Option<&'t RefCell<&'a mut Tracer>>;

/// Runs trial `trial`: returns the flown (corrupted, maybe scrubbed)
/// network, the RNG state the flights started from, and their result.
fn run_trial(
    setup: &Setup,
    seed: u64,
    trial: u64,
    tracer: Shared<'_, '_>,
    sweeps: &mut SweepCounts,
    flights: &mut Flights,
) -> (Network, SmallRng, EvalResult) {
    let cell = (trial % CELLS as u64) as usize;
    let (ber, guarded) = (BERS[cell / 2], cell % 2 == 1);
    let mut rng = SmallRng::seed_from_u64(mix(seed, trial));
    let trial_began = Instant::now();
    let root = tracer.map(|t| t.borrow_mut().open());
    let timed = |name, body: &mut dyn FnMut()| match tracer {
        Some(t) => {
            let began = Instant::now();
            body();
            t.borrow_mut().leaf(name, root, trial, began, Instant::now());
        }
        None => body(),
    };

    let mut injector = None;
    timed("fault.sample", &mut || {
        injector = Some(Injector::sample(
            FaultTarget::new(FaultSite::WeightBuffer),
            setup.policy.weight_count(),
            FORMAT,
            ber,
            FaultKind::BitFlip,
            &mut rng,
        ));
    });
    let fault = InferenceFaultMode::TransientWholeEpisode(injector.expect("sampled"));
    let mut network = None;
    timed("fault.corrupt", &mut || network = Some(corrupt_network_weights(&setup.policy, &fault)));
    let mut network = network.expect("corrupted");
    if guarded {
        timed("mitigation.scrub", &mut || {
            setup.guard.scrub(&mut network);
        });
    }

    let start_rng = rng.clone();
    let rollout = tracer.map(|t| t.borrow_mut().open());
    let mut venv = FlightEnv {
        inner: DummyVisionVecEnv::from_prototype(&setup.sim, WIDTH),
        tracer,
        parent: rollout,
        trial,
        last_row: None,
        tick_start: None,
        flights,
    };
    let none = InferenceFaultMode::None;
    let config = EngineConfig::default();
    let result = match (tracer, root, rollout) {
        (Some(t), Some(root), Some(rollout)) => {
            let clock = RefCell::new(LayerClock::new(rollout, trial));
            let began = Instant::now();
            let result = evaluate_policy_vision_hooked_batched(
                &mut venv,
                &network,
                EPISODES,
                MAX_STEPS,
                &none,
                &mut rng,
                |_| GapHook { clock: &clock, tracer: t },
                config,
            );
            let clock = clock.into_inner();
            sweeps.rows += clock.rows;
            sweeps.sweeps += clock.sweeps;
            let mut t = t.borrow_mut();
            t.close(rollout, "rl.rollout", Some(root), trial, began, Instant::now());
            result
        }
        _ => evaluate_policy_vision_hooked_batched(
            &mut venv,
            &network,
            EPISODES,
            MAX_STEPS,
            &none,
            &mut rng,
            |_| NoHooks,
            config,
        ),
    };
    if let (Some(t), Some(root)) = (tracer, root) {
        t.borrow_mut().close(root, "campaign.trial", None, trial, trial_began, Instant::now());
    }
    (network, start_rng, result)
}

/// Flight steps and rollout tick latencies, over all trials.
#[derive(Default)]
struct Flights {
    steps: u64,
    ticks: BlockLatency,
}

/// Batch rows and sweeps seen by the traced hooks, over all trials.
#[derive(Default)]
struct SweepCounts {
    rows: u64,
    sweeps: u64,
}

/// Bit-exact equality of two evaluation results.
fn same_result(a: &EvalResult, b: &EvalResult) -> bool {
    a.episodes == b.episodes
        && a.mean_reward.to_bits() == b.mean_reward.to_bits()
        && a.mean_distance.to_bits() == b.mean_distance.to_bits()
        && a.success_rate.to_bits() == b.success_rate.to_bits()
}

fn layer_metrics(tracer: &Tracer, sweeps: &SweepCounts) -> Vec<(String, f64)> {
    let rows = sweeps.rows.max(1) as f64;
    let per_row = |name: &str| us(tracer.rollup_of(name).total_ns as f64) / rows;
    let mean_us = |name: &str| {
        let r = tracer.rollup_of(name);
        us(r.total_ns as f64) / r.count.max(1) as f64
    };
    let step = tracer.rollup_of("dronesim.step");
    vec![
        ("nn.conv_us_per_row".to_string(), per_row("nn.conv")),
        ("nn.pool_us_per_row".to_string(), per_row("nn.pool")),
        ("nn.fc_us_per_row".to_string(), per_row("nn.fc")),
        ("dronesim.step_us".to_string(), mean_us("dronesim.step")),
        ("dronesim.steps".to_string(), step.count as f64),
        (
            "rl.rollout_self_us_per_row".to_string(),
            us(tracer.rollup_of("rl.rollout").self_ns as f64) / rows,
        ),
        ("rl.rows_per_sweep_mean".to_string(), sweeps.rows as f64 / sweeps.sweeps.max(1) as f64),
        ("fault.sample_us".to_string(), mean_us("fault.sample")),
        ("fault.corrupt_us".to_string(), mean_us("fault.corrupt")),
        ("mitigation.scrub_us".to_string(), mean_us("mitigation.scrub")),
    ]
}

/// Layer sweeps seen from the per-row hooks. The engine reports every row
/// of a layer's output after sweeping the whole batch through that layer,
/// so the time from the previous layer's last hook call to this layer's
/// first is this layer's sweep.
struct LayerClock {
    parent: SpanId,
    trial: u64,
    /// End of the latest hook call, in tracer nanoseconds.
    last_ns: u64,
    /// Layer of the latest hook call (`None` for the input).
    layer: Option<usize>,
    /// Span name the latest layer was charged to.
    group: &'static str,
    rows: u64,
    sweeps: u64,
}

impl LayerClock {
    fn new(parent: SpanId, trial: u64) -> LayerClock {
        LayerClock { parent, trial, last_ns: 0, layer: None, group: "nn.conv", rows: 0, sweeps: 0 }
    }
}

/// Convolution, pooling and fully-connected sweeps; ReLU and flatten are
/// charged to the layer they follow.
fn group_of(kind: LayerKind, previous: &'static str) -> &'static str {
    match kind {
        LayerKind::Conv2d => "nn.conv",
        LayerKind::MaxPool2d => "nn.pool",
        LayerKind::Linear => "nn.fc",
        _ => previous,
    }
}

/// One episode's hook: value-transparent, it only stamps the clock.
struct GapHook<'c, 't, 'a> {
    clock: &'c RefCell<LayerClock>,
    tracer: &'t RefCell<&'a mut Tracer>,
}

impl ForwardHooks for GapHook<'_, '_, '_> {
    fn on_input(&mut self, _values: &mut [f32]) {
        let mut clock = self.clock.borrow_mut();
        if clock.layer.is_some() || clock.rows == 0 {
            clock.sweeps += 1;
        }
        clock.rows += 1;
        clock.layer = None;
        clock.last_ns = self.tracer.borrow().ns(Instant::now());
    }

    fn on_activation(&mut self, layer: usize, kind: LayerKind, _values: &mut [f32]) {
        let now = self.tracer.borrow().ns(Instant::now());
        let mut clock = self.clock.borrow_mut();
        if clock.layer != Some(layer) {
            let group = group_of(kind, clock.group);
            let (parent, trial, start) = (clock.parent, clock.trial, clock.last_ns);
            let mut tracer = self.tracer.borrow_mut();
            let id = tracer.open();
            tracer.close_ns(id, group, Some(parent), trial, start, now);
            clock.group = group;
            clock.layer = Some(layer);
        }
        clock.last_ns = self.tracer.borrow().ns(Instant::now());
    }
}

/// The [`VecEnv`] wrapper. Untraced, it records the time between the
/// starts of consecutive rollout ticks — one batched forward sweep plus the
/// step of every active row — with one clock read per tick (rows step in
/// increasing order, so a tick starts when the row index does not grow).
/// Traced, every row reset and step is also a span under the trial's
/// rollout.
struct FlightEnv<'t, 'a, 'h, V> {
    inner: V,
    tracer: Shared<'t, 'a>,
    parent: Option<SpanId>,
    trial: u64,
    last_row: Option<usize>,
    tick_start: Option<Instant>,
    /// Tick latencies and flight steps (policy decisions).
    flights: &'h mut Flights,
}

impl<V: VecEnv> VecEnv for FlightEnv<'_, '_, '_, V> {
    type Obs = V::Obs;

    fn width(&self) -> usize {
        self.inner.width()
    }

    fn num_actions(&self) -> usize {
        self.inner.num_actions()
    }

    fn obs_shape(&self) -> Vec<usize> {
        self.inner.obs_shape()
    }

    fn reset_row(&mut self, row: usize) -> V::Obs {
        let Some(t) = self.tracer else { return self.inner.reset_row(row) };
        let began = Instant::now();
        let obs = self.inner.reset_row(row);
        t.borrow_mut().leaf("dronesim.reset", self.parent, self.trial, began, Instant::now());
        obs
    }

    fn step_row(&mut self, row: usize, action: usize) -> RowStep<V::Obs> {
        let began = Instant::now();
        if self.last_row.is_none_or(|last| row <= last) {
            if let Some(start) = self.tick_start {
                self.flights.ticks.record(began.duration_since(start).as_nanos() as u64);
            }
            self.tick_start = Some(began);
        }
        self.last_row = Some(row);
        self.flights.steps += 1;
        let Some(t) = self.tracer else { return self.inner.step_row(row, action) };
        let step = self.inner.step_row(row, action);
        t.borrow_mut().leaf("dronesim.step", self.parent, self.trial, began, Instant::now());
        step
    }
}
