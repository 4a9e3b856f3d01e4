//! `grid_training`: Fig. 8b cells — DQN training of the Grid World MLP
//! under weight-buffer faults with the exploration-rate mitigation.
//!
//! Each run trains `grid_mlp` with `grid_dqn_config` for 1000 episodes
//! (`Scale::Quick`) through `trainer::train_dqn_discrete`, with bit flips
//! injected at episode 300 or stuck-at-0 / stuck-at-1 faults from the
//! start, at BER {2e-3, 1e-2}; `ExplorationAdjuster::for_network` observes
//! every episode, and a batched greedy evaluation follows training. Runs
//! cycle through the six cells.
//!
//! DQN `learn` (traced forward, `backward_tail`, replay) and per-step
//! action selection dominate, and this is the only workload that writes
//! weights. The traced run wraps the environment to time each step and the
//! gap between steps, and the trainer's observer closure to time the
//! mitigation.

use std::cell::RefCell;
use std::time::Instant;

use navft_core::grid_policies::{grid_dqn_config, grid_mlp, train_grid_policy, PolicyKind};
use navft_core::{GridParams, Scale};
use navft_fault::{FaultKind, FaultSite, FaultTarget, InjectionSchedule, Injector};
use navft_gridworld::{GridWorld, ObstacleDensity};
use navft_mitigation::ExplorationAdjuster;
use navft_nn::EngineConfig;
use navft_qformat::QFormat;
use navft_rl::{
    evaluate_policy_discrete_batched, trainer, DiscreteEnvironment, DiscreteTransition, DqnAgent,
    DummyVecEnv, EpsilonSchedule, FaultPlan, InferenceFaultMode, TrainingTrace,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::hist::BlockLatency;
use crate::trace::{SpanId, Tracer};
use crate::{mix, us, Measured, Workload};

const DENSITY: ObstacleDensity = ObstacleDensity::Middle;
const TRANSIENT_EPISODE: usize = 300;
const CELLS: [(FaultKind, f64); 6] = [
    (FaultKind::BitFlip, 2e-3),
    (FaultKind::BitFlip, 1e-2),
    (FaultKind::StuckAt0, 2e-3),
    (FaultKind::StuckAt0, 1e-2),
    (FaultKind::StuckAt1, 2e-3),
    (FaultKind::StuckAt1, 1e-2),
];
/// Episodes and seed of the fault-free warm-up run in set-up.
const WARMUP_EPISODES: usize = 300;
const WARMUP_SEED: u64 = 0x3A53;

pub struct GridTraining;

pub struct Setup {
    params: GridParams,
    words: usize,
}

impl Workload for GridTraining {
    type Setup = Setup;
    const SPANS_TILE: bool = true;

    /// Fixes the campaign parameters and warms code and caches with a
    /// short fault-free training run, so the first measured run is not
    /// charged for them. The warm-up is the same for every seed.
    fn setup(_seed: u64) -> Setup {
        let params = Scale::Quick.grid();
        let world = GridWorld::with_density(DENSITY);
        let words = grid_mlp(world.num_states(), world.num_actions(), 0).weight_count();
        let warmup = GridParams { training_episodes: WARMUP_EPISODES, ..params.clone() };
        train_grid_policy(
            PolicyKind::Network,
            DENSITY,
            &warmup,
            &FaultPlan::none(),
            WARMUP_SEED,
            trainer::no_mitigation(),
        );
        Setup { params, words }
    }

    fn measure(setup: &Setup, seed: u64, seconds: f64, tracer: Option<&mut Tracer>) -> Measured {
        let tracer = tracer.map(RefCell::new);
        let start = Instant::now();
        let mut steps = TrainSteps::default();
        let mut weights: Vec<Vec<f32>> = Vec::new();
        let mut success: Vec<f64> = Vec::new();
        let mut episodes = 0u64;
        let mut run = 0u64;
        while run == 0 || start.elapsed().as_secs_f64() < seconds {
            let (w, s) = train_run(setup, seed, run, tracer.as_ref(), &mut steps);
            weights.push(w);
            success.push(s);
            episodes += setup.params.training_episodes as u64;
            run += 1;
        }
        let wall = start.elapsed().as_secs_f64();

        // One run, chosen by the seed, is retrained by the library's serial
        // path; its final weights and success rate must match bit for bit.
        let checked = (seed % run) as usize;
        let (plan, train_seed) = fault_plan(setup, seed, checked as u64);
        let mut adjuster = ExplorationAdjuster::for_network();
        let oracle = train_grid_policy(
            PolicyKind::Network,
            DENSITY,
            &setup.params,
            &plan,
            train_seed,
            |episode, trace, epsilon| adjuster.observe(episode, trace, epsilon),
        );
        let oracle_weights = oracle.network.expect("a network policy").network().flat_weights();
        let same = oracle_weights
            .iter()
            .map(|w| w.to_bits())
            .eq(weights[checked].iter().map(|w| w.to_bits()))
            && oracle.final_success_rate.to_bits() == success[checked].to_bits();

        let mean = us(steps.latency.mean());
        let p99 = us(steps.latency.p99());
        // Training steps over the whole wall time, evaluation included.
        let decisions = steps.count as f64 / wall;
        let layers = tracer.map_or_else(Vec::new, |t| layer_metrics(&t.borrow()));
        Measured {
            attempted: run,
            failed: u64::from(!same),
            latency_mean_us: mean,
            latency_p99_us: p99,
            decisions_per_s: decisions,
            wall_s: wall,
            named: vec![
                ("train_step_mean_us", mean, "us"),
                ("train_step_p99_us", p99, "us"),
                ("train_episodes_per_s", episodes as f64 / wall, "1/s"),
                ("train_steps_per_s", decisions, "1/s"),
                ("training_runs", run as f64, "count"),
                ("mean_final_success", success.iter().sum::<f64>() / success.len() as f64, "ratio"),
            ],
            layers,
        }
    }
}

/// Samples run `run`'s fault plan; returns it with the run's training seed.
fn fault_plan(setup: &Setup, seed: u64, run: u64) -> (FaultPlan, u64) {
    let (kind, ber) = CELLS[(run % CELLS.len() as u64) as usize];
    let run_seed = mix(seed, run);
    let mut rng = SmallRng::seed_from_u64(run_seed);
    let injector = Injector::sample(
        FaultTarget::new(FaultSite::WeightBuffer),
        setup.words,
        QFormat::Q3_4,
        ber,
        kind,
        &mut rng,
    );
    let schedule = if kind.is_permanent() {
        InjectionSchedule::from_start()
    } else {
        InjectionSchedule::at_episode(TRANSIENT_EPISODE)
    };
    (FaultPlan::new(injector, schedule), run_seed ^ 0xF18)
}

type Shared<'t, 'a> = Option<&'t RefCell<&'a mut Tracer>>;

/// One training run, as `train_grid_policy` does it for a network policy,
/// with the environment and the observer open to timing. Returns the final
/// weights and the evaluated success rate.
fn train_run(
    setup: &Setup,
    seed: u64,
    run: u64,
    tracer: Shared<'_, '_>,
    steps: &mut TrainSteps,
) -> (Vec<f32>, f64) {
    let run_began = Instant::now();
    let root = tracer.map(|t| t.borrow_mut().open());
    let (plan, train_seed) = fault_plan(setup, seed, run);
    if let (Some(t), Some(root)) = (tracer, root) {
        t.borrow_mut().leaf("fault.sample", Some(root), run, run_began, Instant::now());
    }

    let params = &setup.params;
    let world = GridWorld::with_density(DENSITY).with_exploring_starts(train_seed ^ 0xE5);
    let eval_world = GridWorld::with_density(DENSITY);
    let mut rng = SmallRng::seed_from_u64(train_seed);
    let config = trainer::TrainingConfig::new(params.training_episodes, params.max_steps);
    let network = grid_mlp(world.num_states(), world.num_actions(), train_seed ^ 0x5EED);
    let mut agent = DqnAgent::new(
        network,
        &[world.num_states()],
        EpsilonSchedule::for_training(params.epsilon_steady_episodes),
        grid_dqn_config(),
    );
    let mut adjuster = ExplorationAdjuster::for_network();

    let train_id = tracer.map(|t| t.borrow_mut().open());
    let train_began = Instant::now();
    let mut env = TimedEnv { inner: world, tracer, parent: train_id, run, last_step: None, steps };
    let observer = |episode: usize, trace: &TrainingTrace, epsilon: &mut EpsilonSchedule| {
        let Some(t) = tracer else { return adjuster.observe(episode, trace, epsilon) };
        let began = Instant::now();
        adjuster.observe(episode, trace, epsilon);
        t.borrow_mut().leaf("mitigation.observe", train_id, run, began, Instant::now());
    };
    trainer::train_dqn_discrete(&mut env, &mut agent, config, &plan, &mut rng, observer);
    if let (Some(t), Some(id)) = (tracer, train_id) {
        t.borrow_mut().close(id, "rl.train", root, run, train_began, Instant::now());
    }

    let eval_began = Instant::now();
    let mut venv = DummyVecEnv::from_prototype(&eval_world, params.eval_episodes.clamp(1, 64));
    let result = evaluate_policy_discrete_batched(
        &mut venv,
        agent.network(),
        params.eval_episodes,
        params.max_steps,
        &InferenceFaultMode::None,
        &mut rng,
        EngineConfig::default(),
    );
    if let (Some(t), Some(root)) = (tracer, root) {
        let mut t = t.borrow_mut();
        let end = Instant::now();
        t.leaf("rl.eval", Some(root), run, eval_began, end);
        t.close(root, "campaign.run", None, run, run_began, end);
    }
    (agent.network().flat_weights(), result.success_rate)
}

/// Training steps and their latencies, over all runs.
#[derive(Default)]
struct TrainSteps {
    count: u64,
    latency: BlockLatency,
}

fn layer_metrics(tracer: &Tracer) -> Vec<(String, f64)> {
    let mean = |name: &str| {
        let r = tracer.rollup_of(name);
        r.total_ns as f64 / r.count.max(1) as f64
    };
    vec![
        ("rl.agent_us_per_step".to_string(), us(mean("rl.agent_step"))),
        ("gridworld.step_us".to_string(), us(mean("gridworld.step"))),
        ("gridworld.steps".to_string(), tracer.rollup_of("gridworld.step").count as f64),
        ("mitigation.observe_us_per_episode".to_string(), us(mean("mitigation.observe"))),
        ("rl.eval_s_per_run".to_string(), mean("rl.eval") / 1e9),
        ("fault.sample_us".to_string(), us(mean("fault.sample"))),
    ]
}

/// The [`DiscreteEnvironment`] wrapper. Untraced, it records the time
/// from one step of an episode to the next — one training step: action
/// selection, environment step, replay, `learn`, fault enforcement — with
/// one clock read per step. Traced, every reset and step is also a span
/// under the run's training span, and so is the agent's turn between two
/// steps.
struct TimedEnv<'t, 'a, 'h> {
    inner: GridWorld,
    tracer: Shared<'t, 'a>,
    parent: Option<SpanId>,
    run: u64,
    /// Start and end of the episode's previous step (`None` after a reset).
    last_step: Option<(Instant, Instant)>,
    /// Training-step latencies and step counts.
    steps: &'h mut TrainSteps,
}

impl DiscreteEnvironment for TimedEnv<'_, '_, '_> {
    fn num_states(&self) -> usize {
        self.inner.num_states()
    }

    fn num_actions(&self) -> usize {
        self.inner.num_actions()
    }

    fn reset(&mut self) -> usize {
        self.last_step = None;
        let Some(t) = self.tracer else { return self.inner.reset() };
        let began = Instant::now();
        let state = self.inner.reset();
        t.borrow_mut().leaf("gridworld.reset", self.parent, self.run, began, Instant::now());
        state
    }

    fn step(&mut self, action: usize) -> DiscreteTransition {
        let began = Instant::now();
        let previous = self.last_step;
        if let Some((previous_start, _)) = previous {
            self.steps.latency.record(began.duration_since(previous_start).as_nanos() as u64);
        }
        self.steps.count += 1;
        let Some(t) = self.tracer else {
            self.last_step = Some((began, began));
            return self.inner.step(action);
        };
        let transition = self.inner.step(action);
        let end = Instant::now();
        let mut t = t.borrow_mut();
        if let Some((_, previous_end)) = previous {
            t.leaf("rl.agent_step", self.parent, self.run, previous_end, began);
        }
        t.leaf("gridworld.step", self.parent, self.run, began, end);
        // The agent's turn starts after this bookkeeping, which stays in
        // the training span's self time.
        self.last_step = Some((began, Instant::now()));
        transition
    }
}
