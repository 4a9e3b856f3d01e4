//! Pins the allocation profile of the DQN training step: once the agent's
//! workspace and replay buffer are warm, an `observe` + `learn` step — and
//! the stuck-at re-enforcement the trainers run after it — performs **zero**
//! heap allocations, for vanilla and Double DQN alike.
//!
//! A counting global allocator makes that observable. It counts per thread,
//! so the test harness's own threads cannot disturb the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use navft_fault::{
    BitFault, FaultKind, FaultMap, FaultSite, FaultTarget, InjectionSchedule, Injector,
};
use navft_nn::{mlp, Tensor};
use navft_qformat::QFormat;
use navft_rl::{DqnAgent, DqnConfig, EpsilonSchedule, FaultPlan};
use rand::rngs::SmallRng;
use rand::SeedableRng;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a const-initialized thread local, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations the calling thread performs inside `f`.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const STATES: usize = 9;

fn one_hot(index: usize) -> Tensor {
    let mut t = Tensor::zeros(&[STATES]);
    t.data_mut()[index % STATES] = 1.0;
    t
}

/// Runs `steps` observe + learn + re-enforce steps over a cyclic stream of
/// one-hot transitions, starting at stream position `from`.
fn train(
    agent: &mut DqnAgent,
    plan: &FaultPlan,
    rng: &mut SmallRng,
    observations: &[Tensor],
    from: usize,
    steps: usize,
) {
    for i in from..from + steps {
        let (state, next) = (&observations[i % STATES], &observations[(i * 5 + 1) % STATES]);
        agent.observe(state, i % 3, if i % 4 == 0 { 1.0 } else { -0.1 }, next, i % 11 == 0);
        agent.learn(rng);
        plan.after_update_network(0, agent.network_mut());
    }
}

fn assert_warm_steps_do_not_allocate(double_dqn: bool) {
    let mut rng = SmallRng::seed_from_u64(0xA11C);
    let net = mlp(&[STATES, 24, 16, 3], &mut rng);
    let config =
        DqnConfig { batch_size: 8, replay_capacity: 64, double_dqn, ..DqnConfig::default() };
    let mut agent = DqnAgent::new(net, &[STATES], EpsilonSchedule::for_training(20), config);
    let map = FaultMap::from_faults(vec![
        BitFault { word: 3, bit: 7, kind: FaultKind::StuckAt1 },
        BitFault { word: 400, bit: 2, kind: FaultKind::StuckAt0 },
    ]);
    let injector = Injector::new(FaultTarget::new(FaultSite::WeightBuffer), QFormat::Q3_4, map);
    let plan = FaultPlan::new(injector, InjectionSchedule::from_start());
    let observations: Vec<Tensor> = (0..STATES).map(one_hot).collect();

    // Warm-up: fill the replay buffer past capacity so eviction runs, and
    // let every workspace buffer reach its high-water mark.
    train(&mut agent, &plan, &mut rng, &observations, 0, 200);
    let allocations =
        allocations_in(|| train(&mut agent, &plan, &mut rng, &observations, 200, 500));
    assert_eq!(allocations, 0, "warm training steps allocated (double_dqn = {double_dqn})");
    assert!(agent.network().flat_weights().iter().all(|w| w.is_finite()));
}

#[test]
fn warm_vanilla_dqn_steps_perform_no_heap_allocation() {
    assert_warm_steps_do_not_allocate(false);
}

#[test]
fn warm_double_dqn_steps_perform_no_heap_allocation() {
    assert_warm_steps_do_not_allocate(true);
}

#[test]
fn the_counter_sees_allocations() {
    let allocations = allocations_in(|| {
        std::hint::black_box(vec![0u8; 64]);
    });
    assert_eq!(allocations, 1);
}
