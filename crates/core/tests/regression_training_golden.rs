//! Pins the exact outcome of the two policy-training entry points.
//!
//! `train_grid_policy` (DQN under a weight-fault plan: traced forward,
//! `backward_tail`, replay sampling, stuck-at re-enforcement after every
//! step) and `train_drone_policy` (behaviour cloning of the C3F2 tail
//! through the same traced forward and `backward_tail`) must produce
//! *bit-identical* weights whenever the learning step is restructured for
//! speed or memory. The digests below were captured before the learning
//! step moved onto the blocked GEMM engine and the replay buffer started
//! storing each observation once; any drift means a rewrite changed the
//! learning arithmetic or the RNG stream, not just its cost.

use navft_core::drone_policy::train_drone_policy;
use navft_core::grid_policies::{grid_mlp, train_grid_policy, PolicyKind};
use navft_core::Scale;
use navft_dronesim::DroneWorld;
use navft_fault::{FaultKind, FaultSite, FaultTarget, InjectionSchedule, Injector};
use navft_gridworld::{GridWorld, ObstacleDensity};
use navft_qformat::QFormat;
use navft_rl::{trainer, DiscreteEnvironment, FaultPlan};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Golden digest of the final weights after the bit-flip run.
const GOLDEN_GRID_BIT_FLIP: u64 = 0xded7_0007_1187_134e;
/// Golden success rate (as `f64` bits) after the bit-flip run: 150 Smoke
/// episodes are too few to reach the goal, so this pins the evaluation at 0.
const GOLDEN_GRID_BIT_FLIP_SUCCESS: u64 = 0;
/// Golden digest of the final weights after the stuck-at run.
const GOLDEN_GRID_STUCK_AT: u64 = 0xfa2f_0c6a_5df6_aeee;
/// Golden success rate (as `f64` bits) after the stuck-at run.
const GOLDEN_GRID_STUCK_AT_SUCCESS: u64 = 0;
/// Golden digest of the behaviour-cloned drone policy's weights.
const GOLDEN_DRONE: u64 = 0x1b8f_3cdc_38b6_d1cb;

/// An order-sensitive FNV-1a fold over the exact bit patterns of `values`.
fn digest(values: &[f32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Trains the Smoke-scale NN grid policy under a weight-buffer fault plan
/// of `kind` at `ber`; returns the digest of its final weights and the bits
/// of its success rate.
fn grid_run(kind: FaultKind, ber: f64, schedule: InjectionSchedule, seed: u64) -> (u64, u64) {
    let density = ObstacleDensity::Middle;
    let params = Scale::Smoke.grid();
    let world = GridWorld::with_density(density);
    let words = grid_mlp(world.num_states(), world.num_actions(), 0).weight_count();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA);
    let injector = Injector::sample(
        FaultTarget::new(FaultSite::WeightBuffer),
        words,
        QFormat::Q3_4,
        ber,
        kind,
        &mut rng,
    );
    assert!(injector.fault_count() > 0, "the plan must strike at least one bit");
    let plan = FaultPlan::new(injector, schedule);
    let run = train_grid_policy(
        PolicyKind::Network,
        density,
        &params,
        &plan,
        seed,
        trainer::no_mitigation(),
    );
    let agent = run.network.expect("network policy");
    (digest(&agent.network().flat_weights()), run.final_success_rate.to_bits())
}

#[test]
fn grid_training_under_bit_flips_matches_golden_digest() {
    let (weights, success) =
        grid_run(FaultKind::BitFlip, 1e-2, InjectionSchedule::at_episode(45), 0x0B17);
    assert_eq!(
        (weights, success),
        (GOLDEN_GRID_BIT_FLIP, GOLDEN_GRID_BIT_FLIP_SUCCESS),
        "bit-flip training drifted: got weights {weights:#018x}, success {success:#018x} ({})",
        f64::from_bits(success)
    );
}

#[test]
fn grid_training_under_stuck_at_faults_matches_golden_digest() {
    let (weights, success) =
        grid_run(FaultKind::StuckAt1, 2e-3, InjectionSchedule::from_start(), 0x57C1);
    assert_eq!(
        (weights, success),
        (GOLDEN_GRID_STUCK_AT, GOLDEN_GRID_STUCK_AT_SUCCESS),
        "stuck-at training drifted: got weights {weights:#018x}, success {success:#018x} ({})",
        f64::from_bits(success)
    );
}

#[test]
fn drone_behaviour_cloning_matches_golden_digest() {
    let policy = train_drone_policy(&DroneWorld::indoor_long(), &Scale::Smoke.drone(), 0x0D0E);
    let got = digest(&policy.flat_weights());
    assert_eq!(got, GOLDEN_DRONE, "drone policy drifted: got {got:#018x}");
}
