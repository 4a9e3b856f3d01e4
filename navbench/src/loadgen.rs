//! The open-loop arrival schedule of the serving workload.
//!
//! Arrivals form a Poisson process at a fixed aggregate rate: exponential
//! gaps drawn from a generator seeded by the workload seed, each arrival
//! addressed to a uniformly drawn session. The schedule is a pure function
//! of `(seed, rate, sessions)`, so two runs with one seed offer the same
//! load, and it never looks at the server: a stall delays replies, not
//! arrivals, and each request's latency is taken from its scheduled time.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Scheduled send time, in nanoseconds from the phase start.
    pub at_ns: u64,
    /// The session the request belongs to.
    pub session: usize,
}

/// An endless Poisson arrival schedule; see the module docs.
#[derive(Debug, Clone)]
pub struct PoissonSchedule {
    rng: SmallRng,
    mean_gap_ns: f64,
    sessions: usize,
    clock_ns: f64,
}

impl PoissonSchedule {
    /// Arrivals at `rate_per_s` on average, spread over `sessions`.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive or there are no sessions.
    pub fn new(seed: u64, rate_per_s: f64, sessions: usize) -> PoissonSchedule {
        assert!(rate_per_s > 0.0 && sessions > 0, "a schedule needs a rate and sessions");
        PoissonSchedule {
            rng: SmallRng::seed_from_u64(seed),
            mean_gap_ns: 1e9 / rate_per_s,
            sessions,
            clock_ns: 0.0,
        }
    }
}

impl Iterator for PoissonSchedule {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        // Uniform in (0, 1]: 53 random bits, shifted off zero.
        let uniform = ((self.rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        self.clock_ns += -uniform.ln() * self.mean_gap_ns;
        let session = self.rng.gen_range(0..self.sessions);
        Some(Arrival { at_ns: self.clock_ns as u64, session })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_schedule() {
        let a: Vec<Arrival> = PoissonSchedule::new(42, 100_000.0, 4096).take(1000).collect();
        let b: Vec<Arrival> = PoissonSchedule::new(42, 100_000.0, 4096).take(1000).collect();
        let c: Vec<Arrival> = PoissonSchedule::new(43, 100_000.0, 4096).take(1000).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_are_ordered_and_address_real_sessions() {
        let arrivals: Vec<Arrival> = PoissonSchedule::new(7, 100_000.0, 10).take(10_000).collect();
        assert!(arrivals.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(arrivals.iter().all(|a| a.session < 10));
        for session in 0..10 {
            assert!(arrivals.iter().any(|a| a.session == session));
        }
    }

    #[test]
    fn the_offered_rate_matches_the_configured_one() {
        let last = PoissonSchedule::new(3, 100_000.0, 4096).take(200_000).last().unwrap();
        // 200k arrivals at 100k/s take 2 s; the sample mean of 200k
        // exponential gaps is within 1% of the mean with near certainty.
        let seconds = last.at_ns as f64 / 1e9;
        assert!((seconds - 2.0).abs() < 0.02, "{seconds}");
    }
}
