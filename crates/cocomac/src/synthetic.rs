//! The §VII synthetic real-time workload.
//!
//! Paper §VII-B: *"For the synthetic system, 75% of the neurons in each
//! TrueNorth core connect to TrueNorth cores on the same Blue Gene/P node,
//! while the remaining 25% connect to TrueNorth cores on other nodes. All
//! neurons fire on average at 10 Hz."* (The CoCoMac model is not used for
//! real-time runs because at real-time sizes it has too few cores to
//! populate each region.)
//!
//! [`synthetic_realtime`] builds exactly that: every neuron is a
//! phase-staggered leak pacemaker firing at the requested rate, targeting
//! a same-rank core with probability `local_fraction` and a remote-rank
//! core otherwise. Crossbars are left empty so the traffic level is set
//! *exactly* by the pacemaker rate — the workload measures communication,
//! not dynamics.

use compass_sim::{NetworkModel, Partition};
use tn_core::prng::CorePrng;
use tn_core::{CoreConfig, NeuronConfig, ResetMode, SpikeTarget};

/// Parameters of the synthetic real-time system.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticParams {
    /// Total TrueNorth cores.
    pub cores: u64,
    /// Ranks the model will run on (needed to aim local vs remote).
    pub ranks: usize,
    /// Fraction of neurons targeting cores on the same rank (paper: 0.75).
    pub local_fraction: f64,
    /// Mean firing rate per neuron in Hz at 1000 ticks/second (paper: 10).
    pub rate_hz: u32,
    /// Structure seed.
    pub seed: u64,
}

impl Default for SyntheticParams {
    fn default() -> Self {
        Self {
            cores: 64,
            ranks: 4,
            local_fraction: 0.75,
            rate_hz: 10,
            seed: 0,
        }
    }
}

impl SyntheticParams {
    /// Whether [`synthetic_realtime`] can build these parameters.
    ///
    /// # Errors
    /// The first degenerate parameter, in words: zero cores or ranks, a
    /// rate outside 1..=1000, a fraction outside \[0,1\], or fewer cores
    /// than ranks when any remote traffic is requested.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.cores == 0 || self.ranks == 0 {
            return Err("degenerate size");
        }
        if !(1..=1000).contains(&self.rate_hz) {
            return Err("rate must be 1..=1000 Hz");
        }
        if !(0.0..=1.0).contains(&self.local_fraction) {
            return Err("fraction outside [0,1]");
        }
        if self.local_fraction < 1.0 && self.ranks > 1 && self.cores < self.ranks as u64 {
            return Err("remote traffic needs at least one core per rank");
        }
        Ok(())
    }
}

/// Builds the synthetic system.
///
/// # Panics
/// Panics with [`SyntheticParams::check`]'s reason if the parameters are
/// degenerate.
pub fn synthetic_realtime(p: SyntheticParams) -> NetworkModel {
    if let Err(reason) = p.check() {
        panic!("{reason}");
    }
    let partition = Partition::uniform(p.cores, p.ranks);
    let period = 1000 / p.rate_hz;
    let local_cut = (p.local_fraction * 256.0).round() as usize;

    let cores = (0..p.cores)
        .map(|id| {
            let mut cfg = CoreConfig::blank(id, p.seed);
            let my_rank = partition.rank_of(id);
            let my_block = partition.block(my_rank);
            let my_count = my_block.end - my_block.start;
            let mut prng = CorePrng::for_core(p.seed ^ 0x57E7, id);
            for (j, neuron) in cfg.neurons.iter_mut().enumerate() {
                // Exact-rate pacemaker with deterministic phase stagger.
                *neuron = NeuronConfig {
                    weights: [0; 4],
                    leak: 1,
                    threshold: period as i32,
                    reset: ResetMode::Absolute(0),
                    floor: 0,
                    initial_potential: (((id as u32).wrapping_mul(131) + j as u32) % period) as i32,
                    ..NeuronConfig::default()
                };
                // Target: local (same rank) or remote (any other rank).
                let target_core = if j < local_cut || p.ranks == 1 || my_count == p.cores {
                    my_block.start + u64::from(prng.next_below(my_count as u32))
                } else {
                    // Uniform over cores outside my block.
                    let outside = p.cores - my_count;
                    let k = u64::from(prng.next_below(outside as u32));
                    if k < my_block.start {
                        k
                    } else {
                        k + my_count
                    }
                };
                let delay = 1 + (prng.next_below(15)) as u8;
                neuron.target = Some(SpikeTarget::new(target_core, j as u16, delay));
            }
            cfg
        })
        .collect();

    NetworkModel {
        cores,
        initial_deliveries: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compass_comm::WorldConfig;
    use compass_sim::{run, Backend, EngineConfig};

    #[test]
    fn model_validates() {
        let m = synthetic_realtime(SyntheticParams::default());
        m.validate().unwrap();
        assert_eq!(m.total_cores(), 64);
    }

    #[test]
    fn local_remote_split_matches_fraction() {
        let p = SyntheticParams {
            cores: 32,
            ranks: 4,
            ..Default::default()
        };
        let m = synthetic_realtime(p);
        let partition = Partition::uniform(p.cores, p.ranks);
        let mut local = 0u64;
        let mut remote = 0u64;
        for cfg in &m.cores {
            let r = partition.rank_of(cfg.id);
            for n in &cfg.neurons {
                let t = n.target.unwrap();
                if partition.rank_of(t.core) == r {
                    local += 1;
                } else {
                    remote += 1;
                }
            }
        }
        let frac = local as f64 / (local + remote) as f64;
        assert!((frac - 0.75).abs() < 0.01, "local fraction {frac}");
    }

    #[test]
    fn firing_rate_is_exactly_the_requested_rate() {
        let p = SyntheticParams {
            cores: 4,
            ranks: 2,
            rate_hz: 10,
            ..Default::default()
        };
        let m = synthetic_realtime(p);
        let report = run(
            &m,
            WorldConfig::flat(2),
            &EngineConfig::new(1000, Backend::Mpi),
        )
        .unwrap();
        // 4 cores × 256 neurons × 10 fires over 1000 ticks.
        assert_eq!(report.total_fires(), 4 * 256 * 10);
        assert!((report.mean_rate_hz() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn single_rank_has_no_remote_traffic() {
        let m = synthetic_realtime(SyntheticParams {
            cores: 8,
            ranks: 1,
            ..Default::default()
        });
        let report = run(
            &m,
            WorldConfig::flat(1),
            &EngineConfig::new(200, Backend::Mpi),
        )
        .unwrap();
        assert_eq!(report.total_remote_spikes(), 0);
        assert!(report.total_local_spikes() > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = SyntheticParams {
            cores: 8,
            ranks: 2,
            seed: 5,
            ..Default::default()
        };
        let a = synthetic_realtime(p);
        let b = synthetic_realtime(p);
        for (x, y) in a.cores.iter().zip(&b.cores) {
            assert_eq!(x.neurons, y.neurons);
        }
    }

    #[test]
    fn check_names_the_first_degenerate_parameter() {
        let ok = SyntheticParams::default();
        assert_eq!(ok.check(), Ok(()));
        let cases = [
            (SyntheticParams { cores: 0, ..ok }, "degenerate size"),
            (SyntheticParams { ranks: 0, ..ok }, "degenerate size"),
            (
                SyntheticParams {
                    rate_hz: 1001,
                    ..ok
                },
                "rate must be 1..=1000 Hz",
            ),
            (
                SyntheticParams {
                    local_fraction: -0.5,
                    ..ok
                },
                "fraction outside [0,1]",
            ),
            (
                SyntheticParams {
                    cores: 5,
                    ranks: 7,
                    ..ok
                },
                "remote traffic needs at least one core per rank",
            ),
        ];
        for (params, reason) in cases {
            assert_eq!(params.check(), Err(reason), "{params:?}");
        }
        // All-local traffic needs no core on every rank.
        let local = SyntheticParams {
            cores: 5,
            ranks: 7,
            local_fraction: 1.0,
            ..ok
        };
        assert_eq!(local.check(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "rate must be")]
    fn zero_rate_rejected() {
        synthetic_realtime(SyntheticParams {
            rate_hz: 0,
            ..Default::default()
        });
    }

    #[test]
    fn full_local_fraction_keeps_everything_on_rank() {
        let p = SyntheticParams {
            cores: 8,
            ranks: 2,
            local_fraction: 1.0,
            ..Default::default()
        };
        let m = synthetic_realtime(p);
        let partition = Partition::uniform(8, 2);
        for cfg in &m.cores {
            let r = partition.rank_of(cfg.id);
            for n in &cfg.neurons {
                assert_eq!(partition.rank_of(n.target.unwrap().core), r);
            }
        }
    }
}
