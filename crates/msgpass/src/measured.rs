//! Measuring the host: [`Comm::measure_cost_model`] times this process's
//! own transport and returns the α–β–γ [`CostModel`] it read.
//!
//! The fixed [`CostModel::cluster_2006`] constants model the *paper's*
//! network, so that recorded figures stay comparable across revisions; a
//! measured model prices this host instead. The model is a value — the
//! caller decides where it goes (`Runtime::cost_model`), and measuring it
//! changes nothing the runtime does afterwards — and every rank gets the
//! same bits.

use crate::collectives::TagBase;
use crate::comm::Comm;
use crate::cost::CostModel;
use crate::message::Key;

/// Ping-pongs per probe burst; the minimum filters scheduler noise.
const BURST: usize = 8;
/// Scalar accumulates per γ probe.
const GAMMA_OPS: u64 = 8192;
/// Probe payloads in bytes, far enough apart for a stable slope.
const SMALL: usize = 64;
const LARGE: usize = 64 << 10;

/// What one rank sends rank 0: its pair's best small and large one-way
/// times (initiators only), and its best γ.
type Sample = (Option<(f64, f64)>, f64);

impl Comm {
    /// Measures this host's α–β–γ cost model over `rounds` probe rounds
    /// (collective over this communicator; `rounds` ≥ 1).
    ///
    /// Each round, every rank times a black-boxed scalar loop (γ), and
    /// after a barrier each even/odd rank pair runs reduction-shaped
    /// ping-pongs — the echoing side folds over the payload before
    /// replying, since on a reduction's critical path every shipped byte
    /// is also combined — at 64 B and 64 KiB, keeping the minimum one-way
    /// time of each burst. Over the rounds the initiator of each pair
    /// keeps its minimum small and large times, and every rank its minimum
    /// γ. Rank 0 turns each pair's two times into α and β (the secant
    /// through them), averages α and β over the pairs and γ over the
    /// ranks, in rank order, and broadcasts the model. At p = 1 there is
    /// no link to time, so α and β are the clock model's.
    ///
    /// Probe traffic is real traffic: it shows up in the message and byte
    /// counters and advances the virtual clock, so a recording harness
    /// measures in a run of its own.
    pub fn measure_cost_model(&self, rounds: usize) -> CostModel {
        assert!(rounds >= 1, "a cost model takes at least one probe round");
        self.barrier();
        let _guard = self.enter_collective();
        let tag = TagBase::Calibrate.key(self.next_seq());
        let r = self.rank();
        let partner = r ^ 1;
        let paired = partner < self.size(); // odd rank count: the last rank only probes γ
        let (mut small, mut large, mut gamma) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for _ in 0..rounds {
            gamma = gamma.min(probe_gamma());
            // Every pair starts its small burst together: with more ranks
            // than cores, a pair already folding 64 KiB holds a core for
            // tens of µs at a time, on top of a neighbour's 64-byte pings.
            self.barrier();
            if paired {
                small = small.min(self.probe_pingpong(partner, tag, SMALL));
                large = large.min(self.probe_pingpong(partner, tag, LARGE));
            }
        }
        // Only the initiator's times are one-way estimates.
        let own: Sample = ((paired && r < partner).then_some((small, large)), gamma);
        let model = if r == 0 {
            let samples: Vec<Sample> = std::iter::once(own)
                .chain((1..self.size()).map(|src| self.recv_key(src, tag)))
                .collect();
            let links: Vec<(f64, f64)> = samples.iter().filter_map(|s| s.0).map(secant).collect();
            let clock = self.cost_model();
            let (alpha, beta) = if links.is_empty() {
                (clock.alpha, clock.beta)
            } else {
                (
                    mean(links.iter().map(|l| l.0)),
                    mean(links.iter().map(|l| l.1)),
                )
            };
            let gamma = mean(samples.iter().map(|s| s.1.max(1.0e-12)));
            Some(CostModel { alpha, beta, gamma })
        } else {
            self.send_key(0, tag, own, size_of::<Sample>());
            None
        };
        self.bcast(0, model)
    }

    /// One probe burst against `partner`: one `bytes`-byte buffer bounces
    /// between the two, each side folding over it on arrival. The lower
    /// rank initiates and returns its best (minimum) one-way wall time;
    /// the higher rank echoes and returns an unused estimate.
    fn probe_pingpong(&self, partner: usize, tag: Key, bytes: usize) -> f64 {
        fn fold(payload: &[u8]) -> u64 {
            let mut acc = 0u64;
            for &b in payload {
                acc = acc.wrapping_add(u64::from(std::hint::black_box(b)));
            }
            std::hint::black_box(acc)
        }
        let initiator = self.rank() < partner;
        // The one buffer that bounces, allocated outside every timed
        // window: a collective ships states it already holds.
        let mut buffer = if initiator {
            vec![0u8; bytes]
        } else {
            Vec::new()
        };
        let mut best = f64::INFINITY;
        for _ in 0..BURST {
            if initiator {
                let started = std::time::Instant::now();
                self.send_key(partner, tag, buffer, bytes);
                buffer = self.recv_key(partner, tag);
                fold(&buffer);
                best = best.min(started.elapsed().as_secs_f64() / 2.0);
            } else {
                let probe: Vec<u8> = self.recv_key(partner, tag);
                fold(&probe);
                self.send_key(partner, tag, probe, bytes);
            }
        }
        best
    }
}

/// Seconds per black-boxed scalar accumulate.
fn probe_gamma() -> f64 {
    let started = std::time::Instant::now();
    let mut acc = 0u64;
    for i in 0..GAMMA_OPS {
        acc = acc.wrapping_add(std::hint::black_box(i));
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64() / GAMMA_OPS as f64
}

/// A pair's (α, β) from its best small and large one-way times: β is the
/// size-differenced slope, α the small time less its bytes. Both are
/// clamped positive — differencing two noisy minima can go negative.
fn secant((small, large): (f64, f64)) -> (f64, f64) {
    let beta = (large - small) / (LARGE - SMALL) as f64;
    let alpha = small - beta * SMALL as f64;
    (alpha.max(1.0e-9), beta.max(1.0e-13))
}

/// The mean of `values`, summed in the order given.
fn mean(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = values.len();
    values.sum::<f64>() / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AllreduceAlgorithm;
    use crate::runtime::Runtime;

    #[test]
    fn every_rank_returns_the_same_positive_model() {
        for p in [1usize, 2, 3, 5, 8] {
            let outcome = Runtime::new(p).run(|comm| comm.measure_cost_model(2));
            let bits = |m: &CostModel| [m.alpha, m.beta, m.gamma].map(f64::to_bits);
            let first = bits(&outcome.results[0]);
            for (r, m) in outcome.results.iter().enumerate() {
                assert_eq!(bits(m), first, "p={p}: rank {r} measured {m:?}");
                for x in [m.alpha, m.beta, m.gamma] {
                    assert!(x.is_finite() && x > 0.0, "p={p}: {m:?}");
                }
            }
        }
    }

    #[test]
    fn a_single_rank_keeps_the_clock_models_link() {
        let clock = CostModel {
            alpha: 3.0e-6,
            beta: 7.0e-10,
            gamma: 1.0e-9,
        };
        let outcome = Runtime::new(1)
            .cost_model(clock)
            .run(|comm| comm.measure_cost_model(3));
        let m = outcome.results[0];
        assert_eq!((m.alpha, m.beta), (clock.alpha, clock.beta));
        assert!(m.gamma.is_finite() && m.gamma > 0.0, "{m:?}");
    }

    #[test]
    fn measuring_changes_nothing_that_runs_after_it() {
        const P: usize = 4;
        const ROUNDS: usize = 2;
        let run = |measure: bool| {
            Runtime::new(P).run(move |comm| {
                if measure {
                    comm.measure_cost_model(ROUNDS);
                }
                let state = vec![comm.rank() as u64; 8 << 10]; // 64 KiB
                comm.allreduce(
                    state,
                    true,
                    |v: &Vec<u64>| v.len() * 8,
                    |mut a, b| {
                        a.iter_mut().zip(b).for_each(|(x, y)| *x += y);
                        a
                    },
                )
            })
        };
        let (plain, measured) = (run(false), run(true));
        assert_eq!(plain.results, measured.results);
        for algo in AllreduceAlgorithm::ALL {
            assert_eq!(
                plain.stats.allreduce_algorithm_calls(algo),
                measured.stats.allreduce_algorithm_calls(algo),
                "{algo:?}"
            );
        }
        // Each pair bounces a small and a large buffer BURST times a round.
        let probes = ROUNDS * (P / 2) * 2 * 2 * BURST;
        assert!(
            measured.stats.messages >= plain.stats.messages + probes as u64,
            "probe traffic missing from the counters: {} against {} + {probes}",
            measured.stats.messages,
            plain.stats.messages
        );
    }
}
