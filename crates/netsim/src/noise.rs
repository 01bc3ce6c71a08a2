//! Channel noise models.
//!
//! The paper's *fully-defective* network applies **alteration noise**: once a
//! message `m ∈ {0,1}+` is sent, the receiver gets *some* `m' ∈ {0,1}+` — the
//! content may be rewritten arbitrarily, but the message can neither be
//! deleted nor can messages be injected. The alteration models here implement
//! exactly that contract: [`NoiseModel::corrupt`] always returns a non-empty
//! payload.
//!
//! A model answers one of two questions per scheduled delivery, depending on
//! the receiver. A content-oblivious receiver ([`crate::PulseReactor`])
//! cannot read bytes, so the simulation asks only [`NoiseModel::passes`]
//! whether the message survives. A reactor that reads content gets the
//! delivered bytes from [`NoiseModel::deliver`], which is `passes` followed,
//! for a survivor, by one call of `corrupt`. The alteration models keep the
//! default `passes`, `true` with no work, so a pulse run never computes (or
//! draws randomness for) a corrupted copy.
//!
//! A second group of models deliberately steps *outside* the paper's model to
//! probe where the no-deletion assumption is load-bearing: [`Omission`],
//! [`CrashLink`] and [`Burst`] may **delete** messages: their drop decision
//! is their `passes`, which `deliver` runs too, so a run's drops do not
//! depend on which question the receiver's type asks. Follow-up work (e.g.
//! content-oblivious leader election under crash faults) asks exactly this
//! boundary question; sweeping these adversaries in a campaign measures
//! *where* the Theorem 2 construction breaks — expected loss of quiescence
//! or success, never a panic or hang.

#![expect(
    clippy::disallowed_methods,
    reason = "D3: a seeded RNG factory; every noise stream derives from the scenario's noise seed"
)]
#![deny(clippy::float_arithmetic, clippy::cast_precision_loss)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

use fdn_graph::graph::Edge;

use crate::envelope::Envelope;

/// A channel noise model. Implementations may keep internal state (e.g. an
/// RNG) and are invoked once per scheduled delivery, through
/// [`deliver`](Self::deliver) or [`passes`](Self::passes) (see the
/// [module docs](self)).
pub trait NoiseModel {
    /// Produces the payload actually delivered to the receiver for a message
    /// sent as `env.payload`. Must return a non-empty payload (alteration
    /// noise cannot delete messages).
    fn corrupt(&mut self, env: &Envelope) -> Vec<u8>;

    /// Whether the message survives the channel: the whole channel action
    /// for a content-oblivious receiver. The default is the paper's
    /// contract — alteration only, never deletion — so only the
    /// deletion-side adversaries ([`Omission`], [`CrashLink`], [`Burst`])
    /// override this.
    fn passes(&mut self, _env: &Envelope) -> bool {
        true
    }

    /// The full channel action for one scheduled delivery: `Some(payload)` is
    /// handed to the receiver, `None` deletes the message. It is
    /// [`passes`](Self::passes), then [`corrupt`](Self::corrupt) for a
    /// survivor.
    fn deliver(&mut self, env: &Envelope) -> Option<Vec<u8>> {
        self.passes(env).then(|| self.corrupt(env))
    }

    /// A short human-readable name used in experiment reports.
    fn name(&self) -> &'static str {
        "noise"
    }
}

/// The identity model: payloads are delivered untouched. Used for the
/// noiseless baseline runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Noiseless;

impl NoiseModel for Noiseless {
    fn corrupt(&mut self, env: &Envelope) -> Vec<u8> {
        env.payload.to_vec()
    }

    fn name(&self) -> &'static str {
        "noiseless"
    }
}

/// Total corruption: every payload is replaced by random bytes of random
/// length (1..=8), irrespective of what was sent. This is the default model
/// for all fully-defective experiments: a content-oblivious algorithm must
/// behave identically under [`Noiseless`] and [`FullCorruption`].
#[derive(Debug, Clone)]
pub struct FullCorruption {
    rng: StdRng,
}

impl FullCorruption {
    /// Creates the model with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        FullCorruption {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl NoiseModel for FullCorruption {
    fn corrupt(&mut self, _env: &Envelope) -> Vec<u8> {
        let len = self.rng.gen_range(1..=8usize);
        (0..len).map(|_| self.rng.gen()).collect()
    }

    fn name(&self) -> &'static str {
        "full-corruption"
    }
}

/// Every payload is replaced by the single byte `1` — the canonical adversary
/// of the Theorem 20 impossibility proof ("the adversary corrupts the content
/// of any message to be '1'").
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstantOne;

impl NoiseModel for ConstantOne {
    fn corrupt(&mut self, _env: &Envelope) -> Vec<u8> {
        vec![1]
    }

    fn name(&self) -> &'static str {
        "constant-one"
    }
}

/// Independent bit-flip noise with probability `p` per bit. Not used by the
/// paper's model directly, but useful to show that content-carrying protocols
/// break down long before total corruption.
#[derive(Debug, Clone)]
pub struct BitFlip {
    p: f64,
    rng: StdRng,
}

impl BitFlip {
    /// Creates the model flipping each bit independently with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "flip probability must be in [0, 1]"
        );
        BitFlip {
            p,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl NoiseModel for BitFlip {
    fn corrupt(&mut self, env: &Envelope) -> Vec<u8> {
        let mut out = env.payload.to_vec();
        for byte in &mut out {
            for bit in 0..8 {
                if self.rng.gen_bool(self.p) {
                    *byte ^= 1 << bit;
                }
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "bit-flip"
    }
}

/// Applies an inner noise model only on a designated set of edges and leaves
/// the rest of the network noiseless. This models the classical
/// "f Byzantine edges" setting the paper contrasts itself with, and the
/// single-bridge corruption of Theorem 3.
pub struct TargetedEdges<N> {
    edges: BTreeSet<Edge>,
    inner: N,
}

impl<N: NoiseModel> TargetedEdges<N> {
    /// Creates the model corrupting only the given undirected edges.
    pub fn new<I: IntoIterator<Item = Edge>>(edges: I, inner: N) -> Self {
        TargetedEdges {
            edges: edges.into_iter().collect(),
            inner,
        }
    }

    /// Whether `env` travels on a listed edge.
    fn targets(&self, env: &Envelope) -> bool {
        self.edges.contains(&Edge::new(env.from, env.to))
    }
}

impl<N: NoiseModel> NoiseModel for TargetedEdges<N> {
    fn corrupt(&mut self, env: &Envelope) -> Vec<u8> {
        if self.targets(env) {
            self.inner.corrupt(env)
        } else {
            env.payload.to_vec()
        }
    }

    fn passes(&mut self, env: &Envelope) -> bool {
        // Forward the drop decision, so a deletion-side inner model (e.g.
        // `Omission` on a single bridge) keeps its ability to drop.
        !self.targets(env) || self.inner.passes(env)
    }

    fn name(&self) -> &'static str {
        "targeted-edges"
    }
}

/// The range of [`Omission`]'s per-delivery draw: `0..DRAW_RANGE`.
const DRAW_RANGE: u32 = 1_000_000;

/// Independent message deletion: each scheduled delivery is dropped with
/// probability `drop_per_mille / 1000`, and delivered unaltered otherwise.
///
/// This is the classical omission-fault channel, which the paper's model
/// explicitly forbids. Content is left untouched so that sweeps isolate the
/// effect of deletion from the effect of alteration (the Theorem 2 engine is
/// content-oblivious, so corrupting dropped-channel content as well would not
/// change what breaks).
///
/// Every delivery draws one uniform value from `0..1_000_000` and drops iff
/// it falls below `drop_per_mille × 1000`, so the RNG stream consumed is
/// **independent of the rate**. The draw stays that way for two reasons.
/// Saved reports depend on it: another draw, even one from `0..1000`, would
/// change the bytes of every omission cell. And two models with the same
/// seed but different rates see the *same* uniform sequence, which couples
/// their decisions monotonically: every delivery dropped at the lower rate
/// is also dropped at the higher one (for as long as the simulated
/// trajectories coincide). Equal-seed rows at different rates, such as E8's
/// `omission(10)`, `omission(50)` and `omission(200)`, therefore see nested
/// drop sets instead of independently re-randomized ones.
#[derive(Debug, Clone)]
pub struct Omission {
    /// Draws below this value drop the delivery: `drop_per_mille × 1000`.
    drop_below: u32,
    rng: StdRng,
}

impl Omission {
    /// Creates the model dropping `drop_per_mille` out of every 1000
    /// deliveries in expectation, with a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if `drop_per_mille` exceeds 1000.
    pub fn new(drop_per_mille: u16, seed: u64) -> Self {
        assert!(
            drop_per_mille <= 1000,
            "drop rate is per mille and must be <= 1000"
        );
        Omission {
            drop_below: u32::from(drop_per_mille) * 1000,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl NoiseModel for Omission {
    fn corrupt(&mut self, env: &Envelope) -> Vec<u8> {
        env.payload.to_vec()
    }

    fn passes(&mut self, _env: &Envelope) -> bool {
        // One rate-independent uniform draw per delivery (see the type docs:
        // this is what couples equal-seed models across rates).
        self.rng.gen_range(0..DRAW_RANGE) >= self.drop_below
    }

    fn name(&self) -> &'static str {
        "omission"
    }
}

/// A crash fault on one link: the undirected edge carrying the `at_pulse`-th
/// scheduled delivery (0-indexed) fails permanently — that delivery and every
/// later message on the same edge are deleted. Deliveries before the crash,
/// and on every other edge, pass unaltered.
///
/// Deterministic (no RNG): which edge crashes is a function of the schedule,
/// so a fixed scenario seed reproduces the exact crash.
#[derive(Debug, Clone, Copy)]
pub struct CrashLink {
    at_pulse: u64,
    seen: u64,
    crashed: Option<Edge>,
}

impl CrashLink {
    /// Creates the model crashing the link of the `at_pulse`-th delivery.
    pub fn new(at_pulse: u64) -> Self {
        CrashLink {
            at_pulse,
            seen: 0,
            crashed: None,
        }
    }

    /// The edge that crashed, once it has.
    pub fn crashed_edge(&self) -> Option<Edge> {
        self.crashed
    }
}

impl NoiseModel for CrashLink {
    fn corrupt(&mut self, env: &Envelope) -> Vec<u8> {
        env.payload.to_vec()
    }

    fn passes(&mut self, env: &Envelope) -> bool {
        let edge = Edge::new(env.from, env.to);
        if self.crashed.is_none() && self.seen == self.at_pulse {
            self.crashed = Some(edge);
        }
        self.seen += 1;
        self.crashed != Some(edge)
    }

    fn name(&self) -> &'static str {
        "crash-link"
    }
}

/// Periodic burst deletion: deliveries are counted globally, and within every
/// window of `period` deliveries the first `len` are deleted (the rest pass
/// unaltered). Models correlated outages — e.g. a router blackout every few
/// pulses — as opposed to [`Omission`]'s independent drops. Deterministic.
#[derive(Debug, Clone, Copy)]
pub struct Burst {
    period: u64,
    len: u64,
    seen: u64,
}

impl Burst {
    /// Creates the model deleting the first `len` of every `period`
    /// deliveries.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `len` exceeds `period`.
    pub fn new(period: u64, len: u64) -> Self {
        assert!(period > 0, "burst period must be positive");
        assert!(len <= period, "burst length must not exceed the period");
        Burst {
            period,
            len,
            seen: 0,
        }
    }
}

impl NoiseModel for Burst {
    fn corrupt(&mut self, env: &Envelope) -> Vec<u8> {
        env.payload.to_vec()
    }

    fn passes(&mut self, _env: &Envelope) -> bool {
        let phase = self.seen % self.period;
        self.seen += 1;
        phase >= self.len
    }

    fn name(&self) -> &'static str {
        "burst"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdn_graph::NodeId;

    fn env(payload: Vec<u8>) -> Envelope {
        Envelope {
            from: NodeId(0),
            to: NodeId(1),
            payload: payload.into(),
            seq: 0,
        }
    }

    #[test]
    fn noiseless_is_identity() {
        let mut n = Noiseless;
        assert_eq!(n.corrupt(&env(vec![1, 2, 3])), vec![1, 2, 3]);
        assert_eq!(n.name(), "noiseless");
    }

    #[test]
    fn full_corruption_never_deletes_and_is_deterministic_per_seed() {
        let mut a = FullCorruption::new(7);
        let mut b = FullCorruption::new(7);
        for i in 0..100u8 {
            let e = env(vec![i]);
            let ca = a.corrupt(&e);
            let cb = b.corrupt(&e);
            assert!(!ca.is_empty());
            assert!(ca.len() <= 8);
            assert_eq!(ca, cb);
        }
        assert_eq!(a.name(), "full-corruption");
    }

    #[test]
    fn full_corruption_actually_changes_content() {
        let mut n = FullCorruption::new(1);
        let original = vec![0xAA; 4];
        let changed = (0..50).any(|_| n.corrupt(&env(original.clone())) != original);
        assert!(changed);
    }

    #[test]
    fn constant_one() {
        let mut n = ConstantOne;
        assert_eq!(n.corrupt(&env(vec![9, 9, 9])), vec![1]);
        assert_eq!(n.name(), "constant-one");
    }

    #[test]
    fn bitflip_zero_probability_is_identity() {
        let mut n = BitFlip::new(0.0, 3);
        assert_eq!(n.corrupt(&env(vec![42, 43])), vec![42, 43]);
    }

    #[test]
    fn bitflip_one_probability_inverts_everything() {
        let mut n = BitFlip::new(1.0, 3);
        assert_eq!(n.corrupt(&env(vec![0x0F])), vec![0xF0]);
        assert_eq!(n.name(), "bit-flip");
    }

    #[test]
    #[should_panic]
    fn bitflip_rejects_bad_probability() {
        let _ = BitFlip::new(1.5, 0);
    }

    #[test]
    fn alteration_models_never_delete_via_deliver() {
        let e = env(vec![3, 4]);
        assert_eq!(Noiseless.deliver(&e), Some(vec![3, 4]));
        assert_eq!(ConstantOne.deliver(&e), Some(vec![1]));
        let delivered = FullCorruption::new(2).deliver(&e).unwrap();
        assert!(!delivered.is_empty());
    }

    #[test]
    fn omission_drops_at_the_configured_rate() {
        let mut always = Omission::new(1000, 4);
        let mut never = Omission::new(0, 4);
        let e = env(vec![9]);
        assert!((0..100).all(|_| always.deliver(&e).is_none()));
        assert!((0..100).all(|_| never.deliver(&e) == Some(vec![9])));
        assert_eq!(always.name(), "omission");
        // Roughly half at 500 per mille, deterministic per seed.
        let count = |seed| {
            let mut n = Omission::new(500, seed);
            (0..1000).filter(|_| n.deliver(&e).is_none()).count()
        };
        assert!((350..650).contains(&count(7)));
        assert_eq!(count(7), count(7));
        // Surviving deliveries keep the payload unaltered.
        assert_eq!(never.corrupt(&e), vec![9]);
    }

    #[test]
    #[should_panic]
    fn omission_rejects_bad_rate() {
        let _ = Omission::new(1001, 0);
    }

    #[test]
    fn omission_equal_seeds_couple_monotonically_across_rates() {
        // The coupling contract: with one seed, the drop set at a lower
        // rate is a subset of the drop set at any higher rate, because every
        // delivery consumes the same uniform draw regardless of the rate.
        let e = env(vec![4]);
        let drop_set = |per_mille: u16| -> Vec<bool> {
            let mut n = Omission::new(per_mille, 77);
            (0..2_000).map(|_| n.deliver(&e).is_none()).collect()
        };
        let rates = [50u16, 200, 450, 900];
        let sets: Vec<Vec<bool>> = rates.iter().map(|&r| drop_set(r)).collect();
        for w in sets.windows(2) {
            let nested = w[0].iter().zip(&w[1]).all(|(&low, &high)| !low || high);
            assert!(
                nested,
                "a delivery dropped at the lower rate survived the higher one"
            );
        }
        // And the coupling is strict somewhere: higher rates drop strictly more.
        let counts: Vec<usize> = sets
            .iter()
            .map(|s| s.iter().filter(|&&d| d).count())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] < w[1]), "{counts:?}");
    }

    #[test]
    fn crash_link_kills_one_edge_permanently() {
        let mut n = CrashLink::new(2);
        let ab = env(vec![5]); // edge (0,1)
        let cd = Envelope {
            from: NodeId(2),
            to: NodeId(3),
            payload: vec![6].into(),
            seq: 0,
        };
        let ba = Envelope {
            from: NodeId(1),
            to: NodeId(0),
            payload: vec![7].into(),
            seq: 0,
        };
        assert_eq!(n.deliver(&ab), Some(vec![5])); // pulse 0: before the crash
        assert_eq!(n.deliver(&cd), Some(vec![6])); // pulse 1: before the crash
        assert_eq!(n.crashed_edge(), None);
        assert_eq!(n.deliver(&ab), None); // pulse 2: edge (0,1) crashes
        assert_eq!(n.crashed_edge(), Some(Edge::new(NodeId(0), NodeId(1))));
        assert_eq!(n.deliver(&cd), Some(vec![6])); // other edges keep working
        assert_eq!(n.deliver(&ba), None); // both directions are dead
        assert_eq!(n.name(), "crash-link");
    }

    #[test]
    fn crash_link_never_fires_past_the_run() {
        let mut n = CrashLink::new(1000);
        let e = env(vec![1]);
        assert!((0..100).all(|_| n.deliver(&e) == Some(vec![1])));
        assert_eq!(n.crashed_edge(), None);
    }

    #[test]
    fn burst_drops_periodic_prefixes() {
        let mut n = Burst::new(4, 2);
        let e = env(vec![8]);
        let pattern: Vec<bool> = (0..8).map(|_| n.deliver(&e).is_some()).collect();
        assert_eq!(
            pattern,
            vec![false, false, true, true, false, false, true, true]
        );
        assert_eq!(n.name(), "burst");
        // len == 0 never drops; len == period always drops.
        let mut open = Burst::new(3, 0);
        assert!((0..9).all(|_| open.deliver(&e).is_some()));
        let mut closed = Burst::new(3, 3);
        assert!((0..9).all(|_| closed.deliver(&e).is_none()));
    }

    #[test]
    #[should_panic]
    fn burst_rejects_len_beyond_period() {
        let _ = Burst::new(2, 3);
    }

    #[test]
    fn targeted_edges_only_corrupts_listed_edges() {
        let bridge = Edge::new(NodeId(0), NodeId(1));
        let mut n = TargetedEdges::new([bridge], ConstantOne);
        assert_eq!(n.corrupt(&env(vec![5, 6])), vec![1]);
        let other = Envelope {
            from: NodeId(2),
            to: NodeId(3),
            payload: vec![5, 6].into(),
            seq: 0,
        };
        assert_eq!(n.corrupt(&other), vec![5, 6]);
        assert_eq!(n.name(), "targeted-edges");
    }

    /// A fixed stream of envelopes spread over the edges of a 4-cycle with
    /// a chord, in both directions, as a scheduler would pop them.
    fn envelope_stream() -> Vec<Envelope> {
        let arcs = [(0u32, 1u32), (1, 2), (2, 0), (2, 3), (3, 0), (1, 0), (0, 2)];
        (0..240u64)
            .map(|seq| {
                let (from, to) = arcs[(seq * 5 % arcs.len() as u64) as usize];
                Envelope {
                    from: NodeId(from),
                    to: NodeId(to),
                    payload: vec![seq as u8, 0x5A].into(),
                    seq,
                }
            })
            .collect()
    }

    /// Feeds the stream to `passing` through `passes` and to its `twin`
    /// through `deliver`, and returns the survival decisions after checking
    /// that they agree step for step.
    fn agreeing_decisions(
        mut passing: Box<dyn NoiseModel>,
        mut twin: Box<dyn NoiseModel>,
        label: &str,
    ) -> Vec<bool> {
        envelope_stream()
            .iter()
            .enumerate()
            .map(|(step, env)| {
                let passed = passing.passes(env);
                assert_eq!(
                    passed,
                    twin.deliver(env).is_some(),
                    "{label}: the survival decision differs from delivery at step {step}"
                );
                passed
            })
            .collect()
    }

    #[test]
    fn survival_decisions_match_delivery() {
        use crate::spec::NoiseSpec;
        let alteration: Vec<NoiseSpec> = NoiseSpec::BASIC
            .into_iter()
            .chain([NoiseSpec::BitFlip { p: 0.5 }])
            .collect();
        let deletion: Vec<NoiseSpec> = NoiseSpec::DELETION
            .into_iter()
            .chain([
                NoiseSpec::Omission { drop_per_mille: 0 },
                NoiseSpec::Omission {
                    drop_per_mille: 1000,
                },
                NoiseSpec::Burst { period: 1, len: 1 },
                NoiseSpec::CrashLink { at_pulse: 0 },
            ])
            .collect();
        for seed in 0..8u64 {
            for spec in &alteration {
                let label = format!("{spec} seed {seed}");
                let decisions = agreeing_decisions(spec.build(seed), spec.build(seed), &label);
                assert!(decisions.iter().all(|&d| d), "{label} dropped a message");
            }
            for spec in &deletion {
                let label = format!("{spec} seed {seed}");
                agreeing_decisions(spec.build(seed), spec.build(seed), &label);
            }
            // Omission on two listed edges: listed traffic draws and may
            // drop, unlisted traffic passes without a draw.
            let listed = [
                Edge::new(NodeId(0), NodeId(1)),
                Edge::new(NodeId(2), NodeId(3)),
            ];
            let targeted = || Box::new(TargetedEdges::new(listed, Omission::new(500, seed)));
            let label = format!("targeted omission(500) seed {seed}");
            let decisions = agreeing_decisions(targeted(), targeted(), &label);
            let stream = envelope_stream();
            let on_listed = |env: &Envelope| listed.contains(&Edge::new(env.from, env.to));
            let zipped = || stream.iter().zip(&decisions);
            assert!(zipped().any(|(env, &d)| on_listed(env) && !d));
            assert!(zipped().any(|(env, &d)| on_listed(env) && d));
            assert!(zipped().all(|(env, &d)| on_listed(env) || d));
        }
    }

    #[test]
    fn targeted_edges_forwards_deletion_to_listed_edges_only() {
        let bridge = Edge::new(NodeId(0), NodeId(1));
        let mut n = TargetedEdges::new([bridge], Omission::new(1000, 5));
        // The listed edge drops everything (inner deliver is forwarded) …
        assert_eq!(n.deliver(&env(vec![5, 6])), None);
        // … while other edges deliver unaltered.
        let other = Envelope {
            from: NodeId(2),
            to: NodeId(3),
            payload: vec![5, 6].into(),
            seq: 0,
        };
        assert_eq!(n.deliver(&other), Some(vec![5, 6]));
    }
}
