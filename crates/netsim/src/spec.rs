//! Serializable descriptions of noise models and schedulers.
//!
//! [`crate::NoiseModel`] and [`crate::Scheduler`] are stateful trait objects
//! (they own RNGs), so they cannot themselves sit in a scenario matrix, be
//! compared, printed in a report or parsed back from a CLI flag. [`NoiseSpec`]
//! and [`SchedulerSpec`] are the value-level counterparts: plain enums with a
//! stable label, a parser, and a `build(seed)` factory that produces a fresh
//! boxed instance for one simulation run. Seeded variants take their seed at
//! build time, so one spec value fans out across a whole seed sweep.

use std::fmt;

use crate::noise::{
    BitFlip, Burst, ConstantOne, CrashLink, FullCorruption, NoiseModel, Noiseless, Omission,
};
use crate::scheduler::{FifoScheduler, LifoScheduler, RandomScheduler, Scheduler};

/// A noise model, as data. `build(seed)` of equal specs with equal seeds
/// yields identically-behaving models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseSpec {
    /// Identity channels ([`Noiseless`]).
    Noiseless,
    /// Total content corruption ([`FullCorruption`]), the paper's model.
    FullCorruption,
    /// Every payload becomes the byte `1` ([`ConstantOne`]), the §6 adversary.
    ConstantOne,
    /// Independent per-bit flips with probability `p` ([`BitFlip`]).
    BitFlip {
        /// Per-bit flip probability in `[0, 1]`.
        p: f64,
    },
    /// Independent message deletion ([`Omission`]) — outside the paper's
    /// model, used to measure where the no-deletion assumption bites.
    Omission {
        /// Deliveries dropped out of every 1000, in `[0, 1000]`.
        drop_per_mille: u16,
    },
    /// Permanent crash of the link carrying the `at_pulse`-th delivery
    /// ([`CrashLink`]) — outside the paper's model.
    CrashLink {
        /// 0-indexed delivery at which the crash occurs.
        at_pulse: u64,
    },
    /// Periodic burst deletion ([`Burst`]) — outside the paper's model.
    Burst {
        /// Window length in deliveries (positive).
        period: u64,
        /// Deliveries deleted at the start of each window (`<= period`).
        len: u64,
    },
}

impl NoiseSpec {
    /// The specs every campaign can sweep without extra parameters.
    pub const BASIC: [NoiseSpec; 3] = [
        NoiseSpec::Noiseless,
        NoiseSpec::FullCorruption,
        NoiseSpec::ConstantOne,
    ];

    /// Canonical deletion-side frontier sweep: one representative of each
    /// adversary that violates the paper's no-deletion assumption.
    pub const DELETION: [NoiseSpec; 3] = [
        NoiseSpec::Omission {
            drop_per_mille: 200,
        },
        NoiseSpec::CrashLink { at_pulse: 40 },
        NoiseSpec::Burst { period: 8, len: 2 },
    ];

    /// Whether this spec can delete messages (i.e. steps outside the paper's
    /// alteration-only model).
    pub fn deletes(&self) -> bool {
        matches!(
            self,
            NoiseSpec::Omission { .. } | NoiseSpec::CrashLink { .. } | NoiseSpec::Burst { .. }
        )
    }

    /// Builds a fresh model instance for one run.
    pub fn build(&self, seed: u64) -> Box<dyn NoiseModel> {
        match *self {
            NoiseSpec::Noiseless => Box::new(Noiseless),
            NoiseSpec::FullCorruption => Box::new(FullCorruption::new(seed)),
            NoiseSpec::ConstantOne => Box::new(ConstantOne),
            NoiseSpec::BitFlip { p } => Box::new(BitFlip::new(p, seed)),
            NoiseSpec::Omission { drop_per_mille } => Box::new(Omission::new(drop_per_mille, seed)),
            NoiseSpec::CrashLink { at_pulse } => Box::new(CrashLink::new(at_pulse)),
            NoiseSpec::Burst { period, len } => Box::new(Burst::new(period, len)),
        }
    }

    /// Parses the stable textual form; [`Display`](fmt::Display) is the
    /// inverse.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem on unknown names or bad
    /// parameters.
    pub fn parse(s: &str) -> Result<Self, String> {
        let s = s.trim();
        match s {
            "noiseless" => Ok(NoiseSpec::Noiseless),
            "full-corruption" => Ok(NoiseSpec::FullCorruption),
            "constant-one" => Ok(NoiseSpec::ConstantOne),
            _ => {
                if let Some(p) = s.strip_prefix("bitflip(").and_then(|r| r.strip_suffix(')')) {
                    let p: f64 = p
                        .trim()
                        .parse()
                        .map_err(|_| format!("noise `{s}`: probability must be a number"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("noise `{s}`: probability must be in [0, 1]"));
                    }
                    Ok(NoiseSpec::BitFlip { p })
                } else if let Some(r) = s
                    .strip_prefix("omission(")
                    .and_then(|r| r.strip_suffix(')'))
                {
                    let drop_per_mille: u16 = r
                        .trim()
                        .parse()
                        .map_err(|_| format!("noise `{s}`: drop rate must be an integer"))?;
                    if drop_per_mille > 1000 {
                        return Err(format!("noise `{s}`: drop rate is per mille (0..=1000)"));
                    }
                    Ok(NoiseSpec::Omission { drop_per_mille })
                } else if let Some(r) = s
                    .strip_prefix("crash-link(")
                    .and_then(|r| r.strip_suffix(')'))
                {
                    let at_pulse: u64 = r
                        .trim()
                        .parse()
                        .map_err(|_| format!("noise `{s}`: crash pulse must be an integer"))?;
                    Ok(NoiseSpec::CrashLink { at_pulse })
                } else if let Some(r) = s.strip_prefix("burst(").and_then(|r| r.strip_suffix(')')) {
                    let (period, len) = r
                        .split_once(',')
                        .ok_or_else(|| format!("noise `{s}`: expected burst(period,len)"))?;
                    let period: u64 = period
                        .trim()
                        .parse()
                        .map_err(|_| format!("noise `{s}`: period must be an integer"))?;
                    let len: u64 = len
                        .trim()
                        .parse()
                        .map_err(|_| format!("noise `{s}`: length must be an integer"))?;
                    if period == 0 {
                        return Err(format!("noise `{s}`: period must be positive"));
                    }
                    if len > period {
                        return Err(format!("noise `{s}`: length must not exceed the period"));
                    }
                    Ok(NoiseSpec::Burst { period, len })
                } else {
                    Err(format!("unknown noise spec `{s}`"))
                }
            }
        }
    }
}

impl fmt::Display for NoiseSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            NoiseSpec::Noiseless => f.write_str("noiseless"),
            NoiseSpec::FullCorruption => f.write_str("full-corruption"),
            NoiseSpec::ConstantOne => f.write_str("constant-one"),
            NoiseSpec::BitFlip { p } => write!(f, "bitflip({p})"),
            NoiseSpec::Omission { drop_per_mille } => write!(f, "omission({drop_per_mille})"),
            NoiseSpec::CrashLink { at_pulse } => write!(f, "crash-link({at_pulse})"),
            NoiseSpec::Burst { period, len } => write!(f, "burst({period},{len})"),
        }
    }
}

/// A scheduler, as data — see [`NoiseSpec`] for the rationale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SchedulerSpec {
    /// Seeded uniform choice ([`RandomScheduler`]).
    Random,
    /// Global send order ([`FifoScheduler`]).
    Fifo,
    /// Newest first ([`LifoScheduler`]).
    Lifo,
}

impl SchedulerSpec {
    /// All schedulers expressible without extra parameters.
    pub const ALL: [SchedulerSpec; 3] = [
        SchedulerSpec::Random,
        SchedulerSpec::Fifo,
        SchedulerSpec::Lifo,
    ];

    /// Builds a fresh scheduler instance for one run.
    pub fn build(&self, seed: u64) -> Box<dyn Scheduler> {
        match *self {
            SchedulerSpec::Random => Box::new(RandomScheduler::new(seed)),
            SchedulerSpec::Fifo => Box::new(FifoScheduler),
            SchedulerSpec::Lifo => Box::new(LifoScheduler),
        }
    }

    /// Parses the stable textual form; [`Display`](fmt::Display) is the
    /// inverse.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem on unknown names.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim() {
            "random" => Ok(SchedulerSpec::Random),
            "fifo" => Ok(SchedulerSpec::Fifo),
            "lifo" => Ok(SchedulerSpec::Lifo),
            other => Err(format!("unknown scheduler spec `{other}`")),
        }
    }
}

impl fmt::Display for SchedulerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SchedulerSpec::Random => f.write_str("random"),
            SchedulerSpec::Fifo => f.write_str("fifo"),
            SchedulerSpec::Lifo => f.write_str("lifo"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::Envelope;
    use fdn_graph::NodeId;

    fn env() -> Envelope {
        Envelope {
            from: NodeId(0),
            to: NodeId(1),
            payload: vec![7, 7].into(),
            seq: 0,
        }
    }

    #[test]
    fn noise_spec_builds_matching_models() {
        assert_eq!(NoiseSpec::Noiseless.build(0).corrupt(&env()), vec![7, 7]);
        assert_eq!(NoiseSpec::ConstantOne.build(0).corrupt(&env()), vec![1]);
        let out = NoiseSpec::FullCorruption.build(3).corrupt(&env());
        assert!(!out.is_empty() && out.len() <= 8);
        assert_eq!(
            NoiseSpec::BitFlip { p: 0.0 }.build(1).corrupt(&env()),
            vec![7, 7]
        );
    }

    #[test]
    fn noise_spec_same_seed_same_stream() {
        let mut a = NoiseSpec::FullCorruption.build(9);
        let mut b = NoiseSpec::FullCorruption.build(9);
        for _ in 0..20 {
            assert_eq!(a.corrupt(&env()), b.corrupt(&env()));
        }
    }

    #[test]
    fn noise_spec_label_roundtrip() {
        for spec in [
            NoiseSpec::Noiseless,
            NoiseSpec::FullCorruption,
            NoiseSpec::ConstantOne,
            NoiseSpec::BitFlip { p: 0.25 },
            NoiseSpec::Omission {
                drop_per_mille: 125,
            },
            NoiseSpec::CrashLink { at_pulse: 17 },
            NoiseSpec::Burst { period: 6, len: 2 },
        ] {
            assert_eq!(NoiseSpec::parse(&spec.to_string()).unwrap(), spec);
        }
        for spec in NoiseSpec::DELETION {
            assert_eq!(NoiseSpec::parse(&spec.to_string()).unwrap(), spec);
        }
        assert!(NoiseSpec::parse("gaussian").is_err());
        assert!(NoiseSpec::parse("bitflip(2.0)").is_err());
        assert!(NoiseSpec::parse("bitflip(x)").is_err());
        assert!(NoiseSpec::parse("omission(1001)").is_err());
        assert!(NoiseSpec::parse("omission(x)").is_err());
        assert!(NoiseSpec::parse("crash-link(soon)").is_err());
        assert!(NoiseSpec::parse("burst(4)").is_err());
        assert!(NoiseSpec::parse("burst(0,0)").is_err());
        assert!(NoiseSpec::parse("burst(2,3)").is_err());
    }

    #[test]
    fn deletion_specs_build_deleting_models_and_alteration_specs_do_not() {
        for spec in NoiseSpec::DELETION {
            assert!(spec.deletes());
        }
        for spec in NoiseSpec::BASIC {
            assert!(!spec.deletes());
            assert!(spec.build(1).deliver(&env()).is_some());
        }
        assert!(!NoiseSpec::BitFlip { p: 0.5 }.deletes());
        // omission(1000) deletes everything; burst(1,1) deletes everything;
        // crash-link(0) deletes the very first delivery.
        let mut all = NoiseSpec::Omission {
            drop_per_mille: 1000,
        }
        .build(3);
        assert!(all.deliver(&env()).is_none());
        let mut burst = NoiseSpec::Burst { period: 1, len: 1 }.build(3);
        assert!(burst.deliver(&env()).is_none());
        let mut crash = NoiseSpec::CrashLink { at_pulse: 0 }.build(3);
        assert!(crash.deliver(&env()).is_none());
    }

    #[test]
    fn scheduler_spec_builds_and_roundtrips() {
        let g = fdn_graph::generators::cycle(3).unwrap();
        let mut links = crate::links::LinkTable::new(&g);
        let (oldest, _) = links.push(Envelope {
            from: NodeId(0),
            to: NodeId(1),
            payload: vec![1].into(),
            seq: 5,
        });
        let (newest, _) = links.push(Envelope {
            from: NodeId(1),
            to: NodeId(2),
            payload: vec![1].into(),
            seq: 6,
        });
        assert_eq!(
            SchedulerSpec::Fifo.build(0).next_link(&links.view()),
            oldest
        );
        assert_eq!(
            SchedulerSpec::Lifo.build(0).next_link(&links.view()),
            newest
        );
        let picked = SchedulerSpec::Random.build(0).next_link(&links.view());
        assert!(links.view().active().contains(&picked));
        for spec in SchedulerSpec::ALL {
            assert_eq!(SchedulerSpec::parse(&spec.to_string()).unwrap(), spec);
        }
        assert!(SchedulerSpec::parse("priority").is_err());
    }
}
