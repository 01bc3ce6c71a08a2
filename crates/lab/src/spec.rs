//! Campaign specifications: the declarative scenario matrix.
//!
//! A [`Campaign`] is the cartesian product of sweep axes — graph family,
//! engine mode, pulse encoding, workload, noise model, scheduler and seed —
//! plus execution limits. [`Campaign::expand`] turns it into the concrete,
//! deterministic [`Scenario`] list the executor runs; combinations that are
//! structurally impossible (a Theorem 2 run on a bridge graph, a token ring on
//! a non-ring, unary encoding beyond 0-byte payloads) are filtered out with a
//! recorded reason rather than failing at run time.

use std::fmt;

use fdn_core::Encoding;
use fdn_graph::{connectivity, Graph, GraphFamily};
use fdn_netsim::{LinkStore, NoiseSpec, SchedulerSpec};
use fdn_protocols::WorkloadSpec;

use crate::json::record;

/// Which simulation engine carries the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineMode {
    /// The full Theorem 2 pipeline: content-oblivious Robbins-cycle
    /// construction followed by the online phase, both paid in every run.
    Full,
    /// The Theorem 10 engine over the centralized reference Robbins cycle
    /// (no construction phase; isolates online overhead).
    CycleOnly,
    /// Construct-once online replay: the *distributed* construction runs
    /// once per (family, encoding, scheduler, construction seed) under full
    /// corruption, its boundary state is checkpointed
    /// ([`fdn_core::ConstructionCheckpoint`]), and every scenario replays
    /// only the online phase from that checkpoint with fresh noise/scheduler
    /// instances — `cc_init` is reported once (a constant across the seed
    /// sweep) and `online_pulses` measures the pure per-message overhead the
    /// paper amortizes against it.
    Replay,
}

impl EngineMode {
    /// Every engine mode.
    pub const ALL: [EngineMode; 3] = [EngineMode::Full, EngineMode::CycleOnly, EngineMode::Replay];

    /// The stable textual form; [`EngineMode::parse`] is the inverse.
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// Parses a label produced by [`EngineMode::label`].
    ///
    /// # Errors
    ///
    /// Returns a description of the problem on unknown names.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim() {
            "full" => Ok(EngineMode::Full),
            "cycle" => Ok(EngineMode::CycleOnly),
            "replay" => Ok(EngineMode::Replay),
            other => Err(format!(
                "unknown engine mode `{other}` (expected full|cycle|replay)"
            )),
        }
    }
}

impl fmt::Display for EngineMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineMode::Full => f.write_str("full"),
            EngineMode::CycleOnly => f.write_str("cycle"),
            EngineMode::Replay => f.write_str("replay"),
        }
    }
}

/// A pulse encoding, as data (the value-level face of [`Encoding`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EncodingSpec {
    /// Binary pulse encoding (Algorithm 2), the practical default.
    Binary,
    /// Unary pulse encoding (Algorithm 1(b)); exponential in message length,
    /// only paired with 0-byte payload floods by [`Campaign::expand`].
    Unary,
}

impl EncodingSpec {
    /// Both encodings.
    pub const ALL: [EncodingSpec; 2] = [EncodingSpec::Binary, EncodingSpec::Unary];

    /// The concrete engine encoding.
    pub fn build(&self) -> Encoding {
        match self {
            EncodingSpec::Binary => Encoding::binary(),
            EncodingSpec::Unary => Encoding::unary(),
        }
    }

    /// The stable textual form; [`EncodingSpec::parse`] is the inverse.
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// Parses a label produced by [`EncodingSpec::label`].
    ///
    /// # Errors
    ///
    /// Returns a description of the problem on unknown names.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim() {
            "binary" => Ok(EncodingSpec::Binary),
            "unary" => Ok(EncodingSpec::Unary),
            other => Err(format!(
                "unknown encoding `{other}` (expected binary|unary)"
            )),
        }
    }
}

impl fmt::Display for EncodingSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodingSpec::Binary => f.write_str("binary"),
            EncodingSpec::Unary => f.write_str("unary"),
        }
    }
}

/// A contiguous range of base seeds, one scenario per seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedRange {
    /// First seed.
    pub start: u64,
    /// Number of seeds.
    pub count: u32,
}

impl SeedRange {
    /// The seeds in order. A range that would run past `u64::MAX` ends
    /// there: seeds never wrap around to 0, so such a range yields fewer
    /// than `count` seeds.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..u64::from(self.count)).map_while(move |i| self.start.checked_add(i))
    }
}

/// The cell a scenario belongs to: every sweep axis except the seed.
///
/// Aggregation groups scenarios by cell; two scenarios in the same cell
/// differ only in their seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Graph family.
    pub family: GraphFamily,
    /// Engine mode.
    pub mode: EngineMode,
    /// Pulse encoding.
    pub encoding: EncodingSpec,
    /// Workload protocol.
    pub workload: WorkloadSpec,
    /// Channel noise.
    pub noise: NoiseSpec,
    /// Delivery scheduler.
    pub scheduler: SchedulerSpec,
}

impl Cell {
    /// A compact single-line identifier
    /// (`family/mode/encoding/workload/noise/scheduler`), used in logs,
    /// scenario listings and reports.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}/{}",
            self.family, self.mode, self.encoding, self.workload, self.noise, self.scheduler
        )
    }
}

/// One concrete, independently-executable experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Position in the campaign's deterministic expansion order.
    pub index: usize,
    /// The cell this scenario belongs to.
    pub cell: Cell,
    /// Base seed; noise and scheduler streams are derived from it.
    pub seed: u64,
    /// Seed of the construct-once distributed construction used by
    /// [`EngineMode::Replay`] cells (ignored by the other modes). Expansion
    /// pins it to the campaign's first seed, so every scenario of a sweep
    /// shares one checkpoint and the report stays byte-deterministic; it is
    /// recorded per cell so replay reports remain diffable across runs.
    pub construction_seed: u64,
    /// Delivery limit before the run is abandoned as non-quiescent.
    pub max_steps: u64,
    /// The link-queue representation the engine uses for this run:
    /// [`Campaign::link_store_override`], else the exact store. Deliberately
    /// **not** part of [`Scenario::id`] or any report field — the stores are
    /// byte-equivalent, so switching the engine must leave every artifact
    /// byte-identical (the CI link-store gates compare exactly that).
    pub link_store: LinkStore,
}

impl Scenario {
    /// A compact single-line identifier.
    pub fn id(&self) -> String {
        format!("{}/s{}", self.cell.id(), self.seed)
    }
}

/// A deterministic slice `index/count` of a campaign's cell list, as set by
/// `fdn-lab run --shard K/M`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This shard's index, in `0..count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Shard {
    /// Parses the CLI form `K/M` (e.g. `0/2`).
    ///
    /// # Errors
    ///
    /// Returns a description of the problem for malformed or out-of-range
    /// values.
    pub fn parse(s: &str) -> Result<Shard, String> {
        let (k, m) = s
            .split_once('/')
            .ok_or_else(|| format!("shard `{s}`: expected K/M (e.g. 0/2)"))?;
        let index: usize = k
            .trim()
            .parse()
            .map_err(|_| format!("shard `{s}`: K must be an unsigned integer"))?;
        let count: usize = m
            .trim()
            .parse()
            .map_err(|_| format!("shard `{s}`: M must be an unsigned integer"))?;
        if count == 0 {
            return Err(format!("shard `{s}`: M must be positive"));
        }
        if index >= count {
            return Err(format!("shard `{s}`: K must be in 0..M"));
        }
        Ok(Shard { index, count })
    }

    /// The filename-safe form of this shard (`KofM`), used in the shard
    /// report stems (`NAME.shardKofM.json`) that `run --shard K/M` writes
    /// and whose file names `merge` checks for a complete shard set.
    pub fn file_tag(&self) -> String {
        format!("{}of{}", self.index, self.count)
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Keeps the scenarios of every cell whose ordinal (position of the cell in
/// expansion order) falls in `shard`, preserving scenario order and the
/// original expansion indices.
///
/// Sharding is **cell-atomic**: a cell's whole seed range lands in one shard,
/// so each shard's report carries final per-cell aggregates and
/// [`crate::report::merge_reports`] can recombine shards into a report
/// byte-identical to an unsharded run. (Expansion emits each cell as one
/// contiguous seed block, so ordinals are well defined.)
pub fn shard_slice(scenarios: &[Scenario], shard: Shard) -> Vec<Scenario> {
    let mut kept = Vec::new();
    let mut ordinal = usize::MAX; // bumped to 0 by the first scenario
    let mut current: Option<Cell> = None;
    for s in scenarios {
        if current != Some(s.cell) {
            current = Some(s.cell);
            ordinal = ordinal.wrapping_add(1);
        }
        if ordinal % shard.count == shard.index {
            kept.push(*s);
        }
    }
    kept
}

/// A matrix combination excluded at expansion time, with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedCell {
    /// The would-be cell id.
    pub cell: String,
    /// Why it cannot run.
    pub reason: String,
}

record! { SkippedCell { cell, reason } }

impl SkippedCell {
    /// Whether this entry passes the `list-scenarios` substring filters.
    ///
    /// The cell id is the `/`-joined [`Cell::id`] format
    /// (`family/mode/encoding/workload/noise/scheduler`) — or just the
    /// family label when the family itself failed to build — so the family
    /// is the first segment and the noise the fifth. Filtering positionally
    /// keeps `--family` from ever matching a scheduler or workload label.
    /// An entry without a noise segment matches only when no noise filter
    /// is set.
    pub fn matches(&self, family_filter: Option<&str>, noise_filter: Option<&str>) -> bool {
        let mut parts = self.cell.split('/');
        let family = parts.next().unwrap_or("");
        let noise = parts.nth(3);
        family_filter.is_none_or(|f| family.contains(f))
            && noise_filter.is_none_or(|n| noise.is_some_and(|label| label.contains(n)))
    }
}

/// The declarative experiment matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// Report name.
    pub name: String,
    /// Graph families to sweep.
    pub families: Vec<GraphFamily>,
    /// Engine modes to sweep.
    pub modes: Vec<EngineMode>,
    /// Encodings to sweep.
    pub encodings: Vec<EncodingSpec>,
    /// Workloads to sweep.
    pub workloads: Vec<WorkloadSpec>,
    /// Noise models to sweep.
    pub noises: Vec<NoiseSpec>,
    /// Schedulers to sweep.
    pub schedulers: Vec<SchedulerSpec>,
    /// Engine choice of the link-queue representation (`fdn-lab run
    /// --link-store`, or a preset's default): runs every scenario on one
    /// store without touching cell identity, ids, or any report field.
    /// `None` (the default) runs on the exact store.
    pub link_store_override: Option<LinkStore>,
    /// Seeds per cell.
    pub seeds: SeedRange,
    /// Per-scenario delivery limit.
    pub max_steps: u64,
}

impl Campaign {
    /// A campaign with single-element default axes (binary encoding, full
    /// engine, full corruption, random scheduler, flood workload, 4 seeds).
    /// Presets and builders replace whichever axes they sweep.
    pub fn new(name: impl Into<String>) -> Self {
        Campaign {
            name: name.into(),
            families: vec![GraphFamily::Figure3],
            modes: vec![EngineMode::Full],
            encodings: vec![EncodingSpec::Binary],
            workloads: vec![WorkloadSpec::Flood { payload_bytes: 4 }],
            noises: vec![NoiseSpec::FullCorruption],
            schedulers: vec![SchedulerSpec::Random],
            link_store_override: None,
            seeds: SeedRange { start: 1, count: 4 },
            max_steps: 5_000_000,
        }
    }

    /// The number of scenarios [`Campaign::expand`] will produce.
    pub fn scenario_count(&self) -> usize {
        self.expand().len()
    }

    /// Expands the matrix into runnable scenarios (see
    /// [`Campaign::expand_with_skips`]).
    pub fn expand(&self) -> Vec<Scenario> {
        self.expand_with_skips().0
    }

    /// Expands the matrix into concrete scenarios, in deterministic order
    /// (families outermost, seeds innermost, so each cell's seeds form one
    /// contiguous block), filtering combinations that cannot run:
    ///
    /// * the family's parameters fail generator validation,
    /// * the graph is not 2-edge-connected (Theorem 3: no content-oblivious
    ///   simulation exists),
    /// * the workload does not support the topology,
    /// * the encoding is unary in a mode other than `cycle` (Lemma 7: unary
    ///   cannot carry the construction's control messages),
    /// * the encoding is unary with anything but a 0-byte flood (Lemma 7:
    ///   exponential cost makes those runs infeasible),
    /// * the encoding is unary under deletion noise.
    pub fn expand_with_skips(&self) -> (Vec<Scenario>, Vec<SkippedCell>) {
        let mut scenarios = Vec::new();
        let mut skipped = Vec::new();
        let link_store = self.link_store_override.unwrap_or(LinkStore::Exact);
        for &family in &self.families {
            // Build once per family: expansion must stay cheap, and the
            // verdict is identical for every inner combination.
            let graph = match family.build() {
                Ok(g) => g,
                Err(e) => {
                    skipped.push(SkippedCell {
                        cell: family.label(),
                        reason: format!("family does not build: {e}"),
                    });
                    continue;
                }
            };
            let two_ec = connectivity::is_two_edge_connected(&graph);
            for &mode in &self.modes {
                for &encoding in &self.encodings {
                    for &workload in &self.workloads {
                        for &noise in &self.noises {
                            for &scheduler in &self.schedulers {
                                let cell = Cell {
                                    family,
                                    mode,
                                    encoding,
                                    workload,
                                    noise,
                                    scheduler,
                                };
                                if let Some(reason) = skip_reason(&cell, &graph, two_ec) {
                                    let id = cell.id();
                                    if !skipped.iter().any(|s| s.cell == id) {
                                        skipped.push(SkippedCell { cell: id, reason });
                                    }
                                    continue;
                                }
                                for seed in self.seeds.iter() {
                                    scenarios.push(Scenario {
                                        index: scenarios.len(),
                                        cell,
                                        seed,
                                        construction_seed: self.seeds.start,
                                        max_steps: self.max_steps,
                                        link_store,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        (scenarios, skipped)
    }
}

/// Why `cell` cannot run on its family's `graph` (whose
/// 2-edge-connectivity the caller computed once per family as `two_ec`),
/// or `None` when it can: the eligibility rules listed on
/// [`Campaign::expand_with_skips`], which the frontier search expands too.
fn skip_reason(cell: &Cell, graph: &Graph, two_ec: bool) -> Option<String> {
    let unary = cell.encoding == EncodingSpec::Unary;
    if !two_ec {
        Some("graph is not 2-edge-connected (Theorem 3)".to_string())
    } else if !cell.workload.supports(graph) {
        Some(format!(
            "workload {} unsupported on {}",
            cell.workload, cell.family
        ))
    } else if unary && cell.mode != EngineMode::CycleOnly {
        // The construction's control messages carry payloads, which unary
        // cannot afford: such a run fails at once.
        Some("unary cannot carry the construction's control messages (Lemma 7)".to_string())
    } else if unary && cell.workload != (WorkloadSpec::Flood { payload_bytes: 0 }) {
        Some("unary encoding is exponential; only flood(0) is swept".to_string())
    } else if unary && cell.noise.deletes() {
        // A unary value is a pulse *count*; deleting one pulse silently
        // decodes as a different value, so the combination measures nothing
        // and its exponential stalls burn the whole step budget.
        Some("unary counting cannot tolerate deletion noise".to_string())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> Campaign {
        Campaign {
            families: vec![
                GraphFamily::Cycle { n: 4 },
                GraphFamily::Figure3,
                GraphFamily::Path { n: 4 }, // not 2EC: always skipped
            ],
            modes: vec![EngineMode::Full],
            encodings: vec![EncodingSpec::Binary],
            workloads: vec![
                WorkloadSpec::Flood { payload_bytes: 2 },
                WorkloadSpec::TokenRing,
            ],
            noises: vec![NoiseSpec::Noiseless, NoiseSpec::FullCorruption],
            schedulers: vec![SchedulerSpec::Random, SchedulerSpec::Fifo],
            seeds: SeedRange {
                start: 10,
                count: 3,
            },
            ..Campaign::new("matrix")
        }
    }

    #[test]
    fn expansion_counts_and_order_are_deterministic() {
        let c = matrix();
        let (scenarios, skipped) = c.expand_with_skips();
        // cycle(4): flood + token-ring both run -> 2 workloads * 2 noises * 2
        // scheds * 3 seeds = 24. figure3: token-ring unsupported -> 12.
        // path(4): everything skipped.
        assert_eq!(scenarios.len(), 36);
        assert_eq!(c.scenario_count(), 36);
        // Indices are the positions, seeds innermost.
        for (i, s) in scenarios.iter().enumerate() {
            assert_eq!(s.index, i);
        }
        assert_eq!(scenarios[0].seed, 10);
        assert_eq!(scenarios[1].seed, 11);
        assert_eq!(scenarios[2].seed, 12);
        assert_eq!(scenarios[0].cell, scenarios[1].cell);
        // Second expansion is identical.
        assert_eq!(c.expand(), scenarios);
        // Skips: figure3 token-ring cells (4 noise x sched combos) and the
        // path family cells, deduplicated by cell id.
        assert!(skipped
            .iter()
            .any(|s| s.cell.starts_with("figure3") && s.cell.contains("token")));
        assert!(skipped.iter().any(|s| s.cell.starts_with("path(4)")));
    }

    #[test]
    fn link_store_override_changes_the_engine_not_the_identity() {
        let mut c = matrix();
        let plain = c.expand();
        assert!(plain.iter().all(|s| s.link_store == LinkStore::Exact));
        c.link_store_override = Some(LinkStore::Counting);
        let forced = c.expand();
        // Identity is untouched: same cells, same ids, same indices...
        assert_eq!(plain.len(), forced.len());
        for (p, f) in plain.iter().zip(&forced) {
            assert_eq!(p.cell, f.cell);
            assert_eq!(p.id(), f.id());
            assert_eq!(p.index, f.index);
            assert_eq!(p.max_steps, f.max_steps);
            // ...only the engine store differs.
            assert_eq!(f.link_store, LinkStore::Counting);
        }
        c.link_store_override = Some(LinkStore::Exact);
        assert_eq!(c.expand(), plain);
    }

    #[test]
    fn unary_only_pairs_with_zero_payload_flood() {
        let mut c = matrix();
        c.modes = vec![EngineMode::CycleOnly];
        c.families = vec![GraphFamily::Cycle { n: 4 }];
        c.encodings = vec![EncodingSpec::Unary];
        c.workloads = vec![
            WorkloadSpec::Flood { payload_bytes: 0 },
            WorkloadSpec::Flood { payload_bytes: 2 },
        ];
        let (scenarios, skipped) = c.expand_with_skips();
        assert!(scenarios
            .iter()
            .all(|s| matches!(s.cell.workload, WorkloadSpec::Flood { payload_bytes: 0 })));
        assert!(skipped.iter().any(|s| s.reason.contains("unary")));
    }

    #[test]
    fn unary_never_pairs_with_deletion_noise() {
        let mut c = matrix();
        c.modes = vec![EngineMode::CycleOnly];
        c.families = vec![GraphFamily::Cycle { n: 4 }];
        c.encodings = vec![EncodingSpec::Unary];
        c.workloads = vec![WorkloadSpec::Flood { payload_bytes: 0 }];
        c.noises = vec![
            NoiseSpec::FullCorruption,
            NoiseSpec::Omission {
                drop_per_mille: 100,
            },
            NoiseSpec::Burst { period: 4, len: 1 },
        ];
        let (scenarios, skipped) = c.expand_with_skips();
        assert!(scenarios.iter().all(|s| !s.cell.noise.deletes()));
        assert!(!scenarios.is_empty(), "alteration noise still runs");
        let deletion_skips: Vec<_> = skipped
            .iter()
            .filter(|s| s.reason.contains("deletion"))
            .collect();
        assert_eq!(deletion_skips.len(), 4); // 2 deletion noises x 2 schedulers
    }

    #[test]
    fn unary_runs_only_in_cycle_mode() {
        let mut c = matrix();
        c.modes = EngineMode::ALL.to_vec();
        c.families = vec![GraphFamily::Cycle { n: 4 }, GraphFamily::Figure3];
        c.encodings = vec![EncodingSpec::Unary];
        c.workloads = vec![WorkloadSpec::Flood { payload_bytes: 0 }];
        c.noises = vec![NoiseSpec::Noiseless];
        c.schedulers = vec![SchedulerSpec::Random];
        let (scenarios, skipped) = c.expand_with_skips();
        assert_eq!(scenarios.len(), 2 * 3, "two families, one cycle cell each");
        assert!(scenarios
            .iter()
            .all(|s| s.cell.mode == EngineMode::CycleOnly));
        assert!(skipped.iter().all(|s| s.reason.contains("Lemma 7")));
        let ids: Vec<&str> = skipped.iter().map(|s| s.cell.as_str()).collect();
        assert_eq!(
            ids,
            [
                "cycle(4)/full/unary/flood(0)/noiseless/random",
                "cycle(4)/replay/unary/flood(0)/noiseless/random",
                "figure3/full/unary/flood(0)/noiseless/random",
                "figure3/replay/unary/flood(0)/noiseless/random",
            ]
        );
    }

    #[test]
    fn invalid_family_parameters_are_skipped_not_fatal() {
        let mut c = matrix();
        c.families = vec![GraphFamily::Cycle { n: 2 }];
        let (scenarios, skipped) = c.expand_with_skips();
        assert!(scenarios.is_empty());
        assert_eq!(skipped.len(), 1);
        assert!(skipped[0].reason.contains("does not build"));
    }

    #[test]
    fn seed_range_iterates_in_order() {
        let r = SeedRange { start: 5, count: 3 };
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![5, 6, 7]);
    }

    #[test]
    fn seed_range_ends_at_the_largest_seed() {
        let r = SeedRange {
            start: u64::MAX - 1,
            count: 4,
        };
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![u64::MAX - 1, u64::MAX]);
    }

    #[test]
    fn skipped_cell_filters_match_fields_not_the_whole_id() {
        let skip = |cell: &str| SkippedCell {
            cell: cell.to_string(),
            reason: "r".to_string(),
        };
        let full = skip("figure3/full/binary/leader/omission(200)/random");
        assert!(full.matches(None, None));
        assert!(full.matches(Some("figure3"), None));
        assert!(full.matches(None, Some("omission")));
        assert!(full.matches(Some("figure3"), Some("omission(200)")));
        // `random` is the *scheduler* here; a family filter must not see it.
        assert!(!full.matches(Some("random"), None));
        // Nor can a noise filter match the workload or family labels.
        assert!(!full.matches(None, Some("leader")));
        assert!(!full.matches(None, Some("figure3")));
        // A build-failure entry is just the family label: it has no noise,
        // so it matches family filters and never matches noise filters.
        let bare = skip("cycle(2)");
        assert!(bare.matches(Some("cycle"), None));
        assert!(!bare.matches(Some("cycle"), Some("noiseless")));
        assert!(!bare.matches(Some("theta"), None));
    }

    #[test]
    fn shard_parse_accepts_k_of_m_and_rejects_nonsense() {
        assert_eq!(Shard::parse("0/2").unwrap(), Shard { index: 0, count: 2 });
        assert_eq!(Shard::parse(" 3/4 ").unwrap(), Shard { index: 3, count: 4 });
        assert_eq!(Shard::parse("3/4").unwrap().to_string(), "3/4");
        for bad in ["", "1", "2/2", "5/4", "x/2", "1/x", "1/0", "-1/2"] {
            assert!(Shard::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn shard_slice_is_a_cell_atomic_partition() {
        let c = matrix();
        let scenarios = c.expand();
        let m = 3;
        let shards: Vec<Vec<Scenario>> = (0..m)
            .map(|index| shard_slice(&scenarios, Shard { index, count: m }))
            .collect();
        // Every scenario lands in exactly one shard, in expansion order.
        let mut recombined: Vec<Scenario> = shards.iter().flatten().copied().collect();
        recombined.sort_by_key(|s| s.index);
        assert_eq!(recombined, scenarios);
        let total: usize = shards.iter().map(Vec::len).sum();
        assert_eq!(total, scenarios.len());
        for shard in &shards {
            // Cell-atomic: every seed of a cell lives in the same shard.
            for s in shard {
                let full_block: Vec<&Scenario> =
                    scenarios.iter().filter(|x| x.cell == s.cell).collect();
                assert!(full_block
                    .iter()
                    .all(|x| shard.iter().any(|y| y.index == x.index)));
            }
            // Original expansion indices are preserved (not renumbered).
            for s in shard {
                assert_eq!(scenarios[s.index].cell, s.cell);
                assert_eq!(scenarios[s.index].seed, s.seed);
            }
        }
        // A single shard of one is the identity.
        assert_eq!(
            shard_slice(&scenarios, Shard { index: 0, count: 1 }),
            scenarios
        );
    }

    #[test]
    fn labels_roundtrip() {
        for mode in EngineMode::ALL {
            assert_eq!(EngineMode::parse(&mode.label()).unwrap(), mode);
        }
        for enc in EncodingSpec::ALL {
            assert_eq!(EncodingSpec::parse(&enc.label()).unwrap(), enc);
        }
        assert!(EngineMode::parse("warp").is_err());
        assert!(EncodingSpec::parse("trinary").is_err());
    }
}
