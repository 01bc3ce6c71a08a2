//! The discrete-event simulation engine.

#![deny(clippy::float_arithmetic, clippy::cast_precision_loss)]

use fdn_graph::{Graph, NodeId};

use crate::envelope::{Envelope, Payload};
use crate::error::SimError;
use crate::links::{LinkStore, LinkTable, LinkView};
use crate::noise::{NoiseModel, Noiseless};
use crate::observer::{NullObserver, Observer, PhaseEvent, PhaseMarker};
use crate::reactor::{Context, Reactor};
use crate::scheduler::{RandomScheduler, Scheduler};
use crate::stats::Stats;
use crate::transcript::{Transcript, TranscriptEvent};

/// Default bound on the number of deliveries per run; generous enough for all
/// experiments while still catching accidental non-termination.
pub const DEFAULT_MAX_STEPS: u64 = 50_000_000;

/// Summary of one [`Simulation::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Number of scheduler steps performed (deliveries plus messages deleted
    /// by a deletion-side noise model).
    pub steps: u64,
    /// Whether the network reached quiescence (no message in flight).
    pub quiescent: bool,
}

/// A deterministic asynchronous execution of a set of [`Reactor`]s over a
/// communication graph, under a chosen [`Scheduler`] (asynchrony) and
/// [`NoiseModel`] (channel corruption).
///
/// The engine is generic over an [`Observer`] probing its hot path; the
/// default [`NullObserver`] is monomorphized away, so an un-observed
/// simulation is exactly the un-instrumented engine. Attach a probe with
/// [`with_observer`](Self::with_observer).
pub struct Simulation<R, O = NullObserver> {
    graph: Graph,
    nodes: Vec<R>,
    links: LinkTable,
    noise: Box<dyn NoiseModel>,
    scheduler: Box<dyn Scheduler>,
    stats: Stats,
    transcript: Option<Transcript>,
    observer: O,
    /// The buffer every reactor event queues its sends into; empty between
    /// events (see [`react`](Self::react)).
    outbox: Vec<(NodeId, Payload)>,
    next_seq: u64,
    steps: u64,
    max_steps: u64,
    started: bool,
}

impl<R: Reactor> Simulation<R> {
    /// Creates a simulation of `nodes[i]` running at graph node `i`. Defaults:
    /// noiseless channels, seeded random scheduler, no transcript recording.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NodeCountMismatch`] if `nodes.len()` differs from
    /// the number of graph nodes.
    pub fn new(graph: Graph, nodes: Vec<R>) -> Result<Self, SimError> {
        if graph.node_count() != nodes.len() {
            return Err(SimError::NodeCountMismatch {
                nodes: graph.node_count(),
                reactors: nodes.len(),
            });
        }
        let n = graph.node_count();
        let links = LinkTable::new(&graph);
        Ok(Simulation {
            graph,
            nodes,
            links,
            noise: Box::new(Noiseless),
            scheduler: Box::new(RandomScheduler::new(0)),
            stats: Stats::new(n),
            transcript: None,
            observer: NullObserver,
            outbox: Vec::new(),
            next_seq: 0,
            steps: 0,
            max_steps: DEFAULT_MAX_STEPS,
            started: false,
        })
    }

    /// Warm-starts a simulation from an already-registered link table — the
    /// counterpart of [`Simulation::into_parts`], and the fast path for
    /// replaying many runs over one topology: link registration (which sorts
    /// every node's adjacency row) is skipped, the table is merely cleared.
    /// Everything else matches [`Simulation::new`]: fresh counters, default
    /// noise/scheduler/step limit, not yet started.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NodeCountMismatch`] if `nodes` does not cover the
    /// graph, or [`SimError::LinkCountMismatch`] /
    /// [`SimError::LinkTopologyMismatch`] if `links` was registered for a
    /// different topology (wrong link count, or an equal-sized table missing
    /// one of this graph's adjacencies).
    pub fn from_parts(graph: Graph, mut links: LinkTable, nodes: Vec<R>) -> Result<Self, SimError> {
        if graph.node_count() != nodes.len() {
            return Err(SimError::NodeCountMismatch {
                nodes: graph.node_count(),
                reactors: nodes.len(),
            });
        }
        let directed = 2 * graph.edge_count();
        if links.link_count() != directed {
            return Err(SimError::LinkCountMismatch {
                links: links.link_count(),
                expected: directed,
            });
        }
        // Equal counts are not identity: every adjacency of this graph must
        // have its registered link (with the count equal, this makes the
        // registries bijective), otherwise the first send over a missing
        // link would panic deep in `LinkTable::push` instead of erroring
        // here.
        for u in graph.nodes() {
            for &v in graph.neighbors(u) {
                if links.link_between(u, v).is_none() {
                    return Err(SimError::LinkTopologyMismatch { from: u, to: v });
                }
            }
        }
        links.clear();
        let n = graph.node_count();
        Ok(Simulation {
            graph,
            nodes,
            links,
            noise: Box::new(Noiseless),
            scheduler: Box::new(RandomScheduler::new(0)),
            stats: Stats::new(n),
            transcript: None,
            observer: NullObserver,
            outbox: Vec::new(),
            next_seq: 0,
            steps: 0,
            max_steps: DEFAULT_MAX_STEPS,
            started: false,
        })
    }
}

impl<R: Reactor, O: Observer> Simulation<R, O> {
    /// Dismantles the simulation into its reusable topology — the graph and
    /// the link table (registry intact, queues as left by the run) — plus
    /// the reactors, which keep whatever state the run drove them into.
    /// The counterpart of [`Simulation::from_parts`]. Any attached observer
    /// is dropped; retrieve it first with
    /// [`into_observer`](Self::into_observer) if its data matters.
    pub fn into_parts(self) -> (Graph, LinkTable, Vec<R>) {
        (self.graph, self.links, self.nodes)
    }

    /// Attaches an [`Observer`] (builder style), replacing the current one.
    /// Must be called before the run starts: the observer's
    /// [`on_attach`](Observer::on_attach) fires at [`start`](Self::start).
    pub fn with_observer<O2: Observer>(self, observer: O2) -> Simulation<R, O2> {
        Simulation {
            graph: self.graph,
            nodes: self.nodes,
            links: self.links,
            noise: self.noise,
            scheduler: self.scheduler,
            stats: self.stats,
            transcript: self.transcript,
            observer,
            outbox: self.outbox,
            next_seq: self.next_seq,
            steps: self.steps,
            max_steps: self.max_steps,
            started: self.started,
        }
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Consumes the simulation and returns the observer with everything it
    /// recorded.
    pub fn into_observer(self) -> O {
        self.observer
    }

    /// Replaces the noise model (builder style).
    pub fn with_noise(mut self, noise: impl NoiseModel + 'static) -> Self {
        self.noise = Box::new(noise);
        self
    }

    /// Replaces the noise model with an already-boxed instance, as produced
    /// by [`crate::NoiseSpec::build`] (builder style).
    pub fn with_noise_boxed(mut self, noise: Box<dyn NoiseModel>) -> Self {
        self.noise = noise;
        self
    }

    /// Replaces the scheduler (builder style).
    pub fn with_scheduler(mut self, scheduler: impl Scheduler + 'static) -> Self {
        self.scheduler = Box::new(scheduler);
        self
    }

    /// Replaces the scheduler with an already-boxed instance, as produced by
    /// [`crate::SchedulerSpec::build`] (builder style).
    pub fn with_scheduler_boxed(mut self, scheduler: Box<dyn Scheduler>) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the delivery limit for [`run`](Self::run).
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Selects the per-link queue representation (builder style): the exact
    /// reference backend or the counting (run-length-encoded) backend. The
    /// two are behaviourally indistinguishable — transcripts, statistics and
    /// observer curves are byte-identical (see [`crate::links`]) — so this
    /// only changes the engine's cost profile. Must be called before the run
    /// starts: switching discards queued envelopes.
    pub fn with_link_store(mut self, store: LinkStore) -> Self {
        debug_assert!(!self.started, "link store chosen after the run started");
        self.links.convert_store(store);
        self
    }

    /// The per-link queue representation in use.
    pub fn link_store(&self) -> LinkStore {
        self.links.store()
    }

    /// Stored queue entries inserted/removed by the event core so far — the
    /// backend cost measure (see [`crate::links`]).
    pub fn link_queue_ops(&self) -> u64 {
        self.links.queue_ops()
    }

    /// Enables transcript recording (off by default; transcripts of long runs
    /// can be large).
    pub fn with_transcript(mut self) -> Self {
        self.transcript = Some(Transcript::new());
        self
    }

    /// The communication graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Read access to the reactor at `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node(&self, node: NodeId) -> &R {
        &self.nodes[node.index()]
    }

    /// All reactors, indexed by node id.
    pub fn nodes(&self) -> &[R] {
        &self.nodes
    }

    /// Communication counters accumulated so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The recorded transcript, if recording was enabled.
    pub fn transcript(&self) -> Option<&Transcript> {
        self.transcript.as_ref()
    }

    /// Number of messages currently in flight.
    pub fn inflight_count(&self) -> usize {
        self.links.total()
    }

    /// Read-only view of the link-indexed event core: the non-empty links,
    /// their queue depths and head envelopes.
    pub fn link_view(&self) -> LinkView<'_> {
        self.links.view()
    }

    /// Whether no message is in flight (and the run has started).
    pub fn is_quiescent(&self) -> bool {
        self.started && self.links.is_empty()
    }

    /// The outputs of all nodes, indexed by node id.
    pub fn outputs(&self) -> Vec<Option<Vec<u8>>> {
        self.nodes.iter().map(Reactor::output).collect()
    }

    /// Invokes every reactor's `on_start` (in node-id order) and queues the
    /// messages they emit. Idempotent: a second call does nothing.
    ///
    /// # Errors
    ///
    /// Returns an error if a reactor emits an invalid message.
    pub fn start(&mut self) -> Result<(), SimError> {
        if self.started {
            return Ok(());
        }
        self.started = true;
        self.observer
            .on_attach(self.nodes.len(), self.links.link_count());
        for id in 0..self.nodes.len() {
            self.react(NodeId(id as u32), R::on_start)?;
        }
        Ok(())
    }

    /// Processes a single scheduled delivery: the scheduler picks a non-empty
    /// link, the link's oldest message (per-link FIFO) is taken, the noise
    /// model either rewrites it (alteration) or deletes it (deletion-side
    /// adversaries only), and — if it survives — the receiving reactor runs
    /// and its sends are queued. Returns `false` if nothing was in flight.
    ///
    /// # Errors
    ///
    /// Returns an error if the receiving reactor emits an invalid message.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler returns a link that is not in the active set
    /// (a contract violation by a custom [`Scheduler`] implementation).
    pub fn step(&mut self) -> Result<bool, SimError> {
        if !self.started {
            self.start()?;
        }
        if self.links.is_empty() {
            return Ok(false);
        }
        let link = self.scheduler.next_link(&self.links.view());
        let env = self
            .links
            .pop(link)
            .expect("scheduler chose an empty or unknown link");
        self.steps += 1;
        let Some(delivered_payload) = self.noise.deliver(&env) else {
            // Deleted in transit: the receiver never observes anything, so no
            // reactor runs. The step still counts towards the step limit —
            // that is what lets `run` absorb delete-everything
            // adversaries without hanging.
            self.stats.record_drop();
            self.observer
                .on_drop(env.from, env.to, self.stats.delivered_total);
            if let Some(t) = &mut self.transcript {
                t.push(TranscriptEvent::Dropped {
                    from: env.from,
                    to: env.to,
                    payload: env.payload.to_vec(),
                });
            }
            return Ok(true);
        };
        debug_assert!(
            !delivered_payload.is_empty(),
            "noise must not deliver empty payloads"
        );
        self.stats.record_delivery();
        self.observer.on_deliver(
            env.from,
            env.to,
            (delivered_payload.len() * 8) as u64,
            self.stats.delivered_total,
            self.links.total(),
        );
        if let Some(t) = &mut self.transcript {
            t.push(TranscriptEvent::Delivered {
                from: env.from,
                to: env.to,
                payload: delivered_payload.clone(),
            });
        }
        self.react(env.to, |node, ctx| {
            node.on_message(env.from, &delivered_payload, ctx);
        })?;
        Ok(true)
    }

    /// Runs until no message is in flight or this call has taken the step
    /// limit's worth of steps, calling [`start`](Self::start) first (a no-op
    /// once the run has started).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StepLimitExceeded`] if the limit is hit, or any
    /// error surfaced by starting or by [`step`](Self::step).
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        self.start()?;
        let start_steps = self.steps;
        while !self.links.is_empty() {
            if self.steps - start_steps >= self.max_steps {
                return Err(SimError::StepLimitExceeded {
                    limit: self.max_steps,
                });
            }
            self.step()?;
        }
        // Delivery-accounting invariant at quiescence: with no message left
        // in flight, every send was either delivered or dropped — strict
        // equality, not `<=` (a leak here means the link core lost an
        // envelope).
        debug_assert_eq!(
            self.stats.delivered_total + self.stats.dropped_total,
            self.stats.sent_total,
            "quiescent run leaked in-flight messages"
        );
        Ok(RunReport {
            steps: self.steps - start_steps,
            quiescent: true,
        })
    }

    /// Injects an event into a specific reactor outside of a delivery: the
    /// closure receives the reactor and a context, and any messages it
    /// queues enter the network.
    ///
    /// # Errors
    ///
    /// Returns an error if the reactor emits an invalid message.
    #[cfg(test)]
    fn with_node_mut<F>(&mut self, node: NodeId, f: F) -> Result<(), SimError>
    where
        F: FnOnce(&mut R, &mut Context),
    {
        self.react(node, f)
    }

    /// Runs one reactor event: `f` gets the reactor at `node` and a context
    /// over its neighbour slice (borrowed from the graph) and the
    /// simulation's reusable outbox. The queued sends then enter the
    /// network, with the phase markers forwarded to the observer at the
    /// outbox positions where they were recorded — so every send lands on
    /// the correct side of a phase boundary. For the null observer both the
    /// marker vector and the `O::ENABLED` blocks compile away.
    ///
    /// The outbox is drained in place and kept empty, also when a send is
    /// rejected, so no stale send outlives an error.
    fn react<F>(&mut self, node: NodeId, f: F) -> Result<(), SimError>
    where
        F: FnOnce(&mut R, &mut Context),
    {
        let lent = std::mem::take(&mut self.outbox);
        let mut ctx = Context::with_outbox(node, self.graph.neighbors(node), lent);
        if O::ENABLED {
            ctx.enable_markers();
        }
        f(&mut self.nodes[node.index()], &mut ctx);
        let mut outbox = ctx.take_outbox();
        let markers = if O::ENABLED {
            ctx.take_markers()
        } else {
            Vec::new()
        };
        let queued = self.enqueue_outbox(node, &mut outbox, markers);
        outbox.clear();
        self.outbox = outbox;
        queued
    }

    /// Moves one event's sends out of `outbox` into the network,
    /// interleaved with its `markers` (see [`react`](Self::react)).
    fn enqueue_outbox(
        &mut self,
        from: NodeId,
        outbox: &mut Vec<(NodeId, Payload)>,
        markers: Vec<(usize, PhaseEvent)>,
    ) -> Result<(), SimError> {
        let mut markers = markers.into_iter().peekable();
        for (pos, (to, payload)) in outbox.drain(..).enumerate() {
            if O::ENABLED {
                while markers.peek().is_some_and(|&(at, _)| at <= pos) {
                    let (_, event) = markers.next().expect("peeked marker");
                    self.observer.on_marker(
                        PhaseMarker { node: from, event },
                        self.stats.delivered_total,
                    );
                }
            }
            self.enqueue_send(from, to, payload)?;
        }
        if O::ENABLED {
            for (_, event) in markers {
                self.observer.on_marker(
                    PhaseMarker { node: from, event },
                    self.stats.delivered_total,
                );
            }
        }
        Ok(())
    }

    fn enqueue_send(&mut self, from: NodeId, to: NodeId, payload: Payload) -> Result<(), SimError> {
        if !self.graph.has_edge(from, to) {
            return Err(SimError::NotNeighbor { from, to });
        }
        if payload.is_empty() {
            return Err(SimError::EmptyPayload { from, to });
        }
        let env = Envelope {
            from,
            to,
            payload,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.stats.record_send(&env);
        if let Some(t) = &mut self.transcript {
            t.push(TranscriptEvent::Sent {
                from: env.from,
                to: env.to,
                payload: env.payload.to_vec(),
            });
        }
        let (env_from, env_to) = (env.from, env.to);
        let bits = (env.payload.len() * 8) as u64;
        let (link, depth) = self.links.push(env);
        self.stats
            .record_queue_depth(env_from, env_to, depth as u64, self.links.total() as u64);
        if depth == 1 {
            self.observer.on_link_activation(link, env_from, env_to);
        }
        self.observer
            .on_send(env_from, env_to, bits, depth, self.links.total());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::{ConstantOne, FullCorruption};
    use crate::scheduler::{FifoScheduler, LifoScheduler};
    use fdn_graph::generators;

    /// Floods a single token around a ring exactly once.
    struct RingOnce {
        n: u32,
        seen: bool,
        payload_seen: Option<Vec<u8>>,
    }

    impl RingOnce {
        fn new(n: u32) -> Self {
            RingOnce {
                n,
                seen: false,
                payload_seen: None,
            }
        }
    }

    impl Reactor for RingOnce {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.node() == NodeId(0) {
                ctx.send(NodeId(1), vec![7, 7]);
            }
        }
        fn on_message(&mut self, _from: NodeId, payload: &[u8], ctx: &mut Context) {
            if !self.seen {
                self.seen = true;
                self.payload_seen = Some(payload.to_vec());
                let next = NodeId((ctx.node().0 + 1) % self.n);
                if next != NodeId(0) {
                    ctx.send(next, vec![7, 7]);
                }
            }
        }
        fn output(&self) -> Option<Vec<u8>> {
            self.payload_seen.clone()
        }
    }

    fn ring_sim(n: usize) -> Simulation<RingOnce> {
        let g = generators::cycle(n).unwrap();
        let nodes = (0..n).map(|_| RingOnce::new(n as u32)).collect();
        Simulation::new(g, nodes).unwrap()
    }

    #[test]
    fn rejects_mismatched_node_count() {
        let g = generators::cycle(4).unwrap();
        let nodes = vec![RingOnce::new(4)];
        assert!(matches!(
            Simulation::new(g, nodes),
            Err(SimError::NodeCountMismatch { .. })
        ));
    }

    #[test]
    fn runs_ring_to_quiescence() {
        let mut sim = ring_sim(5);
        let report = sim.run().unwrap();
        assert!(report.quiescent);
        assert_eq!(report.steps, 4); // 4 deliveries: node0 -> 1 -> 2 -> 3 -> 4
        assert!(sim.is_quiescent());
        assert_eq!(sim.stats().sent_total, 4);
        assert_eq!(sim.stats().delivered_total, 4);
        assert_eq!(sim.stats().bits_sent, 4 * 16);
        // Node 0 never hears back; others saw the payload unchanged.
        assert_eq!(sim.node(NodeId(0)).output(), None);
        assert_eq!(sim.node(NodeId(3)).output(), Some(vec![7, 7]));
        assert_eq!(sim.outputs().iter().filter(|o| o.is_some()).count(), 4);
    }

    #[test]
    fn start_is_idempotent_and_step_reports_quiescence() {
        let mut sim = ring_sim(3);
        sim.start().unwrap();
        sim.start().unwrap();
        assert_eq!(sim.inflight_count(), 1);
        assert!(sim.step().unwrap());
        assert!(sim.step().unwrap());
        assert!(!sim.step().unwrap());
        assert!(sim.is_quiescent());
    }

    #[test]
    fn noise_corrupts_delivered_payloads_only() {
        let mut sim = ring_sim(4).with_noise(ConstantOne);
        sim.run().unwrap();
        // Receivers saw the corrupted [1]; the stats still count sent bits.
        assert_eq!(sim.node(NodeId(2)).output(), Some(vec![1]));
        assert_eq!(sim.stats().bits_sent, 3 * 16);
    }

    #[test]
    fn full_corruption_keeps_structure() {
        let mut sim = ring_sim(6).with_noise(FullCorruption::new(3));
        let report = sim.run().unwrap();
        assert_eq!(report.steps, 5);
        for id in 1..6 {
            assert!(sim.node(NodeId(id)).output().is_some());
        }
    }

    #[test]
    fn omission_drops_messages_and_still_quiesces() {
        use crate::noise::Omission;
        // Dropping everything: the run drains without any delivery, and the
        // drop path (not the step limit) absorbs the adversary.
        let mut sim = ring_sim(5)
            .with_noise(Omission::new(1000, 3))
            .with_transcript();
        let report = sim.run().unwrap();
        assert!(report.quiescent);
        assert_eq!(report.steps, 1); // node 0's send is dropped; nothing follows
        assert_eq!(sim.stats().delivered_total, 0);
        assert_eq!(sim.stats().dropped_total, 1);
        assert!(sim.outputs().iter().all(Option::is_none));
        let t = sim.transcript().unwrap();
        assert!(t
            .events()
            .iter()
            .any(|e| matches!(e, TranscriptEvent::Dropped { .. })));
    }

    #[test]
    fn crash_link_halts_the_ring_at_the_crash() {
        use crate::noise::CrashLink;
        // The ring token crosses edges one at a time; crashing at pulse 2
        // kills the third hop and the remaining nodes never hear anything.
        let mut sim = ring_sim(6).with_noise(CrashLink::new(2));
        let report = sim.run().unwrap();
        assert!(report.quiescent);
        assert_eq!(sim.stats().delivered_total, 2);
        assert_eq!(sim.stats().dropped_total, 1);
        assert_eq!(sim.outputs().iter().filter(|o| o.is_some()).count(), 2);
    }

    #[test]
    fn burst_noise_is_deterministic_and_never_panics() {
        use crate::noise::Burst;
        let run = |period, len| {
            let mut sim = ring_sim(8).with_noise(Burst::new(period, len));
            let report = sim.run().unwrap();
            (report.steps, sim.stats().dropped_total)
        };
        assert_eq!(run(4, 1), run(4, 1));
        // burst(1,0) never drops: plain ring behaviour.
        assert_eq!(run(1, 0), (7, 0));
        // burst(1,1) drops everything: one step, one drop.
        assert_eq!(run(1, 1), (1, 1));
    }

    #[test]
    fn quiescent_accounting_is_exact_under_every_noise_model() {
        // At quiescence every sent message was delivered or dropped — strict
        // equality, not `<=`: a `<` here would mean the link core leaked an
        // in-flight envelope. Checked across the noise spectrum (none, pure
        // alteration, partial deletion, total deletion).
        use crate::noise::Omission;
        let runs: Vec<Simulation<RingOnce>> = vec![
            ring_sim(6),
            ring_sim(6).with_noise(FullCorruption::new(3)),
            ring_sim(6).with_noise(Omission::new(400, 5)),
            ring_sim(6).with_noise(Omission::new(1000, 5)),
        ];
        for mut sim in runs {
            let report = sim.run().unwrap();
            assert!(report.quiescent);
            let s = sim.stats();
            assert_eq!(
                s.delivered_total + s.dropped_total,
                s.sent_total,
                "quiescent run leaked messages"
            );
        }
        // A run stopped mid-flight (step limit 1) still has messages in the
        // network: the sum is strictly below the send total.
        let mut sim = ring_sim(6).with_max_steps(1);
        assert!(sim.run().is_err());
        let s = sim.stats();
        assert!(s.delivered_total + s.dropped_total < s.sent_total);
        assert!(!sim.is_quiescent());
    }

    #[test]
    fn from_parts_warm_starts_without_reregistering_links() {
        // A finished simulation's topology (graph + registered link table)
        // rehoused around fresh reactors must behave exactly like a
        // from-scratch simulation: same run, same stats, stale queue
        // contents cleared.
        let mut first = ring_sim(5);
        first.run().unwrap();
        let (graph, links, _) = first.into_parts();
        let nodes = (0..5).map(|_| RingOnce::new(5)).collect();
        let mut warm = Simulation::from_parts(graph, links, nodes).unwrap();
        let report = warm.run().unwrap();
        assert!(report.quiescent);
        assert_eq!(report.steps, 4);
        assert_eq!(warm.stats().sent_total, 4);
        assert_eq!(warm.node(NodeId(3)).output(), Some(vec![7, 7]));

        // Leftover in-flight messages are cleared, not replayed.
        let mut aborted = ring_sim(5).with_max_steps(1);
        assert!(aborted.run().is_err());
        let (graph, links, _) = aborted.into_parts();
        assert!(links.total() > 0, "the aborted run left messages in flight");
        let nodes = (0..5).map(|_| RingOnce::new(5)).collect();
        let warm = Simulation::from_parts(graph, links, nodes).unwrap();
        assert_eq!(warm.inflight_count(), 0);

        // Mismatched parts are rejected, not silently misrouted.
        let (graph, links, _) = ring_sim(5).into_parts();
        let short: Vec<RingOnce> = (0..4).map(|_| RingOnce::new(4)).collect();
        assert!(matches!(
            Simulation::from_parts(graph, links, short),
            Err(SimError::NodeCountMismatch { .. })
        ));
        let (_, links, _) = ring_sim(5).into_parts();
        let (other_graph, _, other_nodes) = ring_sim(6).into_parts();
        assert!(matches!(
            Simulation::from_parts(other_graph, links, other_nodes),
            Err(SimError::LinkCountMismatch { .. })
        ));
        // Equal sizes but different adjacencies: a path-with-extra-edge graph
        // and a ring both have n nodes and n-ish edges; the registry check
        // must reject the swap instead of letting the first send panic.
        let ring5 = generators::cycle(5).unwrap();
        let other = {
            // 5 nodes, 5 edges, but not the ring's adjacency: a 4-cycle plus
            // a pendant node on 0 has no link for the ring's 3-4 edge.
            let mut g = Graph::new(5);
            for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)] {
                g.add_edge(NodeId(u), NodeId(v)).unwrap();
            }
            g
        };
        assert_eq!(ring5.node_count(), other.node_count());
        assert_eq!(ring5.edge_count(), other.edge_count());
        let links = LinkTable::new(&other);
        let nodes = (0..5).map(|_| RingOnce::new(5)).collect();
        assert!(matches!(
            Simulation::from_parts(ring5, links, nodes),
            Err(SimError::LinkTopologyMismatch { .. })
        ));
    }

    #[test]
    fn schedulers_change_interleaving_but_not_totals() {
        for seed in 0..5u64 {
            let mut a = ring_sim(6).with_scheduler(RandomScheduler::new(seed));
            let mut b = ring_sim(6).with_scheduler(FifoScheduler);
            let mut c = ring_sim(6).with_scheduler(LifoScheduler);
            assert_eq!(a.run().unwrap().steps, 5);
            assert_eq!(b.run().unwrap().steps, 5);
            assert_eq!(c.run().unwrap().steps, 5);
        }
    }

    #[test]
    fn transcript_records_sends_and_deliveries() {
        let mut sim = ring_sim(3).with_transcript();
        sim.run().unwrap();
        let t = sim.transcript().unwrap();
        assert_eq!(t.len(), 2 * 2); // 2 sends + 2 deliveries
        assert_eq!(t.local(NodeId(1)).len(), 2); // delivered once, sent once
    }

    #[test]
    fn step_limit_is_enforced() {
        /// Two nodes bouncing a message forever.
        struct PingPong;
        impl Reactor for PingPong {
            fn on_start(&mut self, ctx: &mut Context) {
                if ctx.node() == NodeId(0) {
                    ctx.send(NodeId(1), vec![1]);
                }
            }
            fn on_message(&mut self, from: NodeId, _p: &[u8], ctx: &mut Context) {
                ctx.send(from, vec![1]);
            }
        }
        let g = generators::two_party();
        let mut sim = Simulation::new(g, vec![PingPong, PingPong])
            .unwrap()
            .with_max_steps(100);
        assert_eq!(sim.run(), Err(SimError::StepLimitExceeded { limit: 100 }));
    }

    #[test]
    fn rejects_send_to_non_neighbor_and_empty_payload() {
        struct BadSender {
            empty: bool,
        }
        impl Reactor for BadSender {
            fn on_start(&mut self, ctx: &mut Context) {
                if ctx.node() == NodeId(0) {
                    if self.empty {
                        ctx.send(NodeId(1), vec![]);
                    } else {
                        ctx.send(NodeId(2), vec![1]);
                    }
                }
            }
            fn on_message(&mut self, _f: NodeId, _p: &[u8], _c: &mut Context) {}
        }
        let g = generators::path(4).unwrap();
        let nodes = (0..4).map(|_| BadSender { empty: false }).collect();
        let mut sim = Simulation::new(g.clone(), nodes).unwrap();
        assert!(matches!(sim.run(), Err(SimError::NotNeighbor { .. })));
        let nodes = (0..4).map(|_| BadSender { empty: true }).collect();
        let mut sim = Simulation::new(g, nodes).unwrap();
        assert!(matches!(sim.run(), Err(SimError::EmptyPayload { .. })));
    }

    #[test]
    fn with_node_mut_injects_events() {
        let mut sim = ring_sim(4);
        sim.run().unwrap();
        assert!(sim.is_quiescent());
        // Inject a fresh send from node 2 and watch it propagate one hop.
        sim.with_node_mut(NodeId(2), |_node, ctx| {
            ctx.send(NodeId(3), vec![9]);
        })
        .unwrap();
        assert_eq!(sim.inflight_count(), 1);
        let report = sim.run().unwrap();
        assert!(report.steps >= 1);
    }

    #[test]
    fn rejected_event_leaves_no_stale_send_in_the_lent_outbox() {
        use crate::observer::{Observer, PhaseEvent, PhaseMarker};

        /// Counts the sends and markers that reach the observer.
        #[derive(Default)]
        struct Tally {
            sends: usize,
            markers: usize,
        }
        impl Observer for Tally {
            fn on_send(&mut self, _f: NodeId, _t: NodeId, _b: u64, _d: usize, _i: usize) {
                self.sends += 1;
            }
            fn on_marker(&mut self, _m: PhaseMarker, _deliveries: u64) {
                self.markers += 1;
            }
        }

        /// On the 4-ring node 1 is a neighbour of node 0 and node 2 is not:
        /// the first event fails on its first send, and its second, valid
        /// send must not leak into the next event.
        fn rejected_then_valid<O: Observer>(sim: &mut Simulation<RingOnce, O>) {
            let rejected = sim.with_node_mut(NodeId(0), |_node, ctx| {
                ctx.marker(PhaseEvent::OnlineWindow);
                ctx.send(NodeId(2), vec![1]);
                ctx.send(NodeId(1), vec![1]);
            });
            assert!(matches!(rejected, Err(SimError::NotNeighbor { .. })));
            assert_eq!(sim.inflight_count(), 0);
            sim.with_node_mut(NodeId(0), |_node, ctx| ctx.send(NodeId(1), vec![2]))
                .unwrap();
            assert_eq!(sim.inflight_count(), 1);
        }

        rejected_then_valid(&mut ring_sim(4));
        let mut observed = ring_sim(4).with_observer(Tally::default());
        rejected_then_valid(&mut observed);
        let tally = observed.into_observer();
        assert_eq!(tally.sends, 1);
        // The rejected event's marker preceded its failing send.
        assert_eq!(tally.markers, 1);
    }

    #[test]
    fn observer_sees_every_event_with_consistent_counters() {
        use crate::observer::{Observer, PhaseMarker};

        #[derive(Default)]
        struct Recorder {
            attached: Option<(usize, usize)>,
            sends: u64,
            delivers: u64,
            drops: u64,
            activations: u64,
            last_inflight: usize,
        }
        impl Observer for Recorder {
            fn on_attach(&mut self, nodes: usize, links: usize) {
                self.attached = Some((nodes, links));
            }
            fn on_send(
                &mut self,
                _f: NodeId,
                _t: NodeId,
                bits: u64,
                depth: usize,
                inflight: usize,
            ) {
                assert_eq!(bits, 16);
                assert!(depth >= 1);
                self.sends += 1;
                self.last_inflight = inflight;
            }
            fn on_link_activation(&mut self, _l: crate::LinkId, _f: NodeId, _t: NodeId) {
                self.activations += 1;
            }
            fn on_deliver(
                &mut self,
                _f: NodeId,
                _t: NodeId,
                bits: u64,
                deliveries: u64,
                inflight: usize,
            ) {
                assert_eq!(bits, 16);
                self.delivers += 1;
                assert_eq!(deliveries, self.delivers);
                self.last_inflight = inflight;
            }
            fn on_drop(&mut self, _f: NodeId, _t: NodeId, _deliveries: u64) {
                self.drops += 1;
            }
            fn on_marker(&mut self, _m: PhaseMarker, _deliveries: u64) {}
        }

        let mut sim = ring_sim(5).with_observer(Recorder::default());
        sim.run().unwrap();
        let rec = sim.observer();
        assert_eq!(rec.attached, Some((5, 10)));
        assert_eq!(rec.sends, sim.stats().sent_total);
        assert_eq!(rec.delivers, sim.stats().delivered_total);
        assert_eq!(rec.drops, 0);
        // A single token: every send re-activates an empty link.
        assert_eq!(rec.activations, rec.sends);
        assert_eq!(rec.last_inflight, 0);

        // Drops are observed too.
        use crate::noise::Omission;
        let mut sim = ring_sim(5)
            .with_noise(Omission::new(1000, 3))
            .with_observer(Recorder::default());
        sim.run().unwrap();
        assert_eq!(sim.observer().drops, 1);
        let rec = sim.into_observer();
        assert_eq!(rec.sends, 1);
    }

    #[test]
    fn markers_interleave_with_sends_at_recorded_positions() {
        use crate::observer::{Observer, PhaseEvent, PhaseMarker};

        /// Emits marker / send / marker / send from node 0 at start.
        struct Marking;
        impl Reactor for Marking {
            fn on_start(&mut self, ctx: &mut Context) {
                assert!(ctx.markers_enabled());
                if ctx.node() == NodeId(0) {
                    ctx.marker(PhaseEvent::ConstructionStart);
                    ctx.send(NodeId(1), vec![1, 1]);
                    ctx.marker(PhaseEvent::ConstructionQuiescence);
                    ctx.send(NodeId(1), vec![2, 2]);
                }
            }
            fn on_message(&mut self, _f: NodeId, _p: &[u8], _c: &mut Context) {}
        }

        #[derive(Default)]
        struct Log(Vec<String>);
        impl Observer for Log {
            fn on_send(&mut self, _f: NodeId, _t: NodeId, _b: u64, _d: usize, _i: usize) {
                self.0.push("send".into());
            }
            fn on_marker(&mut self, m: PhaseMarker, _deliveries: u64) {
                assert_eq!(m.node, NodeId(0));
                self.0.push(m.event.label().into());
            }
        }

        let g = generators::two_party();
        let mut sim = Simulation::new(g, vec![Marking, Marking])
            .unwrap()
            .with_observer(Log::default());
        sim.run().unwrap();
        assert_eq!(
            sim.observer().0,
            vec![
                "construction-start",
                "send",
                "construction-quiescence",
                "send"
            ]
        );
    }

    #[test]
    fn null_observer_keeps_marker_collection_off() {
        /// Asserts the engine did not enable marker collection.
        struct NoMarkers;
        impl Reactor for NoMarkers {
            fn on_start(&mut self, ctx: &mut Context) {
                assert!(!ctx.markers_enabled());
                // Harmless even when disabled: recorded nowhere.
                ctx.marker(crate::observer::PhaseEvent::OnlineWindow);
            }
            fn on_message(&mut self, _f: NodeId, _p: &[u8], _c: &mut Context) {}
        }
        let g = generators::two_party();
        let mut sim = Simulation::new(g, vec![NoMarkers, NoMarkers]).unwrap();
        sim.run().unwrap();
        assert!(sim.is_quiescent());
    }

    #[test]
    fn counting_store_preserves_runs_and_accounting() {
        use crate::links::LinkStore;
        use crate::noise::Omission;
        // The same ring run in both representations: identical reports,
        // stats and outputs, and exact accounting at quiescence across the
        // noise spectrum (none, alteration, partial and total deletion).
        for store in LinkStore::ALL {
            let noises: Vec<Simulation<RingOnce>> = vec![
                ring_sim(6).with_link_store(store),
                ring_sim(6)
                    .with_link_store(store)
                    .with_noise(FullCorruption::new(3)),
                ring_sim(6)
                    .with_link_store(store)
                    .with_noise(Omission::new(400, 5)),
                ring_sim(6)
                    .with_link_store(store)
                    .with_noise(Omission::new(1000, 5)),
            ];
            for mut sim in noises {
                assert_eq!(sim.link_store(), store);
                let report = sim.run().unwrap();
                assert!(report.quiescent);
                let s = sim.stats();
                assert_eq!(
                    s.delivered_total + s.dropped_total,
                    s.sent_total,
                    "quiescent {store} run leaked messages"
                );
            }
        }
        let run = |store| {
            let mut sim = ring_sim(6).with_link_store(store).with_transcript();
            let report = sim.run().unwrap();
            (report, sim.transcript().unwrap().clone(), sim.outputs())
        };
        assert_eq!(run(LinkStore::Exact), run(LinkStore::Counting));
    }

    #[test]
    fn from_parts_warm_starts_a_counting_table() {
        use crate::links::LinkStore;
        // A counting-store topology survives the into_parts/from_parts
        // round-trip with its representation intact — the replay-mode warm
        // start — and replays the run exactly.
        let mut first = ring_sim(5).with_link_store(LinkStore::Counting);
        first.run().unwrap();
        let (graph, links, _) = first.into_parts();
        assert_eq!(links.store(), LinkStore::Counting);
        let nodes = (0..5).map(|_| RingOnce::new(5)).collect();
        let mut warm = Simulation::from_parts(graph, links, nodes).unwrap();
        assert_eq!(warm.link_store(), LinkStore::Counting);
        let report = warm.run().unwrap();
        assert!(report.quiescent);
        assert_eq!(report.steps, 4);
        assert_eq!(warm.node(NodeId(3)).output(), Some(vec![7, 7]));

        // An exact-store cache converted for a counting run (the runner's
        // path when `--link-store counting` replays a shared checkpoint).
        let (graph, mut links, _) = ring_sim(5).into_parts();
        links.convert_store(LinkStore::Counting);
        let nodes = (0..5).map(|_| RingOnce::new(5)).collect();
        let mut warm = Simulation::from_parts(graph, links, nodes).unwrap();
        assert_eq!(warm.link_store(), LinkStore::Counting);
        assert_eq!(warm.run().unwrap().steps, 4);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed| {
            let mut sim = ring_sim(8)
                .with_scheduler(RandomScheduler::new(seed))
                .with_noise(FullCorruption::new(seed))
                .with_transcript();
            sim.run().unwrap();
            sim.transcript().unwrap().clone()
        };
        assert_eq!(run(5), run(5));
    }
}
