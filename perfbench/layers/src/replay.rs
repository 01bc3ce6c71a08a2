//! Replaying a recorded run against each layer in isolation.
//!
//! The recorded log says which link every send entered and which link
//! every delivery or deletion left. A *reference walk* re-derives the rest
//! from fresh components of the scenario — payloads from a fresh reactor
//! set, sequence numbers and queue depths from a fresh link table, delivered
//! payloads from a fresh noise model — and checks each step against the log.
//! It produces, chunk by chunk, exactly the inputs every layer saw in the
//! real run. Each layer is then timed on its own inputs alone:
//!
//! | layer | timed calls | checked against |
//! |---|---|---|
//! | links (both stores) | `LinkTable::push` / `pop` | the reference pops |
//! | scheduler | `Scheduler::next_link` (on top of a link replay) | the recorded link |
//! | noise | `NoiseModel::deliver` | the reference outcome |
//! | stats | `record_send`, `record_queue_depth`, `record_delivery`, `record_drop` | the run's `StatsSnapshot` |
//! | engine | `Reactor::on_start` / `on_message` | the reference sends |
//!
//! Chunking keeps memory bounded by the chunk, not the run: the layers keep
//! their state from chunk to chunk, so the concatenated replays are one
//! replay of the whole run.

use std::hint::black_box;

use fdn_graph::NodeId;
use fdn_lab::Stopwatch;
use fdn_netsim::{
    Context, Envelope, LinkId, LinkStore, LinkTable, NullObserver, Payload, Reactor, Stats,
    StatsSnapshot,
};

use crate::nanos;
use crate::observe::{decode, Recorder, DELIVER, DROP, SEND};
use crate::scenario::{Setup, WithReactors};

/// Deliveries (or deletions) per replay chunk.
const CHUNK: usize = 1 << 15;

/// Measured costs and exact work counts, summed over replayed scenarios.
/// Times are nanoseconds of wall clock on one thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Costs {
    /// Scenarios replayed.
    pub scenarios: u64,
    /// Untraced `Simulation::run`.
    pub run_ns: u64,
    /// `Simulation::run` with the recorder attached.
    pub traced_ns: u64,
    /// Push/pop replay on the exact link store.
    pub links_exact_ns: u64,
    /// Push/pop replay on the counting link store.
    pub links_counting_ns: u64,
    /// Push/pop replay on the run's own store (one of the two above).
    pub links_run_store_ns: u64,
    /// Push/pop replay on the run's store plus a scheduler pick per pop.
    pub links_and_scheduler_ns: u64,
    /// Noise replay.
    pub noise_ns: u64,
    /// `Stats` replay.
    pub stats_ns: u64,
    /// Reactor replay.
    pub engine_ns: u64,
    /// Messages sent.
    pub sends: u64,
    /// Messages delivered.
    pub deliveries: u64,
    /// Messages deleted by the noise model.
    pub drops: u64,
    /// Deepest network-wide in-flight count.
    pub max_inflight: u64,
}

impl Costs {
    /// Deliveries plus deletions: every pop the event core made.
    pub fn pops(&self) -> u64 {
        self.deliveries + self.drops
    }

    /// Link-queue operations: one per send and one per pop.
    pub fn link_ops(&self) -> u64 {
        self.sends + self.pops()
    }

    /// The scheduler's share: the scheduler replay minus the link replay it
    /// runs on.
    pub fn scheduler_ns(&self) -> i64 {
        signed(self.links_and_scheduler_ns) - signed(self.links_run_store_ns)
    }

    /// Every isolated layer of one `Simulation::run`: the run's link store,
    /// the scheduler, noise, stats and the engine.
    pub fn layers_ns(&self) -> i64 {
        signed(self.links_run_store_ns)
            + self.scheduler_ns()
            + signed(self.noise_ns)
            + signed(self.stats_ns)
            + signed(self.engine_ns)
    }

    /// What the layers do not explain of the untraced `Simulation::run`:
    /// dispatch, envelope construction, validation, context allocation.
    /// Negative when the isolated replays cost more than the real run.
    pub fn remainder_ns(&self) -> i64 {
        signed(self.run_ns) - self.layers_ns()
    }

    /// Adds another scenario's costs.
    pub fn add(&mut self, o: &Costs) {
        self.scenarios += o.scenarios;
        self.run_ns += o.run_ns;
        self.traced_ns += o.traced_ns;
        self.links_exact_ns += o.links_exact_ns;
        self.links_counting_ns += o.links_counting_ns;
        self.links_run_store_ns += o.links_run_store_ns;
        self.links_and_scheduler_ns += o.links_and_scheduler_ns;
        self.noise_ns += o.noise_ns;
        self.stats_ns += o.stats_ns;
        self.engine_ns += o.engine_ns;
        self.sends += o.sends;
        self.deliveries += o.deliveries;
        self.drops += o.drops;
        self.max_inflight = self.max_inflight.max(o.max_inflight);
    }
}

fn signed(ns: u64) -> i64 {
    i64::try_from(ns).unwrap_or(i64::MAX)
}

/// Runs a scenario untraced and recorded, then replays the recording
/// against every layer ([`replay`]). The untraced run must end in
/// `expected`, the runner's own outcome for the scenario.
#[derive(Debug)]
pub struct Measure<'a> {
    /// The `StatsSnapshot` the runner produced for this scenario.
    pub expected: &'a StatsSnapshot,
}

impl WithReactors for Measure<'_> {
    type Output = Result<Costs, String>;

    fn run<R: Reactor>(self, setup: &Setup, make: &dyn Fn() -> Vec<R>) -> Result<Costs, String> {
        let mut sim = setup.simulation(make(), NullObserver)?;
        let watch = Stopwatch::start();
        let untraced = sim.run();
        let run_ns = nanos(watch.elapsed());
        let snapshot = sim.stats().snapshot();
        if *self.expected != snapshot {
            return Err(format!(
                "{}: rebuilt simulation diverges from the runner",
                setup.scenario.id()
            ));
        }

        let mut sim = setup.simulation(make(), Recorder::new(&setup.graph))?;
        let watch = Stopwatch::start();
        let traced = sim.run();
        let traced_ns = nanos(watch.elapsed());
        if traced != untraced || sim.stats().snapshot() != snapshot {
            return Err(format!(
                "{}: recording changed the run",
                setup.scenario.id()
            ));
        }
        let log = sim.into_observer().log;

        let mut costs = replay(setup, make, &log, &snapshot)?;
        costs.run_ns = run_ns;
        costs.traced_ns = traced_ns;
        Ok(costs)
    }
}

/// One link-table operation of the run.
#[derive(Debug, Clone)]
enum LinkOp {
    Push(Envelope),
    Pop(LinkId),
}

/// One `Stats` call of the run.
#[derive(Debug, Clone, Copy)]
enum StatOp {
    /// `record_send` + `record_queue_depth` for the chunk's `send`-th send.
    Send {
        send: usize,
        depth: u64,
        total: u64,
    },
    Deliver,
    Drop,
}

/// The inputs of every layer for one stretch of the run, with the
/// reference outputs they are checked against.
#[derive(Debug, Default)]
struct Chunk {
    link_ops: Vec<LinkOp>,
    popped: Vec<Envelope>,
    noise_out: Vec<Option<Vec<u8>>>,
    stat_ops: Vec<StatOp>,
    sends: Vec<Envelope>,
    /// `(to, from, delivered payload)` per delivery.
    deliveries: Vec<(NodeId, NodeId, Vec<u8>)>,
    /// The reference reactor's sends per delivery.
    outboxes: Vec<Vec<(NodeId, Payload)>>,
}

/// The reference walk: fresh components driven in the recorded order.
struct Walk<'a, R> {
    setup: &'a Setup,
    log: &'a [u32],
    cursor: usize,
    nodes: Vec<R>,
    links: LinkTable,
    noise: Box<dyn fdn_netsim::NoiseModel>,
    next_seq: u64,
    max_inflight: u64,
}

impl<R: Reactor> Walk<'_, R> {
    fn next_word(&mut self) -> Result<(u32, LinkId), String> {
        let word = *self
            .log
            .get(self.cursor)
            .ok_or("the replay outran the recording")?;
        self.cursor += 1;
        Ok(decode(word))
    }

    /// Queues a reactor's sends, each of which must be the next recorded
    /// send, on the recorded link.
    fn sends(
        &mut self,
        from: NodeId,
        outbox: Vec<(NodeId, Payload)>,
        chunk: &mut Chunk,
    ) -> Result<(), String> {
        for (to, payload) in outbox {
            let (tag, link) = self.next_word()?;
            if tag != SEND || self.links.link_between(from, to) != Some(link) {
                return Err(format!(
                    "engine replay sent {from}->{to} where the run recorded {:?}",
                    decode(self.log[self.cursor - 1])
                ));
            }
            let env = Envelope {
                from,
                to,
                payload,
                seq: self.next_seq,
            };
            self.next_seq += 1;
            let (_, depth) = self.links.push(env.clone());
            let total = self.links.total() as u64;
            self.max_inflight = self.max_inflight.max(total);
            chunk.link_ops.push(LinkOp::Push(env.clone()));
            chunk.stat_ops.push(StatOp::Send {
                send: chunk.sends.len(),
                depth: depth as u64,
                total,
            });
            chunk.sends.push(env);
        }
        Ok(())
    }

    /// Replays one recorded delivery or deletion.
    fn step(&mut self, chunk: &mut Chunk) -> Result<(), String> {
        let (tag, link) = self.next_word()?;
        if tag == SEND {
            return Err("the run sent a message the engine replay did not".into());
        }
        let env = self
            .links
            .pop(link)
            .ok_or_else(|| format!("the run popped the empty {link}"))?;
        let delivered = self.noise.deliver(&env);
        chunk.link_ops.push(LinkOp::Pop(link));
        chunk.noise_out.push(delivered.clone());
        match (tag, delivered) {
            (DROP, None) => chunk.stat_ops.push(StatOp::Drop),
            (DELIVER, Some(payload)) => {
                chunk.stat_ops.push(StatOp::Deliver);
                let graph = &self.setup.graph;
                let mut ctx = Context::new(env.to, graph.neighbors(env.to));
                self.nodes[env.to.index()].on_message(env.from, &payload, &mut ctx);
                let outbox = ctx.take_outbox();
                chunk.outboxes.push(outbox.clone());
                chunk.deliveries.push((env.to, env.from, payload));
                self.sends(env.to, outbox, chunk)?;
            }
            _ => return Err(format!("noise replay disagrees with the run at {link}")),
        }
        chunk.popped.push(env);
        Ok(())
    }
}

/// The isolated layers, each fed the same inputs the run fed it.
struct Layers<R> {
    exact: LinkTable,
    counting: LinkTable,
    scheduled: LinkTable,
    scheduler: Box<dyn fdn_netsim::Scheduler>,
    noise: Box<dyn fdn_netsim::NoiseModel>,
    stats: Stats,
    nodes: Vec<R>,
}

/// Replays `ops` on `table`, returning the time and the popped envelopes.
fn replay_links(
    table: &mut LinkTable,
    ops: Vec<LinkOp>,
    pops: usize,
) -> (u64, Vec<Option<Envelope>>) {
    let mut out = Vec::with_capacity(pops);
    let watch = Stopwatch::start();
    for op in ops {
        match op {
            LinkOp::Push(env) => {
                black_box(table.push(env));
            }
            LinkOp::Pop(link) => out.push(table.pop(link)),
        }
    }
    (nanos(watch.elapsed()), out)
}

fn same_pops(got: &[Option<Envelope>], want: &[Envelope]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g.as_ref() == Some(w))
}

impl<R: Reactor> Layers<R> {
    /// Times every layer on one chunk and checks its outputs.
    fn run_chunk(&mut self, setup: &Setup, chunk: &Chunk, costs: &mut Costs) -> Result<(), String> {
        let pops = chunk.popped.len();
        let (ns, out) = replay_links(&mut self.exact, chunk.link_ops.clone(), pops);
        costs.links_exact_ns += ns;
        if !same_pops(&out, &chunk.popped) {
            return Err("the exact link store popped different envelopes".into());
        }
        let exact_ns = ns;
        let (ns, out) = replay_links(&mut self.counting, chunk.link_ops.clone(), pops);
        costs.links_counting_ns += ns;
        if !same_pops(&out, &chunk.popped) {
            return Err("the counting link store popped different envelopes".into());
        }
        costs.links_run_store_ns += match setup.link_store() {
            LinkStore::Exact => exact_ns,
            LinkStore::Counting => ns,
        };

        let ops = chunk.link_ops.clone();
        let mut out = Vec::with_capacity(pops);
        let mut wrong = 0u64;
        let watch = Stopwatch::start();
        for op in ops {
            match op {
                LinkOp::Push(env) => {
                    black_box(self.scheduled.push(env));
                }
                LinkOp::Pop(link) => {
                    let pick = self.scheduler.next_link(&self.scheduled.view());
                    wrong += u64::from(pick != link);
                    out.push(self.scheduled.pop(link));
                }
            }
        }
        costs.links_and_scheduler_ns += nanos(watch.elapsed());
        drop(out);
        if wrong > 0 {
            return Err(format!(
                "the scheduler replay picked another link at {wrong} of {pops} pops"
            ));
        }

        let mut out = Vec::with_capacity(pops);
        let watch = Stopwatch::start();
        for env in &chunk.popped {
            out.push(self.noise.deliver(env));
        }
        costs.noise_ns += nanos(watch.elapsed());
        if out != chunk.noise_out {
            return Err("the noise replay delivered different payloads".into());
        }

        let watch = Stopwatch::start();
        for op in &chunk.stat_ops {
            match *op {
                StatOp::Send { send, depth, total } => {
                    let env = &chunk.sends[send];
                    self.stats.record_send(env);
                    self.stats
                        .record_queue_depth(env.from, env.to, depth, total);
                }
                StatOp::Deliver => self.stats.record_delivery(),
                StatOp::Drop => self.stats.record_drop(),
            }
        }
        costs.stats_ns += nanos(watch.elapsed());

        let graph = &setup.graph;
        let mut out = Vec::with_capacity(chunk.deliveries.len());
        let watch = Stopwatch::start();
        for (to, from, payload) in &chunk.deliveries {
            let mut ctx = Context::new(*to, graph.neighbors(*to));
            self.nodes[to.index()].on_message(*from, payload, &mut ctx);
            out.push(ctx.take_outbox());
        }
        costs.engine_ns += nanos(watch.elapsed());
        if out != chunk.outboxes {
            return Err("the engine replay sent different messages".into());
        }
        Ok(())
    }
}

/// Replays the recorded `log` of one run of `setup` against every layer.
/// `final_stats` is the run's snapshot, which the `Stats` replay must
/// reproduce exactly.
///
/// # Errors
///
/// Returns the first point where a replay diverged from the recording.
pub fn replay<R: Reactor>(
    setup: &Setup,
    make: &dyn Fn() -> Vec<R>,
    log: &[u32],
    final_stats: &StatsSnapshot,
) -> Result<Costs, String> {
    let graph = &setup.graph;
    let mut walk = Walk {
        setup,
        log,
        cursor: 0,
        nodes: make(),
        links: LinkTable::with_store(graph, setup.link_store()),
        noise: setup.noise(),
        next_seq: 0,
        max_inflight: 0,
    };
    let mut layers = Layers {
        exact: LinkTable::with_store(graph, LinkStore::Exact),
        counting: LinkTable::with_store(graph, LinkStore::Counting),
        scheduled: LinkTable::with_store(graph, setup.link_store()),
        scheduler: setup.scheduler(),
        noise: setup.noise(),
        stats: Stats::new(graph.node_count()),
        nodes: make(),
    };
    let mut costs = Costs {
        scenarios: 1,
        ..Costs::default()
    };

    // Start-up: every reactor's `on_start`, in node order, as the run did.
    let mut chunk = Chunk::default();
    let mut want = Vec::with_capacity(graph.node_count());
    for v in graph.nodes() {
        let mut ctx = Context::new(v, graph.neighbors(v));
        walk.nodes[v.index()].on_start(&mut ctx);
        let outbox = ctx.take_outbox();
        want.push(outbox.clone());
        walk.sends(v, outbox, &mut chunk)?;
    }
    let mut got = Vec::with_capacity(graph.node_count());
    let watch = Stopwatch::start();
    for v in graph.nodes() {
        let mut ctx = Context::new(v, graph.neighbors(v));
        layers.nodes[v.index()].on_start(&mut ctx);
        got.push(ctx.take_outbox());
    }
    costs.engine_ns += nanos(watch.elapsed());
    if got != want {
        return Err("the engine replay started differently".into());
    }

    loop {
        while chunk.popped.len() < CHUNK && walk.cursor < log.len() {
            walk.step(&mut chunk)?;
        }
        if chunk.link_ops.is_empty() {
            break;
        }
        layers.run_chunk(setup, &chunk, &mut costs)?;
        costs.sends += chunk.sends.len() as u64;
        costs.deliveries += chunk.deliveries.len() as u64;
        costs.drops += (chunk.popped.len() - chunk.deliveries.len()) as u64;
        chunk = Chunk::default();
    }
    costs.max_inflight = walk.max_inflight;
    if layers.stats.snapshot() != *final_stats {
        return Err("the Stats replay ended in a different snapshot".into());
    }
    Ok(costs)
}
