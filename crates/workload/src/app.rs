//! Closed-loop application drivers.
//!
//! Open-loop models ([`crate::TrafficModel::generate`]) emit every flow
//! up front, so offered load never reacts to network behaviour. The
//! drivers in this module close the loop: the next flow is spawned *in
//! reaction to* a flow-completion event, at virtual time, inside the
//! engine's retirement path. A lossy transport that stalls one flow now
//! stalls all the work that depends on it — the result axis the paper
//! never measured.
//!
//! [`crate::TrafficModel::closed_loop`] builds the private drivers: RPC
//! and leader replication share one client `Ledger`, each with its own
//! `Operation`; allreduce is a phase-barrier driver of its own.
//!
//! ## The determinism contract
//!
//! Every driver is a pure state machine over `(seed, retire order)`:
//!
//! - **All randomness is pre-drawn at construction.** Think times and
//!   server selections are materialised into vectors before the
//!   simulation starts, from a [`SimRng`] forked per client. A driver
//!   never holds a live RNG, so the engine's retire order cannot
//!   perturb the random stream.
//! - **Flow identity is positional.** The engine passes `next_index`
//!   (the global flow count before this callback's spawns); the spec a
//!   driver pushes at sink position `k` becomes global flow
//!   `next_index + k`. Drivers mirror this by pushing one role record
//!   per spawned flow, so `roles.len()` always equals the engine's
//!   flow count.
//! - **Spawned flows never start in the past.** Every spec's `at` is
//!   `now` or `now + think`; the engine schedules them through the
//!   ordinary event queue, so a run is byte-identical at any `--jobs`
//!   and across worker fleets.

use crate::{FlowSpec, TrafficCtx, TrafficModel};
use irn_sim::{Duration, SimRng, Time};

/// Domain seed salt for RPC randomness.
const RPC_SALT: u64 = 0x5250_4301;
/// Domain seed salt for leader-replication randomness.
const REPLICATE_SALT: u64 = 0x5245_5001;

/// An application-level event emitted by a driver alongside spawned
/// flows. The engine turns these into trace records and per-operation
/// metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppEvent {
    /// An operation was issued (its first flow enters the fabric at
    /// `at`, which may be in the virtual future when a think time
    /// separates completion from the next issue).
    OpStart {
        /// Globally unique operation id.
        op: u64,
        /// Issuing client (driver-local index, not a host id).
        client: u32,
        /// Virtual time at which the operation's flows start.
        at: Time,
    },
    /// An operation completed: all flows it depends on retired.
    OpDone {
        /// Globally unique operation id.
        op: u64,
        /// Issuing client (driver-local index).
        client: u32,
        /// Virtual time the operation was issued.
        started: Time,
        /// Virtual time the operation completed.
        at: Time,
    },
    /// A collective phase barrier was crossed (all chunk flows of the
    /// phase retired).
    Phase {
        /// Monotonic global phase counter.
        phase: u64,
        /// Virtual time the barrier was crossed.
        at: Time,
    },
}

/// Output collector handed to a driver callback.
///
/// Flows pushed here are inserted into the live flow table in order:
/// the spec at position `k` becomes global flow `next_index + k`.
#[derive(Debug, Default)]
pub struct AppSink {
    /// Flows to spawn, in global-index order.
    pub flows: Vec<FlowSpec>,
    /// Application events to trace and record.
    pub events: Vec<AppEvent>,
}

impl AppSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop accumulated flows and events (the engine reuses one sink).
    pub fn clear(&mut self) {
        self.flows.clear();
        self.events.clear();
    }
}

/// The engine-side seam for closed-loop applications.
///
/// The engine calls [`AppDriver::on_start`] once before the event loop
/// and [`AppDriver::on_flow_retired`] from its flow-retirement path.
/// Implementations must be pure functions of `(seed, retire order)` —
/// see the module docs for the full contract.
pub trait AppDriver: Send {
    /// Called once at virtual time zero, before any flow starts.
    /// Emits [`AppEvent::OpStart`] records for the seed flows (which
    /// are already in the flow table); must not spawn flows.
    fn on_start(&mut self, sink: &mut AppSink);

    /// Called when global flow `flow` retires at virtual time `now`.
    /// `next_index` is the global flow count before this callback's
    /// spawns; each spec pushed to `sink.flows` at position `k`
    /// becomes global flow `next_index + k`.
    fn on_flow_retired(&mut self, now: Time, flow: u32, next_index: u32, sink: &mut AppSink);
}

/// A fully constructed closed-loop workload: the seed flows that prime
/// the loop plus the driver that reacts to their completions.
pub struct ClosedLoop {
    /// Flows present at simulation start (the initial window of every
    /// client, or phase 0 of the first collective iteration).
    pub seed_flows: Vec<FlowSpec>,
    /// The reactive driver the engine consults on every retirement.
    pub driver: Box<dyn AppDriver>,
}

/// Build the closed-loop runtime of `model`, or `None` for an open-loop
/// model (see [`TrafficModel::closed_loop`]).
pub(crate) fn closed_loop(model: &TrafficModel, ctx: &TrafficCtx) -> Option<ClosedLoop> {
    Some(match *model {
        TrafficModel::RpcClosedLoop {
            clients,
            ops_per_client,
            window,
            request_bytes,
            response_bytes,
            think,
            fanout,
        } => {
            let servers_avail = ctx.hosts - clients as usize;
            let mut servers = Vec::new();
            let seed = ctx.seed ^ RPC_SALT;
            let ledger = Ledger::draw(clients, ops_per_client, think, seed, |rng| {
                for s in rng.sample_distinct(servers_avail, fanout as usize) {
                    servers.push(clients + s as u32);
                }
            });
            let op_pending = vec![0; ledger.op_started.len()];
            let rpc = Rpc {
                request_bytes,
                response_bytes,
                fanout,
                servers,
                roles: Vec::new(),
                op_pending,
            };
            ClientDriver::start(ledger, window, rpc)
        }
        TrafficModel::Allreduce {
            algorithm,
            participants,
            bytes,
            iterations,
        } => Allreduce::start(algorithm, participants, bytes, iterations),
        TrafficModel::LeaderReplicate {
            clients,
            followers,
            quorum,
            ops_per_client,
            request_bytes,
            ack_bytes,
            think,
        } => {
            let seed = ctx.seed ^ REPLICATE_SALT;
            let ledger = Ledger::draw(clients, ops_per_client, think, seed, |_| {});
            let replicate = Replicate {
                followers,
                quorum,
                request_bytes,
                ack_bytes,
                roles: Vec::new(),
                op_acks: vec![0; ledger.op_started.len()],
            };
            // One outstanding operation per client.
            ClientDriver::start(ledger, 1, replicate)
        }
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Client drivers: one ledger, two kinds of operation
// ---------------------------------------------------------------------------

/// The client-operation ledger: which operation each client issues
/// next, when every operation started, and every operation's pre-drawn
/// think time. Operation `op` of `client` is `slot`
/// `client × ops_per_client + op`, which indexes the per-operation
/// vectors and is the operation's global id.
struct Ledger {
    ops_per_client: u32,
    /// Pre-drawn think time for each slot; consumed at issue time.
    think: Vec<Duration>,
    /// Per-client index of the next unissued operation.
    next_op: Vec<u32>,
    /// Issue time of each slot.
    op_started: Vec<Time>,
}

impl Ledger {
    /// Pre-draw each client's think times from its own forked stream of
    /// `seed`, an operation at a time, `per_op` drawing whatever else
    /// the operation needs right after its think time.
    fn draw(
        clients: u32,
        ops_per_client: u32,
        think: Duration,
        seed: u64,
        mut per_op: impl FnMut(&mut SimRng),
    ) -> Ledger {
        let ops = clients as usize * ops_per_client as usize;
        let mut root = SimRng::new(seed);
        let mut think_v = Vec::with_capacity(ops);
        for c in 0..clients {
            let mut rng = root.fork(c as u64);
            for _ in 0..ops_per_client {
                think_v.push(rng.exp_duration(think));
                per_op(&mut rng);
            }
        }
        Ledger {
            ops_per_client,
            think: think_v,
            next_op: vec![0; clients as usize],
            op_started: vec![Time::ZERO; ops],
        }
    }

    fn slot(&self, client: u32, op: u32) -> usize {
        client as usize * self.ops_per_client as usize + op as usize
    }
}

/// What a client operation sends, between the issue the [`Ledger`]
/// schedules and the completion it reports back.
trait Operation: Send + 'static {
    /// Push the flows that issue `client`'s operation `slot` at `at`.
    fn issue(&mut self, client: u32, slot: u32, at: Time, out: &mut Vec<FlowSpec>);

    /// React to global flow `flow` retiring at `now`, spawning into
    /// `out` (see [`AppDriver::on_flow_retired`]); the operation's slot
    /// when that completes it.
    fn retire(&mut self, now: Time, flow: u32, next: u32, out: &mut Vec<FlowSpec>) -> Option<u32>;
}

/// A closed-loop client driver: every client issues its operations in
/// order, up to a window at a time, each after its think time.
struct ClientDriver<O> {
    ledger: Ledger,
    ops: O,
}

impl<O: Operation> ClientDriver<O> {
    /// Issue each client's initial window, separated by its pre-drawn
    /// think times (cumulative, so issue order is well defined even
    /// with identical draws), and box the driver.
    fn start(ledger: Ledger, window: u32, ops: O) -> ClosedLoop {
        let mut d = ClientDriver { ledger, ops };
        let mut seed_flows = Vec::new();
        for c in 0..d.ledger.next_op.len() as u32 {
            let mut at = Time::ZERO;
            for op in 0..window.min(d.ledger.ops_per_client) {
                at += d.ledger.think[d.ledger.slot(c, op)];
                d.issue(c, op, at, &mut seed_flows);
            }
        }
        ClosedLoop {
            seed_flows,
            driver: Box::new(d),
        }
    }

    /// Record issuance of (client, op) at `at` and push its flows.
    fn issue(&mut self, client: u32, op: u32, at: Time, out: &mut Vec<FlowSpec>) {
        let slot = self.ledger.slot(client, op);
        self.ledger.next_op[client as usize] = op + 1;
        self.ledger.op_started[slot] = at;
        self.ops.issue(client, slot as u32, at, out);
    }
}

impl<O: Operation> AppDriver for ClientDriver<O> {
    fn on_start(&mut self, sink: &mut AppSink) {
        // One OpStart per seed operation, in (client, op) order.
        let l = &self.ledger;
        for c in 0..l.next_op.len() as u32 {
            for op in 0..l.next_op[c as usize] {
                let slot = l.slot(c, op);
                let at = l.op_started[slot];
                sink.events.push(AppEvent::OpStart {
                    op: slot as u64,
                    client: c,
                    at,
                });
            }
        }
    }

    fn on_flow_retired(&mut self, now: Time, flow: u32, next_index: u32, sink: &mut AppSink) {
        let Some(slot) = self.ops.retire(now, flow, next_index, &mut sink.flows) else {
            return;
        };
        let l = &self.ledger;
        let client = slot / l.ops_per_client;
        sink.events.push(AppEvent::OpDone {
            op: slot as u64,
            client,
            started: l.op_started[slot as usize],
            at: now,
        });
        let next = l.next_op[client as usize];
        if next < l.ops_per_client {
            let next_slot = l.slot(client, next);
            let at = now + l.think[next_slot];
            sink.events.push(AppEvent::OpStart {
                op: next_slot as u64,
                client,
                at,
            });
            self.issue(client, next, at, &mut sink.flows);
        }
    }
}

// ---------------------------------------------------------------------------
// RPC request/response
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum RpcRole {
    /// A request flow; completion spawns the response from `server`.
    Request { client: u32, slot: u32, server: u32 },
    /// A response flow; completion retires one unit of the op's fanout.
    Response { slot: u32 },
}

/// Closed-loop request/response RPC with per-client windows, optional
/// fanout, and exponential think times.
///
/// Hosts `0..clients` are clients; hosts `clients..hosts` are servers.
/// An operation issues `fanout` request flows to distinct servers; each
/// request's completion spawns the matching response; the operation
/// completes when all responses retire.
struct Rpc {
    request_bytes: u64,
    response_bytes: u64,
    fanout: u32,
    /// Pre-drawn server host ids, `fanout` per slot.
    servers: Vec<u32>,
    /// Role of every global flow, appended in spawn order.
    roles: Vec<RpcRole>,
    /// Outstanding response count of each slot.
    op_pending: Vec<u32>,
}

impl Operation for Rpc {
    fn issue(&mut self, client: u32, slot: u32, at: Time, out: &mut Vec<FlowSpec>) {
        self.op_pending[slot as usize] = self.fanout;
        let base = slot as usize * self.fanout as usize;
        for &server in &self.servers[base..base + self.fanout as usize] {
            out.push(FlowSpec {
                src: client,
                dst: server,
                bytes: self.request_bytes,
                at,
            });
            self.roles.push(RpcRole::Request {
                client,
                slot,
                server,
            });
        }
    }

    fn retire(&mut self, now: Time, flow: u32, next: u32, out: &mut Vec<FlowSpec>) -> Option<u32> {
        debug_assert_eq!(self.roles.len(), next as usize);
        match self.roles[flow as usize] {
            RpcRole::Request {
                client,
                slot,
                server,
            } => {
                out.push(FlowSpec {
                    src: server,
                    dst: client,
                    bytes: self.response_bytes,
                    at: now,
                });
                self.roles.push(RpcRole::Response { slot });
                None
            }
            RpcRole::Response { slot } => {
                let pending = &mut self.op_pending[slot as usize];
                *pending -= 1;
                (*pending == 0).then_some(slot)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Leader-based replication
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum ReplicateRole {
    /// Client request reached the leader; fan out to followers.
    Request { client: u32, slot: u32 },
    /// Leader's replicate reached `follower`; send the ack back.
    Replicate {
        client: u32,
        slot: u32,
        follower: u32,
    },
    /// A follower ack reached the leader; count toward quorum.
    Ack { client: u32, slot: u32 },
    /// Leader's response reached the client; the op is committed.
    Response { slot: u32 },
}

/// Leader-based replication: client → leader → followers → quorum-ack
/// → client.
///
/// Host 0 is the leader, hosts `1..=followers` are followers, and
/// client `c` is host `1 + followers + c`. An operation commits when
/// `quorum` follower acks have retired at the leader; replicate and
/// ack flows beyond the quorum retire as stragglers with no effect.
struct Replicate {
    followers: u32,
    quorum: u32,
    request_bytes: u64,
    ack_bytes: u64,
    /// Role of every global flow, appended in spawn order.
    roles: Vec<ReplicateRole>,
    /// Follower acks retired so far for each slot.
    op_acks: Vec<u32>,
}

impl Replicate {
    fn client_host(&self, client: u32) -> u32 {
        1 + self.followers + client
    }
}

impl Operation for Replicate {
    fn issue(&mut self, client: u32, slot: u32, at: Time, out: &mut Vec<FlowSpec>) {
        self.op_acks[slot as usize] = 0;
        out.push(FlowSpec {
            src: self.client_host(client),
            dst: 0,
            bytes: self.request_bytes,
            at,
        });
        self.roles.push(ReplicateRole::Request { client, slot });
    }

    fn retire(&mut self, now: Time, flow: u32, next: u32, out: &mut Vec<FlowSpec>) -> Option<u32> {
        debug_assert_eq!(self.roles.len(), next as usize);
        match self.roles[flow as usize] {
            ReplicateRole::Request { client, slot } => {
                for follower in 1..=self.followers {
                    out.push(FlowSpec {
                        src: 0,
                        dst: follower,
                        bytes: self.request_bytes,
                        at: now,
                    });
                    self.roles.push(ReplicateRole::Replicate {
                        client,
                        slot,
                        follower,
                    });
                }
            }
            ReplicateRole::Replicate {
                client,
                slot,
                follower,
            } => {
                out.push(FlowSpec {
                    src: follower,
                    dst: 0,
                    bytes: self.ack_bytes,
                    at: now,
                });
                self.roles.push(ReplicateRole::Ack { client, slot });
            }
            ReplicateRole::Ack { client, slot } => {
                let acks = &mut self.op_acks[slot as usize];
                *acks += 1;
                // Below quorum: keep waiting. Beyond: straggler.
                if *acks == self.quorum {
                    out.push(FlowSpec {
                        src: 0,
                        dst: self.client_host(client),
                        bytes: self.ack_bytes,
                        at: now,
                    });
                    self.roles.push(ReplicateRole::Response { slot });
                }
            }
            ReplicateRole::Response { slot } => return Some(slot),
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Allreduce collectives
// ---------------------------------------------------------------------------

/// Communication schedule of a [`TrafficModel::Allreduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllreduceAlgo {
    /// Ring allreduce: `2(N-1)` phases of `N` chunk flows each, every
    /// participant sending `bytes / N` to its ring successor.
    Ring,
    /// Tree allreduce over a complete binary tree: reduce up the tree
    /// (deepest level first), then broadcast back down, full `bytes`
    /// per edge flow.
    Tree,
}

/// Phase-synchronous allreduce over hosts `0..participants`.
///
/// Each iteration runs the algorithm's phase schedule; a phase's flows
/// all start when the previous phase's flows have all retired (a
/// barrier), so one straggling chunk delays the whole collective — the
/// canonical closed-loop sensitivity. One iteration is one operation
/// for metrics purposes.
struct Allreduce {
    /// Flow lists per phase within one iteration: `(src, dst, bytes)`.
    phase_flows: Vec<Vec<(u32, u32, u64)>>,
    iterations: u32,
    iter: u32,
    phase_in_iter: u32,
    /// Monotonic phase counter across iterations.
    global_phase: u64,
    /// Flows of the current phase still in flight.
    pending: u32,
    iter_started: Time,
}

impl Allreduce {
    /// Build the driver and its seed flows (phase 0 of iteration 0).
    /// `participants` must be at least 2 and at most `hosts`.
    fn start(
        algorithm: AllreduceAlgo,
        participants: u32,
        bytes: u64,
        iterations: u32,
    ) -> ClosedLoop {
        let n = participants;
        let phase_flows: Vec<Vec<(u32, u32, u64)>> = match algorithm {
            AllreduceAlgo::Ring => {
                let chunk = (bytes / n as u64).max(1);
                let ring: Vec<(u32, u32, u64)> = (0..n).map(|i| (i, (i + 1) % n, chunk)).collect();
                vec![ring; 2 * (n as usize - 1)]
            }
            AllreduceAlgo::Tree => {
                // Complete binary tree: parent(i) = (i-1)/2,
                // depth(i) = floor(log2(i+1)).
                let depth = |i: u32| (i + 1).ilog2();
                let max_depth = depth(n - 1);
                let mut phases = Vec::with_capacity(2 * max_depth as usize);
                // Reduce: deepest level first, each node to its parent.
                for d in (1..=max_depth).rev() {
                    phases.push(
                        (1..n)
                            .filter(|&i| depth(i) == d)
                            .map(|i| (i, (i - 1) / 2, bytes))
                            .collect(),
                    );
                }
                // Broadcast: back down, each node from its parent.
                for d in 1..=max_depth {
                    phases.push(
                        (1..n)
                            .filter(|&i| depth(i) == d)
                            .map(|i| ((i - 1) / 2, i, bytes))
                            .collect(),
                    );
                }
                phases
            }
        };
        let seed_flows: Vec<FlowSpec> = phase_flows[0]
            .iter()
            .map(|&(src, dst, bytes)| FlowSpec {
                src,
                dst,
                bytes,
                at: Time::ZERO,
            })
            .collect();
        let pending = seed_flows.len() as u32;
        ClosedLoop {
            seed_flows,
            driver: Box::new(Allreduce {
                phase_flows,
                iterations,
                iter: 0,
                phase_in_iter: 0,
                global_phase: 0,
                pending,
                iter_started: Time::ZERO,
            }),
        }
    }

    /// Push the flows of `self.phase_in_iter` starting at `now`.
    fn spawn_phase(&mut self, now: Time, sink: &mut AppSink) {
        let flows = &self.phase_flows[self.phase_in_iter as usize];
        self.pending = flows.len() as u32;
        for &(src, dst, bytes) in flows {
            sink.flows.push(FlowSpec {
                src,
                dst,
                bytes,
                at: now,
            });
        }
    }
}

impl AppDriver for Allreduce {
    fn on_start(&mut self, sink: &mut AppSink) {
        sink.events.push(AppEvent::OpStart {
            op: 0,
            client: 0,
            at: Time::ZERO,
        });
    }

    fn on_flow_retired(&mut self, now: Time, _flow: u32, _next_index: u32, sink: &mut AppSink) {
        // The barrier makes roles unnecessary: every live flow belongs
        // to the current phase.
        self.pending -= 1;
        if self.pending > 0 {
            return;
        }
        sink.events.push(AppEvent::Phase {
            phase: self.global_phase,
            at: now,
        });
        self.global_phase += 1;
        self.phase_in_iter += 1;
        if (self.phase_in_iter as usize) < self.phase_flows.len() {
            self.spawn_phase(now, sink);
            return;
        }
        sink.events.push(AppEvent::OpDone {
            op: self.iter as u64,
            client: 0,
            started: self.iter_started,
            at: now,
        });
        self.iter += 1;
        if self.iter < self.iterations {
            sink.events.push(AppEvent::OpStart {
                op: self.iter as u64,
                client: 0,
                at: now,
            });
            self.iter_started = now;
            self.phase_in_iter = 0;
            self.spawn_phase(now, sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(model: TrafficModel, hosts: usize, seed: u64) -> ClosedLoop {
        let ctx = TrafficCtx {
            hosts,
            line_rate_bps: 40e9,
            seed,
        };
        closed_loop(&model, &ctx).expect("a closed-loop model")
    }

    #[allow(clippy::too_many_arguments)] // mirrors the scenario field list
    fn rpc(
        hosts: usize,
        clients: u32,
        ops_per_client: u32,
        window: u32,
        request_bytes: u64,
        response_bytes: u64,
        think: Duration,
        fanout: u32,
        seed: u64,
    ) -> ClosedLoop {
        let model = TrafficModel::RpcClosedLoop {
            clients,
            ops_per_client,
            window,
            request_bytes,
            response_bytes,
            think,
            fanout,
        };
        build(model, hosts, seed)
    }

    fn allreduce(
        algorithm: AllreduceAlgo,
        participants: u32,
        bytes: u64,
        iterations: u32,
    ) -> ClosedLoop {
        let model = TrafficModel::Allreduce {
            algorithm,
            participants,
            bytes,
            iterations,
        };
        build(model, participants as usize, 0)
    }

    /// Drive a ClosedLoop to completion with a toy "network" that
    /// retires the earliest-starting flow first (FIFO on ties), adding
    /// a fixed service time. Returns (all flows, all events).
    fn drain(mut cl: ClosedLoop) -> (Vec<FlowSpec>, Vec<AppEvent>) {
        let service = Duration::micros(10);
        let mut flows: Vec<FlowSpec> = cl.seed_flows.clone();
        let mut events = Vec::new();
        let mut sink = AppSink::new();
        cl.driver.on_start(&mut sink);
        assert!(sink.flows.is_empty(), "on_start must not spawn flows");
        events.append(&mut sink.events);
        // (retire_time, idx) of every live flow.
        let mut live: Vec<(Time, u32)> = flows
            .iter()
            .enumerate()
            .map(|(i, f)| (f.at + service, i as u32))
            .collect();
        while !live.is_empty() {
            let k = live
                .iter()
                .enumerate()
                .min_by_key(|(_, &(t, i))| (t, i))
                .map(|(k, _)| k)
                .unwrap();
            let (now, idx) = live.remove(k);
            sink.clear();
            cl.driver
                .on_flow_retired(now, idx, flows.len() as u32, &mut sink);
            for spec in &sink.flows {
                assert!(spec.at >= now, "spawned flow must not start in the past");
                live.push((spec.at + service, flows.len() as u32));
                flows.push(*spec);
            }
            events.append(&mut sink.events);
        }
        (flows, events)
    }

    fn count(events: &[AppEvent]) -> (usize, usize, usize) {
        let starts = events
            .iter()
            .filter(|e| matches!(e, AppEvent::OpStart { .. }))
            .count();
        let dones = events
            .iter()
            .filter(|e| matches!(e, AppEvent::OpDone { .. }))
            .count();
        let phases = events
            .iter()
            .filter(|e| matches!(e, AppEvent::Phase { .. }))
            .count();
        (starts, dones, phases)
    }

    #[test]
    fn rpc_completes_every_op_and_flow_count_is_exact() {
        let cl = rpc(8, 2, 5, 2, 4096, 256, Duration::micros(50), 3, 7);
        assert_eq!(
            cl.seed_flows.len(),
            2 * 2 * 3,
            "2 clients × window 2 × fanout 3"
        );
        let (flows, events) = drain(cl);
        // Every op is fanout requests + fanout responses.
        assert_eq!(flows.len(), 2 * 5 * 3 * 2);
        let (starts, dones, phases) = count(&events);
        assert_eq!((starts, dones, phases), (10, 10, 0));
        // Done events carry positive latency.
        for e in &events {
            if let AppEvent::OpDone { started, at, .. } = e {
                assert!(*at > *started);
            }
        }
    }

    #[test]
    fn rpc_window_limits_outstanding_ops() {
        // Window 1 serialises each client's ops: with zero think time
        // op k's start must not precede op k-1's completion.
        let cl = rpc(4, 1, 4, 1, 1000, 100, Duration::ZERO, 1, 3);
        assert_eq!(cl.seed_flows.len(), 1);
        let (_, events) = drain(cl);
        let mut last_done = Time::ZERO;
        for e in &events {
            match e {
                AppEvent::OpStart { at, .. } => assert!(*at >= last_done),
                AppEvent::OpDone { at, .. } => last_done = *at,
                _ => {}
            }
        }
    }

    #[test]
    fn allreduce_ring_phase_and_flow_accounting() {
        let n = 4u32;
        let iters = 2u32;
        let cl = allreduce(AllreduceAlgo::Ring, n, 4000, iters);
        assert_eq!(cl.seed_flows.len(), n as usize);
        assert_eq!(cl.seed_flows[0].bytes, 1000, "chunk = bytes / n");
        let (flows, events) = drain(cl);
        let phases_per_iter = 2 * (n as usize - 1);
        assert_eq!(flows.len(), iters as usize * phases_per_iter * n as usize);
        let (starts, dones, phases) = count(&events);
        assert_eq!(
            (starts, dones, phases),
            (2, 2, iters as usize * phases_per_iter)
        );
    }

    #[test]
    fn allreduce_tree_schedule_is_reduce_then_broadcast() {
        // 5 participants: node 0 root; 1,2 at depth 1; 3,4 at depth 2.
        let cl = allreduce(AllreduceAlgo::Tree, 5, 1 << 20, 1);
        // Phase 0 = deepest reduce level: 3→1 and 4→1.
        assert_eq!(cl.seed_flows.len(), 2);
        assert_eq!((cl.seed_flows[0].src, cl.seed_flows[0].dst), (3, 1));
        assert_eq!((cl.seed_flows[1].src, cl.seed_flows[1].dst), (4, 1));
        let (flows, events) = drain(cl);
        // Reduce: (3→1, 4→1), (1→0, 2→0); broadcast mirrors it.
        assert_eq!(flows.len(), 8);
        let (_, dones, phases) = count(&events);
        assert_eq!((dones, phases), (1, 4));
        // Broadcast edges reverse the reduce edges.
        assert_eq!((flows[4].src, flows[4].dst), (0, 1));
        assert_eq!((flows[6].src, flows[6].dst), (1, 3));
    }

    #[test]
    fn leader_replicate_quorum_commits_before_stragglers() {
        let (clients, followers, quorum, ops) = (2u32, 3u32, 2u32, 3u32);
        let model = TrafficModel::LeaderReplicate {
            clients,
            followers,
            quorum,
            ops_per_client: ops,
            request_bytes: 2048,
            ack_bytes: 64,
            think: Duration::micros(20),
        };
        let cl = build(model, (1 + followers + clients) as usize, 11);
        assert_eq!(cl.seed_flows.len(), clients as usize);
        let (flows, events) = drain(cl);
        // Per op: 1 request + F replicates + F acks + 1 response.
        assert_eq!(
            flows.len(),
            (clients * ops) as usize * (2 * followers as usize + 2)
        );
        let (starts, dones, _) = count(&events);
        assert_eq!((starts, dones), (6, 6));
    }

    #[test]
    fn drivers_are_deterministic_given_seed() {
        let mk = || rpc(10, 3, 6, 2, 8192, 512, Duration::micros(100), 2, 42);
        let (fa, ea) = drain(mk());
        let (fb, eb) = drain(mk());
        assert_eq!(fa, fb);
        assert_eq!(ea, eb);
        // A different seed draws different think times.
        let other = rpc(10, 3, 6, 2, 8192, 512, Duration::micros(100), 2, 43);
        assert_ne!(mk().seed_flows, other.seed_flows);
    }
}
