//! The pluggable traffic-model API: every workload shape an experiment
//! can drive, as one composable, validated data type.
//!
//! A [`TrafficModel`] is a *description*: a pure function from a
//! [`TrafficCtx`] (host count, line rate, seed) to a deterministic
//! [`Arrivals`] stream, which the engine pulls in arrival order, so a
//! model never talks to the simulator — it only produces data. That is
//! what makes models serializable (the `scenario-v1` JSON schema),
//! composable ([`TrafficModel::Compose`]), and independently testable.
//!
//! Validation is typed: [`TrafficModel::validate_in`] returns a
//! [`TrafficError`] describing exactly which parameter is out of range
//! instead of panicking mid-run. Generation assumes a validated model
//! (the scenario layer guarantees it for every user-reachable path).

use irn_sim::{Duration, SimRng, Time};

use crate::app::{self, AllreduceAlgo, ClosedLoop};
use crate::arrivals::{mean_gap_s, Arrivals};
use crate::{FlowSpec, SizeDistribution};

/// The engine packs flow ids into 30-bit event payload fields, so no
/// model may describe a workload that can exceed this many flows.
pub const MAX_FLOWS: u128 = 1 << 30;

/// The virtual-time horizon, 2⁵⁰ ns (about 13 days): every instant or
/// duration a scenario states, and the span Poisson and bursty arrivals
/// are predicted to cover, must lie within it. A double-precision
/// inverse-CDF exponential draw cannot exceed ~37× its mean, so the
/// times a validated model generates stay below 2⁵⁶ ns and no sum a run
/// forms from them can wrap `Time`'s 64 bits.
pub const HORIZON_NS: u64 = 1 << 50;

/// Seed salt applied to the incast burst of
/// [`TrafficModel::incast_with_cross`], keeping the burst's sender
/// choice independent of the cross-traffic realization (the engine's
/// historical constant, preserved for byte-identical workloads).
pub const INCAST_CROSS_SALT: u64 = 0x1CA57;

/// Everything a model needs to materialize flows: the experiment
/// supplies it, the model never reads anything else.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficCtx {
    /// Number of hosts generating (and receiving) traffic.
    pub hosts: usize,
    /// Host line rate in bits per second (for load calibration).
    pub line_rate_bps: f64,
    /// Master seed; models derive every random choice from it.
    pub seed: u64,
}

/// A generated workload: the flow list plus the boundary of the incast
/// metric population (flows at indices `>= incast_from` are measured as
/// incast RCT rather than foreground FCT).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowStream {
    /// The flows in id order. Not necessarily time-sorted: the arrival
    /// order is [`Arrivals`]'s.
    pub flows: Vec<FlowSpec>,
    /// Index of the first incast-population flow, if any.
    pub incast_from: Option<usize>,
}

/// Which metric population a composed part's flows belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Population {
    /// Foreground traffic: measured as flow completion times.
    Primary,
    /// Incast burst: measured as a request completion time (§4.4.3).
    Incast,
}

/// When a composed part's flows start, relative to the parts generated
/// before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Start {
    /// At simulation time zero.
    Zero,
    /// At the median arrival time of all flows generated by earlier
    /// parts (time zero when there are none). This is how §4.4.3 fires
    /// its incast mid-workload, once cross-traffic is warm.
    PriorMedian,
    /// At a fixed offset from time zero.
    At(Duration),
}

/// One part of a [`TrafficModel::Compose`]: a nested model plus how it
/// is seeded, when it starts, and which metric population it feeds.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// The nested traffic model (any non-`Compose` model).
    pub model: TrafficModel,
    /// Metric population for this part's flows.
    pub population: Population,
    /// XORed into the experiment seed, so parts draw independent
    /// random streams (0 = share the experiment seed).
    pub seed_salt: u64,
    /// Start-time policy.
    pub start: Start,
}

/// The traffic driving one run: a declarative, composable description
/// of who sends how much to whom, and when.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficModel {
    /// Open-loop Poisson arrivals (§4.1's default): every host runs an
    /// independent Poisson process calibrated to `load`.
    Poisson {
        /// Target utilization of each host's access link, in (0, 1].
        load: f64,
        /// Flow-size distribution.
        sizes: SizeDistribution,
        /// Number of flows to simulate.
        flow_count: usize,
    },
    /// On/off (bursty) Poisson: each host alternates exponentially
    /// distributed ON bursts of back-to-back arrivals with OFF silences,
    /// calibrated so the *long-run* offered load still hits `load`.
    /// During a burst the instantaneous arrival rate is `load /
    /// duty_cycle` — the knob that turns smooth §4.1 traffic into the
    /// microburst-heavy shape production fabrics actually see.
    BurstyPoisson {
        /// Long-run target utilization of each host's access link, in
        /// (0, 1].
        load: f64,
        /// Flow-size distribution.
        sizes: SizeDistribution,
        /// Number of flows to simulate.
        flow_count: usize,
        /// Fraction of time a host is in an ON burst, in (0, 1]. A duty
        /// cycle of 1 degenerates to plain Poisson.
        duty_cycle: f64,
        /// Mean flows per ON burst (geometrically distributed), ≥ 1.
        burst_flows: usize,
    },
    /// §4.4.3 incast: `total_bytes` striped equally over `m` distinct
    /// random senders toward host 0, all starting at time zero.
    Incast {
        /// Fan-in degree M, in `1..hosts`.
        m: usize,
        /// Total striped response size (150 MB in the paper).
        total_bytes: u64,
    },
    /// A permutation shuffle (all-to-all over rounds): each round every
    /// host sends `flow_bytes` to its image under a fresh random
    /// derangement (no host sends to itself; every host sends and
    /// receives exactly once per round). The MapReduce-shuffle /
    /// collective pattern the paper's matrix never covers.
    Shuffle {
        /// Bytes per flow (every host sends this much per round).
        flow_bytes: u64,
        /// Number of permutation rounds, ≥ 1.
        rounds: usize,
        /// Gap between consecutive round starts (0 = all rounds fire
        /// together).
        round_gap: Duration,
    },
    /// An explicit flow list (tests, replayed traces, hand-built
    /// microbenchmarks).
    Explicit(Vec<FlowSpec>),
    /// Closed-loop request/response RPC: hosts `0..clients` are
    /// clients, the rest are servers. Each client keeps up to `window`
    /// operations outstanding; an operation sends `fanout` requests to
    /// distinct random servers, completes when all responses retire,
    /// and the next one is issued after an exponential think time.
    /// Unlike every open-loop model, the arrival process *reacts* to
    /// network behaviour — a stalled response stalls subsequent work.
    RpcClosedLoop {
        /// Number of client hosts, in `1..hosts`.
        clients: u32,
        /// Operations each client performs, ≥ 1.
        ops_per_client: u32,
        /// Maximum operations a client keeps outstanding, ≥ 1.
        window: u32,
        /// Request flow size in bytes, ≥ 1.
        request_bytes: u64,
        /// Response flow size in bytes, ≥ 1.
        response_bytes: u64,
        /// Mean exponential think time between an operation's
        /// completion and the next issue (zero = back-to-back).
        think: Duration,
        /// Requests per operation, to distinct servers, in
        /// `1..=hosts-clients`.
        fanout: u32,
    },
    /// Phase-synchronous allreduce over hosts `0..participants`: each
    /// phase's chunk flows all start when the previous phase's flows
    /// have all retired, so one straggling chunk delays the whole
    /// collective. One iteration is one operation for metrics.
    Allreduce {
        /// Communication schedule (ring or binary tree).
        algorithm: AllreduceAlgo,
        /// Number of participating hosts, in `2..=hosts`.
        participants: u32,
        /// Vector size being reduced, in bytes, ≥ 1.
        bytes: u64,
        /// Number of back-to-back allreduce iterations, ≥ 1.
        iterations: u32,
    },
    /// Leader-based replication: host 0 is the leader, hosts
    /// `1..=followers` are followers, and each of `clients` client
    /// hosts runs a chain of client → leader → followers → quorum-ack
    /// → client operations, one outstanding per client.
    LeaderReplicate {
        /// Number of client hosts (topology needs
        /// `1 + followers + clients` hosts), ≥ 1.
        clients: u32,
        /// Number of follower replicas, ≥ 1.
        followers: u32,
        /// Follower acks required to commit, in `1..=followers`.
        quorum: u32,
        /// Operations each client performs, ≥ 1.
        ops_per_client: u32,
        /// Client-request and leader-replicate flow size in bytes, ≥ 1.
        request_bytes: u64,
        /// Follower-ack and leader-response flow size in bytes, ≥ 1.
        ack_bytes: u64,
        /// Mean exponential think time between commit and the client's
        /// next request (zero = back-to-back).
        think: Duration,
    },
    /// A composition of parts, each with its own seed salt, start-time
    /// policy, and metric population. Subsumes the old hard-wired
    /// incast-with-cross-traffic workload — see
    /// [`TrafficModel::incast_with_cross`].
    Compose(Vec<Component>),
}

/// A traffic-model parameter that cannot describe a runnable workload.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficError {
    /// Load must be in (0, 1].
    LoadOutOfRange {
        /// The offending load value.
        load: f64,
    },
    /// Duty cycle must be in (0, 1].
    DutyCycleOutOfRange {
        /// The offending duty-cycle value.
        duty_cycle: f64,
    },
    /// A model that generates flows was asked for zero of them.
    NoFlows,
    /// Burst length must be at least one flow.
    EmptyBurst,
    /// Shuffles need at least one round.
    ZeroRounds,
    /// Flow/response sizes must be at least one byte.
    ZeroBytes,
    /// Traffic generation needs at least two hosts.
    TooFewHosts {
        /// The host count on offer.
        hosts: usize,
    },
    /// Incast fan-in must satisfy `1 ≤ m < hosts` (the destination
    /// cannot also send).
    IncastFanIn {
        /// Requested fan-in degree.
        m: usize,
        /// The host count on offer.
        hosts: usize,
    },
    /// An explicit flow names a host outside `0..hosts`.
    HostOutOfRange {
        /// The offending host index.
        host: u32,
        /// The host count on offer.
        hosts: usize,
    },
    /// An explicit flow sends a host to itself.
    SelfFlow {
        /// The self-targeting host.
        host: u32,
    },
    /// A `Compose` with no parts generates nothing.
    EmptyCompose,
    /// `Compose` parts must be leaf models (one level of composition
    /// keeps the population boundary well-defined).
    NestedCompose,
    /// Closed-loop models react to their own completions; composing
    /// them with open-loop parts would leave the reaction undefined.
    ClosedLoopInCompose,
    /// Closed-loop clients must satisfy `1 ≤ clients < hosts` (at
    /// least one host must be left to serve).
    ClientsOutOfRange {
        /// Requested client count.
        clients: u32,
        /// The host count on offer.
        hosts: usize,
    },
    /// Closed-loop operations per client must be at least 1.
    ZeroOps,
    /// The per-client outstanding window must be at least 1.
    ZeroWindow,
    /// Allreduce needs at least one iteration.
    ZeroIterations,
    /// RPC fanout must satisfy `1 ≤ fanout ≤ servers`.
    FanoutTooLarge {
        /// Requested fanout.
        fanout: u32,
        /// Servers available (`hosts - clients`).
        servers: u32,
    },
    /// Allreduce participants must satisfy `2 ≤ participants ≤ hosts`.
    ParticipantsOutOfRange {
        /// Requested participant count.
        participants: u32,
        /// The host count on offer.
        hosts: usize,
    },
    /// Replication quorum must satisfy `1 ≤ quorum ≤ followers`.
    QuorumOutOfRange {
        /// Requested quorum.
        quorum: u32,
        /// Follower count on offer.
        followers: u32,
    },
    /// Leader replication needs `1 + followers + clients` hosts.
    ReplicationHosts {
        /// Hosts the configuration requires.
        needed: u64,
        /// The host count on offer.
        hosts: usize,
    },
    /// A stated instant or duration, or the span arrivals are predicted
    /// to cover, lies beyond [`HORIZON_NS`].
    BeyondHorizon {
        /// The scenario field (or product of fields) that states it.
        field: &'static str,
        /// Its value in nanoseconds.
        ns: u128,
    },
    /// The model would describe more flows than the engine's 30-bit
    /// flow ids can address.
    TooManyFlows {
        /// Predicted total flow count.
        flows: u128,
    },
}

impl std::fmt::Display for TrafficError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrafficError::LoadOutOfRange { load } => {
                write!(f, "load must be in (0, 1], got {load}")
            }
            TrafficError::DutyCycleOutOfRange { duty_cycle } => {
                write!(f, "duty_cycle must be in (0, 1], got {duty_cycle}")
            }
            TrafficError::NoFlows => write!(f, "flow count must be at least 1"),
            TrafficError::EmptyBurst => write!(f, "burst_flows must be at least 1"),
            TrafficError::ZeroRounds => write!(f, "rounds must be at least 1"),
            TrafficError::ZeroBytes => write!(f, "flow bytes must be at least 1"),
            TrafficError::TooFewHosts { hosts } => {
                write!(f, "traffic needs at least 2 hosts, topology has {hosts}")
            }
            TrafficError::IncastFanIn { m, hosts } => write!(
                f,
                "incast fan-in must satisfy 1 <= m < hosts, got m={m} with {hosts} hosts"
            ),
            TrafficError::HostOutOfRange { host, hosts } => {
                write!(f, "flow names host {host}, topology has hosts 0..{hosts}")
            }
            TrafficError::SelfFlow { host } => {
                write!(f, "flow from host {host} to itself")
            }
            TrafficError::EmptyCompose => write!(f, "compose needs at least one part"),
            TrafficError::NestedCompose => {
                write!(f, "compose parts must be leaf models, not another compose")
            }
            TrafficError::ClosedLoopInCompose => {
                write!(f, "closed-loop models cannot be compose parts")
            }
            TrafficError::ClientsOutOfRange { clients, hosts } => write!(
                f,
                "clients must satisfy 1 <= clients < hosts, got {clients} with {hosts} hosts"
            ),
            TrafficError::ZeroOps => write!(f, "ops_per_client must be at least 1"),
            TrafficError::ZeroWindow => write!(f, "window must be at least 1"),
            TrafficError::ZeroIterations => write!(f, "iterations must be at least 1"),
            TrafficError::FanoutTooLarge { fanout, servers } => write!(
                f,
                "fanout must satisfy 1 <= fanout <= servers, got {fanout} with {servers} servers"
            ),
            TrafficError::ParticipantsOutOfRange {
                participants,
                hosts,
            } => write!(
                f,
                "participants must satisfy 2 <= participants <= hosts, \
                 got {participants} with {hosts} hosts"
            ),
            TrafficError::QuorumOutOfRange { quorum, followers } => write!(
                f,
                "quorum must satisfy 1 <= quorum <= followers, \
                 got {quorum} with {followers} followers"
            ),
            TrafficError::ReplicationHosts { needed, hosts } => write!(
                f,
                "leader replication needs {needed} hosts \
                 (1 leader + followers + clients), topology has {hosts}"
            ),
            TrafficError::BeyondHorizon { field, ns } => write!(
                f,
                "{field} reaches {ns} ns, beyond the virtual-time horizon \
                 of 2^50 = {HORIZON_NS} ns"
            ),
            TrafficError::TooManyFlows { flows } => write!(
                f,
                "model describes {flows} flows, exceeding the engine's \
                 limit of {MAX_FLOWS}"
            ),
        }
    }
}

impl std::error::Error for TrafficError {}

impl TrafficModel {
    /// The §4.4.3 incast-with-cross-traffic workload as a composition:
    /// Poisson cross-traffic from time zero, plus an incast burst that
    /// fires at the cross-traffic's median arrival (so the fabric is
    /// warm) from an independently salted seed.
    pub fn incast_with_cross(
        m: usize,
        total_bytes: u64,
        load: f64,
        sizes: SizeDistribution,
        flow_count: usize,
    ) -> TrafficModel {
        TrafficModel::Compose(vec![
            Component {
                model: TrafficModel::Poisson {
                    load,
                    sizes,
                    flow_count,
                },
                population: Population::Primary,
                seed_salt: 0,
                start: Start::Zero,
            },
            Component {
                model: TrafficModel::Incast { m, total_bytes },
                population: Population::Incast,
                seed_salt: INCAST_CROSS_SALT,
                start: Start::PriorMedian,
            },
        ])
    }

    /// Does any part of this model feed the incast metric population?
    /// [`TrafficModel::generate`] sets `incast_from` from this answer:
    /// inside a `Compose` only the part's declared `population` counts —
    /// an `Incast`-shaped part marked `primary` is measured as ordinary
    /// foreground flows.
    pub fn has_incast_population(&self) -> bool {
        match self {
            TrafficModel::Incast { .. } => true,
            TrafficModel::Compose(parts) => {
                parts.iter().any(|p| p.population == Population::Incast)
            }
            _ => false,
        }
    }

    /// The flows and application operations a closed-loop run of this
    /// model completes, worked out from the model alone: the promise its
    /// drained run is audited against. The flows are the ones the driver
    /// spawns over the whole run. `None` for an open-loop model, whose
    /// flows are its arrival stream. Assumes [`TrafficModel::validate`]
    /// passed.
    pub fn promised(&self) -> Option<(u64, u64)> {
        match *self {
            TrafficModel::RpcClosedLoop {
                clients,
                ops_per_client,
                fanout,
                ..
            } => {
                // `fanout` requests and as many responses per operation.
                let ops = clients as u64 * ops_per_client as u64;
                Some((ops * fanout as u64 * 2, ops))
            }
            TrafficModel::Allreduce {
                algorithm,
                participants: n,
                iterations,
                ..
            } => {
                // Ring: 2(N-1) phases of N chunks. Tree: every non-root
                // node sends once up and receives once down.
                let edges = 2 * (n as u64 - 1);
                let per_iteration = match algorithm {
                    AllreduceAlgo::Ring => edges * n as u64,
                    AllreduceAlgo::Tree => edges,
                };
                Some((per_iteration * iterations as u64, iterations as u64))
            }
            TrafficModel::LeaderReplicate {
                clients,
                followers,
                ops_per_client,
                ..
            } => {
                // Request, a replicate and an ack per follower, response.
                let ops = clients as u64 * ops_per_client as u64;
                Some((ops * (2 * followers as u64 + 2), ops))
            }
            _ => None,
        }
    }

    /// Check every parameter against `hosts`; returns the first typed
    /// error found. The virtual-time horizon needs the line rate too:
    /// [`TrafficModel::validate_in`] checks both.
    pub fn validate(&self, hosts: usize) -> Result<(), TrafficError> {
        use TrafficError as E;
        if !matches!(self, TrafficModel::Explicit(_) | TrafficModel::Compose(_)) {
            ensure(hosts >= 2, E::TooFewHosts { hosts })?;
        }
        match *self {
            TrafficModel::Poisson {
                load,
                sizes,
                flow_count,
            }
            | TrafficModel::BurstyPoisson {
                load,
                sizes,
                flow_count,
                ..
            } => {
                ensure(load > 0.0 && load <= 1.0, E::LoadOutOfRange { load })?;
                ensure(sizes != SizeDistribution::Fixed(0), E::ZeroBytes)?;
                check_flows(flow_count)?;
                if let TrafficModel::BurstyPoisson {
                    duty_cycle,
                    burst_flows,
                    ..
                } = *self
                {
                    ensure(
                        duty_cycle > 0.0 && duty_cycle <= 1.0,
                        E::DutyCycleOutOfRange { duty_cycle },
                    )?;
                    ensure(burst_flows > 0, E::EmptyBurst)?;
                }
                Ok(())
            }
            TrafficModel::Incast { m, total_bytes } => {
                ensure(m > 0 && m < hosts, E::IncastFanIn { m, hosts })?;
                ensure(total_bytes > 0, E::ZeroBytes)
            }
            TrafficModel::Shuffle {
                flow_bytes, rounds, ..
            } => {
                ensure(flow_bytes > 0, E::ZeroBytes)?;
                ensure(rounds > 0, E::ZeroRounds)?;
                // Every host sends once per round.
                check_flow_budget(hosts as u128 * rounds as u128)
            }
            TrafficModel::Explicit(ref flows) => {
                check_flows(flows.len())?;
                for f in flows {
                    for host in [f.src, f.dst] {
                        ensure((host as usize) < hosts, E::HostOutOfRange { host, hosts })?;
                    }
                    ensure(f.src != f.dst, E::SelfFlow { host: f.src })?;
                    ensure(f.bytes > 0, E::ZeroBytes)?;
                }
                Ok(())
            }
            TrafficModel::RpcClosedLoop {
                clients,
                ops_per_client,
                window,
                request_bytes,
                response_bytes,
                fanout,
                ..
            } => {
                ensure(
                    clients > 0 && (clients as usize) < hosts,
                    E::ClientsOutOfRange { clients, hosts },
                )?;
                let servers = (hosts - clients as usize) as u32;
                ensure(
                    fanout > 0 && fanout <= servers,
                    E::FanoutTooLarge { fanout, servers },
                )?;
                ensure(ops_per_client > 0, E::ZeroOps)?;
                ensure(window > 0, E::ZeroWindow)?;
                ensure(request_bytes > 0 && response_bytes > 0, E::ZeroBytes)?;
                check_flow_budget(clients as u128 * ops_per_client as u128 * fanout as u128 * 2)
            }
            TrafficModel::Allreduce {
                participants: n,
                bytes,
                iterations,
                ..
            } => {
                ensure(
                    n >= 2 && n as usize <= hosts,
                    E::ParticipantsOutOfRange {
                        participants: n,
                        hosts,
                    },
                )?;
                ensure(bytes > 0, E::ZeroBytes)?;
                ensure(iterations > 0, E::ZeroIterations)?;
                // Ring is the worst case: 2(N-1) phases of N flows.
                check_flow_budget(iterations as u128 * 2 * (n as u128 - 1) * n as u128)
            }
            TrafficModel::LeaderReplicate {
                clients,
                followers,
                quorum,
                ops_per_client,
                request_bytes,
                ack_bytes,
                ..
            } => {
                ensure(clients > 0, E::ClientsOutOfRange { clients, hosts })?;
                ensure(
                    quorum > 0 && quorum <= followers,
                    E::QuorumOutOfRange { quorum, followers },
                )?;
                let needed = 1 + followers as u64 + clients as u64;
                ensure(
                    needed <= hosts as u64,
                    E::ReplicationHosts { needed, hosts },
                )?;
                ensure(ops_per_client > 0, E::ZeroOps)?;
                ensure(request_bytes > 0 && ack_bytes > 0, E::ZeroBytes)?;
                let per_op = 2 * followers as u128 + 2;
                check_flow_budget(clients as u128 * ops_per_client as u128 * per_op)
            }
            TrafficModel::Compose(ref parts) => {
                ensure(!parts.is_empty(), E::EmptyCompose)?;
                for part in parts {
                    let nested = matches!(part.model, TrafficModel::Compose(_));
                    ensure(!nested, E::NestedCompose)?;
                    ensure(!part.model.is_closed_loop(), E::ClosedLoopInCompose)?;
                    part.model.validate(hosts)?;
                }
                Ok(())
            }
        }
    }

    /// [`TrafficModel::validate`] on `ctx.hosts`, then the virtual-time
    /// horizon: every instant or duration the model states and the span
    /// its arrivals are predicted to cover must lie within
    /// [`HORIZON_NS`]. A model that passes generates without panicking.
    pub fn validate_in(&self, ctx: &TrafficCtx) -> Result<(), TrafficError> {
        self.validate(ctx.hosts)?;
        self.reach_ns(ctx).map(drop)
    }

    /// How far into virtual time this model reaches, in ns, checked
    /// against [`HORIZON_NS`] under the name of the field that states
    /// it: Poisson and bursty hosts at their mean rate, a shuffle's last
    /// round, an explicit list's last flow, a client's think times
    /// summed, and a composition part after part (a `prior_median` part
    /// starting no later than everything before it).
    fn reach_ns(&self, ctx: &TrafficCtx) -> Result<u128, TrafficError> {
        let (field, ns) = match *self {
            TrafficModel::Poisson {
                load,
                ref sizes,
                flow_count,
            }
            | TrafficModel::BurstyPoisson {
                load,
                ref sizes,
                flow_count,
                ..
            } => {
                let per_host = flow_count.div_ceil(ctx.hosts) as f64;
                let span = per_host * 1e9 * mean_gap_s(load, ctx.line_rate_bps, sizes);
                ("flows at load (predicted arrival span)", span as u128)
            }
            TrafficModel::Shuffle {
                rounds, round_gap, ..
            } => {
                let last = round_gap.as_nanos() as u128 * (rounds as u128 - 1).max(1);
                ("round_gap_ns × (rounds - 1)", last)
            }
            TrafficModel::Explicit(ref flows) => {
                let last = flows.iter().map(|f| f.at.as_nanos()).max();
                ("at_ns", last.unwrap_or(0) as u128)
            }
            TrafficModel::RpcClosedLoop {
                think,
                ops_per_client,
                ..
            }
            | TrafficModel::LeaderReplicate {
                think,
                ops_per_client,
                ..
            } => {
                let ns = think.as_nanos() as u128 * ops_per_client as u128;
                ("think_ns × ops_per_client", ns)
            }
            TrafficModel::Compose(ref parts) => {
                let mut end = 0u128;
                for part in parts {
                    let start = match part.start {
                        Start::Zero => 0,
                        Start::PriorMedian => end,
                        Start::At(d) => check_horizon("start.at_ns", d.as_nanos() as u128)?,
                    };
                    end = end.max(start + part.model.reach_ns(ctx)?);
                }
                ("compose parts end to end", end)
            }
            TrafficModel::Incast { .. } | TrafficModel::Allreduce { .. } => return Ok(0),
        };
        check_horizon(field, ns)
    }

    /// Does this model spawn flows in reaction to completions? Such
    /// models run through [`TrafficModel::closed_loop`] and an engine
    /// driver hook instead of a precomputed flow list.
    pub fn is_closed_loop(&self) -> bool {
        matches!(
            self,
            TrafficModel::RpcClosedLoop { .. }
                | TrafficModel::Allreduce { .. }
                | TrafficModel::LeaderReplicate { .. }
        )
    }

    /// Build the closed-loop runtime (seed flows + reactive driver)
    /// for this model, or `None` for open-loop models. Deterministic:
    /// all randomness is pre-drawn from `ctx.seed` at construction.
    /// Assumes [`TrafficModel::validate`] passed.
    pub fn closed_loop(&self, ctx: &TrafficCtx) -> Option<ClosedLoop> {
        app::closed_loop(self, ctx)
    }

    /// The workload's flows in arrival order, generated as they are
    /// taken (see [`Arrivals`]). Deterministic: a pure function of
    /// `(self, ctx)`. A closed-loop model streams its seed flows. Assumes
    /// [`TrafficModel::validate_in`] passed — the scenario layer
    /// guarantees it for every user-reachable path.
    pub fn arrivals(&self, ctx: &TrafficCtx) -> Arrivals {
        // A leaf model's flows are all of one population, so its
        // boundary is 0; a composition orders primary flows first.
        let (flows, primary) = match self {
            TrafficModel::Poisson {
                load,
                sizes,
                flow_count,
            } => return Arrivals::per_host(ctx, *load, *sizes, *flow_count, 1.0, 1),
            TrafficModel::BurstyPoisson {
                load,
                sizes,
                flow_count,
                duty_cycle,
                burst_flows,
            } => {
                return Arrivals::per_host(
                    ctx,
                    *load,
                    *sizes,
                    *flow_count,
                    *duty_cycle,
                    *burst_flows,
                )
            }
            TrafficModel::Incast { m, total_bytes } => (striped(ctx, *m, *total_bytes), 0),
            TrafficModel::Shuffle {
                flow_bytes,
                rounds,
                round_gap,
            } => (shuffle(ctx, *flow_bytes, *rounds, *round_gap), 0),
            TrafficModel::Explicit(flows) => (flows.clone(), 0),
            TrafficModel::Compose(parts) => compose(ctx, parts),
            // A closed-loop model's precomputable prefix is its seed
            // flows; the rest exist only in reaction to completions (the
            // engine spawns them via the driver).
            TrafficModel::RpcClosedLoop { .. }
            | TrafficModel::Allreduce { .. }
            | TrafficModel::LeaderReplicate { .. } => {
                let seed_flows = self.closed_loop(ctx).map(|cl| cl.seed_flows);
                (seed_flows.unwrap_or_default(), 0)
            }
        };
        Arrivals::listed(flows, self.has_incast_population().then_some(primary))
    }

    /// Materialize the flow stream: [`TrafficModel::arrivals`] collected
    /// in id order. Deterministic: a pure function of `(self, ctx)`.
    /// Assumes [`TrafficModel::validate_in`] passed.
    pub fn generate(&self, ctx: &TrafficCtx) -> FlowStream {
        let arrivals = self.arrivals(ctx);
        FlowStream {
            incast_from: arrivals.incast_from(),
            flows: arrivals.into_flows(),
        }
    }
}

fn check_flows(flow_count: usize) -> Result<(), TrafficError> {
    ensure(flow_count > 0, TrafficError::NoFlows)?;
    check_flow_budget(flow_count as u128)
}

/// Reject models whose predicted total flow count exceeds the engine's
/// 30-bit flow-id space.
fn check_flow_budget(flows: u128) -> Result<(), TrafficError> {
    ensure(flows < MAX_FLOWS, TrafficError::TooManyFlows { flows })
}

/// `ns`, unless it lies beyond [`HORIZON_NS`]: then an error naming
/// the `field` that states it.
fn check_horizon(field: &'static str, ns: u128) -> Result<u128, TrafficError> {
    ensure(
        ns <= HORIZON_NS as u128,
        TrafficError::BeyondHorizon { field, ns },
    )?;
    Ok(ns)
}

fn ensure(ok: bool, err: TrafficError) -> Result<(), TrafficError> {
    if ok {
        Ok(())
    } else {
        Err(err)
    }
}

/// §4.4.3's incast: `total_bytes` striped equally over `m` distinct
/// random senders, all answering host 0 at time zero.
///
/// "We simulate the incast workload on our default topology by striping
/// 150MB of data across M randomly chosen sender nodes that send it to a
/// fixed destination node."
fn striped(ctx: &TrafficCtx, m: usize, total_bytes: u64) -> Vec<FlowSpec> {
    let mut rng = SimRng::new(ctx.seed);
    // Sample senders from the hosts other than host 0.
    let senders = rng.sample_distinct(ctx.hosts - 1, m);
    let bytes = total_bytes / m as u64;
    senders
        .into_iter()
        .map(|raw| FlowSpec {
            src: raw as u32 + 1,
            dst: 0,
            bytes,
            at: Time::ZERO,
        })
        .collect()
}

/// Permutation-shuffle generation: one fresh random derangement per
/// round.
fn shuffle(ctx: &TrafficCtx, flow_bytes: u64, rounds: usize, round_gap: Duration) -> Vec<FlowSpec> {
    let n = ctx.hosts;
    let mut rng = SimRng::new(ctx.seed);
    let mut flows = Vec::with_capacity(rounds * n);
    for round in 0..rounds {
        let at = Time::ZERO + round_gap * round as u64;
        // Fisher–Yates permutation…
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.index(i + 1);
            perm.swap(i, j);
        }
        // …with fixed points swapped away: exchanging the images of a
        // fixed point and its neighbor keeps the map a bijection and
        // (by injectivity) cannot re-create a fixed point at either
        // index, so one left-to-right pass suffices.
        for i in 0..n {
            if perm[i] == i {
                perm.swap(i, (i + 1) % n);
            }
        }
        for (src, &dst) in perm.iter().enumerate() {
            flows.push(FlowSpec {
                src: src as u32,
                dst: dst as u32,
                bytes: flow_bytes,
                at,
            });
        }
    }
    flows
}

/// Composition: generate each part with its salted seed and start
/// offset, then order primary-population flows before incast-population
/// flows (the engine's single boundary index separates the two metric
/// populations). Returns the flows and the count of primary ones.
fn compose(ctx: &TrafficCtx, parts: &[Component]) -> (Vec<FlowSpec>, usize) {
    let mut primary: Vec<FlowSpec> = Vec::new();
    let mut burst = Vec::new();
    for part in parts {
        let offset = match part.start {
            Start::Zero => Duration::ZERO,
            Start::PriorMedian if primary.is_empty() && burst.is_empty() => Duration::ZERO,
            Start::PriorMedian => {
                // The median *arrival time* of the prior flows — their
                // generation order is not necessarily time-sorted
                // (explicit lists, multiple parts).
                let mut times: Vec<Time> = primary.iter().chain(&burst).map(|f| f.at).collect();
                times.sort_unstable();
                Duration::nanos(times[times.len() / 2].as_nanos())
            }
            Start::At(d) => d,
        };
        let sub_ctx = TrafficCtx {
            seed: ctx.seed ^ part.seed_salt,
            ..*ctx
        };
        let mut flows = part.model.generate(&sub_ctx).flows;
        if !offset.is_zero() {
            for f in &mut flows {
                f.at += offset;
            }
        }
        match part.population {
            Population::Primary => primary.append(&mut flows),
            Population::Incast => burst.append(&mut flows),
        }
    }
    let boundary = primary.len();
    primary.append(&mut burst);
    (primary, boundary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(hosts: usize, seed: u64) -> TrafficCtx {
        TrafficCtx {
            hosts,
            line_rate_bps: 40e9,
            seed,
        }
    }

    #[test]
    fn poisson_is_bursty_at_duty_one_with_single_flow_bursts() {
        let sizes = SizeDistribution::HeavyTailed;
        let poisson = TrafficModel::Poisson {
            load: 0.7,
            sizes,
            flow_count: 500,
        };
        let bursty = TrafficModel::BurstyPoisson {
            load: 0.7,
            sizes,
            flow_count: 500,
            duty_cycle: 1.0,
            burst_flows: 1,
        };
        for c in [ctx(2, 1), ctx(8, 42), ctx(54, 7)] {
            let stream = poisson.generate(&c);
            assert_eq!(stream, bursty.generate(&c));
            assert_eq!(stream.flows.len(), 500);
            assert_eq!(stream.incast_from, None);
        }
    }

    #[test]
    fn incast_with_cross_matches_legacy_construction() {
        // The composed §4.4.3 workload must reproduce the historical
        // hard-wired one byte for byte: cross traffic from the config
        // seed, burst at the cross median from the salted seed.
        let c = ctx(16, 7);
        let model =
            TrafficModel::incast_with_cross(8, 15_000_000, 0.5, SizeDistribution::HeavyTailed, 200);
        let stream = model.generate(&c);

        let cross = TrafficModel::Poisson {
            load: 0.5,
            sizes: SizeDistribution::HeavyTailed,
            flow_count: 200,
        };
        let mut expect = cross.generate(&c).flows;
        let boundary = expect.len();
        let mid = Duration::nanos(expect[boundary / 2].at.as_nanos());
        let burst = TrafficModel::Incast {
            m: 8,
            total_bytes: 15_000_000,
        };
        let salted = ctx(16, 7 ^ INCAST_CROSS_SALT);
        expect.extend(burst.generate(&salted).flows.into_iter().map(|f| FlowSpec {
            at: f.at + mid,
            ..f
        }));

        assert_eq!(stream.flows, expect);
        assert_eq!(stream.incast_from, Some(boundary));
        assert!(model.has_incast_population());
    }

    #[test]
    fn bursty_calibrates_to_long_run_load() {
        let model = TrafficModel::BurstyPoisson {
            load: 0.7,
            sizes: SizeDistribution::HeavyTailed,
            flow_count: 6000,
            duty_cycle: 0.25,
            burst_flows: 10,
        };
        let stream = model.generate(&ctx(16, 11));
        assert_eq!(stream.flows.len(), 6000);
        // Per-host measurement: each host's own bytes over its own
        // horizon. (A global max-horizon measurement would be biased
        // low — bursty host horizons spread far more than Poisson.)
        let mut bytes = [0u64; 16];
        let mut horizon = [0u64; 16];
        for f in &stream.flows {
            bytes[f.src as usize] += f.bytes;
            horizon[f.src as usize] = horizon[f.src as usize].max(f.at.as_nanos());
        }
        let mean_load: f64 = (0..16)
            .map(|h| bytes[h] as f64 * 8.0 / (horizon[h] as f64 / 1e9) / 40e9)
            .sum::<f64>()
            / 16.0;
        assert!(
            (mean_load - 0.7).abs() < 0.1,
            "long-run bursty load {mean_load:.3} should be ≈0.70"
        );
    }

    #[test]
    fn bursty_is_deterministic_and_sorted() {
        let model = TrafficModel::BurstyPoisson {
            load: 0.5,
            sizes: SizeDistribution::HeavyTailed,
            flow_count: 400,
            duty_cycle: 0.3,
            burst_flows: 5,
        };
        let a = model.generate(&ctx(8, 3));
        let b = model.generate(&ctx(8, 3));
        assert_eq!(a, b);
        assert!(a.flows.windows(2).all(|w| w[0].at <= w[1].at));
        let c = model.generate(&ctx(8, 4));
        assert_ne!(a, c, "seed must matter");
        for f in &a.flows {
            assert_ne!(f.src, f.dst);
        }
    }

    #[test]
    fn bursty_is_burstier_than_poisson() {
        // Same load, same flow count: the on/off stream must have a
        // higher coefficient of variation of inter-arrival gaps.
        let n = 4000;
        let cv = |flows: &[FlowSpec]| {
            let gaps: Vec<f64> = flows
                .windows(2)
                .map(|w| (w[1].at.as_nanos() - w[0].at.as_nanos()) as f64)
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            var.sqrt() / mean
        };
        let poisson = TrafficModel::Poisson {
            load: 0.7,
            sizes: SizeDistribution::HeavyTailed,
            flow_count: n,
        }
        .generate(&ctx(16, 5));
        let bursty = TrafficModel::BurstyPoisson {
            load: 0.7,
            sizes: SizeDistribution::HeavyTailed,
            flow_count: n,
            duty_cycle: 0.2,
            burst_flows: 12,
        }
        .generate(&ctx(16, 5));
        assert!(
            cv(&bursty.flows) > cv(&poisson.flows) * 1.3,
            "bursty CV {:.2} must exceed poisson CV {:.2}",
            cv(&bursty.flows),
            cv(&poisson.flows)
        );
    }

    #[test]
    fn shuffle_rounds_are_derangements() {
        let model = TrafficModel::Shuffle {
            flow_bytes: 100_000,
            rounds: 5,
            round_gap: Duration::micros(50),
        };
        let stream = model.generate(&ctx(10, 9));
        assert_eq!(stream.flows.len(), 50);
        for round in 0..5 {
            let chunk = &stream.flows[round * 10..(round + 1) * 10];
            let at = Time::ZERO + Duration::micros(50) * round as u64;
            let mut dsts = std::collections::HashSet::new();
            for (i, f) in chunk.iter().enumerate() {
                assert_eq!(f.src, i as u32, "every host sends once per round");
                assert_ne!(f.src, f.dst, "derangement: no self-flow");
                assert_eq!(f.at, at);
                assert_eq!(f.bytes, 100_000);
                assert!(dsts.insert(f.dst), "every host receives once per round");
            }
        }
        // Determinism + seed sensitivity.
        assert_eq!(stream, model.generate(&ctx(10, 9)));
        assert_ne!(stream, model.generate(&ctx(10, 10)));
    }

    #[test]
    fn shuffle_balances_bytes_per_host() {
        let model = TrafficModel::Shuffle {
            flow_bytes: 7_000,
            rounds: 4,
            round_gap: Duration::ZERO,
        };
        let stream = model.generate(&ctx(6, 2));
        let mut sent = [0u64; 6];
        let mut recv = [0u64; 6];
        for f in &stream.flows {
            sent[f.src as usize] += f.bytes;
            recv[f.dst as usize] += f.bytes;
        }
        assert!(sent.iter().all(|&b| b == 4 * 7_000));
        assert!(recv.iter().all(|&b| b == 4 * 7_000));
    }

    #[test]
    fn validation_catches_each_parameter() {
        use TrafficError as E;
        let ok = TrafficModel::Poisson {
            load: 0.7,
            sizes: SizeDistribution::HeavyTailed,
            flow_count: 10,
        };
        assert_eq!(ok.validate(16), Ok(()));
        assert_eq!(ok.validate(1), Err(E::TooFewHosts { hosts: 1 }));

        let bad_load = TrafficModel::Poisson {
            load: 1.3,
            sizes: SizeDistribution::HeavyTailed,
            flow_count: 10,
        };
        assert_eq!(bad_load.validate(16), Err(E::LoadOutOfRange { load: 1.3 }));

        let nan_load = TrafficModel::Poisson {
            load: f64::NAN,
            sizes: SizeDistribution::HeavyTailed,
            flow_count: 10,
        };
        assert!(matches!(
            nan_load.validate(16),
            Err(E::LoadOutOfRange { .. })
        ));

        let incast = TrafficModel::Incast {
            m: 16,
            total_bytes: 1,
        };
        assert_eq!(
            incast.validate(16),
            Err(E::IncastFanIn { m: 16, hosts: 16 })
        );

        let bursty = TrafficModel::BurstyPoisson {
            load: 0.5,
            sizes: SizeDistribution::HeavyTailed,
            flow_count: 10,
            duty_cycle: 0.0,
            burst_flows: 4,
        };
        assert_eq!(
            bursty.validate(16),
            Err(E::DutyCycleOutOfRange { duty_cycle: 0.0 })
        );

        let shuffle = TrafficModel::Shuffle {
            flow_bytes: 0,
            rounds: 1,
            round_gap: Duration::ZERO,
        };
        assert_eq!(shuffle.validate(16), Err(E::ZeroBytes));

        let explicit = TrafficModel::Explicit(vec![FlowSpec {
            src: 3,
            dst: 3,
            bytes: 10,
            at: Time::ZERO,
        }]);
        assert_eq!(explicit.validate(16), Err(E::SelfFlow { host: 3 }));

        assert_eq!(
            TrafficModel::Compose(Vec::new()).validate(16),
            Err(E::EmptyCompose)
        );
        let nested = TrafficModel::Compose(vec![Component {
            model: TrafficModel::Compose(Vec::new()),
            population: Population::Primary,
            seed_salt: 0,
            start: Start::Zero,
        }]);
        assert_eq!(nested.validate(16), Err(E::NestedCompose));
    }

    fn rpc(clients: u32, ops: u32, window: u32, fanout: u32, think: Duration) -> TrafficModel {
        TrafficModel::RpcClosedLoop {
            clients,
            ops_per_client: ops,
            window,
            request_bytes: 4096,
            response_bytes: 256,
            think,
            fanout,
        }
    }

    #[test]
    fn closed_loop_validation_catches_each_parameter() {
        use TrafficError as E;
        let think = Duration::micros(50);
        assert_eq!(rpc(4, 10, 2, 2, think).validate(16), Ok(()));
        assert_eq!(
            rpc(16, 10, 2, 2, think).validate(16),
            Err(E::ClientsOutOfRange {
                clients: 16,
                hosts: 16
            })
        );
        assert_eq!(
            rpc(0, 10, 2, 2, think).validate(16),
            Err(E::ClientsOutOfRange {
                clients: 0,
                hosts: 16
            })
        );
        assert_eq!(
            rpc(12, 10, 2, 8, think).validate(16),
            Err(E::FanoutTooLarge {
                fanout: 8,
                servers: 4
            })
        );
        assert_eq!(rpc(4, 0, 2, 2, think).validate(16), Err(E::ZeroOps));
        assert_eq!(rpc(4, 10, 0, 2, think).validate(16), Err(E::ZeroWindow));
        // A think time near u64::MAX nanoseconds must be a typed
        // error, not a Time-arithmetic panic mid-run.
        let huge = Duration::nanos(u64::MAX / 2);
        assert_eq!(rpc(4, 10, 2, 2, huge).validate(16), Ok(()));
        assert_eq!(
            rpc(4, 10, 2, 2, huge).validate_in(&ctx(16, 1)),
            Err(E::BeyondHorizon {
                field: "think_ns × ops_per_client",
                ns: (u64::MAX / 2) as u128 * 10
            })
        );
        // More flows than 30-bit flow ids can address.
        let wide = rpc(100, 2_000_000, 1, 4, Duration::ZERO);
        assert!(matches!(
            wide.validate(1000),
            Err(E::TooManyFlows { flows }) if flows == 100 * 2_000_000 * 4 * 2
        ));

        let ar = |participants, bytes, iterations| TrafficModel::Allreduce {
            algorithm: AllreduceAlgo::Ring,
            participants,
            bytes,
            iterations,
        };
        assert_eq!(ar(8, 1 << 20, 3).validate(16), Ok(()));
        assert_eq!(
            ar(1, 1 << 20, 3).validate(16),
            Err(E::ParticipantsOutOfRange {
                participants: 1,
                hosts: 16
            })
        );
        assert_eq!(
            ar(17, 1 << 20, 3).validate(16),
            Err(E::ParticipantsOutOfRange {
                participants: 17,
                hosts: 16
            })
        );
        assert_eq!(ar(8, 0, 3).validate(16), Err(E::ZeroBytes));
        assert_eq!(ar(8, 1 << 20, 0).validate(16), Err(E::ZeroIterations));

        let lr = |clients, followers, quorum| TrafficModel::LeaderReplicate {
            clients,
            followers,
            quorum,
            ops_per_client: 5,
            request_bytes: 2048,
            ack_bytes: 64,
            think,
        };
        assert_eq!(lr(4, 3, 2).validate(16), Ok(()));
        assert_eq!(
            lr(4, 3, 4).validate(16),
            Err(E::QuorumOutOfRange {
                quorum: 4,
                followers: 3
            })
        );
        assert_eq!(
            lr(4, 3, 0).validate(16),
            Err(E::QuorumOutOfRange {
                quorum: 0,
                followers: 3
            })
        );
        assert_eq!(
            lr(13, 3, 2).validate(16),
            Err(E::ReplicationHosts {
                needed: 17,
                hosts: 16
            })
        );
    }

    #[test]
    fn closed_loop_models_cannot_be_composed() {
        let model = TrafficModel::Compose(vec![Component {
            model: rpc(2, 5, 1, 1, Duration::ZERO),
            population: Population::Primary,
            seed_salt: 0,
            start: Start::Zero,
        }]);
        assert_eq!(model.validate(16), Err(TrafficError::ClosedLoopInCompose));
    }

    #[test]
    fn closed_loop_generate_returns_only_seed_flows() {
        let model = rpc(3, 10, 2, 2, Duration::micros(10));
        let c = ctx(12, 5);
        let stream = model.generate(&c);
        let cl = model.closed_loop(&c).unwrap();
        assert_eq!(stream.flows, cl.seed_flows);
        assert_eq!(stream.incast_from, None);
        // 3 clients × window 2 × fanout 2 requests prime the loop.
        assert_eq!(stream.flows.len(), 12);
        assert!(model.is_closed_loop());
        assert!(!model.has_incast_population());
        // Open-loop models have no closed-loop runtime.
        assert!(TrafficModel::Incast {
            m: 4,
            total_bytes: 1000
        }
        .closed_loop(&c)
        .is_none());
    }

    #[test]
    fn incast_shaped_part_in_primary_population_is_not_incast() {
        // The metric population is the part's declared `population`,
        // not its model shape: an Incast-shaped part marked primary is
        // foreground traffic. has_incast_population() must agree with
        // generate()'s boundary, or downstream metric selection would
        // ask for an RCT that was never recorded.
        let model = TrafficModel::Compose(vec![Component {
            model: TrafficModel::Incast {
                m: 4,
                total_bytes: 400_000,
            },
            population: Population::Primary,
            seed_salt: 0,
            start: Start::Zero,
        }]);
        assert!(!model.has_incast_population());
        let stream = model.generate(&ctx(8, 3));
        assert_eq!(stream.incast_from, None);
        assert_eq!(stream.flows.len(), 4);
    }

    #[test]
    fn prior_median_is_a_time_median_not_an_index_middle() {
        // Earlier parts' flows are not necessarily time-sorted
        // (explicit lists, multiple parts); the start offset must be
        // the median arrival *time*.
        let unsorted = vec![
            FlowSpec {
                src: 0,
                dst: 1,
                bytes: 10,
                at: Time::from_nanos(9_000_000),
            },
            FlowSpec {
                src: 1,
                dst: 0,
                bytes: 10,
                at: Time::from_nanos(10),
            },
            FlowSpec {
                src: 2,
                dst: 3,
                bytes: 10,
                at: Time::from_nanos(5_000),
            },
        ];
        let model = TrafficModel::Compose(vec![
            Component {
                model: TrafficModel::Explicit(unsorted),
                population: Population::Primary,
                seed_salt: 0,
                start: Start::Zero,
            },
            Component {
                model: TrafficModel::Incast {
                    m: 2,
                    total_bytes: 100,
                },
                population: Population::Incast,
                seed_salt: 0,
                start: Start::PriorMedian,
            },
        ]);
        let stream = model.generate(&ctx(8, 1));
        let burst_at = stream.flows[stream.incast_from.unwrap()].at;
        // Sorted arrival times: [10, 5_000, 9_000_000] → median 5_000.
        assert_eq!(burst_at, Time::from_nanos(5_000));
    }

    #[test]
    fn compose_start_at_shifts_flows() {
        let flows = vec![FlowSpec {
            src: 0,
            dst: 1,
            bytes: 100,
            at: Time::from_nanos(5),
        }];
        let model = TrafficModel::Compose(vec![Component {
            model: TrafficModel::Explicit(flows),
            population: Population::Primary,
            seed_salt: 0,
            start: Start::At(Duration::micros(3)),
        }]);
        let stream = model.generate(&ctx(4, 1));
        assert_eq!(stream.flows[0].at, Time::from_nanos(3_005));
        assert_eq!(stream.incast_from, None);
    }

    #[test]
    fn everything_a_model_states_or_predicts_lies_within_the_horizon() {
        use TrafficError as E;
        let c = ctx(16, 1);
        let past = |field, ns| Err(E::BeyondHorizon { field, ns });
        let at = |ns| FlowSpec {
            src: 0,
            dst: 1,
            bytes: 1,
            at: Time::from_nanos(ns),
        };
        let shuffle = |rounds, gap| TrafficModel::Shuffle {
            flow_bytes: 1,
            rounds,
            round_gap: Duration::nanos(gap),
        };
        let poisson = |load| TrafficModel::Poisson {
            load,
            sizes: SizeDistribution::HeavyTailed,
            flow_count: 1000,
        };
        let part = |model, start| Component {
            model,
            population: Population::Primary,
            seed_salt: 0,
            start,
        };

        // Exactly at the horizon is fine; one nanosecond beyond is not.
        let h = HORIZON_NS;
        assert_eq!(TrafficModel::Explicit(vec![at(h)]).validate_in(&c), Ok(()));
        let beyond = TrafficModel::Explicit(vec![at(0), at(h + 1)]);
        assert_eq!(beyond.validate(16), Ok(()));
        assert_eq!(beyond.validate_in(&c), past("at_ns", h as u128 + 1));
        // Round 2 of 3 starting at 2^64 used to wrap to t = 0.
        assert_eq!(
            shuffle(3, 1 << 63).validate_in(&c),
            past("round_gap_ns × (rounds - 1)", 1 << 64)
        );
        assert_eq!(shuffle(3, h / 2).validate_in(&c), Ok(()));
        assert!(shuffle(1, h + 1).validate_in(&c).is_err());
        // Poisson arrivals: ~3 ms at 70 % load, ~245 days at 1e-10.
        assert_eq!(poisson(0.7).validate_in(&c), Ok(()));
        assert!(matches!(
            poisson(1e-10).validate_in(&c),
            Err(E::BeyondHorizon { field, .. }) if field.starts_with("flows at load")
        ));
        assert!(poisson(f64::MIN_POSITIVE).validate_in(&c).is_err());
        // Composed parts: a stated start, then the parts end to end.
        let stated =
            TrafficModel::Compose(vec![part(poisson(0.7), Start::At(Duration::nanos(h + 1)))]);
        assert_eq!(stated.validate_in(&c), past("start.at_ns", h as u128 + 1));
        let chained = TrafficModel::Compose(vec![
            part(TrafficModel::Explicit(vec![at(h / 2 + 1)]), Start::Zero),
            part(TrafficModel::Explicit(vec![at(h / 2)]), Start::PriorMedian),
        ]);
        assert_eq!(
            chained.validate_in(&c),
            past("compose parts end to end", h as u128 + 1)
        );
    }
}
