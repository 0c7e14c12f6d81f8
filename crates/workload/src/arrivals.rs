//! The arrival stream: a workload's flows in arrival order, generated
//! as the engine asks for them.
//!
//! [`Arrivals`] yields `(flow id, spec)` pairs by nondecreasing arrival
//! time, ties in flow-id order; ids number the flows the way
//! [`TrafficModel::generate`](crate::TrafficModel::generate) lists them.
//! Only the flows a run has not reached yet are ever generated ahead,
//! so the engine holds the flows in flight, not the whole workload.
//!
//! Poisson and bursty Poisson arrivals stream from the per-host
//! processes themselves, merged one instant at a time. The models with
//! small lists (incast, shuffle, explicit flows, closed-loop seed flows,
//! compositions) yield their list in `(at, id)` order.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use irn_sim::{Duration, SimRng, Time};

use crate::{FlowSpec, SizeDistribution};

/// A workload's flows in arrival order: `(flow id, spec)` pairs by
/// nondecreasing `at`, ties in id order. The flow count is known before
/// the first flow is generated.
pub struct Arrivals {
    flows: usize,
    incast_from: Option<usize>,
    /// The next flow, generated ahead so its time can be compared with
    /// the engine's queue.
    head: Option<(u32, FlowSpec)>,
    source: Source,
}

enum Source {
    /// A list in id order, and its ids stably sorted by `at`.
    List {
        flows: Vec<FlowSpec>,
        order: std::vec::IntoIter<u32>,
    },
    /// Per-host arrival processes, merged instant by instant.
    Hosts(HostMerge),
}

impl Arrivals {
    /// Stream a list of flows (ids are list positions) in arrival order.
    pub fn from_flows(flows: Vec<FlowSpec>) -> Arrivals {
        Arrivals::listed(flows, None)
    }

    /// Stream a list whose flows from `incast_from` on feed the incast
    /// metric population.
    pub(crate) fn listed(flows: Vec<FlowSpec>, incast_from: Option<usize>) -> Arrivals {
        // Stable, from id order: ties stay in id order. (A list is
        // mostly in time order already, which this sort finds in one
        // pass.)
        let mut order: Vec<u32> = (0..flows.len() as u32).collect();
        order.sort_by_key(|&i| flows[i as usize].at);
        Arrivals::new(
            flows.len(),
            incast_from,
            Source::List {
                flows,
                order: order.into_iter(),
            },
        )
    }

    /// The one per-host arrival loop (see [`HostMerge`]), streamed.
    pub(crate) fn per_host(
        ctx: &crate::TrafficCtx,
        load: f64,
        sizes: SizeDistribution,
        flow_count: usize,
        duty_cycle: f64,
        burst_flows: usize,
    ) -> Arrivals {
        let merge = HostMerge::new(ctx, load, sizes, flow_count, duty_cycle, burst_flows);
        Arrivals::new(flow_count, None, Source::Hosts(merge))
    }

    fn new(flows: usize, incast_from: Option<usize>, mut source: Source) -> Arrivals {
        Arrivals {
            flows,
            incast_from,
            head: source.pull(),
            source,
        }
    }

    /// How many flows the stream yields in all.
    pub fn flow_count(&self) -> usize {
        self.flows
    }

    /// Id of the first incast-population flow, if any (see
    /// [`FlowStream::incast_from`](crate::FlowStream::incast_from)).
    pub fn incast_from(&self) -> Option<usize> {
        self.incast_from
    }

    /// The next flow, if it arrives no later than `deadline` (`None`:
    /// whenever it arrives). An arrival at the deadline is taken: the
    /// engine's arrivals win ties against its queued events.
    #[inline]
    pub fn next_by(&mut self, deadline: Option<Time>) -> Option<(u32, FlowSpec)> {
        let (_, next) = self.head?;
        if deadline.is_some_and(|d| next.at > d) {
            return None;
        }
        self.next()
    }

    /// Every flow, in id order.
    pub(crate) fn into_flows(mut self) -> Vec<FlowSpec> {
        if let Source::List { flows, .. } = &mut self.source {
            return std::mem::take(flows);
        }
        let mut flows = Vec::with_capacity(self.flows);
        flows.extend(self.map(|(_, f)| f));
        flows
    }
}

impl Iterator for Arrivals {
    type Item = (u32, FlowSpec);

    fn next(&mut self) -> Option<(u32, FlowSpec)> {
        let next = self.head?;
        self.head = self.source.pull();
        Some(next)
    }
}

impl Source {
    fn pull(&mut self) -> Option<(u32, FlowSpec)> {
        match self {
            Source::List { flows, order } => {
                let id = order.next()?;
                Some((id, flows[id as usize]))
            }
            Source::Hosts(merge) => merge.pull(),
        }
    }
}

/// Mean inter-arrival time per host, in seconds, for `load`: each host
/// must send `load × line_rate` on average, so its flow rate is
/// `load × rate / (8 × E[size])` flows per second.
pub(crate) fn mean_gap_s(load: f64, line_rate_bps: f64, sizes: &SizeDistribution) -> f64 {
    let flows_per_sec = load * line_rate_bps / (8.0 * sizes.mean_bytes());
    1.0 / flows_per_sec
}

/// The one per-host arrival loop, on/off Poisson: every host runs an
/// independent process (its own forked RNG stream) that alternates ON
/// bursts of back-to-back arrivals with OFF silences, and sends each
/// flow to a uniformly drawn other host. Poisson is the case
/// `duty_cycle = 1`, `burst_flows = 1`: one-flow bursts, no OFF phase,
/// and no draw but the flow's own.
///
/// The workload is every host's first `⌈flow_count / hosts⌉` flows,
/// ordered by `(at, src, dst)` (ties: a host's own order) and cut to
/// `flow_count`; a flow's id is its place in that order. Each host runs
/// one flow ahead of the merge. A heap of hosts keyed by that flow's
/// `(at, src)` names the next host, which hands over all its flows at
/// that instant, sorted stably by `dst`. A heap of single flows would
/// not do: a host can draw two flows at one nanosecond with their
/// destinations out of order.
struct HostMerge {
    process: Process,
    hosts: Vec<Host>,
    /// Every host with a flow pending, by that flow's time, then the
    /// host: a min-heap.
    queue: BinaryHeap<Reverse<(Time, u32)>>,
    /// One host's flows at one instant, in arrival order, and the next
    /// place in it.
    group: Vec<FlowSpec>,
    pos: usize,
    next_id: u32,
    flow_count: usize,
}

/// What every host's process shares.
struct Process {
    hosts: u64,
    sizes: SizeDistribution,
    /// The mean gap in seconds, and the shorter one inside a burst.
    gap_s: f64,
    on_gap: Duration,
    off_share: f64,
    burst_flows: usize,
}

/// One host's arrival process, a flow ahead of the merge.
struct Host {
    src: u32,
    rng: SimRng,
    t: Time,
    /// Flows not yet assigned to a burst.
    left: usize,
    /// The current burst's length and the flows it still owes.
    burst: usize,
    burst_left: usize,
    /// The host's next flow, `None` once it has sent its share.
    pending: Option<FlowSpec>,
}

impl HostMerge {
    fn new(
        ctx: &crate::TrafficCtx,
        load: f64,
        sizes: SizeDistribution,
        flow_count: usize,
        duty_cycle: f64,
        burst_flows: usize,
    ) -> HostMerge {
        let mean_gap = Duration::from_secs_f64(mean_gap_s(load, ctx.line_rate_bps, &sizes));
        let gap_s = mean_gap.as_secs_f64();
        let process = Process {
            hosts: ctx.hosts as u64,
            sizes,
            gap_s,
            // During a burst the arrival rate is inflated by 1/duty_cycle
            // (at duty 1 this rounds back to `mean_gap` exactly: within
            // the horizon a nanosecond count survives the trip through
            // seconds).
            on_gap: Duration::from_secs_f64(gap_s * duty_cycle),
            off_share: 1.0 - duty_cycle,
            burst_flows,
        };
        let per_host = flow_count.div_ceil(ctx.hosts);
        let mut rng = SimRng::new(ctx.seed);
        let hosts = (0..ctx.hosts as u32)
            .map(|src| {
                let mut host = Host {
                    src,
                    rng: rng.fork(src as u64),
                    t: Time::ZERO,
                    left: per_host,
                    burst: 0,
                    burst_left: 0,
                    pending: None,
                };
                host.pending = host.draw(&process);
                host
            })
            .collect::<Vec<Host>>();
        let queue = hosts
            .iter()
            .filter_map(|h| h.pending.map(|f| Reverse((f.at, h.src))))
            .collect();
        HostMerge {
            process,
            hosts,
            queue,
            group: Vec::new(),
            pos: 0,
            next_id: 0,
            flow_count,
        }
    }

    fn pull(&mut self) -> Option<(u32, FlowSpec)> {
        if self.next_id as usize == self.flow_count {
            return None;
        }
        if self.pos == self.group.len() {
            self.next_group();
        }
        let flow = *self.group.get(self.pos)?;
        self.pos += 1;
        self.next_id += 1;
        Some((self.next_id - 1, flow))
    }

    /// Take the earliest host's flows at its next instant, sorted
    /// stably by destination. No other host's flow can come between
    /// them: the queue orders instants, and hosts within one.
    fn next_group(&mut self) {
        let HostMerge {
            process,
            hosts,
            queue,
            group,
            pos,
            ..
        } = self;
        group.clear();
        *pos = 0;
        let Some(mut top) = queue.peek_mut() else {
            return;
        };
        let Reverse((at, src)) = *top;
        let host = &mut hosts[src as usize];
        while let Some(flow) = host.pending.filter(|f| f.at == at) {
            group.push(flow);
            host.pending = host.draw(process);
        }
        match host.pending {
            Some(next) => *top = Reverse((next.at, src)),
            None => drop(PeekMut::pop(top)),
        }
        group.sort_by_key(|f| f.dst);
    }
}

impl Host {
    /// The host's next flow. The draws, in order: a burst's length when
    /// one starts, the flow's gap, destination and size, and after a
    /// burst's last flow its OFF silence, unless no flow follows it. The
    /// flow ids and RNG streams of every pinned workload rest on this
    /// order (the tests' `sort_then_truncate` is its reference).
    fn draw(&mut self, p: &Process) -> Option<FlowSpec> {
        if self.burst_left == 0 {
            if self.left == 0 {
                return None;
            }
            self.burst = sample_geometric(&mut self.rng, p.burst_flows).min(self.left);
            self.left -= self.burst;
            self.burst_left = self.burst;
        }
        self.t += self.rng.exp_duration(p.on_gap);
        let mut dst = self.rng.range(0, p.hosts - 1) as u32;
        if dst >= self.src {
            dst += 1; // skip self
        }
        let flow = FlowSpec {
            src: self.src,
            dst,
            bytes: p.sizes.sample(&mut self.rng).max(1),
            at: self.t,
        };
        self.burst_left -= 1;
        // The OFF silence restores the long-run average: a burst of n
        // flows spent n·duty·gap ON, so the cycle owes n·(1−duty)·gap of
        // silence to average out to n·gap. The last burst's silence
        // precedes nothing and is not drawn.
        if self.burst_left == 0 && p.off_share > 0.0 && self.left > 0 {
            let off_mean = Duration::from_secs_f64(self.burst as f64 * p.gap_s * p.off_share);
            if !off_mean.is_zero() {
                self.t += self.rng.exp_duration(off_mean);
            }
        }
        Some(flow)
    }
}

/// Geometric burst length with the given mean (support `1..`), via
/// inverse-CDF sampling. A mean of 1 is the degenerate single-flow
/// burst and draws nothing.
fn sample_geometric(rng: &mut SimRng, mean: usize) -> usize {
    if mean <= 1 {
        return 1;
    }
    let p = 1.0 / mean as f64;
    let u = 1.0 - rng.uniform(); // in (0, 1], avoids ln(0)
    let n = 1.0 + (u.ln() / (1.0 - p).ln()).floor();
    (n as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Component, Population, Start, TrafficCtx, TrafficModel};

    /// The per-host loop as it stood before it streamed: every host's
    /// whole share generated, stably sorted by `(at, src, dst)`, cut to
    /// `flow_count`. Frozen here as the stream's reference.
    fn sort_then_truncate(
        ctx: &TrafficCtx,
        load: f64,
        sizes: SizeDistribution,
        flow_count: usize,
        duty_cycle: f64,
        burst_flows: usize,
    ) -> Vec<FlowSpec> {
        let mean_gap = Duration::from_secs_f64(mean_gap_s(load, ctx.line_rate_bps, &sizes));
        let gap_s = mean_gap.as_secs_f64();
        let on_gap = Duration::from_secs_f64(gap_s * duty_cycle);
        let off_share = 1.0 - duty_cycle;
        let per_host = flow_count.div_ceil(ctx.hosts);

        let mut rng = SimRng::new(ctx.seed);
        let mut flows = Vec::with_capacity(per_host * ctx.hosts);
        for src in 0..ctx.hosts as u32 {
            let mut host_rng = rng.fork(src as u64);
            let mut t = Time::ZERO;
            let mut left = per_host;
            while left > 0 {
                let burst = sample_geometric(&mut host_rng, burst_flows).min(left);
                left -= burst;
                for _ in 0..burst {
                    t += host_rng.exp_duration(on_gap);
                    let mut dst = host_rng.range(0, ctx.hosts as u64 - 1) as u32;
                    if dst >= src {
                        dst += 1;
                    }
                    flows.push(FlowSpec {
                        src,
                        dst,
                        bytes: sizes.sample(&mut host_rng).max(1),
                        at: t,
                    });
                }
                if off_share > 0.0 && left > 0 {
                    let off_mean = Duration::from_secs_f64(burst as f64 * gap_s * off_share);
                    if !off_mean.is_zero() {
                        t += host_rng.exp_duration(off_mean);
                    }
                }
            }
        }
        flows.sort_by_key(|f| (f.at, f.src, f.dst));
        flows.truncate(flow_count);
        flows
    }

    fn ctx(hosts: usize, line_rate_bps: f64, seed: u64) -> TrafficCtx {
        TrafficCtx {
            hosts,
            line_rate_bps,
            seed,
        }
    }

    /// Does host `src` send two flows to one host at one instant? Then
    /// only the host's own order can rank them.
    fn has_equal_key_ties(flows: &[FlowSpec]) -> bool {
        flows
            .windows(2)
            .any(|w| (w[0].at, w[0].src, w[0].dst) == (w[1].at, w[1].src, w[1].dst))
    }

    #[test]
    fn the_stream_is_the_sorted_truncated_list_for_every_host_count() {
        // (load, line rate, duty cycle, burst length): the paper's load;
        // a rate so high that most gaps round to 0 ns; bursty at both.
        let shapes = [
            (0.7, 40e9, 1.0, 1),
            (1.0, 1e15, 1.0, 1),
            (0.5, 40e9, 0.3, 5),
            (1.0, 1e15, 0.25, 8),
        ];
        let mut tied = 0;
        for hosts in [2, 16, 54, 128] {
            for (load, rate, duty, burst) in shapes {
                for seed in [1, 7] {
                    let c = ctx(hosts, rate, seed);
                    let n = hosts * 7 + 3;
                    let sizes = SizeDistribution::HeavyTailed;
                    let reference = sort_then_truncate(&c, load, sizes, n, duty, burst);
                    let stream = Arrivals::per_host(&c, load, sizes, n, duty, burst);
                    assert_eq!(stream.flow_count(), n);
                    let streamed: Vec<(u32, FlowSpec)> = stream.collect();
                    let expected: Vec<(u32, FlowSpec)> =
                        (0..).zip(reference.iter().copied()).collect();
                    assert_eq!(
                        streamed, expected,
                        "{hosts} hosts, load {load}, rate {rate}, duty {duty}, seed {seed}"
                    );
                    tied += usize::from(has_equal_key_ties(&reference));
                }
            }
        }
        assert!(tied > 0, "no case had a host tie with itself");
    }

    #[test]
    fn generate_collects_the_stream_in_id_order() {
        let c = ctx(16, 40e9, 3);
        let model = TrafficModel::BurstyPoisson {
            load: 0.6,
            sizes: SizeDistribution::HeavyTailed,
            flow_count: 1001,
            duty_cycle: 0.2,
            burst_flows: 6,
        };
        let flows = model.generate(&c).flows;
        let streamed: Vec<FlowSpec> = model.arrivals(&c).map(|(_, f)| f).collect();
        assert_eq!(flows, streamed);
    }

    #[test]
    fn lists_stream_by_time_then_id() {
        // The incast burst lands mid-way through the cross traffic, so
        // the list is out of time order; ties at the burst's instant
        // are in id order.
        let c = ctx(16, 40e9, 5);
        let model = TrafficModel::Compose(vec![
            Component {
                model: TrafficModel::Poisson {
                    load: 0.5,
                    sizes: SizeDistribution::HeavyTailed,
                    flow_count: 300,
                },
                population: Population::Primary,
                seed_salt: 0,
                start: Start::Zero,
            },
            Component {
                model: TrafficModel::Incast {
                    m: 8,
                    total_bytes: 80_000,
                },
                population: Population::Incast,
                seed_salt: 9,
                start: Start::PriorMedian,
            },
        ]);
        let generated = model.generate(&c);
        let mut expected: Vec<(u32, FlowSpec)> = (0..).zip(generated.flows).collect();
        expected.sort_by_key(|(_, f)| f.at);
        let stream = model.arrivals(&c);
        assert_eq!(stream.incast_from(), Some(300));
        assert_eq!(stream.flow_count(), 308);
        assert_eq!(stream.collect::<Vec<_>>(), expected);
    }

    #[test]
    fn next_by_takes_an_arrival_at_the_deadline_and_none_after_it() {
        let at = |ns| FlowSpec {
            src: 0,
            dst: 1,
            bytes: 1,
            at: Time::from_nanos(ns),
        };
        let mut stream = Arrivals::from_flows(vec![at(20), at(10), at(10)]);
        assert_eq!(stream.next_by(Some(Time::from_nanos(9))), None);
        assert_eq!(
            stream.next_by(Some(Time::from_nanos(10))),
            Some((1, at(10)))
        );
        assert_eq!(stream.next_by(None), Some((2, at(10))));
        assert_eq!(stream.next_by(Some(Time::from_nanos(19))), None);
        assert_eq!(
            stream.next_by(Some(Time::from_nanos(20))),
            Some((0, at(20)))
        );
        assert_eq!(stream.next_by(None), None);
        assert_eq!(stream.flow_count(), 3);
    }
}
