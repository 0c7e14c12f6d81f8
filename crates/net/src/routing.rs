//! Shortest-path routing tables with per-flow ECMP.
//!
//! The paper's experiments load-balance with ECMP (§4.1): each flow
//! hashes onto one of the equal-cost shortest paths to its destination
//! and stays there (no packet-level spraying, so reordering only comes
//! from loss — §7 discusses the alternative). This module precomputes,
//! for every switch and every *attachment switch* (a switch with hosts
//! on it), the set of output ports that lie on a shortest path, and
//! provides the deterministic hash that picks among them.
//!
//! Keying by the destination's attachment switch rather than by the
//! destination host is exact: every host has exactly one cable
//! ([`Topology::check`]), so every shortest path to a host runs through
//! its attachment switch, and from any other switch the candidate ports
//! toward the host are the candidate ports toward that switch. The last
//! hop is the host's own port.

use crate::topology::{NodeId, Topology};

/// One end of a directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endpoint {
    /// An endhost's only port.
    Host(u32),
    /// Port `port` of switch `sw`.
    SwitchPort {
        /// Switch index.
        sw: u32,
        /// Port index on that switch.
        port: u16,
    },
}

/// One direction of a cable: who transmits onto it and who receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Link {
    /// Transmitting end.
    pub(crate) src: Endpoint,
    /// Receiving end.
    pub(crate) dst: Endpoint,
}

/// Padding in the flat per-port tables: no link, no neighbor switch.
const NONE: u32 = u32::MAX;

/// Port- and link-level view of a [`Topology`]: who is plugged into
/// which port, and which directed link joins them.
///
/// Port numbers follow cable order (the convention documented on
/// [`Topology`]): a switch's n-th cable occupies its port n. Cable `c`
/// is the directed links `2c` (a → b) and `2c + 1` (b → a). Every
/// other table here is an index over `links`.
#[derive(Debug, Clone)]
pub struct PortMap {
    /// Number of ports on each switch.
    pub(crate) radix: Vec<u16>,
    /// Both ends of every directed link.
    pub(crate) links: Vec<Link>,
    /// Directed link host → edge switch.
    pub(crate) host_uplink: Vec<u32>,
    /// Directed link leaving each switch port, flattened to
    /// `sw * port_stride + port` (one load instead of a pointer chase
    /// per forwarded packet); `u32::MAX` pads short rows.
    pub(crate) switch_out_link: Vec<u32>,
    /// Directed link entering each switch port, same layout.
    pub(crate) switch_in_link: Vec<u32>,
    /// Row width of the two link tables: max ports on any switch.
    pub(crate) port_stride: usize,
}

impl PortMap {
    /// Build the port map from a topology (validates host degree).
    pub fn new(topo: &Topology) -> PortMap {
        let mut radix = vec![0u16; topo.switches];
        let mut links = Vec::with_capacity(topo.cables.len() * 2);

        for cable in &topo.cables {
            if let (NodeId::Host(a), NodeId::Host(b)) = (cable.a, cable.b) {
                panic!("direct host-host cable ({a}-{b}) is not supported");
            }
            // Each switch end takes that switch's next port.
            let [a, b] = [cable.a, cable.b].map(|me| match me {
                NodeId::Host(h) => Endpoint::Host(h),
                NodeId::Switch(sw) => {
                    let port = radix[sw as usize];
                    radix[sw as usize] += 1;
                    Endpoint::SwitchPort { sw, port }
                }
            });
            links.push(Link { src: a, dst: b });
            links.push(Link { src: b, dst: a });
        }

        let port_stride = radix.iter().max().map_or(0, |&r| r as usize);
        let mut host_uplink = vec![NONE; topo.hosts];
        let mut switch_out_link = vec![NONE; topo.switches * port_stride];
        let mut switch_in_link = switch_out_link.clone();
        for (id, link) in links.iter().enumerate() {
            match link.src {
                Endpoint::Host(h) => {
                    assert_eq!(
                        host_uplink[h as usize], NONE,
                        "host {h} attached more than once"
                    );
                    host_uplink[h as usize] = id as u32;
                }
                Endpoint::SwitchPort { sw, port } => {
                    switch_out_link[sw as usize * port_stride + port as usize] = id as u32;
                }
            }
            if let Endpoint::SwitchPort { sw, port } = link.dst {
                switch_in_link[sw as usize * port_stride + port as usize] = id as u32;
            }
        }
        if let Some(h) = host_uplink.iter().position(|&l| l == NONE) {
            panic!("host {h} is not attached to any switch");
        }

        PortMap {
            radix,
            links,
            host_uplink,
            switch_out_link,
            switch_in_link,
            port_stride,
        }
    }
}

/// Where a host plugs in.
#[derive(Debug, Clone, Copy)]
struct Attach {
    /// The switch at the far end of the host's cable.
    switch: u32,
    /// That switch's row among the attachment switches.
    index: u32,
    /// The switch's port toward the host: the last hop.
    port: u16,
}

/// Precomputed ECMP routing state for one topology.
///
/// The candidate-port table is stored flat — one `u16` pool plus an
/// offset per `(attachment, switch)` — rather than nested `Vec`s: the
/// lookup sits on the per-hop hot path, and two loads from contiguous
/// arrays beat dependent pointer chases into per-pair heap allocations.
/// Its size is switches × attachment switches, not switches × hosts: a
/// k=32 fat-tree has 512 attachment switches and 8 192 hosts.
#[derive(Debug, Clone)]
pub struct Routes {
    /// Candidate output ports on shortest paths, concatenated in
    /// `(attachment, switch)` row-major order.
    port_pool: Vec<u16>,
    /// `port_pool[offsets[a*switches+s] .. offsets[a*switches+s+1]]` =
    /// ports on shortest paths from switch `s` to attachment switch `a`;
    /// empty where `s` is `a` itself (the host's [`Attach::port`]).
    offsets: Vec<u32>,
    /// Per host.
    attach: Vec<Attach>,
    /// Attachments × attachments matrix of host-to-host path lengths in
    /// links: two host cables plus the switch hops between.
    att_dist: Vec<u16>,
    /// Row width of `att_dist`.
    attachments: usize,
    /// Row width of `offsets`.
    switches: usize,
    /// Longest shortest host-to-host path, in links traversed.
    pub diameter_hops: usize,
}

impl Routes {
    /// Compute shortest-path DAGs by one BFS from every switch that has
    /// hosts, writing candidates straight into the pooled table.
    ///
    /// Panics if a switch has no path to some host: the candidate sets
    /// the per-hop lookups index are then never empty.
    ///
    /// Complexity O(attachment switches × (switches + cables)), and
    /// a constant number of allocations: every table is sized before
    /// it is filled.
    pub fn build(ports: &PortMap) -> Routes {
        let switches = ports.radix.len();
        let stride = ports.port_stride;
        // The switch on each switch port, NONE for a host or padding.
        let peer: Vec<u32> = ports
            .switch_out_link
            .iter()
            .map(|&l| match ports.links.get(l as usize).map(|l| l.dst) {
                Some(Endpoint::SwitchPort { sw, .. }) => sw,
                _ => NONE,
            })
            .collect();

        let mut attach: Vec<Attach> = ports
            .host_uplink
            .iter()
            .map(|&l| match ports.links[l as usize].dst {
                Endpoint::SwitchPort { sw, port } => Attach {
                    switch: sw,
                    index: NONE,
                    port,
                },
                Endpoint::Host(_) => unreachable!("host-host cables are rejected"),
            })
            .collect();
        // Attachment rows in switch order: mark, count, then number.
        let mut row_of = vec![NONE; switches];
        for a in &attach {
            row_of[a.switch as usize] = 0;
        }
        let mut att_switch = Vec::with_capacity(row_of.iter().filter(|&&r| r == 0).count());
        for (s, row) in row_of.iter_mut().enumerate() {
            if *row == 0 {
                *row = att_switch.len() as u32;
                att_switch.push(s);
            }
        }
        for a in &mut attach {
            a.index = row_of[a.switch as usize];
        }
        let attachments = att_switch.len();

        // Switch hops from every switch to every attachment switch.
        const UNREACHED: u16 = u16::MAX;
        let mut dist = vec![UNREACHED; attachments * switches];
        let mut queue = Vec::with_capacity(switches);
        for (d, &root) in dist.chunks_exact_mut(switches.max(1)).zip(&att_switch) {
            queue.clear();
            d[root] = 0;
            queue.push(root);
            let mut head = 0;
            while let Some(&s) = queue.get(head) {
                head += 1;
                for &t in &peer[s * stride..(s + 1) * stride] {
                    if t != NONE && d[t as usize] == UNREACHED {
                        d[t as usize] = d[s] + 1;
                        queue.push(t as usize);
                    }
                }
            }
        }
        if let Some(i) = dist.iter().position(|&d| d == UNREACHED) {
            panic!(
                "switch {} has no path to switch {}, which has hosts",
                i % switches,
                att_switch[i / switches]
            );
        }

        // Candidate ports: any switch neighbor one hop closer, in port
        // order. At the attachment switch itself (distance 0) none is.
        let cands = |a: usize, s: usize| {
            let d = &dist[a * switches..(a + 1) * switches];
            peer[s * stride..(s + 1) * stride]
                .iter()
                .enumerate()
                .filter(move |&(_, &t)| t != NONE && d[t as usize] + 1 == d[s])
                .map(|(port, _)| port as u16)
        };
        let mut offsets = Vec::with_capacity(attachments * switches + 1);
        offsets.push(0u32);
        let mut total = 0u32;
        for a in 0..attachments {
            for s in 0..switches {
                total += cands(a, s).count() as u32;
                offsets.push(total);
            }
        }
        let mut port_pool = Vec::with_capacity(total as usize);
        for a in 0..attachments {
            for s in 0..switches {
                port_pool.extend(cands(a, s));
            }
        }

        let att_dist: Vec<u16> = (0..attachments * attachments)
            .map(|i| dist[(i % attachments) * switches + att_switch[i / attachments]] + 2)
            .collect();
        // Two hosts on one switch are two links apart; hosts on
        // different switches are farther.
        let shared_switch = attach.len() > attachments;
        let diameter_hops = (0..att_dist.len())
            .filter(|i| i / attachments != i % attachments)
            .map(|i| att_dist[i] as usize)
            .chain(shared_switch.then_some(2))
            .max()
            .unwrap_or(0);

        Routes {
            port_pool,
            offsets,
            attach,
            att_dist,
            attachments,
            switches,
            diameter_hops,
        }
    }

    /// Candidate ports for `(switch, dst_host)`: the host's own port at
    /// its attachment switch, else the pooled row toward that switch.
    #[inline]
    fn cands(&self, switch: usize, dst_host: usize) -> &[u16] {
        let at = &self.attach[dst_host];
        if at.switch as usize == switch {
            return std::slice::from_ref(&at.port);
        }
        let row = at.index as usize * self.switches + switch;
        let start = self.offsets[row] as usize;
        let end = self.offsets[row + 1] as usize;
        &self.port_pool[start..end]
    }

    /// Candidate ports stored over every (switch, attachment switch)
    /// pair: the table scenario validation sizes before anything is
    /// built.
    pub fn candidate_ports(&self) -> usize {
        self.port_pool.len()
    }

    /// Shortest-path length between two hosts, in links traversed
    /// (0 for `src == dst`).
    pub fn host_distance(&self, src: usize, dst: usize) -> usize {
        if src == dst {
            return 0;
        }
        let row = self.attach[src].index as usize * self.attachments;
        self.att_dist[row + self.attach[dst].index as usize] as usize
    }

    /// The ECMP-selected output port on `switch` toward `dst_host` for a
    /// flow carrying `ecmp_seed`.
    ///
    /// The hash mixes the seed with the switch id so one flow takes
    /// independent (but fixed) choices at each hop, like hashing a
    /// five-tuple with a switch-specific salt.
    #[inline]
    pub fn out_port(&self, switch: usize, dst_host: usize, ecmp_seed: u32) -> u16 {
        let cands = self.cands(switch, dst_host);
        if cands.len() == 1 {
            return cands[0];
        }
        let h = splitmix64((ecmp_seed as u64) << 32 | switch as u64);
        cands[(h % cands.len() as u64) as usize]
    }

    /// Per-packet spraying (§7 "Reordering due to load-balancing"):
    /// like [`Routes::out_port`] but mixes a per-packet `nonce` into the
    /// hash, so consecutive packets of one flow spread over all
    /// equal-cost paths (DRILL/packet-spray style schemes [20, 22]).
    pub fn out_port_spray(
        &self,
        switch: usize,
        dst_host: usize,
        ecmp_seed: u32,
        nonce: u32,
    ) -> u16 {
        let cands = self.cands(switch, dst_host);
        if cands.len() == 1 {
            return cands[0];
        }
        let h = splitmix64(((ecmp_seed as u64) << 32 | switch as u64) ^ ((nonce as u64) << 17));
        cands[(h % cands.len() as u64) as usize]
    }
}

/// The precomputed, topology-derived routing state a [`crate::Fabric`]
/// needs: the port map and link wiring plus the ECMP shortest-path
/// tables.
///
/// Both are pure functions of the [`Topology`]. Each fabric builds and
/// owns its own: at k=8 the build takes about a tenth of a millisecond.
#[derive(Debug)]
pub struct NetTables {
    /// Who is plugged into which switch port, over which link.
    pub ports: PortMap,
    /// ECMP shortest-path tables.
    pub routes: Routes,
}

impl NetTables {
    /// Validate `topo` and precompute its port map and routing tables.
    pub fn build(topo: &Topology) -> NetTables {
        topo.check();
        let ports = PortMap::new(topo);
        let routes = Routes::build(&ports);
        NetTables { ports, routes }
    }
}

/// SplitMix64: a tiny, high-quality 64-bit mixer (public domain), used
/// only for ECMP hashing — never for workload randomness.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn routes_for(topo: &Topology) -> (PortMap, Routes) {
        let ports = PortMap::new(topo);
        let routes = Routes::build(&ports);
        (ports, routes)
    }

    /// The neighbor on `port` of switch `sw`.
    fn neighbor(ports: &PortMap, sw: usize, port: u16) -> Endpoint {
        let link = ports.switch_out_link[sw * ports.port_stride + port as usize];
        ports.links[link as usize].dst
    }

    /// The per-destination-host build these tables replaced, kept as
    /// the reference: one BFS per host over its own port lists, a
    /// candidate `Vec` per `(switch, host)` and a hosts × hosts
    /// distance matrix.
    struct Oracle {
        next: Vec<Vec<Vec<u16>>>,
        host_dist: Vec<u16>,
        hosts: usize,
        diameter_hops: usize,
    }

    impl Oracle {
        fn build(topo: &Topology) -> Oracle {
            let s_count = topo.switches;
            let h_count = topo.hosts;
            // Port lists in cable order, straight from the topology.
            let mut switch_ports: Vec<Vec<NodeId>> = vec![Vec::new(); s_count];
            for c in &topo.cables {
                for (me, other) in [(c.a, c.b), (c.b, c.a)] {
                    if let NodeId::Switch(s) = me {
                        switch_ports[s as usize].push(other);
                    }
                }
            }
            let host_switch = |h: usize| {
                (0..s_count)
                    .find(|&s| switch_ports[s].contains(&NodeId::Host(h as u32)))
                    .unwrap()
            };
            let mut next = vec![vec![Vec::new(); h_count]; s_count];
            let mut host_dist = vec![0u16; h_count * h_count];
            let mut diameter = 0usize;
            for dst in 0..h_count {
                let attach_sw = host_switch(dst);
                let mut dist = vec![usize::MAX; s_count];
                let mut queue = std::collections::VecDeque::new();
                dist[attach_sw] = 1; // one link: edge switch → host
                queue.push_back(attach_sw);
                while let Some(s) = queue.pop_front() {
                    for n in &switch_ports[s] {
                        if let NodeId::Switch(t) = n {
                            let t = *t as usize;
                            if dist[t] == usize::MAX {
                                dist[t] = dist[s] + 1;
                                queue.push_back(t);
                            }
                        }
                    }
                }
                for s in 0..s_count {
                    for (port, n) in switch_ports[s].iter().enumerate() {
                        let closer = match n {
                            NodeId::Host(h) => *h as usize == dst,
                            NodeId::Switch(t) => {
                                let td = dist[*t as usize];
                                td != usize::MAX && td + 1 == dist[s]
                            }
                        };
                        if closer {
                            next[s][dst].push(port as u16);
                        }
                    }
                }
                for src in 0..h_count {
                    if src != dst {
                        let d = dist[host_switch(src)] + 1; // + host→edge link
                        host_dist[src * h_count + dst] = d as u16;
                        diameter = diameter.max(d);
                    }
                }
            }
            Oracle {
                next,
                host_dist,
                hosts: h_count,
                diameter_hops: diameter,
            }
        }

        fn pick(&self, switch: usize, dst: usize, key: u64) -> u16 {
            let cands = &self.next[switch][dst];
            if cands.len() == 1 {
                return cands[0];
            }
            cands[(splitmix64(key) % cands.len() as u64) as usize]
        }
    }

    #[test]
    fn attachment_keyed_tables_match_the_per_host_oracle() {
        let mut topos: Vec<Topology> = [2, 4, 6, 8, 10].map(Topology::fat_tree).into();
        topos.extend([2, 17].map(Topology::single_switch));
        topos.extend([(1, 1), (3, 5)].map(|(l, r)| Topology::dumbbell(l, r)));
        for t in &topos {
            let name = format!("{} hosts, {} switches", t.hosts, t.switches);
            let (_, routes) = routes_for(t);
            let oracle = Oracle::build(t);
            assert_eq!(routes.diameter_hops, oracle.diameter_hops, "{name}");
            for src in 0..t.hosts {
                for dst in 0..t.hosts {
                    assert_eq!(
                        routes.host_distance(src, dst),
                        oracle.host_dist[src * oracle.hosts + dst] as usize,
                        "{name}: distance {src} → {dst}"
                    );
                }
            }
            for s in 0..t.switches {
                for h in 0..t.hosts {
                    assert_eq!(
                        routes.cands(s, h),
                        oracle.next[s][h].as_slice(),
                        "{name}: switch {s} → host {h}"
                    );
                    for seed in [0, 1, 7, 0xdead_beef, u32::MAX] {
                        let key = (seed as u64) << 32 | s as u64;
                        assert_eq!(routes.out_port(s, h, seed), oracle.pick(s, h, key));
                        for nonce in [0, 1, 3, 1 << 30, u32::MAX] {
                            assert_eq!(
                                routes.out_port_spray(s, h, seed, nonce),
                                oracle.pick(s, h, key ^ ((nonce as u64) << 17)),
                                "{name}: switch {s} → host {h}, seed {seed}, nonce {nonce}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "switch 2 has no path to switch 0")]
    fn an_unreachable_switch_fails_the_build() {
        let mut t = Topology::custom(2, 3);
        t.wire_host(0, 0).wire_host(1, 1).wire_switches(0, 1);
        NetTables::build(&t);
    }

    #[test]
    fn wiring_tables_index_the_link_list() {
        let topos = [
            Topology::fat_tree(4),
            Topology::fat_tree(6),
            Topology::fat_tree(8),
            Topology::single_switch(5),
            Topology::dumbbell(2, 3),
        ];
        for t in &topos {
            let p = PortMap::new(t);
            assert_eq!(p.links.len(), 2 * t.cables.len());
            for c in 0..t.cables.len() {
                let (fwd, rev) = (p.links[2 * c], p.links[2 * c + 1]);
                assert_eq!((fwd.src, fwd.dst), (rev.dst, rev.src), "cable {c}");
            }
            let at = |sw: u32, port: u16| sw as usize * p.port_stride + port as usize;
            for (id, link) in p.links.iter().enumerate() {
                if let Endpoint::SwitchPort { sw, port } = link.src {
                    assert_eq!(p.switch_out_link[at(sw, port)], id as u32);
                }
                if let Endpoint::SwitchPort { sw, port } = link.dst {
                    assert_eq!(p.switch_in_link[at(sw, port)], id as u32);
                }
            }
            // Nothing but padding beside the links' own entries.
            let wired = |table: &[u32]| table.iter().filter(|&&l| l != NONE).count();
            let switch_ends = p.links.len() - t.hosts;
            assert_eq!(wired(&p.switch_out_link), switch_ends);
            assert_eq!(wired(&p.switch_in_link), switch_ends);
            for h in 0..t.hosts {
                let up = p.links[p.host_uplink[h] as usize];
                assert_eq!(up.src, Endpoint::Host(h as u32));
            }
            let max_radix = p.radix.iter().max().unwrap();
            assert_eq!(p.port_stride, *max_radix as usize);
        }
    }

    #[test]
    fn single_switch_routes_directly() {
        let t = Topology::single_switch(3);
        let (ports, routes) = routes_for(&t);
        assert_eq!(routes.diameter_hops, 2);
        for dst in 0..3 {
            let port = routes.out_port(0, dst, 99);
            assert_eq!(neighbor(&ports, 0, port), Endpoint::Host(dst as u32));
        }
    }

    #[test]
    fn dumbbell_crosses_the_bottleneck() {
        let t = Topology::dumbbell(2, 2);
        let (_, routes) = routes_for(&t);
        assert_eq!(routes.diameter_hops, 3);
        // From switch 0, hosts 2 and 3 must route via the inter-switch
        // port (the only non-host port on switch 0: port index 2).
        assert_eq!(routes.cands(0, 2), &[2]);
        assert_eq!(routes.cands(0, 3), &[2]);
    }

    #[test]
    fn fat_tree_k4_diameter_and_path_diversity() {
        let t = Topology::fat_tree(4);
        let (_, routes) = routes_for(&t);
        assert_eq!(routes.diameter_hops, 6);
        // From an edge switch, a host in a different pod has k/2 = 2
        // equal-cost uplinks.
        let edge_of_h0 = routes.attach[0].switch as usize;
        let far_host = t.hosts - 1;
        assert_eq!(routes.cands(edge_of_h0, far_host).len(), 2);
        // A host on the same switch has exactly one candidate (its port).
        assert_eq!(routes.cands(edge_of_h0, 1).len(), 1);
    }

    #[test]
    fn fat_tree_k6_diameter_matches_paper() {
        let t = Topology::fat_tree(6);
        let (_, routes) = routes_for(&t);
        assert_eq!(routes.diameter_hops, 6, "§4.1: longest path is 6 hops");
    }

    #[test]
    fn ecmp_is_deterministic_and_spreads() {
        let t = Topology::fat_tree(4);
        let (_, routes) = routes_for(&t);
        let edge = routes.attach[0].switch as usize;
        let dst = t.hosts - 1;
        // Deterministic: same seed, same port.
        let p1 = routes.out_port(edge, dst, 5);
        let p2 = routes.out_port(edge, dst, 5);
        assert_eq!(p1, p2);
        // Spreads: many seeds should cover all candidates.
        let cands = routes.cands(edge, dst);
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64 {
            seen.insert(routes.out_port(edge, dst, seed));
        }
        assert_eq!(seen.len(), cands.len(), "ECMP must use all candidate ports");
    }

    #[test]
    fn all_pairs_reachable_in_fat_tree() {
        let t = Topology::fat_tree(4);
        let (_, routes) = routes_for(&t);
        for s in 0..t.switches {
            for h in 0..t.hosts {
                assert!(
                    !routes.cands(s, h).is_empty(),
                    "switch {s} cannot reach host {h}"
                );
            }
        }
    }
}
