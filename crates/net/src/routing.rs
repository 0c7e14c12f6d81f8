//! Shortest-path routing tables with per-flow ECMP.
//!
//! The paper's experiments load-balance with ECMP (§4.1): each flow
//! hashes onto one of the equal-cost shortest paths to its destination
//! and stays there (no packet-level spraying, so reordering only comes
//! from loss — §7 discusses the alternative). This module precomputes,
//! for every `(switch, destination-host)` pair, the set of output ports
//! that lie on a shortest path, and provides the deterministic hash that
//! picks among them.

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

/// Port- and link-level view of a [`Topology`]: who is plugged into
/// which port, and which directed link joins them.
///
/// Port numbers follow cable order (the convention documented on
/// [`Topology`]): a switch's n-th cable occupies its port n. Cable `c`
/// is the directed links `2c` (a → b) and `2c + 1` (b → a). Every
/// other table here is an index over `links`.
#[derive(Debug, Clone)]
pub struct PortMap {
    /// For each switch, the neighbor on each port (indexed by port).
    pub switch_ports: Vec<Vec<NodeId>>,
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
        let mut switch_ports: Vec<Vec<NodeId>> = vec![Vec::new(); topo.switches];
        let mut links = Vec::with_capacity(topo.cables.len() * 2);

        for cable in &topo.cables {
            if let (NodeId::Host(a), NodeId::Host(b)) = (cable.a, cable.b) {
                panic!("direct host-host cable ({a}-{b}) is not supported");
            }
            // Each switch end takes that switch's next port.
            let [a, b] = [(cable.a, cable.b), (cable.b, cable.a)].map(|(me, other)| match me {
                NodeId::Host(h) => Endpoint::Host(h),
                NodeId::Switch(sw) => {
                    let ports = &mut switch_ports[sw as usize];
                    ports.push(other);
                    Endpoint::SwitchPort {
                        sw,
                        port: (ports.len() - 1) as u16,
                    }
                }
            });
            links.push(Link { src: a, dst: b });
            links.push(Link { src: b, dst: a });
        }

        let port_stride = switch_ports.iter().map(Vec::len).max().unwrap_or(0);
        let mut host_uplink = vec![u32::MAX; topo.hosts];
        let mut switch_out_link = vec![u32::MAX; topo.switches * port_stride];
        let mut switch_in_link = switch_out_link.clone();
        for (id, link) in links.iter().enumerate() {
            match link.src {
                Endpoint::Host(h) => {
                    assert_eq!(
                        host_uplink[h as usize],
                        u32::MAX,
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
        if let Some(h) = host_uplink.iter().position(|&l| l == u32::MAX) {
            panic!("host {h} is not attached to any switch");
        }

        PortMap {
            switch_ports,
            links,
            host_uplink,
            switch_out_link,
            switch_in_link,
            port_stride,
        }
    }

    /// Number of ports on switch `s`.
    pub fn radix(&self, s: usize) -> usize {
        self.switch_ports[s].len()
    }

    /// The edge switch host `h` is attached to.
    fn host_switch(&self, h: usize) -> usize {
        match self.links[self.host_uplink[h] as usize].dst {
            Endpoint::SwitchPort { sw, .. } => sw as usize,
            Endpoint::Host(_) => unreachable!("host-host cables are rejected"),
        }
    }
}

/// Precomputed ECMP routing state for one topology.
///
/// The candidate-port table is stored flat — one `u16` pool plus an
/// offset per `(switch, host)` — rather than `Vec<Vec<Vec<u16>>>`: the
/// lookup sits on the per-hop hot path, and two loads from contiguous
/// arrays beat three dependent pointer chases into per-pair heap
/// allocations.
#[derive(Debug, Clone)]
pub struct Routes {
    /// Candidate output ports on shortest paths, concatenated in
    /// `(switch, host)` row-major order.
    port_pool: Vec<u16>,
    /// `port_pool[offsets[s*hosts+h] .. offsets[s*hosts+h+1]]` = ports
    /// on shortest paths from switch `s` to host `h`.
    offsets: Vec<u32>,
    /// Flattened hosts×hosts matrix of shortest-path lengths in links.
    host_dist: Vec<u16>,
    hosts: usize,
    /// Longest shortest host-to-host path, in links traversed.
    pub diameter_hops: usize,
}

impl Routes {
    /// Compute shortest-path DAGs by BFS from every host.
    ///
    /// Complexity O(hosts × (switches + cables)) — instantaneous for
    /// every topology in the paper (≤ 250 hosts, ≤ 125 switches).
    pub fn build(topo: &Topology, ports: &PortMap) -> Routes {
        let s_count = topo.switches;
        let h_count = topo.hosts;

        // Switch-to-switch adjacency in port terms.
        // adj[s] = list of (port, neighbor switch) | (port, host).
        let mut next = vec![vec![Vec::new(); h_count]; s_count];
        let mut host_dist = vec![0u16; h_count * h_count];
        let mut diameter = 0usize;

        for dst in 0..h_count {
            // BFS over switches, seeded at the destination's edge switch.
            let attach_sw = ports.host_switch(dst);
            let mut dist = vec![usize::MAX; s_count];
            let mut queue = std::collections::VecDeque::new();
            dist[attach_sw] = 1; // one link: edge switch → host
            queue.push_back(attach_sw);
            while let Some(s) = queue.pop_front() {
                for n in &ports.switch_ports[s] {
                    if let NodeId::Switch(t) = n {
                        let t = *t as usize;
                        if dist[t] == usize::MAX {
                            dist[t] = dist[s] + 1;
                            queue.push_back(t);
                        }
                    }
                }
            }

            // Candidate ports: any neighbor strictly closer to dst.
            for s in 0..s_count {
                if dist[s] == usize::MAX {
                    continue; // unreachable: left empty, fabric will panic on use
                }
                let mut cands = Vec::new();
                for (port, n) in ports.switch_ports[s].iter().enumerate() {
                    let closer = match n {
                        NodeId::Host(h) => *h as usize == dst,
                        NodeId::Switch(t) => {
                            let td = dist[*t as usize];
                            td != usize::MAX && td + 1 == dist[s]
                        }
                    };
                    if closer {
                        cands.push(port as u16);
                    }
                }
                debug_assert!(!cands.is_empty(), "switch {s} has no route to host {dst}");
                next[s][dst] = cands;
            }

            // Host-to-host distance via each source host's edge switch.
            for src in 0..h_count {
                if src == dst {
                    continue;
                }
                let d = dist[ports.host_switch(src)] + 1; // + host→edge link
                host_dist[src * h_count + dst] = d as u16;
                diameter = diameter.max(d);
            }
        }

        // Flatten the per-pair candidate lists into the pooled layout.
        let mut port_pool = Vec::new();
        let mut offsets = Vec::with_capacity(s_count * h_count + 1);
        offsets.push(0u32);
        for row in &next {
            for cands in row {
                port_pool.extend_from_slice(cands);
                offsets.push(port_pool.len() as u32);
            }
        }

        Routes {
            port_pool,
            offsets,
            host_dist,
            hosts: h_count,
            diameter_hops: diameter,
        }
    }

    /// Candidate ports for `(switch, dst_host)` in the pooled table.
    #[inline]
    fn cands(&self, switch: usize, dst_host: usize) -> &[u16] {
        let base = switch * self.hosts + dst_host;
        let start = self.offsets[base] as usize;
        let end = self.offsets[base + 1] as usize;
        &self.port_pool[start..end]
    }

    /// Shortest-path length between two hosts, in links traversed
    /// (0 for `src == dst`).
    pub fn host_distance(&self, src: usize, dst: usize) -> usize {
        self.host_dist[src * self.hosts + dst] as usize
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
        assert!(
            !cands.is_empty(),
            "no route from switch {switch} to host {dst_host}"
        );
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
        assert!(
            !cands.is_empty(),
            "no route from switch {switch} to host {dst_host}"
        );
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
/// Both are pure functions of the [`Topology`], so one `NetTables` can
/// be shared (via `Arc`) by every fabric instantiated over the same
/// geometry — multi-seed replicates of one cell shape stop re-running
/// the per-destination BFS for every cell.
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
        let routes = Routes::build(topo, &ports);
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
        let routes = Routes::build(topo, &ports);
        (ports, routes)
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
            let wired = |table: &[u32]| table.iter().filter(|&&l| l != u32::MAX).count();
            let switch_ends = p.links.len() - t.hosts;
            assert_eq!(wired(&p.switch_out_link), switch_ends);
            assert_eq!(wired(&p.switch_in_link), switch_ends);
            for h in 0..t.hosts {
                let up = p.links[p.host_uplink[h] as usize];
                assert_eq!(up.src, Endpoint::Host(h as u32));
            }
            let max_radix = (0..t.switches).map(|s| p.radix(s)).max().unwrap();
            assert_eq!(p.port_stride, max_radix);
        }
    }

    #[test]
    fn single_switch_routes_directly() {
        let t = Topology::single_switch(3);
        let (ports, routes) = routes_for(&t);
        assert_eq!(routes.diameter_hops, 2);
        for dst in 0..3 {
            let port = routes.out_port(0, dst, 99);
            assert_eq!(
                ports.switch_ports[0][port as usize],
                NodeId::Host(dst as u32)
            );
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
        let (ports, routes) = routes_for(&t);
        assert_eq!(routes.diameter_hops, 6);
        // From an edge switch, a host in a different pod has k/2 = 2
        // equal-cost uplinks.
        let edge_of_h0 = ports.host_switch(0);
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
        let (ports, routes) = routes_for(&t);
        let edge = ports.host_switch(0);
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
