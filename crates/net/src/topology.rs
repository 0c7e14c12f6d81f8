//! Topology description and fat-tree construction.
//!
//! A [`Topology`] is a pure description — hosts, switches, and the
//! bidirectional cables between them — consumed by
//! [`Fabric::new`](crate::Fabric::new) to instantiate simulation state.
//!
//! The paper's default network (§4.1) is a three-tier fat-tree built from
//! 45 six-port switches in 6 pods serving 54 hosts; the robustness study
//! (Table 5) scales the same construction to k=8 (128 hosts) and k=10
//! (250 hosts). [`Topology::fat_tree`] implements the classic k-ary
//! construction [Al-Fahad et al., as cited via 16]: k pods each with k/2
//! edge and k/2 aggregation switches, (k/2)² core switches, and k²/4·k
//! hosts.

/// A node endpoint: either an endhost NIC or a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeId {
    /// An endhost (exactly one network port).
    Host(u32),
    /// A switch (as many ports as cables attached).
    Switch(u32),
}

/// One bidirectional cable between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cable {
    /// One end.
    pub a: NodeId,
    /// The other end.
    pub b: NodeId,
}

/// A network topology: node counts plus the cable list.
///
/// Port numbers are assigned implicitly: a switch's ports are numbered in
/// the order its cables appear in `cables`. Hosts must appear in exactly
/// one cable.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Number of endhosts.
    pub hosts: usize,
    /// Number of switches.
    pub switches: usize,
    /// All bidirectional cables.
    pub cables: Vec<Cable>,
}

impl Topology {
    /// An empty topology to be filled manually (tests, examples).
    pub fn custom(hosts: usize, switches: usize) -> Topology {
        Topology {
            hosts,
            switches,
            cables: Vec::new(),
        }
    }

    /// Connect host `h` to switch `s`.
    pub fn wire_host(&mut self, h: u32, s: u32) -> &mut Self {
        assert!((h as usize) < self.hosts && (s as usize) < self.switches);
        self.cables.push(Cable {
            a: NodeId::Host(h),
            b: NodeId::Switch(s),
        });
        self
    }

    /// Connect switch `x` to switch `y`.
    pub fn wire_switches(&mut self, x: u32, y: u32) -> &mut Self {
        assert!((x as usize) < self.switches && (y as usize) < self.switches);
        assert_ne!(x, y, "self-loops are not allowed");
        self.cables.push(Cable {
            a: NodeId::Switch(x),
            b: NodeId::Switch(y),
        });
        self
    }

    /// Two hosts attached to one switch — the smallest useful network.
    pub fn single_switch(hosts: usize) -> Topology {
        let mut t = Topology::custom(hosts, 1);
        for h in 0..hosts as u32 {
            t.wire_host(h, 0);
        }
        t
    }

    /// A dumbbell: `left` hosts on switch 0, `right` hosts on switch 1,
    /// one inter-switch cable — the canonical congestion scenario.
    pub fn dumbbell(left: usize, right: usize) -> Topology {
        let mut t = Topology::custom(left + right, 2);
        for h in 0..left as u32 {
            t.wire_host(h, 0);
        }
        for h in left as u32..(left + right) as u32 {
            t.wire_host(h, 1);
        }
        t.wire_switches(0, 1);
        t
    }

    /// The classic k-ary three-tier fat-tree (k even).
    ///
    /// * `k` pods, each with `k/2` edge switches and `k/2` aggregation
    ///   switches;
    /// * `(k/2)²` core switches;
    /// * `k/2` hosts per edge switch ⇒ [`fat_tree_hosts`] hosts total.
    ///
    /// `k = 6` reproduces the paper's default: 54 hosts, 45 switches,
    /// 6 pods, full bisection bandwidth, longest host-to-host path 6 hops.
    ///
    /// Switch numbering: edges first (pod-major), then aggregations
    /// (pod-major), then cores.
    pub fn fat_tree(k: usize) -> Topology {
        assert!(k >= 2 && k % 2 == 0, "fat-tree arity must be even, got {k}");
        let half = k / 2;
        let pods = k;
        let edges = pods * half;
        let aggs = pods * half;
        let cores = half * half;
        let hosts = fat_tree_hosts(k);
        debug_assert_eq!(hosts, edges * half, "host arithmetic must agree");

        let edge_id = |pod: usize, i: usize| (pod * half + i) as u32;
        let agg_id = |pod: usize, i: usize| (edges + pod * half + i) as u32;
        let core_id = |i: usize, j: usize| (edges + aggs + i * half + j) as u32;

        let mut t = Topology::custom(hosts, edges + aggs + cores);

        // Hosts to edge switches.
        let mut h = 0u32;
        for pod in 0..pods {
            for e in 0..half {
                for _ in 0..half {
                    t.wire_host(h, edge_id(pod, e));
                    h += 1;
                }
            }
        }
        // Edge to aggregation (full bipartite within a pod).
        for pod in 0..pods {
            for e in 0..half {
                for a in 0..half {
                    t.wire_switches(edge_id(pod, e), agg_id(pod, a));
                }
            }
        }
        // Aggregation to core: agg `a` of each pod connects to core group
        // `a` (cores a*half .. a*half+half).
        for pod in 0..pods {
            for a in 0..half {
                for j in 0..half {
                    t.wire_switches(agg_id(pod, a), core_id(a, j));
                }
            }
        }
        t
    }

    /// The host attached to nothing is a configuration bug; validate all
    /// invariants and panic with a description if violated.
    pub fn check(&self) {
        let mut host_deg = vec![0usize; self.hosts];
        for c in &self.cables {
            for n in [c.a, c.b] {
                match n {
                    NodeId::Host(h) => {
                        assert!((h as usize) < self.hosts, "host {h} out of range");
                        host_deg[h as usize] += 1;
                    }
                    NodeId::Switch(s) => {
                        assert!((s as usize) < self.switches, "switch {s} out of range");
                    }
                }
            }
        }
        for (h, d) in host_deg.iter().enumerate() {
            assert_eq!(*d, 1, "host {h} must have exactly one cable, has {d}");
        }
    }
}

/// Host count of the k-ary fat-tree [`Topology::fat_tree`] builds:
/// `k` pods × `k/2` edge switches × `k/2` hosts = `k³/4`.
///
/// The **one** definition of the fat-tree host arithmetic — the builder
/// and every host-count predictor (e.g. `TopologySpec::hosts`) derive
/// from it, so a prediction can never drift from what gets built.
pub const fn fat_tree_hosts(k: usize) -> usize {
    k * (k / 2) * (k / 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fat_tree_k6_matches_paper_default() {
        // §4.1: 54 servers, 45 switches (6-port), 6 pods.
        let t = Topology::fat_tree(6);
        t.check();
        assert_eq!(t.hosts, 54);
        assert_eq!(t.switches, 45);
        // Every switch in a k-ary fat-tree has exactly k ports.
        let mut deg = vec![0usize; t.switches];
        for c in &t.cables {
            for n in [c.a, c.b] {
                if let NodeId::Switch(s) = n {
                    deg[s as usize] += 1;
                }
            }
        }
        assert!(deg.iter().all(|&d| d == 6), "all switches must be 6-port");
    }

    #[test]
    fn fat_tree_scales_match_table5() {
        // Table 5: scale-out factors 8 and 10 give 128 and 250 servers.
        assert_eq!(Topology::fat_tree(8).hosts, 128);
        assert_eq!(Topology::fat_tree(8).switches, 80);
        assert_eq!(Topology::fat_tree(10).hosts, 250);
        assert_eq!(Topology::fat_tree(10).switches, 125);
    }

    #[test]
    fn fat_tree_cable_count() {
        // k^3/4 host links + k*(k/2)^2 edge-agg + k*(k/2)^2 agg-core.
        let k = 6;
        let t = Topology::fat_tree(k);
        let expect = k * k * k / 4 + 2 * k * (k / 2) * (k / 2);
        assert_eq!(t.cables.len(), expect);
    }

    #[test]
    fn single_switch_and_dumbbell() {
        let t = Topology::single_switch(4);
        t.check();
        assert_eq!((t.hosts, t.switches, t.cables.len()), (4, 1, 4));
        let d = Topology::dumbbell(3, 2);
        d.check();
        assert_eq!((d.hosts, d.switches, d.cables.len()), (5, 2, 6));
    }

    #[test]
    #[should_panic]
    fn odd_arity_panics() {
        Topology::fat_tree(5);
    }

    #[test]
    #[should_panic]
    fn dangling_host_fails_validation() {
        Topology::custom(1, 1).check();
    }
}
