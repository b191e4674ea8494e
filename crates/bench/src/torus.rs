//! Blue Gene-style torus interconnect cost model.
//!
//! The paper's platform connects each Blue Gene/Q node "to other nodes in
//! a five-dimensional torus through 10 bidirectional 2 GB/second links"
//! (§VI-A) and argues from measured traffic that Compass's data volume
//! "is well below the interconnect bandwidth of the communication
//! subsystem" (Fig. 4b: 0.44 GB per tick across the machine vs 2 GB/s per
//! link). To reproduce that *headroom analysis* — not just the message
//! counts — this module models the torus: rank→coordinate embedding,
//! deterministic dimension-ordered routing, and per-link byte accounting,
//! from which the benchmark harness derives peak-link utilization.
//!
//! The model is a cost model, not a packet simulator: messages charge
//! their byte count to every link on their route, which is exactly the
//! accounting needed for bandwidth-headroom claims (contention and
//! adaptive routing would only *lower* per-link peaks on a real torus).

use compass_comm::Rank;

/// A d-dimensional torus with fixed per-dimension extents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Torus {
    dims: Vec<usize>,
}

/// One directed link: from a node, along a dimension, in a direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    /// Source node rank.
    pub from: Rank,
    /// Dimension index the hop travels along.
    pub dim: usize,
    /// `+1` hop (true) or `-1` hop (false), with wraparound.
    pub positive: bool,
}

impl Torus {
    /// Creates a torus with the given per-dimension extents.
    ///
    /// # Panics
    /// Panics if any extent is zero or there are no dimensions.
    pub fn new(dims: Vec<usize>) -> Self {
        assert!(!dims.is_empty(), "torus needs at least one dimension");
        assert!(dims.iter().all(|&d| d >= 1), "extents must be positive");
        Self { dims }
    }

    /// A compact near-cubic torus that embeds at least `nodes` nodes in
    /// `ndims` dimensions — how a scheduler would shape a partition.
    pub fn fitting(nodes: usize, ndims: usize) -> Self {
        assert!(ndims >= 1 && nodes >= 1);
        let mut dims = vec![1usize; ndims];
        // Grow the smallest extent until capacity suffices.
        while dims.iter().product::<usize>() < nodes {
            let i = (0..ndims).min_by_key(|&i| dims[i]).expect("ndims >= 1");
            dims[i] += 1;
        }
        Self::new(dims)
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Total nodes in the torus.
    pub fn nodes(&self) -> usize {
        self.dims.iter().product()
    }

    /// Directed links in the torus (each node has `2 × ndims`, except that
    /// extent-1 and extent-2 dimensions fold duplicates together).
    pub fn links(&self) -> usize {
        // Count distinct (node, dim, dir) with extent > 1; for extent 2 the
        // +1 and -1 hops reach the same neighbor over distinct wires on
        // real hardware, so they stay distinct here too.
        let per_node: usize = self.dims.iter().map(|&e| if e == 1 { 0 } else { 2 }).sum();
        per_node * self.nodes()
    }

    /// The coordinates of `rank` (row-major embedding).
    ///
    /// # Panics
    /// Panics if `rank` is outside the torus.
    pub fn coords(&self, rank: Rank) -> Vec<usize> {
        assert!(rank < self.nodes(), "rank {rank} outside torus");
        let mut rest = rank;
        let mut out = Vec::with_capacity(self.ndims());
        for &e in self.dims.iter().rev() {
            out.push(rest % e);
            rest /= e;
        }
        out.reverse();
        out
    }

    /// The rank at `coords`.
    ///
    /// # Panics
    /// Panics on dimension mismatch or out-of-range coordinates.
    pub fn rank_at(&self, coords: &[usize]) -> Rank {
        assert_eq!(coords.len(), self.ndims(), "coordinate arity mismatch");
        let mut rank = 0usize;
        for (&c, &e) in coords.iter().zip(&self.dims) {
            assert!(c < e, "coordinate {c} outside extent {e}");
            rank = rank * e + c;
        }
        rank
    }

    /// Minimal hop count between two ranks (per-dimension shortest way
    /// around the ring).
    pub fn distance(&self, a: Rank, b: Rank) -> usize {
        let ca = self.coords(a);
        let cb = self.coords(b);
        ca.iter()
            .zip(&cb)
            .zip(&self.dims)
            .map(|((&x, &y), &e)| {
                let d = x.abs_diff(y);
                d.min(e - d)
            })
            .sum()
    }

    /// The deterministic dimension-ordered minimal route from `a` to `b`,
    /// as the sequence of directed links traversed (ties between the two
    /// ring directions break toward `+1`).
    pub fn route(&self, a: Rank, b: Rank) -> Vec<Link> {
        let mut at = self.coords(a);
        let target = self.coords(b);
        let mut links = Vec::new();
        for dim in 0..self.ndims() {
            let e = self.dims[dim];
            while at[dim] != target[dim] {
                let up = (target[dim] + e - at[dim]) % e; // hops going +1
                let positive = up <= e - up;
                let from = self.rank_at(&at);
                links.push(Link {
                    from,
                    dim,
                    positive,
                });
                at[dim] = if positive {
                    (at[dim] + 1) % e
                } else {
                    (at[dim] + e - 1) % e
                };
            }
        }
        links
    }
}

/// Per-link byte accounting over a torus.
#[derive(Debug, Clone)]
pub struct LinkLoads {
    torus: Torus,
    /// Bytes charged per directed link, keyed densely by
    /// `(from * ndims + dim) * 2 + positive`.
    bytes: Vec<u64>,
}

impl LinkLoads {
    /// Creates a zeroed load map for `torus`.
    pub fn new(torus: Torus) -> Self {
        let slots = torus.nodes() * torus.ndims() * 2;
        Self {
            torus,
            bytes: vec![0; slots],
        }
    }

    fn slot(&self, link: Link) -> usize {
        (link.from * self.torus.ndims() + link.dim) * 2 + usize::from(link.positive)
    }

    /// Charges a `bytes`-byte message from rank `a` to rank `b` along its
    /// dimension-ordered route.
    pub fn charge(&mut self, a: Rank, b: Rank, bytes: u64) {
        for link in self.torus.route(a, b) {
            let slot = self.slot(link);
            self.bytes[slot] += bytes;
        }
    }

    /// Bytes carried by one specific link.
    pub fn link_bytes(&self, link: Link) -> u64 {
        self.bytes[self.slot(link)]
    }

    /// The busiest link's byte count.
    pub fn peak(&self) -> u64 {
        self.bytes.iter().copied().max().unwrap_or(0)
    }

    /// Total bytes × hops moved (the network's aggregate work).
    pub fn total_byte_hops(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// The underlying torus.
    pub fn torus(&self) -> &Torus {
        &self.torus
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        let t = Torus::new(vec![3, 4, 5]);
        assert_eq!(t.nodes(), 60);
        for r in 0..60 {
            assert_eq!(t.rank_at(&t.coords(r)), r);
        }
    }

    #[test]
    fn fitting_covers_requested_nodes() {
        for nodes in [1usize, 2, 7, 16, 100] {
            for nd in [1usize, 2, 3, 5] {
                let t = Torus::fitting(nodes, nd);
                assert!(t.nodes() >= nodes, "{nodes} in {nd}d");
                assert_eq!(t.ndims(), nd);
            }
        }
    }

    #[test]
    fn fitting_is_near_cubic() {
        let t = Torus::fitting(64, 3);
        assert_eq!(t.nodes(), 64);
        // 4x4x4 is the cube.
        assert_eq!(t.coords(63), vec![3, 3, 3]);
    }

    #[test]
    fn distance_is_shortest_way_around() {
        let t = Torus::new(vec![8]);
        assert_eq!(t.distance(0, 1), 1);
        assert_eq!(t.distance(0, 7), 1, "wraps around");
        assert_eq!(t.distance(0, 4), 4);
        assert_eq!(t.distance(2, 6), 4);
    }

    #[test]
    fn distance_sums_over_dimensions() {
        let t = Torus::new(vec![4, 4]);
        let a = t.rank_at(&[0, 0]);
        let b = t.rank_at(&[3, 2]);
        assert_eq!(t.distance(a, b), 1 + 2);
    }

    #[test]
    fn route_length_matches_distance_and_reaches_target() {
        let t = Torus::new(vec![3, 5, 2]);
        for a in 0..t.nodes() {
            for b in 0..t.nodes() {
                let route = t.route(a, b);
                assert_eq!(route.len(), t.distance(a, b), "{a}->{b}");
                // Walk the route.
                let mut at = t.coords(a);
                for link in &route {
                    assert_eq!(link.from, t.rank_at(&at), "route continuity");
                    let e = t.dims[link.dim];
                    at[link.dim] = if link.positive {
                        (at[link.dim] + 1) % e
                    } else {
                        (at[link.dim] + e - 1) % e
                    };
                }
                assert_eq!(t.rank_at(&at), b, "route arrives");
            }
        }
    }

    #[test]
    fn self_route_is_empty() {
        let t = Torus::new(vec![4, 4]);
        assert!(t.route(5, 5).is_empty());
        assert_eq!(t.distance(5, 5), 0);
    }

    #[test]
    fn charge_accumulates_on_shared_links() {
        let t = Torus::new(vec![4]);
        let mut loads = LinkLoads::new(t);
        // 0 -> 2 passes through 0->1 and 1->2.
        loads.charge(0, 2, 100);
        loads.charge(0, 1, 50);
        let first_hop = Link {
            from: 0,
            dim: 0,
            positive: true,
        };
        assert_eq!(loads.link_bytes(first_hop), 150);
        assert_eq!(loads.peak(), 150);
        assert_eq!(loads.total_byte_hops(), 100 * 2 + 50);
    }

    #[test]
    fn wraparound_direction_choice() {
        let t = Torus::new(vec![8]);
        // 0 -> 7 should go the short way (negative hop from 0).
        let route = t.route(0, 7);
        assert_eq!(route.len(), 1);
        assert!(!route[0].positive);
    }

    #[test]
    fn link_count_formula() {
        assert_eq!(Torus::new(vec![4, 4]).links(), 4 * 16);
        assert_eq!(Torus::new(vec![1, 4]).links(), 2 * 4);
        // BG/Q-style 5D torus: 10 links per node.
        let bgq = Torus::new(vec![2, 2, 2, 2, 2]);
        assert_eq!(bgq.links(), 10 * 32);
    }

    #[test]
    #[should_panic(expected = "outside torus")]
    fn coords_rejects_out_of_range() {
        Torus::new(vec![2, 2]).coords(4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_torus() -> impl Strategy<Value = Torus> {
        proptest::collection::vec(1usize..5, 1..4).prop_map(Torus::new)
    }

    proptest! {
        /// Distance is a metric: symmetric, zero iff equal, triangle
        /// inequality.
        #[test]
        fn distance_is_a_metric(t in arb_torus(), seed in proptest::num::u64::ANY) {
            let n = t.nodes();
            let a = (seed % n as u64) as usize;
            let b = ((seed >> 16) % n as u64) as usize;
            let c = ((seed >> 32) % n as u64) as usize;
            prop_assert_eq!(t.distance(a, b), t.distance(b, a));
            prop_assert_eq!(t.distance(a, a), 0);
            prop_assert!(t.distance(a, c) <= t.distance(a, b) + t.distance(b, c));
        }

        /// Every route is minimal and arrives.
        #[test]
        fn routes_are_minimal(t in arb_torus(), seed in proptest::num::u64::ANY) {
            let n = t.nodes();
            let a = (seed % n as u64) as usize;
            let b = ((seed >> 20) % n as u64) as usize;
            let route = t.route(a, b);
            prop_assert_eq!(route.len(), t.distance(a, b));
        }
    }
}
