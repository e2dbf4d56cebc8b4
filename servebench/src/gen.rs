//! Seeded input generators: the query keys each connection sends and the
//! edge-update stream of the feed workload. Everything here is a pure
//! function of the run's `--seed`, so a stream can be regenerated after the
//! run to check the answers without storing the keys.

use std::collections::HashSet;
use wcsd_graph::{Graph, Quality, VertexId};

/// One `(s, t, w)` query key.
pub type Key = (VertexId, VertexId, Quality);

/// SplitMix64: small, fast, and good enough to drive load generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(mix(seed ^ mix(stream.wrapping_add(0x5EED))))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finaliser, also used to hash pool ranks into keys.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf(n, s) over ranks `1..=n` by rejection-inversion (Hörmann and
/// Derflinger), so no table of `n` probabilities is kept in memory.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: f64,
    s: f64,
    t: f64,
    q: f64,
}

impl Zipf {
    /// Zipf over `n` ranks with exponent `s > 0`, `s != 1`.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(s > 0.0 && s != 1.0, "exponent must be positive and not 1");
        let n = n as f64;
        let q = 1.0 / (1.0 - s);
        let t = (n.powf(1.0 - s) - s) * q;
        Self { n, s, t, q }
    }

    fn inv_cdf(&self, p: f64) -> f64 {
        let pt = p * self.t;
        if pt <= 1.0 {
            pt
        } else {
            (pt * (1.0 - self.s) + self.s).powf(self.q)
        }
    }

    /// A rank in `1..=n`; rank 1 is the most frequent.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        loop {
            let inv_b = self.inv_cdf(rng.unit());
            let x = (inv_b + 1.0).floor();
            let mut ratio = x.powf(-self.s);
            if x > 1.0 {
                ratio *= inv_b.powf(self.s);
            }
            if rng.unit() < ratio && x <= self.n {
                return x as u64;
            }
        }
    }
}

/// How a connection picks its keys.
#[derive(Debug, Clone)]
enum Pick {
    /// Every `(s, t, w)` equally likely.
    Uniform,
    /// Ranks drawn with Zipf skew from a fixed pool; rank `r` always maps
    /// to the same key for a given pool seed.
    Pool { zipf: Zipf, pool_seed: u64 },
}

/// The key stream of one connection. Cloning captures the position, so a
/// clone taken before the run replays exactly what the connection sent.
#[derive(Debug, Clone)]
pub struct KeyStream {
    rng: Rng,
    pick: Pick,
    n: u64,
    levels: Vec<Quality>,
}

impl KeyStream {
    /// Uniform keys over the vertices and distinct qualities of `g`.
    pub fn uniform(g: &Graph, seed: u64, stream: u64) -> Self {
        Self {
            rng: Rng::new(seed, stream),
            pick: Pick::Uniform,
            n: g.num_vertices() as u64,
            levels: g.distinct_qualities(),
        }
    }

    /// Zipf-skewed keys (exponent `s`) from a pool of `pool` keys that
    /// depends only on `seed`; `stream` only changes the draw order.
    pub fn zipf_pool(g: &Graph, seed: u64, stream: u64, pool: u64, s: f64) -> Self {
        Self {
            rng: Rng::new(seed, stream),
            pick: Pick::Pool { zipf: Zipf::new(pool, s), pool_seed: mix(seed ^ 0x9001) },
            n: g.num_vertices() as u64,
            levels: g.distinct_qualities(),
        }
    }

    /// The next key.
    pub fn next_key(&mut self) -> Key {
        match &self.pick {
            Pick::Uniform => {
                let s = self.rng.below(self.n) as VertexId;
                let t = self.rng.below(self.n) as VertexId;
                let w = self.levels[self.rng.below(self.levels.len() as u64) as usize];
                (s, t, w)
            }
            Pick::Pool { zipf, pool_seed } => {
                let rank = zipf.sample(&mut self.rng);
                let mut h = Rng::new(*pool_seed, rank);
                let s = h.below(self.n) as VertexId;
                let t = h.below(self.n) as VertexId;
                let w = self.levels[h.below(self.levels.len() as u64) as usize];
                (s, t, w)
            }
        }
    }

    /// The next `k` keys.
    pub fn take(&mut self, k: usize) -> Vec<Key> {
        (0..k).map(|_| self.next_key()).collect()
    }
}

/// Packs a key into one integer (vertex ids fit 24 bits, qualities 16).
pub fn pack(key: Key) -> u64 {
    ((key.0 as u64) << 40) | ((key.1 as u64) << 16) | key.2 as u64
}

/// One edge update of the feed workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Update {
    /// Insert the edge `(u, v)` with quality `q`.
    Add(VertexId, VertexId, Quality),
    /// Delete the edge `(u, v)`.
    Remove(VertexId, VertexId),
}

/// A seeded stream of update batches: two additions and one removal per
/// batch. Additions join two vertices two hops apart that are not yet
/// adjacent (a new local road); removals close a random road the stream
/// added earlier, so the graph drifts from the dataset by one local edge
/// per batch. Every update changes the graph and none is a no-op.
#[derive(Debug, Clone)]
pub struct UpdateStream {
    rng: Rng,
    adj: Vec<Vec<VertexId>>,
    added: Vec<(VertexId, VertexId)>,
    present: HashSet<(VertexId, VertexId)>,
    levels: Vec<Quality>,
}

impl UpdateStream {
    /// The stream for graph `g` and `seed`.
    pub fn new(g: &Graph, seed: u64) -> Self {
        let mut adj = vec![Vec::new(); g.num_vertices()];
        let mut present = HashSet::new();
        for e in g.edges() {
            adj[e.u as usize].push(e.v);
            adj[e.v as usize].push(e.u);
            present.insert(ordered(e.u, e.v));
        }
        let levels = g.distinct_qualities();
        Self { rng: Rng::new(seed, 0xFEED), adj, added: Vec::new(), present, levels }
    }

    /// The next batch: `[add, add, remove]`.
    pub fn next_batch(&mut self) -> Vec<Update> {
        vec![self.next_add(), self.next_add(), self.next_remove()]
    }

    fn next_add(&mut self) -> Update {
        loop {
            let u = self.rng.below(self.adj.len() as u64) as VertexId;
            let Some(&m) = pick(&mut self.rng, &self.adj[u as usize]) else { continue };
            let Some(&v) = pick(&mut self.rng, &self.adj[m as usize]) else { continue };
            if v == u || self.present.contains(&ordered(u, v)) {
                continue;
            }
            let q = self.levels[self.rng.below(self.levels.len() as u64) as usize];
            self.adj[u as usize].push(v);
            self.adj[v as usize].push(u);
            self.added.push(ordered(u, v));
            self.present.insert(ordered(u, v));
            return Update::Add(u, v, q);
        }
    }

    fn next_remove(&mut self) -> Update {
        let i = self.rng.below(self.added.len() as u64) as usize;
        let (u, v) = self.added.swap_remove(i);
        self.present.remove(&(u, v));
        self.adj[u as usize].retain(|&x| x != v);
        self.adj[v as usize].retain(|&x| x != u);
        Update::Remove(u, v)
    }
}

fn ordered(a: VertexId, b: VertexId) -> (VertexId, VertexId) {
    (a.min(b), a.max(b))
}

fn pick<'a, T>(rng: &mut Rng, items: &'a [T]) -> Option<&'a T> {
    if items.is_empty() {
        None
    } else {
        items.get(rng.below(items.len() as u64) as usize)
    }
}
