//! Parity of the placement kernels with the algorithms they replaced.
//!
//! `IncrementalRank` tests rows against an orthonormal basis of the
//! complement of the accepted span, and `yen_k_shortest` runs its spur
//! searches as bounded, goal-directed id-ordered BFS in a reusable
//! `KShortest` workspace. Both must make exactly the decisions of
//! the implementations kept in [`reference`] — a modified Gram-Schmidt
//! row basis and a Yen over a `(distance, node)`-heap Dijkstra — so every
//! placement, and with it every seed-42 artifact, stays byte-identical.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use scapegoat_tomography::core::placement::{random_placement, PlacementConfig};
use scapegoat_tomography::core::selection::path_row;
use scapegoat_tomography::graph::rocketfuel::from_cch_file;
use scapegoat_tomography::graph::shortest::KShortest;
use scapegoat_tomography::graph::{isp, rgg, shortest, waxman, Graph, NodeId};
use scapegoat_tomography::linalg::rank::IncrementalRank;
use scapegoat_tomography::linalg::Vector;
use scapegoat_tomography::par::Executor;
use scapegoat_tomography::sim::fig7::{self, Fig7Config};

/// The implementations `IncrementalRank` and `yen_k_shortest` replaced,
/// verbatim in behaviour.
mod reference {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    use scapegoat_tomography::graph::{Graph, NodeId, Path};
    use scapegoat_tomography::linalg::{norms, Vector, DEFAULT_TOL};

    /// Orthonormal row basis grown by two-pass modified Gram-Schmidt.
    pub struct MgsRank {
        basis: Vec<Vector>,
    }

    impl MgsRank {
        pub fn new() -> Self {
            MgsRank { basis: Vec::new() }
        }

        pub fn rank(&self) -> usize {
            self.basis.len()
        }

        pub fn try_add(&mut self, row: &Vector) -> bool {
            let scale = norms::l2(row);
            if scale == 0.0 {
                return false;
            }
            let mut r = row.clone();
            for pass in 0..2 {
                for q in &self.basis {
                    let c = r.dot(q).unwrap();
                    if c != 0.0 {
                        r.axpy_in_place(-c, q).unwrap();
                    }
                }
                if pass == 0 && norms::l2(&r) <= DEFAULT_TOL * (1.0 + scale) {
                    return false;
                }
            }
            let norm = norms::l2(&r);
            if norm <= DEFAULT_TOL * (1.0 + scale) {
                return false;
            }
            self.basis.push(r.scaled(1.0 / norm));
            true
        }
    }

    #[derive(PartialEq)]
    struct HeapEntry {
        dist: f64,
        node: NodeId,
    }

    impl Eq for HeapEntry {}

    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .dist
                .partial_cmp(&self.dist)
                .unwrap_or(Ordering::Equal)
                .then_with(|| other.node.cmp(&self.node))
        }
    }

    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// Unit-weight Dijkstra with node and link bans.
    fn dijkstra(
        graph: &Graph,
        source: NodeId,
        target: NodeId,
        banned_nodes: &[bool],
        banned_links: &[bool],
    ) -> Option<Path> {
        if banned_nodes[source.index()] || banned_nodes[target.index()] {
            return None;
        }
        let n = graph.num_nodes();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<NodeId>> = vec![None; n];
        let mut done = vec![false; n];
        dist[source.index()] = 0.0;
        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry {
            dist: 0.0,
            node: source,
        });
        while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
            if done[u.index()] {
                continue;
            }
            done[u.index()] = true;
            if u == target {
                break;
            }
            for &(v, l) in graph.neighbors(u).unwrap() {
                if done[v.index()] || banned_nodes[v.index()] || banned_links[l.index()] {
                    continue;
                }
                let nd = d + 1.0;
                if nd < dist[v.index()] {
                    dist[v.index()] = nd;
                    prev[v.index()] = Some(u);
                    heap.push(HeapEntry { dist: nd, node: v });
                }
            }
        }
        if dist[target.index()].is_infinite() {
            return None;
        }
        let mut nodes = vec![target];
        let mut cur = target;
        while cur != source {
            cur = prev[cur.index()].unwrap();
            nodes.push(cur);
        }
        nodes.reverse();
        Some(Path::from_nodes(graph, &nodes).unwrap())
    }

    /// Yen's k shortest loopless paths over [`dijkstra`].
    pub fn yen(graph: &Graph, source: NodeId, target: NodeId, k: usize) -> Vec<Path> {
        let mut result: Vec<Path> = Vec::new();
        let no_nodes = vec![false; graph.num_nodes()];
        let no_links = vec![false; graph.num_links()];
        if k == 0 {
            return result;
        }
        let Some(first) = dijkstra(graph, source, target, &no_nodes, &no_links) else {
            return result;
        };
        result.push(first);
        let mut candidates: Vec<Path> = Vec::new();
        while result.len() < k {
            let last = result.last().unwrap().clone();
            for spur_idx in 0..last.nodes().len() - 1 {
                let spur_node = last.nodes()[spur_idx];
                let root_nodes = &last.nodes()[..=spur_idx];
                let mut banned_links = no_links.clone();
                let mut banned_nodes = no_nodes.clone();
                for p in &result {
                    if p.nodes().len() > spur_idx && p.nodes()[..=spur_idx] == *root_nodes {
                        if let Some(&l) = p.links().get(spur_idx) {
                            banned_links[l.index()] = true;
                        }
                    }
                }
                for &n in &root_nodes[..spur_idx] {
                    banned_nodes[n.index()] = true;
                }
                if let Some(spur) = dijkstra(graph, spur_node, target, &banned_nodes, &banned_links)
                {
                    let mut nodes = root_nodes[..spur_idx].to_vec();
                    nodes.extend_from_slice(spur.nodes());
                    if let Ok(total) = Path::from_nodes(graph, &nodes) {
                        if !result.contains(&total) && !candidates.contains(&total) {
                            candidates.push(total);
                        }
                    }
                }
            }
            if candidates.is_empty() {
                break;
            }
            candidates.sort_by(|a, b| {
                a.num_links()
                    .cmp(&b.num_links())
                    .then_with(|| a.nodes().cmp(b.nodes()))
            });
            result.push(candidates.remove(0));
        }
        result
    }
}

/// Runs `random_placement`'s loop with both kernel pairs side by side,
/// asserting every Yen path list and every rank verdict agrees. With no
/// monitor cap the loop runs to full rank and `random_placement` itself
/// must then pick the same monitors and paths. Returns the rows tested.
fn lockstep_placement(graph: &Graph, seed: u64, cap: Option<usize>, label: &str) -> usize {
    let config = PlacementConfig::default();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut order: Vec<NodeId> = graph.nodes().collect();
    order.shuffle(&mut rng);
    let num_links = graph.num_links();
    let mut fast = IncrementalRank::new(num_links);
    let mut slow = reference::MgsRank::new();
    let mut monitors: Vec<NodeId> = Vec::new();
    let (mut chosen, mut skipped) = (Vec::new(), Vec::new());
    let mut rows = 0;
    for &candidate in order.iter().take(cap.unwrap_or(usize::MAX)) {
        for &existing in &monitors {
            let paths = shortest::yen_k_shortest(graph, existing, candidate, config.paths_per_pair)
                .unwrap();
            let expected = reference::yen(graph, existing, candidate, config.paths_per_pair);
            assert_eq!(paths, expected, "{label}: Yen {existing}->{candidate}");
            for p in paths {
                let row = path_row(&p, num_links);
                let verdict = fast.try_add(&row);
                assert_eq!(verdict, slow.try_add(&row), "{label}: row {rows}");
                rows += 1;
                if verdict {
                    chosen.push(p);
                } else {
                    skipped.push(p);
                }
            }
        }
        monitors.push(candidate);
        assert_eq!(fast.rank(), slow.rank(), "{label}");
        if fast.is_full() {
            break;
        }
    }
    if cap.is_some() {
        return rows;
    }
    assert!(fast.is_full(), "{label}: placement never reached full rank");
    let extra = ((num_links as f64) * config.redundancy_fraction).floor() as usize;
    chosen.extend(skipped.into_iter().take(extra));
    let system = random_placement(graph, &config, &mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
    monitors.sort(); // `TomographySystem` keeps its monitors sorted
    assert_eq!(system.monitors(), monitors.as_slice(), "{label}: monitors");
    assert_eq!(system.paths(), chosen.as_slice(), "{label}: paths");
    rows
}

// One system at the size fig. 7 uses (100 nodes, 150-250 links) and
// fifteen smaller ones per family; the references make a full-size
// placement cost about two seconds.

#[test]
fn isp_placements_match_reference() {
    let small = isp::IspConfig {
        backbone_nodes: 6,
        backbone_chords: 3,
        access_nodes: 30,
        ..isp::IspConfig::default()
    };
    for seed in 0..16 {
        let config = if seed == 0 {
            isp::IspConfig::default()
        } else {
            small.clone()
        };
        let g = isp::generate(&config, &mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
        lockstep_placement(&g, seed + 100, None, &format!("isp seed {seed}"));
    }
}

#[test]
fn rgg_placements_match_reference() {
    for seed in 0..16 {
        let config = rgg::RggConfig {
            num_nodes: if seed == 0 { 100 } else { 40 },
            ..rgg::RggConfig::default()
        };
        let topo = config
            .generate(&mut ChaCha8Rng::seed_from_u64(seed))
            .unwrap();
        lockstep_placement(&topo.graph, seed + 200, None, &format!("rgg seed {seed}"));
    }
}

#[test]
fn waxman_placements_match_reference() {
    // The default 100-node Waxman graph has ~850 links, which makes the
    // reference Gram-Schmidt alone take 20 s; 40 nodes give ~140 links.
    for seed in 0..16 {
        let config = waxman::WaxmanConfig {
            num_nodes: 40,
            ..waxman::WaxmanConfig::default()
        };
        let g = waxman::generate(&config, &mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
        lockstep_placement(&g, seed + 300, None, &format!("waxman seed {seed}"));
    }
}

#[test]
fn rocketfuel_placement_matches_reference() {
    // Placement on the fixture needs all 255 routers as monitors and tests
    // ~190k rows, ~40 s against the references; the first 80 monitors
    // give ~19k rows over the same pools.
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/as65530.cch");
    let g = from_cch_file(std::path::Path::new(fixture)).unwrap();
    let rows = lockstep_placement(&g, 42, Some(80), "as65530 seed 42");
    assert!(rows > g.num_links());
}

/// A small seeded graph of one family — 0 ISP, 1 RGG, 2 Waxman — at a
/// size where the reference Yen stays cheap.
fn family_graph(family: u64, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    match family {
        0 => {
            let config = isp::IspConfig {
                backbone_nodes: 6,
                backbone_chords: 3,
                access_nodes: 30,
                ..isp::IspConfig::default()
            };
            isp::generate(&config, &mut rng).unwrap()
        }
        1 => {
            let config = rgg::RggConfig {
                num_nodes: 40,
                ..rgg::RggConfig::default()
            };
            config.generate(&mut rng).unwrap().graph
        }
        _ => {
            let config = waxman::WaxmanConfig {
                num_nodes: 40,
                ..waxman::WaxmanConfig::default()
            };
            waxman::generate(&config, &mut rng).unwrap()
        }
    }
}

/// One `KShortest` reused across changing targets returns exactly what
/// fresh calls (and the reference) return: the cached distances to the
/// target must follow the target.
#[test]
fn reused_workspace_matches_fresh_calls_across_targets() {
    for family in 0..3 {
        for seed in 0..6 {
            let g = family_graph(family, seed);
            let mut rng = ChaCha8Rng::seed_from_u64(seed + 400);
            let mut picked: Vec<NodeId> = g.nodes().collect();
            picked.shuffle(&mut rng);
            let [a, b, c, d, t1, t2, ..] = picked[..] else {
                panic!("family {family} seed {seed}: fewer than 6 nodes");
            };
            let mut yen = KShortest::new(&g);
            for (s, t) in [(a, t1), (b, t1), (c, t2), (d, t1), (t1, t2), (t2, a)] {
                let reused = yen.paths(s, t, 8).unwrap();
                assert_eq!(
                    reused,
                    shortest::yen_k_shortest(&g, s, t, 8).unwrap(),
                    "family {family} seed {seed}: {s}->{t}"
                );
                assert_eq!(reused, reference::yen(&g, s, t, 8), "{s}->{t}");
            }
        }
    }
}

/// The committed Fig. 7 artifact (`tomo-sim run fig7 --seed 42`) is
/// reproduced byte for byte: six default placements feed it, so any
/// changed path choice shows here.
#[test]
fn fig7_artifact_is_pinned() {
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/artifacts/fig7.json"))
            .unwrap();
    let result = fig7::run(42, &Fig7Config::default(), &Executor::new(2)).unwrap();
    assert!(
        serde_json::to_string_pretty(&result).unwrap() == committed,
        "fig7::run seed 42 differs from artifacts/fig7.json"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The bounded, pruned Yen returns the reference's paths, path for
    /// path, on ISP, RGG and Waxman graphs, for random pairs that often
    /// end at a leaf and every `k` in 1..=12.
    #[test]
    fn bounded_yen_matches_reference(seed in 0u64..100_000) {
        let g = family_graph(seed % 3, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let leaves: Vec<NodeId> = g.nodes().filter(|&v| g.degree(v).unwrap() == 1).collect();
        let pick = |rng: &mut ChaCha8Rng| match leaves.choose(rng) {
            Some(&leaf) if rng.gen_bool(0.4) => leaf,
            _ => NodeId(rng.gen_range(0..g.num_nodes())),
        };
        for _ in 0..8 {
            let (s, t) = (pick(&mut rng), pick(&mut rng));
            if s == t {
                continue;
            }
            let k = rng.gen_range(1..=12);
            prop_assert_eq!(
                shortest::yen_k_shortest(&g, s, t, k).unwrap(),
                reference::yen(&g, s, t, k),
                "family {} {}->{} k={}", seed % 3, s, t, k
            );
        }
    }

    /// Random 0/1 rows interleaved with exact sums of accepted rows: both
    /// trackers give the same verdict on every row, and every sum is
    /// rejected.
    #[test]
    fn rank_verdicts_match_reference(seed in 0u64..100_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = rng.gen_range(2usize..60);
        let density = rng.gen_range(0.05..0.5);
        let mut fast = IncrementalRank::new(n);
        let mut slow = reference::MgsRank::new();
        let mut accepted: Vec<Vec<f64>> = Vec::new();
        for i in 0..3 * n {
            let sum_row = !accepted.is_empty() && rng.gen_bool(0.4);
            let row: Vec<f64> = if sum_row {
                let mut acc = vec![0.0; n];
                for a in &accepted {
                    if rng.gen_bool(0.5) {
                        for (x, y) in acc.iter_mut().zip(a) {
                            *x += y;
                        }
                    }
                }
                acc
            } else {
                (0..n).map(|_| if rng.gen_bool(density) { 1.0 } else { 0.0 }).collect()
            };
            let v = Vector::from(row.clone());
            let verdict = fast.try_add(&v);
            prop_assert_eq!(verdict, slow.try_add(&v), "row {} (n = {})", i, n);
            prop_assert!(!(sum_row && verdict), "sum row {} accepted (n = {})", i, n);
            if verdict {
                accepted.push(row);
            }
        }
        prop_assert_eq!(fast.rank(), slow.rank());
    }
}
