//! Property-style tests for the graph substrate.
//!
//! The crates.io `proptest` crate is unavailable in the offline build
//! environment, so these properties are checked over a seeded stream of
//! random graphs from `noc-rng` — same properties, deterministic cases.

use noc_graph::{cycles, scc, shortest_path, topo, traversal, DiGraph, NodeId};
use noc_rng::SmallRng;

const CASES: u64 = 64;

/// A random directed graph with up to `max_nodes` nodes and `max_edges`
/// edges, drawn from `rng`.
fn random_graph(
    rng: &mut SmallRng,
    max_nodes: usize,
    max_edges: usize,
) -> (DiGraph<usize, ()>, Vec<NodeId>) {
    let n = rng.gen_range(2..max_nodes);
    let e = rng.gen_range(0..max_edges);
    let mut g = DiGraph::new();
    let nodes: Vec<_> = (0..n).map(|i| g.add_node(i)).collect();
    for _ in 0..e {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        g.add_edge(nodes[a], nodes[b], ());
    }
    (g, nodes)
}

/// Tarjan SCC partitions the node set: every node in exactly one component.
#[test]
fn scc_is_a_partition() {
    let mut rng = SmallRng::seed_from_u64(0xA11CE);
    for _ in 0..CASES {
        let (g, _) = random_graph(&mut rng, 30, 120);
        let n = g.node_count();
        let comps = scc::tarjan_scc(&g);
        let total: usize = comps.iter().map(|c| c.len()).sum();
        assert_eq!(total, n);
        let mut seen = vec![false; n];
        for c in &comps {
            for node in c {
                assert!(!seen[node.index()]);
                seen[node.index()] = true;
            }
        }
    }
}

/// The three cycle oracles agree: topological sort exists <=> Tarjan finds
/// no cyclic component <=> smallest_cycle returns None.
#[test]
fn cycle_oracles_agree() {
    let mut rng = SmallRng::seed_from_u64(0xB0B);
    for _ in 0..CASES {
        let (g, _) = random_graph(&mut rng, 25, 80);
        let dag = topo::is_dag(&g);
        assert_eq!(dag, !scc::has_cycle(&g));
        assert_eq!(dag, cycles::smallest_cycle(&g).is_none());
        assert_eq!(dag, cycles::is_acyclic(&g));
    }
}

/// Any cycle returned is a real cycle: consecutive nodes are connected and
/// the last node connects back to the first.
#[test]
fn returned_cycle_is_valid() {
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    for _ in 0..CASES {
        let (g, _) = random_graph(&mut rng, 25, 80);
        if let Some(cycle) = cycles::smallest_cycle(&g) {
            assert!(!cycle.is_empty());
            for w in cycle.windows(2) {
                assert!(g.has_edge(w[0], w[1]));
            }
            assert!(g.has_edge(*cycle.last().unwrap(), cycle[0]));
            // A smallest cycle visits each node at most once.
            let mut sorted = cycle.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), cycle.len());
        }
    }
}

/// BFS path lengths equal Dijkstra hop distances.
#[test]
fn bfs_and_dijkstra_agree_on_hops() {
    let mut rng = SmallRng::seed_from_u64(0xD1CE);
    for _ in 0..CASES {
        let (g, nodes) = random_graph(&mut rng, 20, 60);
        let src = nodes[0];
        let sp = shortest_path::hop_distances(&g, src);
        for &dst in &nodes {
            let bfs = traversal::bfs_path(&g, src, dst).map(|p| (p.len() - 1) as u64);
            assert_eq!(bfs, sp.distance(dst));
        }
    }
}

/// A topological order, when it exists, respects every edge.
#[test]
fn topological_order_respects_edges() {
    let mut rng = SmallRng::seed_from_u64(0xE66);
    for _ in 0..CASES {
        let (g, _) = random_graph(&mut rng, 25, 60);
        let n = g.node_count();
        if let Some(order) = topo::topological_sort(&g) {
            let pos: Vec<usize> = {
                let mut p = vec![0; n];
                for (i, node) in order.iter().enumerate() {
                    p[node.index()] = i;
                }
                p
            };
            for e in g.edges() {
                assert!(pos[e.source.index()] < pos[e.target.index()]);
            }
        }
    }
}

/// Removing every edge of a found cycle makes that particular cycle
/// impossible (the graph may still have other cycles, but at least one
/// fewer).
#[test]
fn removing_cycle_edges_reduces_cycles() {
    let mut rng = SmallRng::seed_from_u64(0xF00D);
    for _ in 0..CASES {
        let (mut g, _) = random_graph(&mut rng, 15, 40);
        if let Some(cycle) = cycles::smallest_cycle(&g) {
            for i in 0..cycle.len() {
                let a = cycle[i];
                let b = cycle[(i + 1) % cycle.len()];
                while let Some(e) = g.find_edge(a, b) {
                    g.remove_edge(e);
                }
            }
            // The specific cycle cannot exist any more: at least one of its
            // consecutive pairs has no edge.
            let still_complete =
                (0..cycle.len()).all(|i| g.has_edge(cycle[i], cycle[(i + 1) % cycle.len()]));
            assert!(!still_complete);
        }
    }
}

/// Dijkstra distances satisfy the triangle inequality over direct edges.
#[test]
fn dijkstra_triangle_inequality() {
    let mut rng = SmallRng::seed_from_u64(0xFEED);
    for _ in 0..CASES {
        let (g, nodes) = random_graph(&mut rng, 20, 60);
        let src = nodes[0];
        let sp = shortest_path::dijkstra(&g, src, |_| Some(1));
        for e in g.edges() {
            if let (Some(du), Some(dv)) = (sp.distance(e.source), sp.distance(e.target)) {
                assert!(dv <= du + 1);
            }
        }
    }
}

/// The bounded per-node search agrees with the unbounded one whenever the
/// true cycle fits the bound, and finds nothing when it does not.
#[test]
fn bounded_cycle_search_is_consistent_with_unbounded() {
    let mut rng = SmallRng::seed_from_u64(0xB0BB);
    for _ in 0..CASES {
        let (g, nodes) = random_graph(&mut rng, 18, 45);
        for &v in &nodes {
            let full = cycles::shortest_cycle_through(&g, v);
            match &full {
                Some(cycle) => {
                    assert_eq!(
                        cycles::shortest_cycle_through_bounded(&g, v, cycle.len()).as_ref(),
                        Some(cycle),
                    );
                    if cycle.len() > 1 {
                        assert_eq!(
                            cycles::shortest_cycle_through_bounded(&g, v, cycle.len() - 1),
                            None,
                        );
                    }
                }
                None => {
                    assert_eq!(
                        cycles::shortest_cycle_through_bounded(&g, v, usize::MAX),
                        None,
                    );
                }
            }
        }
    }
}
