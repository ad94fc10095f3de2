//! Cross-crate integration: generation → serialization → ranking →
//! evaluation, exercising the public API exactly as a downstream user would.

use d2pr::core::pagerank::{pagerank, PageRankConfig};
use d2pr::core::{Engine, TransitionModel};
use d2pr::datagen::ratings::{generate_ratings, mean_container_rating, train_test_split};
use d2pr::graph::io::{from_snapshot, read_edge_list, to_snapshot, write_edge_list};
use d2pr::graph::stats::degree_stats;
use d2pr::prelude::*;
use d2pr::stats::metrics::{average_precision, precision_at_k};
use std::collections::HashSet;
use std::io::Cursor;

#[test]
fn world_round_trips_through_edge_list() {
    let world = World::generate(Dataset::Lastfm, 0.02, 5).expect("generation succeeds");
    let g = &world.entity_graph;
    let mut doc = Vec::new();
    write_edge_list(g, &mut doc).expect("write succeeds");
    let g2 = read_edge_list(Cursor::new(doc), Direction::Undirected).expect("parse succeeds");
    assert_eq!(g.num_edges(), g2.num_edges());
    // Degree statistics are preserved exactly.
    let (a, b) = (degree_stats(g), degree_stats(&g2));
    assert_eq!(a.avg_degree, b.avg_degree);
    assert_eq!(a.median_neighbor_degree_std, b.median_neighbor_degree_std);
}

#[test]
fn world_round_trips_through_snapshot_and_scores_agree() {
    let world = World::generate(Dataset::Dblp, 0.02, 9).expect("generation succeeds");
    let g = world.container_graph.clone();
    let restored = from_snapshot(to_snapshot(&g)).expect("snapshot round trip");
    assert_eq!(g, restored);

    let a = D2pr::new(&g).scores(0.5).expect("valid parameters");
    let b = D2pr::new(&restored).scores(0.5).expect("valid parameters");
    assert_eq!(
        a.scores, b.scores,
        "identical graphs must produce identical scores"
    );
}

#[test]
fn serial_and_parallel_agree_on_generated_worlds() {
    let world = World::generate(Dataset::Epinions, 0.02, 3).expect("generation succeeds");
    let g = world.entity_graph.to_unweighted();
    let cfg = PageRankConfig::default();
    for p in [-1.0, 0.0, 1.5] {
        let model = TransitionModel::DegreeDecoupled { p };
        // The serial oracle against the production engine (the test keeps
        // its historical name).
        let serial = pagerank(&g, model, &cfg);
        let parallel = Engine::new(&g).solve_model(model).expect("valid inputs");
        for (x, y) in serial.scores.iter().zip(&parallel.scores) {
            assert!((x - y).abs() < 1e-8, "p={p}: {x} vs {y}");
        }
    }
}

#[test]
fn recommendation_flow_with_held_out_ratings() {
    let world = World::generate(Dataset::Imdb, 0.02, 21).expect("generation succeeds");
    let ratings = generate_ratings(&world.affiliation, 0.3, 4);
    let (train, test) = train_test_split(&ratings, 0.3, 8);
    assert!(!train.is_empty() && !test.is_empty());

    // Ground truth from held-out ratings: movies averaging >= 3.5 stars.
    let n_movies = world.affiliation.bipartite.num_right();
    let test_means = mean_container_rating(&test, n_movies);
    let relevant: HashSet<usize> = test_means
        .iter()
        .enumerate()
        .filter_map(|(c, m)| m.filter(|&x| x >= 3.5).map(|_| c))
        .collect();
    assert!(!relevant.is_empty());

    // Rank movies with D2PR on the movie-movie graph.
    let engine = D2pr::new(&world.container_graph);
    let result = engine.scores(0.0).expect("valid parameters");
    let recommended: Vec<usize> = result.ranking().iter().map(|&v| v as usize).collect();

    let k = n_movies / 10;
    let prec = precision_at_k(&recommended, &relevant, k).expect("k positive");
    let ap = average_precision(&recommended, &relevant).expect("relevant non-empty");
    // Sanity floor: the pipeline must beat a tiny constant (it uses real
    // structure); exact quality is covered by tests/paper_shapes.rs.
    assert!(prec > 0.0, "precision@{k} = {prec}");
    assert!(ap > 0.0, "average precision = {ap}");
}

#[test]
fn personalized_d2pr_stays_local_on_worlds() {
    let world = World::generate(Dataset::Lastfm, 0.02, 13).expect("generation succeeds");
    let g = world.entity_graph.to_unweighted();
    let engine = D2pr::new(&g);
    let seed_node: NodeId = 0;
    let result = engine
        .personalized_scores(0.0, &[seed_node])
        .expect("valid seed");
    assert_eq!(
        result.ranking()[0],
        seed_node,
        "seed must rank first in its own PPR"
    );
    let uniform = engine.scores(0.0).expect("valid parameters");
    assert_ne!(
        result.ranking(),
        uniform.ranking(),
        "personalization must change the ranking"
    );
}

#[test]
fn centralities_and_d2pr_cover_same_node_set() {
    let world = World::generate(Dataset::Dblp, 0.02, 2).expect("generation succeeds");
    let g = world.entity_graph.to_unweighted();
    let n = g.num_nodes();
    assert_eq!(d2pr::core::centrality::degree_centrality(&g).len(), n);
    assert_eq!(
        d2pr::core::centrality::hits(&g, 50, 1e-9).authorities.len(),
        n
    );
    assert_eq!(
        d2pr::core::centrality::sampled_closeness(&g, 16, 3).len(),
        n
    );
    assert_eq!(D2pr::new(&g).scores(0.0).expect("valid").scores.len(), n);
}

#[test]
fn prelude_surface_compiles_and_works() {
    // Exercise the prelude exports end to end on a tiny hand-built graph.
    let mut b = GraphBuilder::new(Direction::Undirected, 4);
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(2, 3);
    let g = b.build().expect("valid edges");
    let scores = D2pr::new(&g).scores(1.0).expect("valid parameters").scores;
    let ranks = fractional_ranks(&scores, RankOrder::Descending);
    assert_eq!(ranks.len(), 4);
    let rho = spearman(&scores, &[1.0, 2.0, 2.0, 1.0]).expect("defined");
    assert!(rho > 0.0, "middle nodes score higher on a path, rho={rho}");
    assert_eq!(top_k_indices(&scores, 2).len(), 2);
}
