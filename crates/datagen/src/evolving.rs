//! Evolving bipartite ratings world: the churn-stream counterpart of
//! [`crate::ratings`].
//!
//! The static worlds freeze the membership relation at generation time;
//! real rating datasets never hold still. New users sign up and rate a few
//! items immediately, new items launch and collect their first reviews,
//! accounts are deleted, items are withdrawn, and existing ratings are
//! *revised* — the same `(user, item)` pair at a new star value. This
//! module synthesizes that stream as a weighted bipartite base graph plus
//! a sequence of [`EdgeBatch`]es exercising every mutation channel of the
//! incremental path: `insert_weighted` (fresh ratings), `set_weight`
//! (revisions), `add_nodes` (arrivals), and `remove_node` (departures).
//!
//! Star values follow the [`crate::ratings`] model — container quality
//! drives the rating, entity ambition adds a critic effect, Gaussian noise
//! is quantized to half stars in `[1, 5]` — so the weighted D2PR scores
//! computed over this world rank well-rated items above poorly-rated ones,
//! exactly the signal the β>0 blended operator is meant to serve.
//!
//! Every batch is validated against an internal [`DeltaGraph`] as it is
//! sampled (the `churn_stream` idiom), so callers can replay the stream
//! against their own delta graph, engine, or serving stack without
//! re-checking invariants. The stream depends only on the configuration,
//! never on solver state.

use crate::dist;
use d2pr_graph::builder::GraphBuilder;
use d2pr_graph::csr::{CsrGraph, Direction, NodeId};
use d2pr_graph::delta::{DeltaGraph, EdgeBatch};
use d2pr_graph::error::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Configuration of one evolving ratings world.
#[derive(Debug, Clone, PartialEq)]
pub struct EvolvingRatingsConfig {
    /// Users in the initial world (node ids `0..num_entities`).
    pub num_entities: usize,
    /// Items in the initial world (node ids
    /// `num_entities..num_entities + num_containers`).
    pub num_containers: usize,
    /// Ratings each initial user leaves (distinct items).
    pub ratings_per_entity: usize,
    /// Churn batches to stream.
    pub batches: usize,
    /// Fresh ratings per batch between already-present users and items.
    pub ratings_per_batch: usize,
    /// Existing ratings revised (`set_weight`) per batch. Ignored when
    /// `weighted` is off — an unweighted membership has nothing to revise.
    pub reratings_per_batch: usize,
    /// Users/items appended per batch (alternating sides); each arrival
    /// immediately rates — or is rated by — a few live counterparts, so
    /// fresh ids never stay isolated.
    pub arrivals_per_batch: usize,
    /// Live users/items tombstoned (`remove_node`) per batch.
    pub departures_per_batch: usize,
    /// Whether memberships carry star weights. Off, the stream degrades
    /// to unweighted membership churn (arrivals, departures, fresh
    /// memberships) over an unweighted base.
    pub weighted: bool,
    /// Rating noise (standard deviations of the pre-quantization value).
    pub noise: f64,
    /// RNG seed; the whole stream is a pure function of the config.
    pub seed: u64,
}

impl Default for EvolvingRatingsConfig {
    fn default() -> Self {
        Self {
            num_entities: 600,
            num_containers: 300,
            ratings_per_entity: 5,
            batches: 6,
            ratings_per_batch: 20,
            reratings_per_batch: 20,
            arrivals_per_batch: 4,
            departures_per_batch: 2,
            weighted: true,
            noise: 0.3,
            seed: 0xD27A,
        }
    }
}

/// One generated world: the initial graph and the batch stream that
/// evolves it.
#[derive(Debug, Clone, PartialEq)]
pub struct EvolvingRatings {
    /// Initial bipartite graph (undirected mirrored storage; weighted
    /// when the config asks for stars).
    pub base: CsrGraph,
    /// The churn stream, already validated against the base: applying the
    /// batches in order through a [`DeltaGraph`] cannot fail.
    pub batches: Vec<EdgeBatch>,
    /// Users in the initial world.
    pub num_entities: usize,
    /// Items in the initial world.
    pub num_containers: usize,
    /// Id-space size after the full stream (grows with arrivals; removals
    /// tombstone, they never shrink it).
    pub final_nodes: usize,
}

/// Per-node state the sampler tracks: which side a node is on and the
/// latent quality/ambition that drives its star values.
struct Population {
    /// Container quality in `(0, 1)` (entities carry a placeholder).
    quality: Vec<f64>,
    /// Entity ambition in `(0, 1)` (containers carry a placeholder).
    ambition: Vec<f64>,
    /// Live (never-removed) users and items, by node id.
    entities: Vec<NodeId>,
    containers: Vec<NodeId>,
}

impl Population {
    fn add_entity(&mut self, id: NodeId, rng: &mut StdRng) {
        debug_assert_eq!(id as usize, self.quality.len());
        self.quality.push(0.5);
        self.ambition.push(dist::kumaraswamy(rng, 2.0, 2.0));
        self.entities.push(id);
    }

    fn add_container(&mut self, id: NodeId, rng: &mut StdRng) {
        debug_assert_eq!(id as usize, self.quality.len());
        self.quality.push(dist::kumaraswamy(rng, 2.0, 2.0));
        self.ambition.push(0.5);
        self.containers.push(id);
    }

    /// Stars the entity would award the container right now: quality
    /// drives it, ambition grades it down, noise is quantized to half
    /// stars (the [`crate::ratings`] model).
    fn stars(&self, e: NodeId, c: NodeId, noise: f64, rng: &mut StdRng) -> f64 {
        let q = self.quality[c as usize];
        let critic = self.ambition[e as usize] - 0.5;
        let raw = 1.0 + 4.0 * q - critic + noise * dist::standard_normal(rng);
        ((raw * 2.0).round() / 2.0).clamp(1.0, 5.0)
    }
}

impl EvolvingRatingsConfig {
    /// Generate the world: base graph plus validated churn stream.
    ///
    /// # Errors
    /// Propagates graph-construction and batch-application failures as
    /// [`d2pr_graph::error::GraphError`] (a config asking for more
    /// ratings than distinct pairs exist is reported by construction, not
    /// by hanging the rejection sampler — see the per-batch caps below).
    pub fn generate(&self) -> Result<EvolvingRatings> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xEB0C);
        let mut pop = Population {
            quality: Vec::new(),
            ambition: Vec::new(),
            entities: Vec::new(),
            containers: Vec::new(),
        };
        for id in 0..self.num_entities {
            pop.add_entity(id as NodeId, &mut rng);
        }
        for id in 0..self.num_containers {
            pop.add_container((self.num_entities + id) as NodeId, &mut rng);
        }

        // Initial world: every user rates `ratings_per_entity` distinct
        // items. Memberships are tracked as (entity, container) for
        // revision sampling; the graph mirrors them itself.
        let n0 = self.num_entities + self.num_containers;
        let mut builder = GraphBuilder::new(Direction::Undirected, n0);
        let mut memberships: Vec<(NodeId, NodeId)> = Vec::new();
        let per_entity = self.ratings_per_entity.min(self.num_containers);
        for &e in &pop.entities {
            let mut rated = BTreeSet::new();
            while rated.len() < per_entity {
                let c = pop.containers[rng.gen_range(0..pop.containers.len())];
                if rated.insert(c) {
                    if self.weighted {
                        builder.add_weighted_edge(e, c, pop.stars(e, c, self.noise, &mut rng));
                    } else {
                        builder.add_edge(e, c);
                    }
                    memberships.push((e, c));
                }
            }
        }
        let base = builder.build()?;

        let mut dg = DeltaGraph::new(base.clone())?;
        let mut batches = Vec::with_capacity(self.batches);
        for _ in 0..self.batches {
            let batch = self.sample_batch(&mut dg, &mut pop, &mut memberships, &mut rng)?;
            batches.push(batch);
        }
        let final_nodes = dg.graph().num_nodes();
        Ok(EvolvingRatings {
            base,
            batches,
            num_entities: self.num_entities,
            num_containers: self.num_containers,
            final_nodes,
        })
    }

    /// Sample one batch — departures, arrivals, fresh ratings, revisions —
    /// and apply it to `dg` so the next batch sees the evolved world.
    fn sample_batch(
        &self,
        dg: &mut DeltaGraph,
        pop: &mut Population,
        memberships: &mut Vec<(NodeId, NodeId)>,
        rng: &mut StdRng,
    ) -> Result<EdgeBatch> {
        let mut batch = EdgeBatch::new();
        // Pairs inserted this batch, normalized — a second insert of the
        // same pair would be a silent revision, which has its own channel.
        let mut pending: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        let norm = |u: NodeId, v: NodeId| (u.min(v), u.max(v));

        // Departures first, so arrivals and fresh ratings never target a
        // node tombstoned in the same batch. Both sides keep a quorum of
        // two — a world that churns itself empty is a config error, not an
        // interesting stream.
        for d in 0..self.departures_per_batch {
            let from_entities = (d % 2 == 0 && pop.entities.len() > 2) || pop.containers.len() <= 2;
            let side = if from_entities {
                &mut pop.entities
            } else {
                &mut pop.containers
            };
            if side.len() <= 2 {
                break;
            }
            let v = side.swap_remove(rng.gen_range(0..side.len()));
            memberships.retain(|&(e, c)| e != v && c != v);
            batch.remove_node(v);
        }

        // Arrivals: ids extend the current id space; each newcomer is
        // wired to up to three live counterparts immediately.
        let first_id = dg.graph().num_nodes() as NodeId;
        for a in 0..self.arrivals_per_batch {
            batch.add_nodes(1);
            let id = first_id + a as NodeId;
            if a % 2 == 0 {
                pop.add_entity(id, rng);
                for _ in 0..3.min(pop.containers.len()) {
                    let c = pop.containers[rng.gen_range(0..pop.containers.len())];
                    if pending.insert(norm(id, c)) {
                        self.rate(&mut batch, pop, id, c, rng);
                        memberships.push((id, c));
                    }
                }
            } else {
                pop.add_container(id, rng);
                for _ in 0..3.min(pop.entities.len().saturating_sub(1)) {
                    // The entity that just arrived is already in
                    // `entities`; rating a same-batch newcomer is fine.
                    let e = pop.entities[rng.gen_range(0..pop.entities.len())];
                    if pending.insert(norm(e, id)) {
                        self.rate(&mut batch, pop, e, id, rng);
                        memberships.push((e, id));
                    }
                }
            }
        }

        // Fresh ratings between established users and items. Rejection
        // sampling with a bounded attempt budget: a nearly-complete
        // bipartite world simply yields fewer fresh ratings.
        let mut attempts = self.ratings_per_batch * 20;
        let mut fresh = 0;
        while fresh < self.ratings_per_batch && attempts > 0 {
            attempts -= 1;
            let e = pop.entities[rng.gen_range(0..pop.entities.len())];
            let c = pop.containers[rng.gen_range(0..pop.containers.len())];
            if !dg.graph().has_arc(e, c) && pending.insert(norm(e, c)) {
                self.rate(&mut batch, pop, e, c, rng);
                memberships.push((e, c));
                fresh += 1;
            }
        }

        // Revisions: an existing rating re-graded at today's mood. The
        // new value may coincide with the old — `apply_batch` no-ops
        // equal-weight revisions, which is the correct semantics for "the
        // user re-submitted the same stars".
        if self.weighted {
            for _ in 0..self.reratings_per_batch {
                if memberships.is_empty() {
                    break;
                }
                let &(e, c) = &memberships[rng.gen_range(0..memberships.len())];
                if pending.insert(norm(e, c)) {
                    batch.set_weight(e, c, pop.stars(e, c, self.noise, rng));
                }
            }
        }

        dg.apply_batch(&batch)?;
        Ok(batch)
    }

    /// Append one rating edge to the batch, weighted or not per config.
    fn rate(
        &self,
        batch: &mut EdgeBatch,
        pop: &Population,
        e: NodeId,
        c: NodeId,
        rng: &mut StdRng,
    ) {
        if self.weighted {
            batch.insert_weighted(e, c, pop.stars(e, c, self.noise, rng));
        } else {
            batch.insert(e, c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> EvolvingRatingsConfig {
        EvolvingRatingsConfig {
            num_entities: 120,
            num_containers: 60,
            ratings_per_entity: 4,
            batches: 5,
            ratings_per_batch: 10,
            reratings_per_batch: 8,
            arrivals_per_batch: 3,
            departures_per_batch: 2,
            seed: 11,
            ..Default::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = config().generate().unwrap();
        let b = config().generate().unwrap();
        assert_eq!(a.base, b.base);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.final_nodes, b.final_nodes);
    }

    #[test]
    fn base_is_weighted_bipartite_with_half_star_weights() {
        let w = config().generate().unwrap();
        assert!(w.base.is_weighted());
        assert_eq!(w.base.num_nodes(), 180);
        for s in 0..w.base.num_nodes() as NodeId {
            let weights = w.base.neighbor_weights(s).unwrap();
            for (k, &t) in w.base.neighbors(s).iter().enumerate() {
                // Exactly one endpoint on the entity side.
                assert_ne!((s < 120), (t < 120), "arc {s}->{t} is not bipartite");
                let stars = weights[k];
                assert!((1.0..=5.0).contains(&stars));
                assert_eq!(stars * 2.0, (stars * 2.0).round(), "half-star granularity");
            }
        }
    }

    #[test]
    fn batches_exercise_every_mutation_channel() {
        let w = config().generate().unwrap();
        assert_eq!(w.batches.len(), 5);
        let grown: u32 = w.batches.iter().map(|b| b.new_nodes).sum();
        let removed: usize = w.batches.iter().map(|b| b.removed_nodes.len()).sum();
        assert_eq!(grown, 15, "3 arrivals per batch");
        assert!(removed > 0, "departures present");
        assert!(w.batches.iter().all(|b| b.weights.is_some()));
        assert_eq!(w.final_nodes, 180 + 15);
        for b in &w.batches {
            for &stars in b.weights.as_ref().unwrap() {
                assert!((1.0..=5.0).contains(&stars));
            }
        }
    }

    #[test]
    fn stream_replays_cleanly_through_a_fresh_delta_graph() {
        let w = config().generate().unwrap();
        let mut dg = DeltaGraph::new(w.base.clone()).unwrap();
        for b in &w.batches {
            dg.apply_batch(b).unwrap();
        }
        assert_eq!(dg.graph().num_nodes(), w.final_nodes);
        let snap = dg.graph();
        assert!(snap.is_weighted());
        assert!(snap.num_arcs() > 0);
    }

    #[test]
    fn unweighted_mode_emits_plain_membership_churn() {
        let cfg = EvolvingRatingsConfig {
            weighted: false,
            ..config()
        };
        let w = cfg.generate().unwrap();
        assert!(!w.base.is_weighted());
        assert!(w.batches.iter().all(|b| b.weights.is_none()));
        // Unweighted batches still churn nodes.
        assert!(w.batches.iter().any(|b| b.new_nodes > 0));
        let mut dg = DeltaGraph::new(w.base.clone()).unwrap();
        for b in &w.batches {
            dg.apply_batch(b).unwrap();
        }
    }

    #[test]
    fn fixed_node_set_when_churn_disabled() {
        let cfg = EvolvingRatingsConfig {
            arrivals_per_batch: 0,
            departures_per_batch: 0,
            ..config()
        };
        let w = cfg.generate().unwrap();
        assert_eq!(w.final_nodes, 180);
        for b in &w.batches {
            assert_eq!(b.new_nodes, 0);
            assert!(b.removed_nodes.is_empty());
            assert!(!b.inserts.is_empty(), "ratings/revisions still flow");
        }
    }
}
