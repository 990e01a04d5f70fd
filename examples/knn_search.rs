//! k-nearest-neighbour search on the extended datapath (the paper's §V-A case study): stream a
//! clustered vector dataset through the Euclidean- and cosine-distance operations, report the
//! neighbours found and cross-check them against a plain software scan.  The k-NN queries and a
//! batch of radius queries also run under `ExecPolicy::parallel(2)`, whose work-stealing pool
//! shards the candidates (and the radius batch's hierarchy filter) across two workers; the
//! example panics unless the neighbours and statistics equal the wavefront run's.
//!
//! Run with `cargo run --release --example knn_search`.

use rayflex::core::PipelineConfig;
use rayflex::geometry::Vec3;
use rayflex::rtunit::{ExecPolicy, HierarchicalSearch, KnnEngine, KnnMetric};
use rayflex::workloads::{scenes, vectors};

fn main() {
    // A 48-dimensional clustered dataset: each vector needs three 16-lane Euclidean beats (or six
    // 8-lane cosine beats), exercising the multi-beat accumulator path of §V-A.
    let dataset = vectors::clustered_dataset(42, 400, 48, 8, 4.0);
    let queries = vectors::queries_near_dataset(7, &dataset, 4, 1.0);
    println!(
        "dataset: {} vectors x {} dimensions in {} clusters",
        dataset.len(),
        dataset.dimension(),
        dataset.centers.len()
    );

    let mut engine = KnnEngine::with_config(PipelineConfig::extended_unified());
    let policy = ExecPolicy::wavefront();
    // 400 candidates of at least 64 per chunk: the pool cuts 6 chunks for its 2 workers.
    let mut pooled = KnnEngine::with_config(PipelineConfig::extended_unified());
    let parallel = ExecPolicy::parallel(2);
    for (q, query) in queries.iter().enumerate() {
        let neighbors = engine.k_nearest(query, &dataset.vectors, 5, KnnMetric::Euclidean, &policy);
        assert_eq!(
            pooled.k_nearest(query, &dataset.vectors, 5, KnnMetric::Euclidean, &parallel),
            neighbors,
            "parallel(2) and wavefront k-NN must find the same neighbours"
        );
        println!("query {q}: 5 nearest by squared Euclidean distance (RT-unit beats)");
        for n in &neighbors {
            println!(
                "   vector {:4}  distance {:10.3}  (cluster {})",
                n.index, n.distance, dataset.assignments[n.index]
            );
        }
        // Software cross-check of the top answer.
        let software_best = dataset
            .vectors
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let d: f32 = query.iter().zip(v).map(|(a, b)| (a - b) * (a - b)).sum();
                (i, d)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty dataset");
        assert_eq!(
            neighbors[0].index, software_best.0,
            "datapath and software scans must agree on the nearest neighbour"
        );
    }

    // The same dataset under the cosine metric.
    let query = &queries[0];
    let cosine = engine.k_nearest(query, &dataset.vectors, 3, KnnMetric::Cosine, &policy);
    assert_eq!(
        pooled.k_nearest(query, &dataset.vectors, 3, KnnMetric::Cosine, &parallel),
        cosine,
        "parallel(2) and wavefront cosine k-NN must agree"
    );
    println!("query 0: 3 nearest by cosine distance");
    for n in &cosine {
        println!("   vector {:4}  distance {:.6}", n.index, n.distance);
    }

    let stats = engine.stats();
    assert_eq!(
        pooled.stats(),
        stats,
        "parallel(2) must score the same beats"
    );
    println!(
        "datapath work: {} candidate vectors scored with {} Euclidean/cosine beats",
        stats.candidates, stats.beats
    );
    let pool = pooled.pool_stats();
    println!(
        "parallel(2) pool: {} chunks over {} worker runs, {} steals",
        pool.chunks, pool.workers, pool.steals
    );

    // Hierarchical search over 3-D points: the BVH filters the dataset with ray-box beats and the
    // survivors are scored exactly with Euclidean beats — all on the same extended datapath.
    let cloud: Vec<Vec3> = scenes::sphere_cloud(5, 5_000, 80.0, 0.01)
        .into_iter()
        .map(|s| s.center)
        .collect();
    // A 32-query radius batch under both policies: at 8 queries per chunk, the parallel
    // filter cuts 4 chunks for its 2 workers.
    let batch: Vec<(Vec3, f32)> = cloud
        .iter()
        .step_by(cloud.len() / 32)
        .take(32)
        .map(|&point| (point + Vec3::splat(1.0), 6.0))
        .collect();
    let build =
        || HierarchicalSearch::build(cloud.clone(), 0.01, PipelineConfig::extended_unified());
    let (mut search, mut pooled_search) = (build(), build());
    let lists = search.radius_queries(&batch, &policy);
    assert_eq!(
        pooled_search.radius_queries(&batch, &parallel),
        lists,
        "parallel(2) and wavefront radius queries must find the same neighbours"
    );
    assert_eq!(
        pooled_search.stats(),
        search.stats(),
        "parallel(2) radius queries must issue the same beats"
    );
    println!(
        "radius batch of {}: {} neighbours in total, identical under parallel(2)",
        batch.len(),
        lists.iter().map(Vec::len).sum::<usize>()
    );
    let query = Vec3::new(12.0, -30.0, 44.0);
    let in_radius = search.radius_query(query, 12.0, &policy);
    let nearest = search
        .nearest(query, 2.0, &policy)
        .expect("non-empty dataset");
    let hstats = search.stats();
    println!(
        "hierarchical search over {} points: {} within radius 12.0, nearest = point {} at d^2 = {:.3}",
        hstats.dataset_size,
        in_radius.len(),
        nearest.index,
        nearest.distance
    );
    println!(
        "  BVH filter: {} ray-box beats, exact scoring: {} Euclidean beats, only {:.1}% of the dataset scored",
        hstats.box_beats,
        hstats.euclidean_beats,
        hstats.scored_fraction() * 100.0
    );
}
