//! Workload profiling: measure what an epoch of sampling actually touches.
//!
//! The simulator never guesses sampled-subgraph sizes — they are measured by
//! running the real sampler on the replica graph. Profiling samples a few
//! batches (`profiled_batches`) and cycles their statistics over the epoch,
//! which matches how the paper reports per-epoch averages.

use neutron_graph::{degree, DatasetSpec, VertexId};
use neutron_nn::LayerKind;
use neutron_sample::{
    BatchIterator, Fanout, HotSet, HotnessRanking, NeighborSampler, PreSampler, SampleStats,
};
use std::collections::HashSet;

/// Sampling/model configuration of one experiment cell.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// GNN architecture.
    pub kind: LayerKind,
    /// Model depth (paper default 3).
    pub layers: usize,
    /// Mini-batch size (paper default 1024).
    pub batch_size: usize,
    /// Hot-vertex ratio for NeutronOrch and the cache policies (paper
    /// explores 0.05–0.30; default 0.15).
    pub hot_ratio: f64,
    /// Batches per super-batch (`n` of §4.2; default 4).
    pub super_batch: usize,
    /// Batches actually sampled during profiling; the rest reuse their
    /// statistics round-robin.
    pub profiled_batches: usize,
    /// Seed for sampling/profiling.
    pub seed: u64,
    /// Overrides the §5.1 default fanout (used by Fig 7's fanout-4 study).
    pub fanout_override: Option<Vec<usize>>,
}

impl WorkloadConfig {
    /// The paper's default setup (§5.1): 3 layers, fanout `[25,10,5]`,
    /// batch 1024.
    pub fn paper_default(kind: LayerKind) -> Self {
        Self {
            kind,
            layers: 3,
            batch_size: 1024,
            hot_ratio: 0.15,
            super_batch: 4,
            profiled_batches: 6,
            seed: 0xbeef,
            fanout_override: None,
        }
    }

    /// The fanout implied by `layers` (§5.1's [25,10,5,5…]), unless
    /// overridden.
    pub fn fanout(&self) -> Fanout {
        match &self.fanout_override {
            Some(f) => Fanout::new(f.clone()),
            None => Fanout::paper_default(self.layers),
        }
    }
}

/// Full 1-hop (unsampled) neighborhood statistics of a batch — the working
/// set GAS-style systems train on.
#[derive(Clone, Copy, Debug, Default)]
pub struct OneHopStats {
    /// Unique vertices in `batch ∪ N(batch)`.
    pub src: usize,
    /// Total in-edges of the batch vertices.
    pub edges: usize,
}

/// Measured workload of one (dataset, config) cell.
#[derive(Clone)]
pub struct WorkloadProfile {
    /// Replica dataset specification.
    pub spec: DatasetSpec,
    /// Experiment configuration.
    pub config: WorkloadConfig,
    /// Batches per epoch.
    pub num_batches: usize,
    /// Measured per-batch statistics (cycled when `num_batches` exceeds the
    /// profiled count). Hot/cold splits are against [`Self::hot`].
    pub per_batch: Vec<SampleStats>,
    /// Full 1-hop stats per profiled batch (GAS working sets).
    pub one_hop: Vec<OneHopStats>,
    /// Bottom-layer access frequencies from pre-sampling.
    pub hotness: HotnessRanking,
    /// The hot set at `config.hot_ratio`.
    pub hot: HotSet,
    /// Fraction of bottom-layer accesses covered by the hot set.
    pub hot_coverage: f64,
    /// Cumulative bottom-access coverage of the top-k vertices **by
    /// pre-sampling rank** (GNNLab cache curve); index k.
    pub presample_coverage: Vec<f64>,
    /// Same curve ranked **by degree** (PaGraph cache curve).
    pub degree_coverage: Vec<f64>,
    /// Average unique hot vertices appearing in a window of `super_batch`
    /// consecutive batches — the CPU's per-super-batch embedding workload.
    pub hot_per_super_batch: f64,
    /// Σ over hot vertices of min(degree, bottom fanout): one-hop sampled
    /// edges the CPU aggregates per embedding refresh.
    pub hot_one_hop_edges: u64,
    /// Replica vertex count.
    pub num_vertices: usize,
    /// Replica CSR topology bytes.
    pub topology_bytes: u64,
    /// Replica average degree.
    pub avg_degree: f64,
    /// Estimated **paper-scale** access-coverage curve: entry `i` is the
    /// fraction of bottom-layer accesses covered by caching/offloading the
    /// hottest `i/1000` of all vertices *at paper scale* (see
    /// [`WorkloadProfile::paper_coverage`]).
    pub paper_coverage_curve: Vec<f64>,
}

impl WorkloadProfile {
    /// Builds a profile by generating the replica graph and sampling
    /// `config.profiled_batches` real batches.
    pub fn build(spec: &DatasetSpec, config: &WorkloadConfig) -> Self {
        let ds = spec.build_topology();
        let fanout = config.fanout();
        let sampler = NeighborSampler::new(fanout.clone());
        let batches = BatchIterator::new(ds.train.clone(), config.batch_size, config.seed);
        let num_batches = batches.batches_per_epoch();
        let profiled = config.profiled_batches.clamp(1, num_batches);
        let epoch0 = batches.epoch_batches(0);

        // Pass 1: sample the profiled batches, keep blocks.
        let mut sampled_blocks = Vec::with_capacity(profiled);
        for (i, batch) in epoch0.iter().take(profiled).enumerate() {
            sampled_blocks.push(sampler.sample_batch(&ds.csr, batch, config.seed ^ (i as u64 + 1)));
        }

        // Hotness: GNNLab-style pre-sampling over one simulated epoch
        // (capped to the profiled batches for large replicas).
        let presampler = PreSampler::new(1);
        let pre_batches = BatchIterator::new(
            ds.train[..(profiled * config.batch_size).min(ds.train.len())].to_vec(),
            config.batch_size,
            config.seed ^ 77,
        );
        let mut hotness = presampler.estimate(&ds.csr, &sampler, &pre_batches, config.seed ^ 99);
        // Fold in the profiled batches' own accesses for stability.
        {
            let mut counts: Vec<u32> = (0..ds.csr.num_vertices() as u32)
                .map(|v| hotness.count(v))
                .collect();
            for blocks in &sampled_blocks {
                for &v in blocks[0].src() {
                    counts[v as usize] += 1;
                }
            }
            hotness = HotnessRanking::from_counts(counts);
        }
        let hot = hotness.hot_set(config.hot_ratio);
        let hot_coverage = hotness.access_coverage(&hot);

        // Per-batch stats with hot/cold split + GAS 1-hop working sets.
        let mut per_batch = Vec::with_capacity(profiled);
        let mut one_hop = Vec::with_capacity(profiled);
        for (i, blocks) in sampled_blocks.iter().enumerate() {
            per_batch.push(SampleStats::measure(blocks, Some(&hot)));
            let seeds = epoch0.batch(i);
            let mut uniq: HashSet<VertexId> = seeds.iter().copied().collect();
            let mut edges = 0usize;
            for &s in seeds {
                let n = ds.csr.neighbors(s);
                edges += n.len();
                uniq.extend(n.iter().copied());
            }
            one_hop.push(OneHopStats {
                src: uniq.len(),
                edges,
            });
        }

        // Coverage curves for the two static cache policies.
        let total_accesses: f64 = (0..ds.csr.num_vertices() as u32)
            .map(|v| hotness.count(v) as f64)
            .sum::<f64>()
            .max(1.0);
        let curve = |order: &[VertexId]| -> Vec<f64> {
            let mut cum = 0.0;
            let mut out = Vec::with_capacity(order.len() + 1);
            out.push(0.0);
            for &v in order {
                cum += hotness.count(v) as f64;
                out.push(cum / total_accesses);
            }
            out
        };
        let presample_coverage = curve(hotness.order());
        let degree_coverage = curve(&degree::vertices_by_degree_desc(&ds.csr));

        // Unique hot vertices per super-batch window.
        let window = config.super_batch.max(1);
        let mut windows = 0usize;
        let mut unique_sum = 0usize;
        let mut i = 0;
        while i < sampled_blocks.len() {
            let mut uniq: HashSet<VertexId> = HashSet::new();
            for blocks in sampled_blocks.iter().skip(i).take(window) {
                uniq.extend(blocks[0].src().iter().filter(|&&v| hot.contains(v)));
            }
            unique_sum += uniq.len();
            windows += 1;
            i += window;
        }
        let hot_per_super_batch = if windows > 0 {
            unique_sum as f64 / windows as f64
        } else {
            0.0
        };

        let bottom_fanout = fanout.at(0);
        let hot_one_hop_edges: u64 = hot
            .vertices()
            .iter()
            .map(|&v| ds.csr.degree(v).min(bottom_fanout) as u64)
            .sum();

        let paper_coverage_curve = paper_coverage_curve(&ds.csr, spec, config, &fanout);

        Self {
            spec: spec.clone(),
            config: config.clone(),
            num_batches,
            per_batch,
            one_hop,
            hotness,
            hot,
            hot_coverage,
            presample_coverage,
            degree_coverage,
            hot_per_super_batch,
            hot_one_hop_edges,
            num_vertices: ds.csr.num_vertices(),
            topology_bytes: ds.csr.topology_bytes(),
            avg_degree: ds.csr.avg_degree(),
            paper_coverage_curve,
        }
    }

    /// Estimated fraction of bottom-layer accesses covered by the hottest
    /// `ratio` of vertices **at paper scale**.
    ///
    /// Replica graphs saturate under 3-hop fanout-25 sampling (one batch
    /// reaches most of a 100k-vertex replica), flattening the measured skew
    /// that the full datasets exhibit. This estimator restores paper-scale
    /// skew analytically: a vertex is touched by a batch with probability
    /// `p(v) = 1 − exp(−c·deg(v))`, with `c` calibrated so the expected
    /// touched set matches the paper-scale bottom-layer size. The replica's
    /// degree distribution (same generator family) supplies the shape.
    pub fn paper_coverage(&self, ratio: f64) -> f64 {
        let ratio = ratio.clamp(0.0, 1.0);
        let idx = ratio * (self.paper_coverage_curve.len() - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = (lo + 1).min(self.paper_coverage_curve.len() - 1);
        let frac = idx - lo as f64;
        self.paper_coverage_curve[lo] * (1.0 - frac) + self.paper_coverage_curve[hi] * frac
    }

    /// Clones the profile for a different GNN architecture. Sampling is
    /// architecture-independent, so the measured statistics carry over —
    /// only the FLOP accounting changes.
    pub fn with_kind(&self, kind: neutron_nn::LayerKind) -> WorkloadProfile {
        let mut p = self.clone();
        p.config.kind = kind;
        p
    }

    /// Stats of epoch batch `i` (cycled over the profiled set).
    pub fn stats(&self, i: usize) -> &SampleStats {
        &self.per_batch[i % self.per_batch.len()]
    }

    /// GAS 1-hop stats of batch `i`.
    pub fn one_hop_stats(&self, i: usize) -> OneHopStats {
        self.one_hop[i % self.one_hop.len()]
    }

    /// Coverage of a `k`-vertex cache under the presample ranking.
    pub fn presample_coverage_topk(&self, k: usize) -> f64 {
        self.presample_coverage[k.min(self.presample_coverage.len() - 1)]
    }

    /// Coverage of a `k`-vertex cache under the degree ranking.
    pub fn degree_coverage_topk(&self, k: usize) -> f64 {
        self.degree_coverage[k.min(self.degree_coverage.len() - 1)]
    }

    /// Seed count of batch `i` (the last batch may be short).
    pub fn seeds(&self, i: usize) -> usize {
        let train = (self.num_vertices as f64 * 0.65) as usize;
        let full = train / self.config.batch_size;
        if i < full {
            self.config.batch_size
        } else {
            (train - full * self.config.batch_size).max(1)
        }
    }
}

/// Builds the 1001-entry paper-scale coverage curve (see
/// [`WorkloadProfile::paper_coverage`]).
fn paper_coverage_curve(
    csr: &neutron_graph::Csr,
    spec: &DatasetSpec,
    config: &WorkloadConfig,
    fanout: &Fanout,
) -> Vec<f64> {
    // Paper-scale expected bottom-layer size via top-down expansion with
    // birthday dedup.
    let v_paper = spec.paper_vertices as f64;
    let mut dst = config.batch_size as f64;
    for l in (0..fanout.layers()).rev() {
        let picks = dst * (fanout.at(l) as f64 + 1.0);
        dst = picks.min(v_paper * (1.0 - (-picks / v_paper).exp()));
    }
    let target_fraction = (dst / v_paper).clamp(1e-6, 1.0);
    // Replica degree distribution, descending — the skew shape.
    let mut degs: Vec<f64> = (0..csr.num_vertices())
        .map(|v| csr.degree(v as u32) as f64)
        .collect();
    degs.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap());
    if degs.is_empty() {
        return vec![0.0; 1001];
    }
    let n = degs.len() as f64;
    // Bisect c so that mean(1 − exp(−c·deg)) == target_fraction.
    let mean_p = |c: f64| degs.iter().map(|&d| 1.0 - (-c * d).exp()).sum::<f64>() / n;
    let (mut lo, mut hi) = (1e-12f64, 1e3f64);
    for _ in 0..80 {
        let mid = (lo * hi).sqrt();
        if mean_p(mid) < target_fraction {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let c = (lo * hi).sqrt();
    let ps: Vec<f64> = degs.iter().map(|&d| 1.0 - (-c * d).exp()).collect();
    let total: f64 = ps.iter().sum::<f64>().max(1e-12);
    // Cumulative coverage at 1/1000 vertex-ratio granularity.
    let mut curve = Vec::with_capacity(1001);
    let mut cum = 0.0;
    let mut next = 0usize;
    for step in 0..=1000usize {
        let k = ((step as f64 / 1000.0) * n).round() as usize;
        while next < k.min(ps.len()) {
            cum += ps[next];
            next += 1;
        }
        curve.push(cum / total);
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_profile() -> WorkloadProfile {
        let spec = DatasetSpec::tiny();
        let mut cfg = WorkloadConfig::paper_default(LayerKind::Gcn);
        cfg.batch_size = 64;
        cfg.layers = 2;
        cfg.profiled_batches = 3;
        WorkloadProfile::build(&spec, &cfg)
    }

    #[test]
    fn profile_measures_real_batches() {
        let p = tiny_profile();
        assert_eq!(p.per_batch.len(), 3);
        assert!(p.num_batches >= 3);
        for i in 0..p.per_batch.len() {
            assert_eq!(p.stats(i).layers.len(), 2);
            assert!(p.stats(i).layers[0].num_src >= p.stats(i).layers[1].num_src);
        }
        // Cycling beyond the profiled range works.
        let _ = p.stats(100);
        let _ = p.one_hop_stats(100);
    }

    #[test]
    fn coverage_curves_are_monotone_and_bounded() {
        let p = tiny_profile();
        for curve in [&p.presample_coverage, &p.degree_coverage] {
            assert!(curve.windows(2).all(|w| w[0] <= w[1] + 1e-12));
            assert!(*curve.last().unwrap() <= 1.0 + 1e-9);
            assert_eq!(curve[0], 0.0);
        }
        // Presample ranking is optimal for its own access counts.
        let k = p.num_vertices / 10;
        assert!(p.presample_coverage_topk(k) + 1e-9 >= p.degree_coverage_topk(k));
    }

    #[test]
    fn hot_set_matches_ratio_and_coverage_is_consistent() {
        let p = tiny_profile();
        let expect = (p.num_vertices as f64 * p.config.hot_ratio).round() as usize;
        assert_eq!(p.hot.len(), expect);
        let k = p.hot.len();
        assert!((p.hot_coverage - p.presample_coverage_topk(k)).abs() < 1e-9);
    }

    #[test]
    fn hot_super_batch_workload_is_bounded_by_hot_set() {
        let p = tiny_profile();
        assert!(p.hot_per_super_batch <= p.hot.len() as f64 + 1e-9);
        assert!(p.hot_one_hop_edges <= p.hot.len() as u64 * 25);
    }

    #[test]
    fn paper_coverage_is_monotone_and_skewed() {
        let p = tiny_profile();
        assert_eq!(p.paper_coverage(0.0), 0.0);
        assert!((p.paper_coverage(1.0) - 1.0).abs() < 1e-9);
        assert!(p.paper_coverage(0.3) >= p.paper_coverage(0.1));
        // Skew: the hottest 20% must cover more than 20% of accesses on a
        // graph with any degree variance.
        assert!(p.paper_coverage(0.2) >= 0.2);
    }

    #[test]
    fn paper_coverage_exceeds_replica_coverage_on_large_graphs() {
        // For a dataset whose paper graph is much larger than one batch's
        // reach, the analytic curve shows stronger skew than the saturated
        // replica measurement.
        let mut spec = DatasetSpec::papers100m_scaled();
        spec.vertices = 8_000;
        spec.edges = 112_000;
        let mut cfg = WorkloadConfig::paper_default(LayerKind::Gcn);
        cfg.profiled_batches = 2;
        let p = WorkloadProfile::build(&spec, &cfg);
        let k = (0.15 * p.num_vertices as f64) as usize;
        let replica_cov = p.presample_coverage_topk(k);
        assert!(
            p.paper_coverage(0.15) > replica_cov * 0.9,
            "paper {} vs replica {}",
            p.paper_coverage(0.15),
            replica_cov
        );
        assert!(p.paper_coverage(0.15) > 0.3, "BA skew should be strong");
    }

    #[test]
    fn seeds_respects_batch_boundaries() {
        let p = tiny_profile();
        assert_eq!(p.seeds(0), 64);
        let total: usize = (0..p.num_batches).map(|i| p.seeds(i)).sum();
        let train = (p.num_vertices as f64 * 0.65) as usize;
        assert_eq!(total, train);
    }
}
