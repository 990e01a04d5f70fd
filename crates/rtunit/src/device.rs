//! One modelled RT unit: the functional datapath, the scheduler every run goes through and the
//! reusable per-item state of each query kind.
//!
//! The paper's unified RT unit (§V-A) serves every query kind on one datapath, so the crate
//! assembles that unit in exactly one place.  Each engine holds one [`Device`], and every
//! work-stealing pool worker builds one and keeps it warm for every chunk it runs, whatever the
//! query kind.  The run bodies live beside their queries, as `impl Device` blocks:
//! `Device::trace` in `traversal`, `Device::score` in `knn` and `Device::collect` in
//! `hierarchical`.  Each returns its own statistics; the engine that owns the device merges them.

use rayflex_core::{PipelineConfig, RayFlexDatapath};

use crate::hierarchical::CollectWork;
use crate::knn::DistanceWork;
use crate::query::{FusedScheduler, RunnerArena};
use crate::traversal::TraversalArena;

/// A datapath, its scheduler and one arena per state type.  The scheduler keeps the stream
/// deadlines of its last run; `Device::trace` sets them on every run, and the single-stream
/// scoring and collection runs cannot be reordered by them.
#[derive(Debug)]
pub(crate) struct Device {
    pub(crate) datapath: RayFlexDatapath,
    pub(crate) scheduler: FusedScheduler,
    /// The two traversal streams of a request (a single-kind request uses only the first).
    pub(crate) traversal: [TraversalArena; 2],
    pub(crate) distance: RunnerArena<DistanceWork>,
    pub(crate) collect: RunnerArena<CollectWork>,
}

impl Device {
    /// A device over a datapath of `config`.  Every arena starts empty and allocates on first
    /// use.
    pub(crate) fn new(config: PipelineConfig) -> Self {
        Device {
            datapath: RayFlexDatapath::new(config),
            scheduler: FusedScheduler::new(),
            traversal: Default::default(),
            distance: RunnerArena::default(),
            collect: RunnerArena::default(),
        }
    }
}
