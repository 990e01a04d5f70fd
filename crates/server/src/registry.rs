//! The preloaded workload registry: every named scene, kNN dataset and point cloud of the
//! shared [`catalog`], built and validated once at server
//! startup so the hot serving path never pays admission-time validation (the
//! [`SceneValidator`] contract: validate at scene admission, trace with the plain entry points
//! thereafter).

use std::collections::{BTreeMap, HashMap};

use rayflex_core::PipelineConfig;
use rayflex_geometry::{Sphere, Vec3};
use rayflex_rtunit::{Bvh4, HierarchicalSearch, QueryError, Scene, SceneValidator};
use rayflex_workloads::wire::catalog;

/// The radius of the sphere each cloud point becomes in its hierarchy.
const POINT_RADIUS: f32 = 0.05;

/// What a request's `scene` name resolved to — used to distinguish "unknown name" from "known
/// name, wrong query kind" in error responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// A triangle scene (trace / any-hit).
    Scene,
    /// A vector dataset (kNN).
    Dataset,
    /// A point cloud (radius).
    Cloud,
}

/// The server's preloaded workloads, immutable after startup and lent to the executor: each
/// triangle scene with its BVH, each kNN dataset, and each point cloud with the sphere [`Bvh4`]
/// its radius queries collect candidates from (one sphere of radius 0.05 per point).
#[derive(Debug)]
pub struct Registry {
    scenes: HashMap<String, Scene>,
    datasets: HashMap<String, Vec<Vec<f32>>>,
    clouds: BTreeMap<String, (Vec<Vec3>, Bvh4)>,
}

impl Registry {
    /// Builds and validates every catalog entry.
    ///
    /// # Errors
    ///
    /// The first [`QueryError::InvalidScene`] if a catalog scene fails validation (a bug in the
    /// catalog, not in a client — the server refuses to start rather than serving a scene whose
    /// traversal invariants do not hold).
    pub fn preload() -> Result<Self, QueryError> {
        let mut scenes = HashMap::new();
        for name in catalog::SCENES {
            let triangles = catalog::scene_triangles(name).unwrap_or_default();
            let scene = Scene::from_parts(Bvh4::build(&triangles), triangles);
            SceneValidator::validate_scene(&scene)?;
            scenes.insert(name.to_string(), scene);
        }
        let mut datasets = HashMap::new();
        for name in catalog::DATASETS {
            datasets.insert(
                name.to_string(),
                catalog::dataset_vectors(name).unwrap_or_default(),
            );
        }
        let mut clouds = BTreeMap::new();
        for name in catalog::CLOUDS {
            let points = catalog::cloud_points(name).unwrap_or_default();
            let spheres = points.iter().map(|&p| Sphere::new(p, POINT_RADIUS));
            let bvh = Bvh4::build(&spheres.collect::<Vec<_>>());
            clouds.insert(name.to_string(), (points, bvh));
        }
        Ok(Registry {
            scenes,
            datasets,
            clouds,
        })
    }

    /// The named triangle scene, if preloaded.
    #[must_use]
    pub fn scene(&self, name: &str) -> Option<&Scene> {
        self.scenes.get(name)
    }

    /// The named kNN dataset, if preloaded.
    #[must_use]
    pub fn dataset(&self, name: &str) -> Option<&Vec<Vec<f32>>> {
        self.datasets.get(name)
    }

    /// Every preloaded point cloud in name order: its name, points and sphere hierarchy.
    pub fn clouds(&self) -> impl Iterator<Item = (&str, &[Vec3], &Bvh4)> {
        let clouds = self.clouds.iter();
        clouds.map(|(name, (points, bvh))| (name.as_str(), points.as_slice(), bvh))
    }

    /// What `name` resolves to, across all three namespaces.
    #[must_use]
    pub fn kind_of(&self, name: &str) -> Option<TargetKind> {
        if self.scenes.contains_key(name) {
            Some(TargetKind::Scene)
        } else if self.datasets.contains_key(name) {
            Some(TargetKind::Dataset)
        } else if self.clouds.contains_key(name) {
            Some(TargetKind::Cloud)
        } else {
            None
        }
    }

    /// Builds a standalone [`HierarchicalSearch`] over a copy of every preloaded cloud.  The
    /// executor runs radius queries on its own datapath; these engines serve perfbench's traced
    /// `serve_mix` replay and tests that compare the executor's answers with the library's.
    #[must_use]
    pub fn build_cloud_engines(&self) -> HashMap<String, HierarchicalSearch> {
        self.clouds
            .iter()
            .map(|(name, (points, _))| {
                (
                    name.clone(),
                    HierarchicalSearch::build(
                        points.clone(),
                        POINT_RADIUS,
                        PipelineConfig::extended_unified(),
                    ),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_whole_catalog_preloads_and_resolves() {
        let registry = Registry::preload().expect("catalog scenes must validate");
        for name in catalog::SCENES {
            assert!(registry.scene(name).is_some(), "{name}");
            assert_eq!(registry.kind_of(name), Some(TargetKind::Scene));
        }
        for name in catalog::DATASETS {
            assert!(registry.dataset(name).is_some(), "{name}");
            assert_eq!(registry.kind_of(name), Some(TargetKind::Dataset));
        }
        for name in catalog::CLOUDS {
            assert_eq!(registry.kind_of(name), Some(TargetKind::Cloud));
        }
        let clouds: Vec<&str> = registry.clouds().map(|(name, ..)| name).collect();
        assert_eq!(clouds, catalog::CLOUDS);
        assert_eq!(registry.kind_of("no-such-scene"), None);
        assert_eq!(registry.build_cloud_engines().len(), catalog::CLOUDS.len());
    }
}
