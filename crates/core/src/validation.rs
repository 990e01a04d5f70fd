//! The paper's twenty directed functional test cases (§IV-A): nine ray–box and eleven
//! ray–triangle scenarios with their expected outcomes.
//!
//! The paper lists the scenarios but not their coordinates, so this module defines concrete
//! vectors that realise each description.  For the surface/corner/edge scenarios the paper
//! explains that its implementation treats rays coplanar with a box face as misses because the
//! slab arithmetic produces `inf × 0 = NaN`; the vectors chosen here exercise exactly that path.

use rayflex_geometry::{golden, Aabb, Ray, Triangle, Vec3};

use crate::{PipelineConfig, RayFlexDatapath, RayFlexRequest};

/// The expected outcome of a directed case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    /// Expected hit flags of the four box slots, in input order.
    BoxHits([bool; 4]),
    /// Expected hit flag of the triangle test.
    TriangleHit(bool),
}

/// One directed test case.
#[derive(Debug, Clone)]
pub struct DirectedCase {
    /// Case identifier, e.g. `"box-03"` or `"tri-11"`.
    pub id: &'static str,
    /// The paper's description of the scenario.
    pub description: &'static str,
    /// The request realising the scenario.
    pub request: RayFlexRequest,
    /// The expected outcome.
    pub expected: Expected,
}

/// The outcome of running one directed case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseOutcome {
    /// Case identifier.
    pub id: &'static str,
    /// Whether the datapath matched the expected outcome.
    pub passed: bool,
    /// Whether the golden software model also matched the expected outcome.
    pub golden_agrees: bool,
}

/// Summary of a directed-suite run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SuiteReport {
    /// Per-case outcomes.
    pub outcomes: Vec<CaseOutcome>,
}

impl SuiteReport {
    /// Number of cases that passed on the datapath.
    #[must_use]
    pub fn passed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.passed).count()
    }

    /// Number of cases that failed on the datapath.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.outcomes.len() - self.passed()
    }

    /// `true` when every case passed and the golden model agreed everywhere.
    #[must_use]
    pub fn all_green(&self) -> bool {
        self.outcomes.iter().all(|o| o.passed && o.golden_agrees)
    }
}

fn unit_box() -> Aabb {
    Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0))
}

fn far_box() -> Aabb {
    Aabb::new(Vec3::new(50.0, 50.0, 50.0), Vec3::new(52.0, 52.0, 52.0))
}

/// The canonical front-facing triangle used by the triangle cases: its front face (in the
/// paper's `dir · (AB × AC) > 0` culling convention) is hit by rays travelling towards +z.
fn facing_triangle() -> Triangle {
    Triangle::new(
        Vec3::new(-1.0, -1.0, 3.0),
        Vec3::new(1.0, -1.0, 3.0),
        Vec3::new(0.0, 1.0, 3.0),
    )
}

fn box_case(
    id: &'static str,
    description: &'static str,
    ray: Ray,
    boxes: [Aabb; 4],
    expected: [bool; 4],
) -> DirectedCase {
    DirectedCase {
        id,
        description,
        request: RayFlexRequest::ray_box(0, &ray, &boxes),
        expected: Expected::BoxHits(expected),
    }
}

fn tri_case(
    id: &'static str,
    description: &'static str,
    ray: Ray,
    triangle: Triangle,
    expected: bool,
) -> DirectedCase {
    DirectedCase {
        id,
        description,
        request: RayFlexRequest::ray_triangle(0, &ray, &triangle),
        expected: Expected::TriangleHit(expected),
    }
}

/// Builds the nine directed ray–box cases of §IV-A.
#[must_use]
pub fn ray_box_cases() -> Vec<DirectedCase> {
    let unit = unit_box();
    vec![
        box_case(
            "box-01",
            "ray originating from within the box (hit)",
            Ray::new(Vec3::new(0.2, 0.1, -0.3), Vec3::new(0.3, 0.5, 1.0)),
            [unit; 4],
            [true; 4],
        ),
        box_case(
            "box-02",
            "ray from outside the box and pointing away (miss)",
            Ray::new(Vec3::new(0.0, 0.0, 5.0), Vec3::new(0.1, 0.2, 1.0)),
            [unit; 4],
            [false; 4],
        ),
        box_case(
            "box-03",
            "ray from a surface of the box and pointing away (miss, coplanar with the face)",
            Ray::new(Vec3::new(0.0, 1.0, 0.0), Vec3::new(1.0, 0.0, 0.2)),
            [unit; 4],
            [false; 4],
        ),
        box_case(
            "box-04",
            "ray from a corner of the box and pointing away (miss)",
            Ray::new(Vec3::new(1.0, 1.0, 1.0), Vec3::new(1.0, 1.0, 0.0)),
            [unit; 4],
            [false; 4],
        ),
        box_case(
            "box-05",
            "ray from a corner of the box and pointing along an edge (miss)",
            Ray::new(Vec3::new(1.0, 1.0, 1.0), Vec3::new(0.0, 0.0, -1.0)),
            [unit; 4],
            [false; 4],
        ),
        box_case(
            "box-06",
            "ray from outside, pointing towards the box (hit)",
            Ray::new(Vec3::new(0.3, -0.2, -6.0), Vec3::new(0.0, 0.05, 1.0)),
            [unit; 4],
            [true; 4],
        ),
        box_case(
            "box-07",
            "ray hits two boxes in a row",
            Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::new(0.0, 0.0, 1.0)),
            [
                Aabb::new(Vec3::new(-1.0, -1.0, 0.0), Vec3::new(1.0, 1.0, 1.0)),
                Aabb::new(Vec3::new(-1.0, -1.0, 3.0), Vec3::new(1.0, 1.0, 4.0)),
                far_box(),
                far_box(),
            ],
            [true, true, false, false],
        ),
        box_case(
            "box-08",
            "ray hits three boxes in a row and misses a fourth box off its path",
            Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::new(0.0, 0.0, 1.0)),
            [
                Aabb::new(Vec3::new(-1.0, -1.0, 0.0), Vec3::new(1.0, 1.0, 1.0)),
                Aabb::new(Vec3::new(-1.0, -1.0, 3.0), Vec3::new(1.0, 1.0, 4.0)),
                Aabb::new(Vec3::new(-1.0, -1.0, 6.0), Vec3::new(1.0, 1.0, 7.0)),
                far_box(),
            ],
            [true, true, true, false],
        ),
        box_case(
            "box-09",
            "ray from outside the box, overlapping with an edge of the box (miss)",
            Ray::new(Vec3::new(1.0, 1.0, 5.0), Vec3::new(0.0, 0.0, -1.0)),
            [unit; 4],
            [false; 4],
        ),
    ]
}

/// Builds the eleven directed ray–triangle cases of §IV-A.
#[must_use]
pub fn ray_triangle_cases() -> Vec<DirectedCase> {
    let tri = facing_triangle();
    let towards_z = |origin: Vec3| Ray::new(origin, Vec3::new(0.0, 0.0, 1.0));
    vec![
        tri_case(
            "tri-01",
            "ray hits the back of triangle (miss)",
            towards_z(Vec3::ZERO),
            tri.flipped(),
            false,
        ),
        tri_case(
            "tri-02",
            "ray hits the front of triangle",
            towards_z(Vec3::ZERO),
            tri,
            true,
        ),
        tri_case(
            "tri-03",
            "ray hits an edge of triangle from the front side (hit)",
            towards_z(Vec3::new(0.0, -1.0, 0.0)),
            tri,
            true,
        ),
        tri_case(
            "tri-04",
            "ray hits a triangle vertex from the front side (hit)",
            towards_z(Vec3::new(0.0, 1.0, 0.0)),
            tri,
            true,
        ),
        tri_case(
            "tri-05",
            "ray misses the triangle",
            Ray::new(Vec3::new(5.0, 5.0, 0.0), Vec3::new(0.1, 0.1, 1.0)),
            tri,
            false,
        ),
        tri_case(
            "tri-06",
            "ray is parallel to the normal vector of the triangle but has no intersection (miss)",
            towards_z(Vec3::new(3.0, 0.0, 0.0)),
            tri,
            false,
        ),
        tri_case(
            "tri-07",
            "ray hits a far-away triangle",
            towards_z(Vec3::ZERO),
            tri.translated(Vec3::new(0.0, 0.0, 30_000.0)),
            true,
        ),
        tri_case(
            "tri-08",
            "ray hits the front of triangle at an oblique angle",
            Ray::new(Vec3::new(-2.0, -1.5, 0.0), Vec3::new(2.1, 1.3, 3.0)),
            tri,
            true,
        ),
        tri_case(
            "tri-09",
            "coplanar ray hits the edge of triangle (miss)",
            Ray::new(Vec3::new(-5.0, -1.0, 3.0), Vec3::new(1.0, 0.0, 0.0)),
            tri,
            false,
        ),
        tri_case(
            "tri-10",
            "ray (aligned with a different axis compared to case #2) hits the front of triangle",
            Ray::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)),
            Triangle::new(
                Vec3::new(3.0, -1.0, -1.0),
                Vec3::new(3.0, 1.0, -1.0),
                Vec3::new(3.0, 0.0, 1.0),
            ),
            true,
        ),
        tri_case(
            "tri-11",
            "coplanar ray originating from within the triangle hits edge of triangle (miss)",
            Ray::new(Vec3::new(0.0, -0.5, 3.0), Vec3::new(1.0, 0.0, 0.0)),
            tri,
            false,
        ),
    ]
}

/// All twenty directed cases.
#[must_use]
pub fn directed_cases() -> Vec<DirectedCase> {
    let mut cases = ray_box_cases();
    cases.extend(ray_triangle_cases());
    cases
}

/// Runs one directed case on a datapath and checks the outcome against the expectation and
/// against the golden software model.
#[must_use]
pub fn run_case(case: &DirectedCase, datapath: &mut RayFlexDatapath) -> CaseOutcome {
    let response = datapath.execute(&case.request);
    let (passed, golden_agrees) = match case.expected {
        Expected::BoxHits(expected) => {
            let Some(result) = response.box_result else {
                unreachable!("a box case always returns a box result");
            };
            let ray = reconstruct_ray(&case.request);
            let golden_hits: [bool; 4] = core::array::from_fn(|i| {
                golden::slab::ray_box(&ray, &case.request.boxes_operand()[i]).hit
            });
            (result.hit == expected, golden_hits == expected)
        }
        Expected::TriangleHit(expected) => {
            let Some(result) = response.triangle_result else {
                unreachable!("a triangle case always returns a triangle result");
            };
            let ray = reconstruct_ray(&case.request);
            let golden_hit =
                golden::watertight::ray_triangle(&ray, case.request.triangle_operand()).hit;
            (result.hit == expected, golden_hit == expected)
        }
    };
    CaseOutcome {
        id: case.id,
        passed,
        golden_agrees,
    }
}

/// Runs the complete twenty-case suite on a fresh datapath of the given configuration.
#[must_use]
pub fn run_directed_suite(config: PipelineConfig) -> SuiteReport {
    let mut datapath = RayFlexDatapath::new(config);
    SuiteReport {
        outcomes: directed_cases()
            .iter()
            .map(|case| run_case(case, &mut datapath))
            .collect(),
    }
}

/// Rebuilds the geometry ray from a request's ray operand (for golden-model comparison).
fn reconstruct_ray(request: &RayFlexRequest) -> Ray {
    let ray = request.ray_operand();
    Ray::with_extent(
        Vec3::from_array(ray.origin),
        Vec3::from_array(ray.dir),
        ray.t_beg,
        ray.t_end,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Opcode;

    #[test]
    fn there_are_exactly_twenty_directed_cases() {
        assert_eq!(ray_box_cases().len(), 9);
        assert_eq!(ray_triangle_cases().len(), 11);
        assert_eq!(directed_cases().len(), 20);
        // Identifiers are unique.
        let ids: std::collections::BTreeSet<_> = directed_cases().iter().map(|c| c.id).collect();
        assert_eq!(ids.len(), 20);
    }

    #[test]
    fn every_directed_case_passes_on_the_baseline_datapath() {
        let report = run_directed_suite(PipelineConfig::baseline_unified());
        let failing: Vec<_> = report
            .outcomes
            .iter()
            .filter(|o| !o.passed || !o.golden_agrees)
            .map(|o| o.id)
            .collect();
        assert!(report.all_green(), "failing cases: {failing:?}");
        assert_eq!(report.passed(), 20);
        assert_eq!(report.failed(), 0);
    }

    #[test]
    fn every_directed_case_passes_on_the_extended_datapath_too() {
        let report = run_directed_suite(PipelineConfig::extended_disjoint());
        assert!(report.all_green());
    }

    #[test]
    fn directed_cases_use_the_right_opcodes() {
        for case in directed_cases() {
            match case.expected {
                Expected::BoxHits(_) => assert_eq!(case.request.opcode, Opcode::RayBox),
                Expected::TriangleHit(_) => assert_eq!(case.request.opcode, Opcode::RayTriangle),
            }
        }
    }
}
