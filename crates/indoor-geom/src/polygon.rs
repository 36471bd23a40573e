//! Simple polygons.

use serde::{Deserialize, Serialize};

use crate::{GeomError, Point, EPS};

/// A simple polygon described by its vertex ring (either orientation; no
/// repeated closing vertex).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "Vec<Point>", into = "Vec<Point>")]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Creates a polygon from at least three vertices with non-zero area.
    ///
    /// # Errors
    /// Returns [`GeomError::TooFewVertices`] for fewer than three vertices and
    /// [`GeomError::ZeroAreaPolygon`] when the ring is degenerate.
    pub fn new(vertices: Vec<Point>) -> Result<Self, GeomError> {
        if vertices.len() < 3 {
            return Err(GeomError::TooFewVertices(vertices.len()));
        }
        let poly = Polygon { vertices };
        if poly.area() <= EPS {
            return Err(GeomError::ZeroAreaPolygon);
        }
        Ok(poly)
    }

    /// The vertex ring.
    #[must_use]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Heap bytes of the vertex ring, its capacity included.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.vertices.capacity() * std::mem::size_of::<Point>()
    }

    /// Signed area: positive for counter-clockwise rings.
    #[must_use]
    pub fn signed_area(&self) -> f64 {
        let n = self.vertices.len();
        let mut acc = 0.0;
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            acc += p.x * q.y - q.x * p.y;
        }
        acc / 2.0
    }

    /// Absolute area in square metres.
    #[must_use]
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// The area centroid.
    #[must_use]
    pub fn centroid(&self) -> Point {
        let n = self.vertices.len();
        let a = self.signed_area();
        let (mut cx, mut cy) = (0.0, 0.0);
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            let w = p.x * q.y - q.x * p.y;
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
        }
        Point::new(cx / (6.0 * a), cy / (6.0 * a))
    }

    /// Point-in-polygon test (even-odd rule); boundary points count as inside.
    #[must_use]
    pub fn contains(&self, p: Point) -> bool {
        let n = self.vertices.len();
        let mut inside = false;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            // Boundary check: p on segment ab.
            let ab = b - a;
            let ap = p - a;
            if ab.cross(ap).abs() <= EPS && ap.dot(ab) >= -EPS && (p - b).dot(-ab) >= -EPS {
                return true;
            }
            // Ray casting to +x.
            if (a.y > p.y) != (b.y > p.y) {
                let x_int = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
                if x_int > p.x {
                    inside = !inside;
                }
            }
        }
        inside
    }

    /// Whether every edge is axis-parallel (the input class accepted by
    /// [`crate::decompose_rectilinear`]).
    #[must_use]
    pub fn is_rectilinear(&self) -> bool {
        let n = self.vertices.len();
        (0..n).all(|i| {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            (a.x - b.x).abs() <= EPS || (a.y - b.y).abs() <= EPS
        })
    }

    /// Whether the polygon is convex (either orientation).
    #[must_use]
    pub fn is_convex(&self) -> bool {
        let n = self.vertices.len();
        let mut sign: Option<f64> = None;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            let c = self.vertices[(i + 2) % n];
            let cross = (b - a).cross(c - b);
            if cross.abs() <= EPS {
                continue;
            }
            match sign {
                None => sign = Some(cross.signum()),
                #[expect(
                    clippy::float_cmp,
                    reason = "signum is exactly 1.0 or -1.0 here (|cross| > EPS), so this compares signs"
                )]
                Some(s) if cross.signum() != s => return false,
                Some(_) => {}
            }
        }
        true
    }

    /// The axis-aligned bounding box as `(min, max)` corners.
    #[must_use]
    pub fn bounding_box(&self) -> (Point, Point) {
        let mut min = self.vertices[0];
        let mut max = self.vertices[0];
        for v in &self.vertices[1..] {
            min.x = min.x.min(v.x);
            min.y = min.y.min(v.y);
            max.x = max.x.max(v.x);
            max.y = max.y.max(v.y);
        }
        (min, max)
    }
}

impl TryFrom<Vec<Point>> for Polygon {
    type Error = GeomError;

    fn try_from(v: Vec<Point>) -> Result<Self, GeomError> {
        Polygon::new(v)
    }
}

impl From<Polygon> for Vec<Point> {
    fn from(p: Polygon) -> Vec<Point> {
        p.vertices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Polygon {
        Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
        ])
        .unwrap()
    }

    fn l_shape() -> Polygon {
        // An L: 10x10 square minus its top-right 5x5 quadrant.
        Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 5.0),
            Point::new(5.0, 5.0),
            Point::new(5.0, 10.0),
            Point::new(0.0, 10.0),
        ])
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Polygon::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]).is_err());
        assert!(Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0)
        ])
        .is_err()); // collinear
    }

    #[test]
    fn area_and_centroid() {
        assert_eq!(square().area(), 100.0);
        assert_eq!(square().centroid(), Point::new(5.0, 5.0));
        assert_eq!(l_shape().area(), 75.0);
        // Clockwise ring has the same absolute area.
        let cw = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 10.0),
            Point::new(10.0, 10.0),
            Point::new(10.0, 0.0),
        ])
        .unwrap();
        assert!(cw.signed_area() < 0.0);
        assert_eq!(cw.area(), 100.0);
        assert_eq!(cw.centroid(), Point::new(5.0, 5.0));
    }

    #[test]
    fn containment() {
        let l = l_shape();
        assert!(l.contains(Point::new(2.0, 2.0)));
        assert!(l.contains(Point::new(2.0, 8.0)));
        assert!(!l.contains(Point::new(8.0, 8.0))); // removed quadrant
        assert!(l.contains(Point::new(0.0, 0.0))); // corner
        assert!(l.contains(Point::new(5.0, 7.0))); // boundary edge
        assert!(!l.contains(Point::new(-0.1, 5.0)));
    }

    #[test]
    fn shape_predicates() {
        assert!(square().is_rectilinear());
        assert!(square().is_convex());
        assert!(l_shape().is_rectilinear());
        assert!(!l_shape().is_convex());
        let tri = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(2.0, 3.0),
        ])
        .unwrap();
        assert!(!tri.is_rectilinear());
        assert!(tri.is_convex());
    }

    #[test]
    fn bounding_box() {
        let (min, max) = l_shape().bounding_box();
        assert_eq!(min, Point::new(0.0, 0.0));
        assert_eq!(max, Point::new(10.0, 10.0));
    }

    #[test]
    fn serde_round_trip() {
        let json = serde_json::to_string(&l_shape()).unwrap();
        let back: Polygon = serde_json::from_str(&json).unwrap();
        assert_eq!(back, l_shape());
    }
}
