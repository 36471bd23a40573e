//! Axis-aligned rectangles.

use serde::{Deserialize, Serialize};

use crate::{GeomError, Point, Polygon, Segment, EPS};

/// An axis-aligned rectangle — the shape of a regular (decomposed) partition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    min: Point,
    max: Point,
}

impl Rect {
    /// Creates a rectangle from its min (south-west) and max (north-east)
    /// corners.
    ///
    /// # Errors
    /// Returns [`GeomError::DegenerateRect`] if either extent is not strictly
    /// positive or a coordinate is not finite.
    pub fn new(min: Point, max: Point) -> Result<Self, GeomError> {
        let finite =
            min.x.is_finite() && min.y.is_finite() && max.x.is_finite() && max.y.is_finite();
        if !finite || max.x - min.x <= EPS || max.y - min.y <= EPS {
            return Err(GeomError::DegenerateRect { min, max });
        }
        Ok(Rect { min, max })
    }

    /// Creates a rectangle from an origin corner plus width/height. Panics on
    /// invalid input; intended for generator literals.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented panicking literal constructor for generator fixtures"
    )]
    pub fn with_size(origin: Point, width: f64, height: f64) -> Self {
        Rect::new(origin, Point::new(origin.x + width, origin.y + height))
            .expect("rect literal must be non-degenerate")
    }

    /// South-west corner.
    #[must_use]
    pub fn min(self) -> Point {
        self.min
    }

    /// North-east corner.
    #[must_use]
    pub fn max(self) -> Point {
        self.max
    }

    /// Width (x extent) in metres.
    #[must_use]
    pub fn width(self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (y extent) in metres.
    #[must_use]
    pub fn height(self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area in square metres.
    #[must_use]
    pub fn area(self) -> f64 {
        self.width() * self.height()
    }

    /// Geometric centre.
    #[must_use]
    pub fn center(self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Whether `p` lies inside or on the boundary.
    #[must_use]
    pub fn contains(self, p: Point) -> bool {
        self.min.x - EPS <= p.x
            && p.x <= self.max.x + EPS
            && self.min.y - EPS <= p.y
            && p.y <= self.max.y + EPS
    }

    /// Whether the interiors of the two rectangles intersect.
    #[must_use]
    pub fn intersects(self, other: Rect) -> bool {
        self.min.x < other.max.x - EPS
            && other.min.x < self.max.x - EPS
            && self.min.y < other.max.y - EPS
            && other.min.y < self.max.y - EPS
    }

    /// The shared boundary segment between two touching rectangles, if they
    /// abut along an edge of positive length (where a virtual door can sit).
    #[must_use]
    pub fn shared_edge(self, other: Rect) -> Option<Segment> {
        // Vertical contact: self's right edge on other's left edge (or the
        // mirrored case), with overlapping y ranges.
        let y_lo = self.min.y.max(other.min.y);
        let y_hi = self.max.y.min(other.max.y);
        if (self.max.x - other.min.x).abs() <= EPS && y_hi - y_lo > EPS {
            return Some(Segment::new(
                Point::new(self.max.x, y_lo),
                Point::new(self.max.x, y_hi),
            ));
        }
        if (other.max.x - self.min.x).abs() <= EPS && y_hi - y_lo > EPS {
            return Some(Segment::new(
                Point::new(self.min.x, y_lo),
                Point::new(self.min.x, y_hi),
            ));
        }
        // Horizontal contact.
        let x_lo = self.min.x.max(other.min.x);
        let x_hi = self.max.x.min(other.max.x);
        if (self.max.y - other.min.y).abs() <= EPS && x_hi - x_lo > EPS {
            return Some(Segment::new(
                Point::new(x_lo, self.max.y),
                Point::new(x_hi, self.max.y),
            ));
        }
        if (other.max.y - self.min.y).abs() <= EPS && x_hi - x_lo > EPS {
            return Some(Segment::new(
                Point::new(x_lo, self.min.y),
                Point::new(x_hi, self.min.y),
            ));
        }
        None
    }

    /// This rectangle as a counter-clockwise polygon.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "a non-degenerate rect's four corners always form a simple CCW polygon"
    )]
    pub fn to_polygon(self) -> Polygon {
        Polygon::new(vec![
            self.min,
            Point::new(self.max.x, self.min.y),
            self.max,
            Point::new(self.min.x, self.max.y),
        ])
        .expect("rectangle corners form a simple polygon")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1)).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Rect::new(Point::new(0.0, 0.0), Point::new(0.0, 5.0)).is_err());
        assert!(Rect::new(Point::new(0.0, 0.0), Point::new(-1.0, 5.0)).is_err());
        assert!(Rect::new(Point::new(0.0, f64::NAN), Point::new(1.0, 5.0)).is_err());
        assert!(Rect::new(Point::new(0.0, 0.0), Point::new(4.0, 5.0)).is_ok());
    }

    #[test]
    fn measurements() {
        let rect = r(1.0, 2.0, 5.0, 10.0);
        assert_eq!(rect.width(), 4.0);
        assert_eq!(rect.height(), 8.0);
        assert_eq!(rect.area(), 32.0);
        assert_eq!(rect.center(), Point::new(3.0, 6.0));
    }

    #[test]
    fn containment() {
        let rect = r(0.0, 0.0, 10.0, 10.0);
        assert!(rect.contains(Point::new(5.0, 5.0)));
        assert!(rect.contains(Point::new(0.0, 0.0))); // boundary included
        assert!(rect.contains(Point::new(10.0, 10.0)));
        assert!(!rect.contains(Point::new(10.1, 5.0)));
    }

    #[test]
    fn interior_intersection() {
        let a = r(0.0, 0.0, 10.0, 10.0);
        assert!(a.intersects(r(5.0, 5.0, 15.0, 15.0)));
        assert!(!a.intersects(r(10.0, 0.0, 20.0, 10.0))); // touching edges only
        assert!(!a.intersects(r(11.0, 0.0, 20.0, 10.0)));
    }

    #[test]
    fn shared_edges() {
        let a = r(0.0, 0.0, 10.0, 10.0);
        // Right neighbour sharing x = 10, y in [2, 8].
        let right = r(10.0, 2.0, 20.0, 8.0);
        let e = a.shared_edge(right).unwrap();
        assert_eq!(e.a, Point::new(10.0, 2.0));
        assert_eq!(e.b, Point::new(10.0, 8.0));
        assert_eq!(right.shared_edge(a).unwrap().midpoint(), e.midpoint());
        // Top neighbour.
        let top = r(3.0, 10.0, 7.0, 20.0);
        let e = a.shared_edge(top).unwrap();
        assert_eq!(e.midpoint(), Point::new(5.0, 10.0));
        // Corner-only contact yields no edge.
        let corner = r(10.0, 10.0, 20.0, 20.0);
        assert!(a.shared_edge(corner).is_none());
        // Distant rectangles yield no edge.
        assert!(a.shared_edge(r(30.0, 0.0, 40.0, 10.0)).is_none());
    }

    #[test]
    fn polygon_conversion() {
        let p = r(0.0, 0.0, 4.0, 3.0).to_polygon();
        assert!((p.area() - 12.0).abs() < 1e-12);
        assert!(p.contains(Point::new(2.0, 1.5)));
    }
}
