//! Page geometry: bounding boxes and the IoU math used by the partitioner
//! and its COCO-style evaluation.
//!
//! Coordinates follow the PDF convention used by the Aryn Partitioner's
//! output: origin at the top-left of the page, x growing right, y growing
//! down, in points (a US-Letter page is 612 x 792).

/// An axis-aligned bounding box `[x0, y0, x1, y1]` with `x0 <= x1, y0 <= y1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    pub x0: f32,
    pub y0: f32,
    pub x1: f32,
    pub y1: f32,
}

impl BBox {
    /// Creates a box, normalizing inverted coordinates.
    pub fn new(x0: f32, y0: f32, x1: f32, y1: f32) -> BBox {
        BBox {
            x0: x0.min(x1),
            y0: y0.min(y1),
            x1: x0.max(x1),
            y1: y0.max(y1),
        }
    }

    /// A zero-area box at the origin.
    pub fn empty() -> BBox {
        BBox::new(0.0, 0.0, 0.0, 0.0)
    }

    pub fn width(&self) -> f32 {
        self.x1 - self.x0
    }

    pub fn height(&self) -> f32 {
        self.y1 - self.y0
    }

    pub fn area(&self) -> f32 {
        self.width() * self.height()
    }

    /// Center point `(cx, cy)`.
    pub fn center(&self) -> (f32, f32) {
        ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)
    }

    /// The intersection box, if the boxes overlap with positive area.
    pub fn intersect(&self, other: &BBox) -> Option<BBox> {
        let x0 = self.x0.max(other.x0);
        let y0 = self.y0.max(other.y0);
        let x1 = self.x1.min(other.x1);
        let y1 = self.y1.min(other.y1);
        if x0 < x1 && y0 < y1 {
            Some(BBox { x0, y0, x1, y1 })
        } else {
            None
        }
    }

    /// The smallest box containing both.
    pub fn union(&self, other: &BBox) -> BBox {
        BBox {
            x0: self.x0.min(other.x0),
            y0: self.y0.min(other.y0),
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
        }
    }

    /// Intersection-over-union, in `[0, 1]`. Zero-area boxes yield 0.
    pub fn iou(&self, other: &BBox) -> f32 {
        let inter = match self.intersect(other) {
            Some(b) => b.area(),
            None => return 0.0,
        };
        let union = self.area() + other.area() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    /// Fraction of `self`'s area covered by `other`.
    pub fn coverage_by(&self, other: &BBox) -> f32 {
        if self.area() <= 0.0 {
            return 0.0;
        }
        self.intersect(other).map_or(0.0, |b| b.area() / self.area())
    }

    /// True if `other` lies entirely within `self`.
    pub fn contains(&self, other: &BBox) -> bool {
        other.x0 >= self.x0 && other.x1 <= self.x1 && other.y0 >= self.y0 && other.y1 <= self.y1
    }

    /// Grows the box by `d` on every side (clamped to non-negative size).
    pub fn inflate(&self, d: f32) -> BBox {
        BBox::new(self.x0 - d, self.y0 - d, self.x1 + d, self.y1 + d)
    }

    /// Bounding box of an iterator of boxes; `None` when empty.
    pub fn enclosing<I: IntoIterator<Item = BBox>>(boxes: I) -> Option<BBox> {
        boxes.into_iter().reduce(|a, b| a.union(&b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(x0: f32, y0: f32, x1: f32, y1: f32) -> BBox {
        BBox::new(x0, y0, x1, y1)
    }

    #[test]
    fn new_normalizes_inverted_coords() {
        let v = b(10.0, 20.0, 0.0, 5.0);
        assert_eq!(v, BBox { x0: 0.0, y0: 5.0, x1: 10.0, y1: 20.0 });
    }

    #[test]
    fn iou_identity_and_disjoint() {
        let a = b(0.0, 0.0, 10.0, 10.0);
        assert!((a.iou(&a) - 1.0).abs() < 1e-6);
        assert_eq!(a.iou(&b(20.0, 20.0, 30.0, 30.0)), 0.0);
        // Touching edges have zero-area intersection.
        assert_eq!(a.iou(&b(10.0, 0.0, 20.0, 10.0)), 0.0);
    }

    #[test]
    fn iou_half_overlap() {
        let a = b(0.0, 0.0, 10.0, 10.0);
        let c = b(5.0, 0.0, 15.0, 10.0);
        // inter = 50, union = 150.
        assert!((a.iou(&c) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn union_and_intersect() {
        let a = b(0.0, 0.0, 10.0, 10.0);
        let c = b(5.0, 5.0, 20.0, 20.0);
        assert_eq!(a.union(&c), b(0.0, 0.0, 20.0, 20.0));
        assert_eq!(a.intersect(&c), Some(b(5.0, 5.0, 10.0, 10.0)));
    }

    #[test]
    fn containment_and_coverage() {
        let outer = b(0.0, 0.0, 100.0, 100.0);
        let inner = b(10.0, 10.0, 20.0, 20.0);
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        assert!((inner.coverage_by(&outer) - 1.0).abs() < 1e-6);
        assert!((outer.coverage_by(&inner) - 0.01).abs() < 1e-6);
    }

    #[test]
    fn enclosing_boxes() {
        let all = BBox::enclosing([b(0.0, 0.0, 1.0, 1.0), b(5.0, 5.0, 6.0, 8.0)]).unwrap();
        assert_eq!(all, b(0.0, 0.0, 6.0, 8.0));
        assert!(BBox::enclosing(std::iter::empty()).is_none());
    }

    #[test]
    fn inflate_grows_box() {
        assert_eq!(b(5.0, 5.0, 10.0, 10.0).inflate(2.0), b(3.0, 3.0, 12.0, 12.0));
    }
}
