//! A dense rank-4 tensor: channels × depth × height × width.

use json::{parse_json, Json};

/// `f32` tensor with CDHW layout (batch size is 1 throughout, as in the
/// paper's training setup).
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    pub c: usize,
    pub d: usize,
    pub h: usize,
    pub w: usize,
    pub data: Vec<f32>,
}

impl Tensor {
    pub fn zeros(c: usize, d: usize, h: usize, w: usize) -> Self {
        Tensor {
            c,
            d,
            h,
            w,
            data: vec![0.0; c * d * h * w],
        }
    }

    pub fn from_vec(c: usize, d: usize, h: usize, w: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), c * d * h * w, "tensor data length mismatch");
        Tensor { c, d, h, w, data }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Voxels per channel.
    #[inline]
    pub fn spatial(&self) -> usize {
        self.d * self.h * self.w
    }

    #[inline]
    pub fn idx(&self, c: usize, z: usize, y: usize, x: usize) -> usize {
        debug_assert!(c < self.c && z < self.d && y < self.h && x < self.w);
        ((c * self.d + z) * self.h + y) * self.w + x
    }

    #[inline]
    pub fn get(&self, c: usize, z: usize, y: usize, x: usize) -> f32 {
        self.data[self.idx(c, z, y, x)]
    }

    #[inline]
    pub fn set(&mut self, c: usize, z: usize, y: usize, x: usize, v: f32) {
        let i = self.idx(c, z, y, x);
        self.data[i] = v;
    }

    /// One channel as a slice.
    pub fn channel(&self, c: usize) -> &[f32] {
        let s = self.spatial();
        &self.data[c * s..(c + 1) * s]
    }

    /// Concatenate along the channel axis.
    pub fn concat_channels(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            (self.d, self.h, self.w),
            (other.d, other.h, other.w),
            "concat: spatial shapes differ"
        );
        let mut data = Vec::with_capacity(self.len() + other.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Tensor {
            c: self.c + other.c,
            d: self.d,
            h: self.h,
            w: self.w,
            data,
        }
    }

    /// Split the first `c0` channels off (inverse of concat).
    pub fn split_channels(&self, c0: usize) -> (Tensor, Tensor) {
        assert!(c0 <= self.c);
        let s = self.spatial();
        let a = Tensor {
            c: c0,
            d: self.d,
            h: self.h,
            w: self.w,
            data: self.data[..c0 * s].to_vec(),
        };
        let b = Tensor {
            c: self.c - c0,
            d: self.d,
            h: self.h,
            w: self.w,
            data: self.data[c0 * s..].to_vec(),
        };
        (a, b)
    }

    /// Shape tuple for assertions.
    pub fn shape(&self) -> (usize, usize, usize, usize) {
        (self.c, self.d, self.h, self.w)
    }

    /// Serialize to a compact JSON string.
    pub fn to_json(&self) -> String {
        Json::obj([
            ("c", self.c.into()),
            ("d", self.d.into()),
            ("h", self.h.into()),
            ("w", self.w.into()),
            ("data", Json::f32s(&self.data)),
        ])
        .render()
    }

    /// Parse [`Tensor::to_json`] output.
    pub fn from_json(s: &str) -> Result<Tensor, String> {
        Self::from_json_value(&parse_json(s)?)
    }

    /// Build from an already-parsed JSON value.
    pub fn from_json_value(v: &Json) -> Result<Tensor, String> {
        let (c, d, h, w) = (
            v.get("c")?.as_usize()?,
            v.get("d")?.as_usize()?,
            v.get("h")?.as_usize()?,
            v.get("w")?.as_usize()?,
        );
        let data = v.get("data")?.as_f32_vec()?;
        if data.len() != c * d * h * w {
            return Err(format!(
                "tensor data length {} != {c}x{d}x{h}x{w}",
                data.len()
            ));
        }
        Ok(Tensor { c, d, h, w, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_row_major_cdhw() {
        let mut t = Tensor::zeros(2, 3, 4, 5);
        t.set(1, 2, 3, 4, 7.0);
        assert_eq!(t.data[((3 + 2) * 4 + 3) * 5 + 4], 7.0);
        assert_eq!(t.get(1, 2, 3, 4), 7.0);
        assert_eq!(t.len(), 2 * 3 * 4 * 5);
        assert_eq!(t.spatial(), 60);
    }

    #[test]
    fn concat_then_split_roundtrips() {
        let a = Tensor::from_vec(1, 2, 2, 2, (0..8).map(|i| i as f32).collect());
        let b = Tensor::from_vec(2, 2, 2, 2, (8..24).map(|i| i as f32).collect());
        let c = a.concat_channels(&b);
        assert_eq!(c.shape(), (3, 2, 2, 2));
        let (a2, b2) = c.split_channels(1);
        assert_eq!(a, a2);
        assert_eq!(b, b2);
    }

    #[test]
    fn channel_view_is_contiguous() {
        let t = Tensor::from_vec(2, 1, 2, 2, vec![1., 2., 3., 4., 5., 6., 7., 8.]);
        assert_eq!(t.channel(0), &[1., 2., 3., 4.]);
        assert_eq!(t.channel(1), &[5., 6., 7., 8.]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_vec_validates_length() {
        let _ = Tensor::from_vec(1, 2, 2, 2, vec![0.0; 7]);
    }

    #[test]
    fn json_roundtrip() {
        let t = Tensor::from_vec(1, 1, 2, 2, vec![1.5, -2.0, 0.1, 3.25]);
        let back = Tensor::from_json(&t.to_json()).unwrap();
        assert_eq!(t, back);
    }
}
