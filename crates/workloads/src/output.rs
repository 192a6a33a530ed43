//! The microbenchmark's fragment output: the values read, in op order.
//!
//! An output is produced on the partition's worker, shipped to the client
//! (or the coordinator) on another, read once and dropped — as a `Vec`
//! that is one heap block per transaction allocated on one thread and
//! freed on the other, the pattern a per-thread allocator cache handles
//! worst. The paper's transaction reads 12 values and a YCSB-E scan at
//! most 16, so [`MicroOutput`] holds up to [`INLINE_OUTPUTS`] values in
//! place and moves to the heap only beyond that. Everything observable —
//! contents, order, equality, `Debug` text, log encoding — is what the
//! `Vec<u32>` it replaced had.

use hcc_common::codec::{encode_slice, LogEncode};

/// Values an output holds without a heap block.
pub const INLINE_OUTPUTS: usize = 16;

/// Values read by a fragment, in op order; dereferences to `[u32]`.
#[derive(Clone)]
pub struct MicroOutput(Repr);

#[derive(Clone)]
enum Repr {
    /// `buf[..len]` are the values; the rest is padding.
    Inline {
        len: u8,
        buf: [u32; INLINE_OUTPUTS],
    },
    Heap(Vec<u32>),
}

impl MicroOutput {
    pub const fn new() -> Self {
        MicroOutput(Repr::Inline {
            len: 0,
            buf: [0; INLINE_OUTPUTS],
        })
    }

    pub fn push(&mut self, v: u32) {
        match &mut self.0 {
            Repr::Inline { len, buf } => {
                let n = usize::from(*len);
                if n < INLINE_OUTPUTS {
                    buf[n] = v;
                    *len += 1;
                } else {
                    let mut spilled = Vec::with_capacity(2 * INLINE_OUTPUTS);
                    spilled.extend_from_slice(buf);
                    spilled.push(v);
                    self.0 = Repr::Heap(spilled);
                }
            }
            Repr::Heap(vec) => vec.push(v),
        }
    }
}

impl Default for MicroOutput {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for MicroOutput {
    type Target = [u32];
    fn deref(&self) -> &[u32] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Heap(vec) => vec,
        }
    }
}

impl Extend<u32> for MicroOutput {
    fn extend<I: IntoIterator<Item = u32>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl FromIterator<u32> for MicroOutput {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut out = Self::new();
        out.extend(iter);
        out
    }
}

impl From<Vec<u32>> for MicroOutput {
    fn from(vec: Vec<u32>) -> Self {
        if vec.len() <= INLINE_OUTPUTS {
            vec.into_iter().collect()
        } else {
            MicroOutput(Repr::Heap(vec))
        }
    }
}

impl PartialEq for MicroOutput {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for MicroOutput {}

impl PartialEq<Vec<u32>> for MicroOutput {
    fn eq(&self, other: &Vec<u32>) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for MicroOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// Encodes exactly as `Vec<u32>` does: `u32` length, then the values.
impl LogEncode for MicroOutput {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_slice(self, out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Vec::<u32>::decode(input).map(Self::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_common::codec::{decode_exact, encode_to_vec};

    /// The representation is invisible: at every length across the
    /// inline/spill boundary the output behaves as the `Vec<u32>` holding
    /// the same values.
    #[test]
    fn agrees_with_vec_across_the_spill_boundary() {
        let mut out = MicroOutput::new();
        let mut model: Vec<u32> = Vec::new();
        for v in 0..=40u32 {
            let v = v.wrapping_mul(0x9E37_79B9);
            out.push(v);
            model.push(v);

            assert_eq!(&*out, model.as_slice(), "Deref at len {}", model.len());
            assert_eq!(out.len(), model.len());
            assert_eq!(out, model, "PartialEq<Vec> at len {}", model.len());

            let cloned = out.clone();
            assert_eq!(cloned, out, "Clone at len {}", model.len());
            assert_eq!(&*cloned, model.as_slice());

            // Equality is by contents, whichever way each side was built.
            assert_eq!(MicroOutput::from(model.clone()), out);
            assert_eq!(model.iter().copied().collect::<MicroOutput>(), out);
            let mut longer = out.clone();
            longer.push(1);
            assert_ne!(longer, out);

            assert_eq!(format!("{out:?}"), format!("{model:?}"));

            let bytes = encode_to_vec(&out);
            assert_eq!(
                bytes,
                encode_to_vec(&model),
                "LogEncode at len {}",
                model.len()
            );
            assert_eq!(decode_exact::<MicroOutput>(&bytes), Some(out.clone()));
        }
    }

    #[test]
    fn stays_inline_up_to_the_paper_sizes() {
        let mut out = MicroOutput::new();
        out.extend(0..INLINE_OUTPUTS as u32);
        assert!(matches!(out.0, Repr::Inline { .. }));
        out.push(0);
        assert!(matches!(out.0, Repr::Heap(_)));
    }

    #[test]
    fn truncated_encoding_decodes_to_none() {
        let bytes = encode_to_vec(&MicroOutput::from(vec![1, 2, 3]));
        for cut in 0..bytes.len() {
            assert!(decode_exact::<MicroOutput>(&bytes[..cut]).is_none());
        }
    }
}
