//! Reusable buffer pool for the immutable inference path.
//!
//! The training forward pass mutates the network (activation caches for
//! backward), so serving-time callers used to need `&mut` access to a model
//! just to run it. The `infer` family of methods instead threads a
//! caller-owned [`Scratch`] workspace through every layer: the model stays
//! shared (`&self`, hence `Sync`), and the per-call allocations are
//! recycled across calls. One `Scratch` per thread is the intended pattern
//! (e.g. one per worker of a training fan-out).

use crate::tensor::Matrix;

/// A pool of `f32` buffers backing temporary [`Matrix`] values during
/// inference. `take` hands out a zeroed matrix of the requested shape,
/// reusing the largest recycled allocation that fits; `recycle` returns a
/// matrix's backing storage to the pool.
///
/// The pool is deliberately tiny and allocation-order agnostic: forward
/// passes ping-pong between at most a handful of live matrices, so a small
/// free list captures essentially all reuse.
#[derive(Debug, Default)]
pub struct Scratch {
    free: Vec<Vec<f32>>,
}

impl Scratch {
    /// Number of free buffers kept around between `take` calls.
    const MAX_POOLED: usize = 8;

    pub fn new() -> Self {
        Scratch::default()
    }

    /// Hands out a `rows × cols` matrix of zeros, reusing pooled storage
    /// when a large-enough buffer is available.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        let len = rows * cols;
        // Prefer the smallest pooled buffer with enough capacity so large
        // buffers stay available for large requests.
        let mut best: Option<usize> = None;
        for (i, buf) in self.free.iter().enumerate() {
            if buf.capacity() >= len
                && best.is_none_or(|b| buf.capacity() < self.free[b].capacity())
            {
                best = Some(i);
            }
        }
        let mut data = match best {
            Some(i) => self.free.swap_remove(i),
            None => Vec::with_capacity(len),
        };
        data.clear();
        data.resize(len, 0.0);
        Matrix::from_vec(rows, cols, data)
    }

    /// Returns a matrix's backing buffer to the pool for later reuse.
    pub fn recycle(&mut self, m: Matrix) {
        if self.free.len() < Self::MAX_POOLED {
            self.free.push(m.into_vec());
        }
    }

    /// Number of buffers currently pooled (diagnostics / tests).
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

thread_local! {
    static THREAD_SCRATCH: std::cell::RefCell<Scratch> =
        std::cell::RefCell::new(Scratch::new());
}

/// Runs `f` with this thread's shared [`Scratch`] pool. Estimators use this
/// so `estimate(&self, ..)` needs no workspace argument: each OS thread
/// gets its own pool, reused across calls.
///
/// # Panics
/// Panics on re-entrant use from within `f` (the pool is singly borrowed);
/// take an explicit `Scratch` instead if a nested pass is ever needed.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    THREAD_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_scratch_persists_buffers_across_calls() {
        // Warm the pool, then observe the buffer is still pooled.
        let before = with_thread_scratch(|s| {
            let m = s.take(4, 4);
            s.recycle(m);
            s.pooled()
        });
        assert!(before >= 1);
        let after = with_thread_scratch(|s| s.pooled());
        assert_eq!(before, after);
    }

    #[test]
    fn take_returns_zeroed_matrix_of_requested_shape() {
        let mut s = Scratch::new();
        let mut m = s.take(3, 4);
        assert_eq!((m.rows(), m.cols()), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        m.as_mut_slice().fill(7.0);
        s.recycle(m);
        // Reused storage must come back zeroed.
        let m2 = s.take(2, 5);
        assert!(m2.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn recycled_buffers_are_reused() {
        let mut s = Scratch::new();
        let m = s.take(8, 8);
        let ptr = m.as_slice().as_ptr();
        s.recycle(m);
        assert_eq!(s.pooled(), 1);
        // A smaller request reuses the same allocation.
        let m2 = s.take(4, 4);
        assert_eq!(m2.as_slice().as_ptr(), ptr);
        assert_eq!(s.pooled(), 0);
    }

    #[test]
    fn pool_size_is_bounded() {
        let mut s = Scratch::new();
        let mats: Vec<Matrix> = (0..20).map(|_| s.take(2, 2)).collect();
        for m in mats {
            s.recycle(m);
        }
        assert!(s.pooled() <= Scratch::MAX_POOLED);
    }
}
