//! Host-speed calibration: a fixed reference kernel, owned by the benchmark
//! and independent of every repository crate, timed just before each
//! measured operation.
//!
//! On a host shared with other tenants the same operation can take 1.5×
//! longer for seconds at a time, and the host's speed drifts by as much
//! over tens of minutes, with no steal time to show for it. Dividing the
//! operations' total time by the total of the reference timings taken
//! just before each of them ([`cost`], the `op_cost` metric) cancels much
//! of that: both slow down together, and the reference code never changes
//! between the commits being compared.

use std::hint::black_box;
use std::time::Instant;

/// Reference sampling time before an operation, as a share of the previous
/// operation's time: long operations get enough samples to see the state
/// the host is in.
const SHARE: f64 = 0.2;
/// Reference sampling time before the first operation of a run.
const FIRST_S: f64 = 0.5;
/// The reference timing that calibrated set-up times are scaled to, close
/// to the kernel's mean timing on the reference host.
const NOMINAL_S: f64 = 0.04;

/// Side of the dense matrix (128 KiB, resident in L2).
const DENSE_N: usize = 128;
const DENSE_REPS: usize = 1000;
/// Keys sorted per repetition.
const SORT_N: usize = 32_768;
const SORT_REPS: usize = 8;
/// Rows and nonzeros per row of the sparse matrix (about 2 MiB).
const SPARSE_ROWS: usize = 20_000;
const SPARSE_NNZ_PER_ROW: usize = 8;
const SPARSE_REPS: usize = 100;

/// The reference kernel's inputs, built once.
pub struct Reference {
    dense: Vec<f64>,
    keys: Vec<f64>,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

/// Xorshift64: the kernel's inputs are the same in every run.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A value in `[0, 1)`.
fn unit(state: &mut u64) -> f64 {
    (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    pub fn new() -> Self {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let dense = (0..DENSE_N * DENSE_N).map(|_| unit(&mut s)).collect();
        let keys = (0..SORT_N).map(|_| unit(&mut s)).collect();
        let mut row_ptr = Vec::with_capacity(SPARSE_ROWS + 1);
        let mut col_idx = Vec::with_capacity(SPARSE_ROWS * SPARSE_NNZ_PER_ROW);
        let mut values = Vec::with_capacity(SPARSE_ROWS * SPARSE_NNZ_PER_ROW);
        row_ptr.push(0);
        for _ in 0..SPARSE_ROWS {
            for _ in 0..SPARSE_NNZ_PER_ROW {
                col_idx.push((xorshift(&mut s) % SPARSE_ROWS as u64) as u32);
                values.push(unit(&mut s));
            }
            row_ptr.push(col_idx.len());
        }
        Reference {
            dense,
            keys,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Times the kernel back to back, at least twice, for the sampling
    /// time due before an operation whose predecessor took `previous_s`
    /// (`None` for a run's first operation); returns the mean timing.
    pub fn time_before(&self, previous_s: Option<f64>) -> f64 {
        let budget = previous_s.map_or(FIRST_S, |s| s * SHARE);
        let start = Instant::now();
        let mut total = 0.0;
        let mut reps = 0;
        while reps < 2 || start.elapsed().as_secs_f64() < budget {
            let t = Instant::now();
            black_box(self.kernel());
            total += t.elapsed().as_secs_f64();
            reps += 1;
        }
        total / f64::from(reps)
    }

    /// Dense matrix-vector products, sorting and a sparse power iteration:
    /// the mix of work the analysis itself does. Returns a checksum so the
    /// work cannot be optimised away.
    fn kernel(&self) -> f64 {
        let n = DENSE_N;
        let mut v = vec![1.0f64; n];
        let mut y = vec![0.0f64; n];
        for _ in 0..DENSE_REPS {
            for (r, out) in y.iter_mut().enumerate() {
                *out = self.dense[r * n..(r + 1) * n]
                    .iter()
                    .zip(&v)
                    .map(|(a, b)| a * b)
                    .sum();
            }
            let scale = y.iter().sum::<f64>().max(1e-300);
            for (a, b) in v.iter_mut().zip(&y) {
                *a = b / scale + 1e-3;
            }
        }
        let mut check = v.iter().sum::<f64>();
        for k in 0..SORT_REPS {
            let mut keys = self.keys.clone();
            keys.rotate_left(k * 97);
            keys.sort_unstable_by(f64::total_cmp);
            check += keys[SORT_N / 2];
        }
        let mut x = vec![1.0f64; SPARSE_ROWS];
        let mut z = vec![0.0f64; SPARSE_ROWS];
        for _ in 0..SPARSE_REPS {
            for (r, out) in z.iter_mut().enumerate() {
                let span = self.row_ptr[r]..self.row_ptr[r + 1];
                *out = self.col_idx[span.clone()]
                    .iter()
                    .zip(&self.values[span])
                    .map(|(&c, &a)| a * x[c as usize])
                    .sum();
            }
            let norm = z.iter().map(|a| a * a).sum::<f64>().sqrt().max(1e-300);
            for (a, b) in x.iter_mut().zip(&z) {
                *a = b / norm + 1e-3;
            }
        }
        check + x.iter().sum::<f64>()
    }
}

/// A set-up's wall time `wall_s` in seconds at the host speed where the
/// reference kernel takes [`NOMINAL_S`], given the mean reference timings
/// taken just before and just after it.
pub fn scaled_setup_s(wall_s: f64, before_s: f64, after_s: f64) -> f64 {
    wall_s * NOMINAL_S / (0.5 * (before_s + after_s))
}

/// Operations' cost in reference-kernel units: their total time over the
/// total of the reference timings taken just before each (`refs[i]`
/// precedes `ops[i]`).
pub fn cost(ops: &[f64], refs: &[f64]) -> f64 {
    ops.iter().sum::<f64>() / refs.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_timed() {
        let a = Reference::new();
        let b = Reference::new();
        assert_eq!(a.kernel().to_bits(), b.kernel().to_bits());
        let t = a.time_before(Some(0.0));
        assert!(t > 0.0 && t.is_finite());
    }

    #[test]
    fn setup_is_scaled_to_the_nominal_speed() {
        assert_eq!(scaled_setup_s(3.0, NOMINAL_S, NOMINAL_S), 3.0);
        assert_eq!(scaled_setup_s(3.0, 1.5 * NOMINAL_S, 2.5 * NOMINAL_S), 1.5);
    }

    #[test]
    fn cost_is_a_ratio_of_totals() {
        assert_eq!(cost(&[1.0, 3.0], &[0.5, 0.5]), 4.0);
        assert_eq!(cost(&[2.0], &[0.25]), 8.0);
    }
}
