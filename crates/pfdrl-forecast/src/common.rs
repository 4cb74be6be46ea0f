//! Batch-assembly helpers for the minibatch steps and the allocating
//! predict oracles.

use pfdrl_nn::Matrix;

/// Assembles the selected samples into a `batch x dim` matrix.
pub(crate) fn batch_inputs(inputs: &[Vec<f64>], idx: &[usize]) -> Matrix {
    let mut m = Matrix::default();
    batch_inputs_into(inputs, idx, &mut m);
    m
}

/// Allocation-free [`batch_inputs`]: every entry of `out` is overwritten.
pub(crate) fn batch_inputs_into(inputs: &[Vec<f64>], idx: &[usize], out: &mut Matrix) {
    let dim = inputs[idx[0]].len();
    out.resize(idx.len(), dim);
    for (r, &i) in idx.iter().enumerate() {
        out.row_mut(r).copy_from_slice(&inputs[i]);
    }
}

/// Assembles the selected targets into a `batch x 1` matrix; every
/// entry of `out` is overwritten.
pub(crate) fn batch_targets_into(targets: &[f64], idx: &[usize], out: &mut Matrix) {
    out.resize(idx.len(), 1);
    for (r, &i) in idx.iter().enumerate() {
        out.set(r, 0, targets[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_pick_rows_in_index_order() {
        let inputs = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let m = batch_inputs(&inputs, &[2, 0]);
        assert_eq!(m.row(0), &[5.0, 6.0]);
        assert_eq!(m.row(1), &[1.0, 2.0]);
        let mut t = Matrix::default();
        batch_targets_into(&[10.0, 20.0, 30.0], &[2, 0], &mut t);
        assert_eq!(t.as_slice(), &[30.0, 10.0]);
    }
}
