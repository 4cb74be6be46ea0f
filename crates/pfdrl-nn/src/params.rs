//! Per-layer parameter access — the interface federation is built on.
//!
//! The PFDRL personalization split (base vs. personalization layers, §3.3.2
//! of the paper) needs to move *individual layers* between residences, so
//! networks expose their parameters layer-by-layer as flat `f64` vectors.

/// A network whose parameters can be exported/imported one layer at a time.
pub trait Layered {
    /// Number of parameterized layers.
    fn layer_count(&self) -> usize;

    /// Number of scalars in layer `i`.
    fn layer_param_count(&self, i: usize) -> usize;

    /// Flattened parameters of layer `i`.
    fn export_layer(&self, i: usize) -> Vec<f64>;

    /// Writes the flattened parameters of layer `i` into `out` (cleared
    /// first, capacity reused). The default delegates to
    /// [`Layered::export_layer`]; implementors override it to skip the
    /// intermediate allocation.
    fn export_layer_into(&self, i: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&self.export_layer(i));
    }

    /// Restores layer `i` from a flat vector produced by `export_layer`.
    fn import_layer(&mut self, i: usize, data: &[f64]);

    /// Exports every layer (a full model snapshot).
    fn export_all(&self) -> Vec<Vec<f64>> {
        (0..self.layer_count())
            .map(|i| self.export_layer(i))
            .collect()
    }

    /// Imports a full model snapshot.
    ///
    /// # Panics
    /// Panics if the snapshot has the wrong number of layers.
    fn import_all(&mut self, layers: &[Vec<f64>]) {
        assert_eq!(
            layers.len(),
            self.layer_count(),
            "import_all layer count mismatch"
        );
        for (i, l) in layers.iter().enumerate() {
            self.import_layer(i, l);
        }
    }

    /// Total number of scalars across all layers.
    fn total_param_count(&self) -> usize {
        (0..self.layer_count())
            .map(|i| self.layer_param_count(i))
            .sum()
    }
}

/// Averages parameter snapshots elementwise — the FedAvg step of
/// Algorithm 1 (`W ← Σ W_n / N`).
///
/// # Panics
/// Panics if `snapshots` is empty or the vectors have differing lengths.
pub fn average_params(snapshots: &[Vec<f64>]) -> Vec<f64> {
    assert!(!snapshots.is_empty(), "average_params: no snapshots");
    let len = snapshots[0].len();
    assert!(
        snapshots.iter().all(|s| s.len() == len),
        "average_params: inconsistent snapshot lengths"
    );
    let scale = 1.0 / snapshots.len() as f64;
    let mut out = vec![0.0; len];
    for s in snapshots {
        for (o, v) in out.iter_mut().zip(s.iter()) {
            *o += v;
        }
    }
    out.iter_mut().for_each(|v| *v *= scale);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_of_identical_is_identity() {
        let s = vec![vec![1.0, 2.0, 3.0]; 4];
        assert_eq!(average_params(&s), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn average_is_elementwise_mean() {
        let s = vec![vec![0.0, 10.0], vec![2.0, 20.0], vec![4.0, 30.0]];
        assert_eq!(average_params(&s), vec![2.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "no snapshots")]
    fn average_rejects_empty() {
        let _ = average_params(&[]);
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn average_rejects_ragged() {
        let _ = average_params(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
