//! In-memory labelled dataset with shuffled mini-batching.

use apf_tensor::Tensor;
use apf_tensor::{Rng, SliceRandom};

/// An in-memory classification dataset: inputs `[N, ...]` plus labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    inputs: Tensor,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Bundles inputs and labels.
    ///
    /// # Panics
    /// Panics if the first input dimension differs from `labels.len()` or any
    /// label is `>= num_classes`.
    pub fn new(inputs: Tensor, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(
            inputs.shape()[0],
            labels.len(),
            "inputs/labels length mismatch"
        );
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range for {num_classes} classes"
        );
        Dataset {
            inputs,
            labels,
            num_classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The input tensor, `[N, ...]`.
    pub fn inputs(&self) -> &Tensor {
        &self.inputs
    }

    /// The labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Scalar count of one sample (product of non-batch dims).
    pub fn sample_numel(&self) -> usize {
        self.inputs.shape()[1..].iter().product()
    }

    /// Refills the dataset in place, reusing its input and label buffers:
    /// `fill` receives both, clears them and writes whole samples of the
    /// current per-sample shape with one label each. The population
    /// simulator regenerates a re-bound replica's shard this way.
    ///
    /// # Panics
    /// Panics if `fill` leaves a partial sample or a label out of range.
    pub fn refill(&mut self, fill: impl FnOnce(&mut Vec<f32>, &mut Vec<usize>)) {
        let mut shape = self.inputs.shape().to_vec();
        let empty = Tensor::from_vec(Vec::new(), &[0]);
        let mut data = std::mem::replace(&mut self.inputs, empty).into_vec();
        fill(&mut data, &mut self.labels);
        shape[0] = self.labels.len();
        self.inputs = Tensor::from_vec(data, &shape);
        assert!(
            self.labels.iter().all(|&l| l < self.num_classes),
            "label out of range for {} classes",
            self.num_classes
        );
    }

    /// Builds a new dataset from the given sample indices (with copying).
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn select(&self, indices: &[usize]) -> Dataset {
        let row = self.sample_numel();
        let mut data = Vec::with_capacity(indices.len() * row);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            assert!(i < self.len(), "index {i} out of bounds");
            data.extend_from_slice(&self.inputs.data()[i * row..(i + 1) * row]);
            labels.push(self.labels[i]);
        }
        let mut shape = self.inputs.shape().to_vec();
        shape[0] = indices.len();
        Dataset::new(Tensor::from_vec(data, &shape), labels, self.num_classes)
    }

    /// Copies a batch of samples (by index) into a `(inputs, labels)` pair.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn gather(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let d = self.select(indices);
        (d.inputs, d.labels)
    }

    /// An iterator over one shuffled epoch of mini-batches.
    ///
    /// The final batch may be smaller than `batch_size`. With an empty
    /// dataset the iterator is empty.
    ///
    /// # Panics
    /// Panics if `batch_size` is zero.
    pub fn batches<'a>(&'a self, batch_size: usize, rng: &mut Rng) -> Batches<'a> {
        assert!(batch_size > 0, "batch_size must be positive");
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(rng);
        Batches {
            dataset: self,
            order,
            batch_size,
            cursor: 0,
        }
    }

    /// Per-class sample counts.
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.num_classes];
        for &l in &self.labels {
            h[l] += 1;
        }
        h
    }
}

/// Iterator over shuffled mini-batches of a [`Dataset`].
#[derive(Debug)]
pub struct Batches<'a> {
    dataset: &'a Dataset,
    order: Vec<usize>,
    batch_size: usize,
    cursor: usize,
}

impl Iterator for Batches<'_> {
    type Item = (Tensor, Vec<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor >= self.order.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.order.len());
        let idx = &self.order[self.cursor..end];
        self.cursor = end;
        Some(self.dataset.gather(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_tensor::seeded_rng;

    fn toy() -> Dataset {
        let inputs = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[6, 2]);
        Dataset::new(inputs, vec![0, 1, 2, 0, 1, 2], 3)
    }

    #[test]
    fn select_copies_rows() {
        let d = toy();
        let s = d.select(&[5, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.labels(), &[2, 0]);
        assert_eq!(s.inputs().data(), &[10.0, 11.0, 0.0, 1.0]);
    }

    #[test]
    fn refill_reuses_buffers_and_keeps_sample_shape() {
        let mut d = toy();
        let ptr = d.inputs().data().as_ptr();
        d.refill(|x, y| {
            x.clear();
            y.clear();
            x.extend_from_slice(&[7.0, 8.0, 9.0, 10.0]);
            y.extend_from_slice(&[2, 1]);
        });
        assert_eq!(d.inputs().shape(), &[2, 2]);
        assert_eq!(d.inputs().data(), &[7.0, 8.0, 9.0, 10.0]);
        assert_eq!(d.labels(), &[2, 1]);
        assert_eq!(d.inputs().data().as_ptr(), ptr, "input buffer reused");
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn refill_rejects_out_of_range_labels() {
        toy().refill(|x, y| {
            x.clear();
            y.clear();
            x.extend_from_slice(&[0.0, 0.0]);
            y.push(3);
        });
    }

    #[test]
    fn batches_cover_everything_once() {
        let d = toy();
        let mut rng = seeded_rng(0);
        let mut seen = vec![0usize; 3];
        let mut total = 0;
        for (x, y) in d.batches(4, &mut rng) {
            assert!(x.shape()[0] <= 4);
            assert_eq!(x.shape()[0], y.len());
            total += y.len();
            for l in y {
                seen[l] += 1;
            }
        }
        assert_eq!(total, 6);
        assert_eq!(seen, vec![2, 2, 2]);
    }

    #[test]
    fn batches_shuffle_differs_across_epochs() {
        let inputs = Tensor::from_vec((0..200).map(|i| i as f32).collect(), &[100, 2]);
        let d = Dataset::new(inputs, (0..100).map(|i| i % 5).collect(), 5);
        let mut rng = seeded_rng(1);
        let e1: Vec<Vec<usize>> = d.batches(10, &mut rng).map(|(_, y)| y).collect();
        let e2: Vec<Vec<usize>> = d.batches(10, &mut rng).map(|(_, y)| y).collect();
        assert_ne!(e1, e2, "two epochs produced identical batch orders");
    }

    #[test]
    fn histogram() {
        assert_eq!(toy().class_histogram(), vec![2, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_labels_panic() {
        let _ = Dataset::new(Tensor::zeros(&[3, 2]), vec![0, 1], 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn label_out_of_range_panics() {
        let _ = Dataset::new(Tensor::zeros(&[1, 2]), vec![5], 3);
    }
}
