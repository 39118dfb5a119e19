//! DIAL: Distributed Interactive Analysis of Large datasets.
//!
//! §4.1: "The distributed analysis program DIAL is used for creation and
//! analysis of physics histograms"; §6.1: "A dataset catalog was created
//! for produced samples, making them available to the DIAL distributed
//! analysis package. Output datasets were stored at BNL … and continue to
//! be analyzed by DIAL developers and the SUSY physics working group."
//!
//! The model: a catalog of named datasets (lists of logical files), a
//! scheduler that splits an analysis over a dataset into per-file-group
//! sub-jobs, and histogram results that merge associatively.

use grid3_simkit::ids::FileId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A fixed-binning histogram; DIAL's result object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Lower edge of the first bin.
    pub lo: f64,
    /// Upper edge of the last bin.
    pub hi: f64,
    bins: Vec<f64>,
    entries: u64,
}

impl Histogram {
    /// `n` bins over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n > 0 && hi > lo, "invalid histogram geometry");
        Histogram {
            lo,
            hi,
            bins: vec![0.0; n],
            entries: 0,
        }
    }

    /// Fill one value (out-of-range values land in the edge bins).
    pub fn fill(&mut self, x: f64) {
        let n = self.bins.len();
        let frac = (x - self.lo) / (self.hi - self.lo);
        let idx = ((frac * n as f64).floor() as i64).clamp(0, n as i64 - 1) as usize;
        self.bins[idx] += 1.0;
        self.entries += 1;
    }

    /// Bin contents.
    pub fn bins(&self) -> &[f64] {
        &self.bins
    }

    /// Total entries filled.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Merge another histogram with identical geometry.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.lo, other.lo, "geometry mismatch");
        assert_eq!(self.hi, other.hi, "geometry mismatch");
        assert_eq!(self.bins.len(), other.bins.len(), "geometry mismatch");
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.entries += other.entries;
    }
}

/// The dataset catalog of produced samples (§6.1).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DatasetCatalog {
    datasets: BTreeMap<String, Vec<FileId>>,
}

impl DatasetCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or extend) a dataset with produced files.
    pub fn add_files(
        &mut self,
        dataset: impl Into<String>,
        files: impl IntoIterator<Item = FileId>,
    ) {
        self.datasets
            .entry(dataset.into())
            .or_default()
            .extend(files);
    }

    /// Files of a dataset.
    pub fn files(&self, dataset: &str) -> Option<&[FileId]> {
        self.datasets.get(dataset).map(|v| v.as_slice())
    }

    /// Number of datasets.
    pub fn len(&self) -> usize {
        self.datasets.len()
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.datasets.is_empty()
    }
}

/// One DIAL sub-job: analyse a slice of a dataset's files.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisJob {
    /// Dataset under analysis.
    pub dataset: String,
    /// Sub-job index.
    pub index: usize,
    /// Files this sub-job reads.
    pub files: Vec<FileId>,
}

/// Splits analyses and merges results.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DialScheduler;

impl DialScheduler {
    /// Split an analysis of `dataset` into at most `workers` sub-jobs with
    /// near-equal file counts (never empty sub-jobs). Returns `None` for
    /// unknown datasets.
    pub fn split(
        &self,
        catalog: &DatasetCatalog,
        dataset: &str,
        workers: usize,
    ) -> Option<Vec<AnalysisJob>> {
        let files = catalog.files(dataset)?;
        if files.is_empty() {
            return Some(Vec::new());
        }
        let workers = workers.max(1).min(files.len());
        let per = files.len().div_ceil(workers);
        Some(
            files
                .chunks(per)
                .enumerate()
                .map(|(index, chunk)| AnalysisJob {
                    dataset: dataset.to_string(),
                    index,
                    files: chunk.to_vec(),
                })
                .collect(),
        )
    }

    /// Merge per-sub-job histograms into the final result.
    pub fn merge(&self, mut parts: Vec<Histogram>) -> Option<Histogram> {
        let mut acc = parts.pop()?;
        for p in &parts {
            acc.merge(p);
        }
        Some(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog_with(n: u32) -> DatasetCatalog {
        let mut c = DatasetCatalog::new();
        c.add_files("susy_sample", (0..n).map(FileId));
        c
    }

    #[test]
    fn split_balances_files_without_loss() {
        let c = catalog_with(10);
        let s = DialScheduler;
        let jobs = s.split(&c, "susy_sample", 3).unwrap();
        assert_eq!(jobs.len(), 3);
        let total: usize = jobs.iter().map(|j| j.files.len()).sum();
        assert_eq!(total, 10);
        assert!(jobs.iter().all(|j| !j.files.is_empty()));
        // Near-equal: max-min ≤ chunk granularity.
        let max = jobs.iter().map(|j| j.files.len()).max().unwrap();
        let min = jobs.iter().map(|j| j.files.len()).min().unwrap();
        assert!(max - min <= 2);
    }

    #[test]
    fn split_caps_workers_at_file_count() {
        let c = catalog_with(2);
        let jobs = DialScheduler.split(&c, "susy_sample", 10).unwrap();
        assert_eq!(jobs.len(), 2);
        assert!(DialScheduler.split(&c, "missing", 4).is_none());
    }

    #[test]
    fn empty_dataset_splits_to_nothing() {
        let mut c = DatasetCatalog::new();
        c.add_files("empty", std::iter::empty());
        let jobs = DialScheduler.split(&c, "empty", 4).unwrap();
        assert!(jobs.is_empty());
    }

    #[test]
    fn histogram_fill_and_edges() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.fill(0.5);
        h.fill(9.99);
        h.fill(-5.0); // clamps into first bin
        h.fill(50.0); // clamps into last bin
        assert_eq!(h.entries(), 4);
        assert_eq!(h.bins()[0], 2.0);
        assert_eq!(h.bins()[9], 2.0);
    }

    #[test]
    fn merge_is_associative_over_splits() {
        // Distributed fill = local fill: the DIAL correctness property.
        let values: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37) % 10.0).collect();
        let mut whole = Histogram::new(0.0, 10.0, 20);
        for v in &values {
            whole.fill(*v);
        }
        let parts: Vec<Histogram> = values
            .chunks(33)
            .map(|chunk| {
                let mut h = Histogram::new(0.0, 10.0, 20);
                for v in chunk {
                    h.fill(*v);
                }
                h
            })
            .collect();
        let merged = DialScheduler.merge(parts).unwrap();
        assert_eq!(merged.bins(), whole.bins());
        assert_eq!(merged.entries(), whole.entries());
        assert!(DialScheduler.merge(vec![]).is_none());
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn merge_rejects_mismatched_geometry() {
        let mut a = Histogram::new(0.0, 10.0, 10);
        let b = Histogram::new(0.0, 20.0, 10);
        a.merge(&b);
    }

    #[test]
    fn catalog_queries() {
        let c = catalog_with(4);
        assert_eq!(c.len(), 1);
        assert_eq!(c.datasets.keys().collect::<Vec<_>>(), vec!["susy_sample"]);
        assert_eq!(c.files("susy_sample").unwrap().len(), 4);
    }
}
