//! # aryn-partitioner
//!
//! The Aryn Partitioner (paper §4): document layout segmentation with two
//! simulated detector fidelities ([`Detector::DetrSim`] calibrated to the
//! paper's mAP 0.602 / mAR 0.743, [`Detector::VendorSim`] to the cloud-vendor
//! baseline 0.344 / 0.466), table structure recognition with cross-page
//! merging, OCR simulation, multimodal image summarization, and COCO-style
//! evaluation ([`eval`]).

pub mod benchmark;
pub mod eval;
pub mod noise;
pub mod ocr;
pub mod partition;
pub mod segment;
pub mod tables;

pub use benchmark::run_detection_benchmark;
pub use eval::{evaluate, Detection, DetectionMetrics, GtRegion};
pub use noise::{NoiseModel, DETR_SIM, VENDOR_SIM};
pub use ocr::{character_error_rate, OcrEngine};
pub use partition::{Detector, Partitioner, PartitionerOptions};
pub use segment::{segment, Region};
pub use tables::{cell_f1, merge_cross_page_tables};
