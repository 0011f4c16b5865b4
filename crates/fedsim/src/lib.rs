//! Federated-learning simulator for the APF reproduction.
//!
//! Reproduces the paper's testbed (§7.1) — a central server, N edge clients
//! with 9 Mbps down / 3 Mbps up links, non-IID local datasets — as a
//! single-process simulation with exact byte accounting and a bandwidth/time
//! model. All synchronization strategies the paper evaluates are implemented:
//!
//! * [`FullSync`] — vanilla FedAvg (the "w/o APF" baseline);
//! * [`PartialSync`] — strawman 1 of §4.1 (stable scalars updated locally);
//! * [`ApfStrategy`] — APF / APF# / APF++ plus, via a permanent-freeze
//!   controller, strawman 2 of §4.1; optionally stacked with fp16
//!   quantization (§7.7);
//! * [`Gaia`] and [`Cmfl`] — the §7.4 sparsification baselines.
//!
//! FedProx (§7.7) and stragglers (partial local work) are client-level
//! options in [`FlConfig`].
//!
//! # Example
//!
//! ```no_run
//! use apf_fedsim::{FlConfig, FlRunner, FullSync};
//! use apf_data::{synth_images, iid_partition};
//! use apf_nn::models;
//!
//! let train = synth_images(200, 0);
//! let test = synth_images(100, 1);
//! let parts = iid_partition(train.len(), 4, 0);
//! let cfg = FlConfig { rounds: 5, ..FlConfig::default() };
//! let mut runner = FlRunner::builder(|seed| models::lenet5(seed), cfg)
//!     .clients_from_partition(&train, &parts)
//!     .test_set(test)
//!     .strategy(Box::new(FullSync::new()))
//!     .build();
//! let log = runner.run();
//! println!("best accuracy {}", log.best_accuracy());
//! ```

mod book;
mod client;
mod extra;
pub mod json;
pub mod ledger;
mod metrics;
mod network;
mod population;
mod runner;
mod spec;
mod strategy;
mod trajectory;

pub use book::{append_ledger, finish_run, EvalSetup, RoundBook, RoundTally};
pub use client::Client;
pub use extra::{DpGaussian, LayerFreeze, TopK};
pub use ledger::{fnv1a64, load_ledger, peak_resident_bytes, LedgerRecord};
pub use metrics::{ExperimentLog, RoundRecord};
pub use network::NetworkModel;
pub use population::{ClientRegistry, PopulationConfig, PopulationData, PopulationRunner};
pub use runner::{FlConfig, FlRunner, FlRunnerBuilder, OptimizerKind};
pub use spec::{PartitionKind, RunSpec, SpecError, SpecStrategy};
pub use strategy::{ApfStrategy, Cmfl, FullSync, Gaia, PartialSync, RoundComm, SyncStrategy};
pub use trajectory::{Trajectory, TrajectoryRound};
