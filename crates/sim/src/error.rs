//! Error types for the simulator.
//!
//! Library code never panics on bad input from callers; every fallible
//! operation returns [`SimError`] so that agents and solvers can probe
//! infeasible actions cheaply.

use core::fmt;

use crate::types::{NumaIdx, PmId, VmId};

/// Errors produced by cluster-state mutations and environment stepping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The referenced VM id is out of range for this cluster.
    UnknownVm(VmId),
    /// The referenced PM id is out of range for this cluster.
    UnknownPm(PmId),
    /// The destination NUMA/PM does not have enough CPU or memory.
    InsufficientResources {
        /// Destination PM.
        pm: PmId,
        /// Destination NUMA node (0 or 1; for double-NUMA VMs both are checked).
        numa: NumaIdx,
    },
    /// The VM requires a deployment (single/double NUMA) the target cannot satisfy.
    NumaPolicyViolation(VmId),
    /// Migrating the VM to this PM would violate a hard anti-affinity constraint.
    AntiAffinityViolation {
        /// VM being migrated.
        vm: VmId,
        /// VM already on the destination PM that conflicts with it.
        conflicting: VmId,
    },
    /// The action migrates a VM onto the PM it already occupies.
    NoOpMigration(VmId),
    /// No PM in the cluster can host the VM (scheduler admission or a
    /// drain/evacuation found no feasible slot). A typed error instead of
    /// a panic so a bad delta can never crash a long-running daemon.
    NoFeasiblePlacement(VmId),
    /// The episode already used up its migration number limit.
    MnlExhausted,
    /// The episode has terminated; call `rewind` before stepping again.
    EpisodeDone,
    /// Dataset or mapping failed validation (duplicate placements, overflow, ...).
    InvalidMapping(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownVm(id) => write!(f, "unknown VM id {}", id.0),
            SimError::UnknownPm(id) => write!(f, "unknown PM id {}", id.0),
            SimError::InsufficientResources { pm, numa } => {
                write!(f, "PM {} NUMA {} lacks resources for this VM", pm.0, numa)
            }
            SimError::NumaPolicyViolation(vm) => {
                write!(f, "VM {} NUMA deployment policy cannot be satisfied", vm.0)
            }
            SimError::AntiAffinityViolation { vm, conflicting } => {
                write!(f, "VM {} conflicts with VM {} on the destination PM", vm.0, conflicting.0)
            }
            SimError::NoOpMigration(vm) => {
                write!(f, "VM {} is already on the destination PM", vm.0)
            }
            SimError::NoFeasiblePlacement(vm) => {
                write!(f, "no PM can host VM {}", vm.0)
            }
            SimError::MnlExhausted => write!(f, "migration number limit exhausted"),
            SimError::EpisodeDone => write!(f, "episode finished; rewind the environment"),
            SimError::InvalidMapping(msg) => write!(f, "invalid mapping: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Convenience alias used throughout the simulator.
pub type SimResult<T> = Result<T, SimError>;
