//! The thread shim, the scoped-spawn half of the [`crate::sync`]
//! boundary: `std::thread` in every normal build, the
//! [`crate::model::thread`] backend under `--cfg ups_race_model`.

#[cfg(ups_race_model)]
use crate::model::thread as backend;
#[cfg(not(ups_race_model))]
use std::thread as backend;

pub use backend::{available_parallelism, scope};
