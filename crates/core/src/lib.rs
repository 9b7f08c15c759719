//! # doall-core
//!
//! The Do-All protocols of Dwork, Halpern & Waarts (PODC 1992).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod ab;
pub mod baseline;
pub mod c;
pub mod d;
pub mod error;
pub mod intervals;

pub use ab::asynch::AsyncProtocolA;
pub use ab::asynch_b::AsyncProtocolB;
pub use ab::protocol_a::ProtocolA;
pub use ab::protocol_b::ProtocolB;
pub use baseline::{AsyncReplicate, Lockstep, NaiveSpread, ReplicateAll};
pub use c::protocol_c::ProtocolC;
pub use d::ProtocolD;
pub use error::ConfigError;
pub use intervals::IntervalSet;
