//! The workspace's one JSON layer: a value tree, the writer every document
//! and protocol reply is rendered by, a recursive-descent parser, and the
//! checked readers that turn a parsed value into a Rust one.
//!
//! The build environment has no registry access, so this stands in for
//! `serde`/`serde_json`. Floats are written with Rust's shortest-roundtrip
//! formatting, so weights survive a save/load cycle bit-exactly; integers
//! go through [`Json::Int`] and stay integers (`2`, never `2.0`). On the
//! way back every narrowing is checked: a reader either returns the value
//! the text spelled or an error, never a truncated or saturated one.

#![forbid(unsafe_code)]
// no-panic-daemon: malformed input is a typed error, never a crashed fleet.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

mod json;

pub use json::{fnv1a, parse_json, write_json, Json, MAX_DEPTH};
