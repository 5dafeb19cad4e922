//! Offline shim for `crossbeam` — empty: nothing in the workspace uses it.
//!
//! Its channel and atomic modules carried the thread-per-site runtime and
//! `esr-check`'s interleaving explorer, both retired. The package (and the
//! `esr-runtime → crossbeam` manifest edge) stays only because
//! `benchmark/Cargo.lock` pins esrbench's dependency graph; the next
//! `benchmark` PR's lock refresh may delete it outright (ROADMAP item 1).
