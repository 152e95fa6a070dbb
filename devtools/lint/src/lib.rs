//! `ytcdn-lint` — static enforcement of the workspace's determinism
//! contract.
//!
//! The reproduction's core claim is that Table I and the preferred-DC
//! rankings are byte-identical across sequential and parallel runs. That
//! claim rests on invariants the differential tests
//! (`tests/sharding_differential.rs`, `tests/determinism.rs`) can only
//! check *dynamically*, after a full re-run: the simulation path draws
//! exclusively from the in-tree `SimRng`, telemetry never touches an RNG
//! stream, and no output path iterates an unordered map. This crate checks
//! the same invariants *statically*, at `check.sh` time, so a violation is
//! caught when it is written rather than after an 874k-flow re-run shifts
//! a golden table.
//!
//! The scanner ([`lexer`]) is comment- and string-aware: `"thread_rng"` in
//! a doc string or a `//` comment never fires a rule. The rule catalog
//! ([`rules`]) is the executable form of DESIGN.md's "Determinism
//! invariants and static enforcement" section. The walker ([`engine`])
//! applies rules per file class (crate, module, test/non-test region) and
//! honors inline suppressions of the form
//! `// ytcdn-lint: allow(RULE) — reason`, where the reason is mandatory.
//!
//! Zero external dependencies, like the rest of the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod syntax;

pub use engine::{classify, lint_root, lint_source, FileClass, FileKind};
pub use lexer::{Lexed, Tok, TokKind};
pub use report::{baseline, baseline_key, human, json, parse_baseline, sarif, Report};
pub use rules::{Finding, Severity, RULES};
pub use syntax::{parse, Symbols, Syntax};
