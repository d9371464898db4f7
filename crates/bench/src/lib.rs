//! Figure-reproduction harness for the SCREAM paper's evaluation section.
//!
//! Every figure of the paper has a generator function here that regenerates
//! its data series, and the one `figures` binary (under `src/bin/`) has a
//! subcommand per figure that prints the series as a table. `figures all`
//! is committed as `FIGURES.txt` next to this crate's manifest and diffed
//! by CI; README § *Figures* has the full subcommand list.
//!
//! | Paper figure | Function | `figures` subcommand |
//! |---|---|---|
//! | Fig. 4 (mote detection error) | [`figures::fig4_mote_detection`] | `fig4` |
//! | Fig. 5 (RSSI moving average)  | [`figures::fig5_rssi_trace`] | `fig5` |
//! | Fig. 6 (grid schedule length) | [`figures::fig6_grid_improvement`] | `fig6` |
//! | Fig. 7 (uniform schedule length) | [`figures::fig7_uniform_improvement`] | `fig7` |
//! | Fig. 8 (execution time vs size/diameter) | [`figures::fig8_execution_time`] | `fig8` |
//! | Fig. 9 (execution time vs clock skew) | [`figures::fig9_clock_skew`] | `fig9` |
//! | Channel ablation (beyond the paper) | [`figures::channel_ablation`] | `ablate channels` |
//! | Delay vs. load (traffic engine, beyond the paper) | [`figures::delay_vs_load`] | `delay-vs-load` |
//! | Recovery vs. load (fault injection, beyond the paper) | [`recovery::recovery_vs_load`] | `recovery-vs-load` |
//! | Density × channel × seed grid | [`ScenarioSweep::report`] | `sweep` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Conventions P1 / D1 / H1 (ROADMAP), carried by clippy; test code is exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::iter_over_hash_type,
        clippy::disallowed_methods,
        clippy::allow_attributes_without_reason
    )
)]

mod error;
pub mod figures;
pub mod recovery;
pub mod report;
pub mod scenario;
pub mod sweep;

pub use error::BenchError;
pub use recovery::{recovery_vs_load, RecoveryExperiment, RecoveryPoint, RecoveryReport};
pub use report::Table;
pub use scenario::{LargeScaleScenario, PaperScenario, ScenarioInstance, Topology};
pub use sweep::{ScenarioSweep, SweepPoint, SweepReport};
