//! The rank metric for interconnect architectures (DATE 2003).
//!
//! The **rank** `r(α)` of an interconnect architecture `α` with respect
//! to a wire-length distribution is the number of longest wires that can
//! be embedded in `α` meeting their clock-derived target delays within a
//! repeater-area budget, subject to the whole distribution fitting in
//! the architecture (paper, Definitions 1–3).
//!
//! The crate is layered:
//!
//! * **Solver layer** (works on an abstract [`Instance`], no physics):
//!   * [`dp::rank`] — the production solver: an optimized dynamic
//!     program over (layer-pair, delay-met prefix, Pareto front of
//!     repeater area/count), equivalent to the paper's 4-D boolean DP
//!     but polynomial-time in practice;
//!   * [`exact::rank_exact`] — the paper's Algorithms 1–3 implemented
//!     literally over a 4-D boolean table (small instances; oracle);
//!   * [`exhaustive::rank_exhaustive`] — brute-force enumeration of all
//!     contiguous wire-to-pair splits (tiny instances; ground truth);
//!   * [`greedy::rank_greedy`] — the top-down greedy baseline that
//!     Figure 2 of the paper proves suboptimal;
//!   * [`assign::greedy_pack`] — `greedy_assign` / `M''` (Algorithm 5):
//!     delay-free bottom-up packing, optimal by the paper's Lemma 1.
//! * **Physics layer**: [`RankProblem`] binds a technology node, an
//!   architecture, a WLD, a clock and the Table 2 knobs into an
//!   [`Instance`]; [`sweep`] names the Table 4 axes and runs a serial
//!   sweep. The crate starts no thread: batches of points run on
//!   `ia_dse::scheduler::execute`.
//!
//! # Examples
//!
//! ```
//! use ia_rank::{toy, dp, greedy, exhaustive};
//!
//! // The paper's Figure 2 counterexample: greedy achieves rank 2,
//! // the DP achieves the optimal rank 4.
//! let instance = toy::figure2();
//! assert_eq!(greedy::rank_greedy(&instance).rank_wires, 2);
//! assert_eq!(dp::rank(&instance).rank_wires, 4);
//! assert_eq!(exhaustive::rank_exhaustive(&instance), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assign;
pub mod canon;
pub mod dp;
mod error;
pub mod exact;
pub mod exhaustive;
pub mod explain;
pub mod greedy;
mod instance;
pub mod optimize;
mod problem;
pub mod report;
mod result;
pub mod sensitivity;
pub mod sweep;
pub mod telemetry;
pub mod toy;

pub use error::RankError;
pub use instance::{BunchSolverSpec, Instance, Need, PairSolverSpec};
pub use problem::{RankProblem, RankProblemBuilder, WldSource};
pub use report::{utilization, PairUsage};
pub use result::{RankResult, Segment, Solution};
