//! Regenerates Figure 2, the counterexample showing greedy top-down
//! wire assignment is suboptimal (see [`ia_bench::figure2`]).

fn main() {
    ia_bench::write_stdout(&ia_bench::figure2());
}
