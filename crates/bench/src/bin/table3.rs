//! Regenerates Table 3: the technology parameters of the 180/130/90 nm
//! nodes used in the rank studies.

fn main() {
    ia_bench::write_stdout(&ia_bench::table3());
}
