fn main() {
    std::process::exit(ia_perfbench::main_with_args(
        std::env::args().skip(1).collect(),
    ));
}
