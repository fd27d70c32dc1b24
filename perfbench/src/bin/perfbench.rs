//! End-to-end run: no allocation counting, so the product's allocator
//! costs what it costs in the product.

fn main() {
    std::process::exit(volcast_perfbench::main_with_args());
}
