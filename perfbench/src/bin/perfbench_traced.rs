//! Traced run: the same benchmark under the counting allocator, which
//! the per-layer allocation metrics read.

#[global_allocator]
static ALLOC: volcast_util::scratch::counting::CountingAllocator =
    volcast_util::scratch::counting::CountingAllocator;

fn main() {
    std::process::exit(volcast_perfbench::main_with_args());
}
