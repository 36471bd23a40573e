//! Regenerates Figure 5: search time vs δs2t..

use itspq_bench::{figures, PaperParams, TrackingAllocator};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

fn main() {
    let quick = itspq_bench::quick_flag();
    let params = if quick {
        PaperParams::smoke()
    } else {
        PaperParams::default()
    };
    let fig = figures::fig5(&params);
    print!("{}", fig.table());
    let path = fig
        .write_csv(std::path::Path::new("results"))
        .expect("write csv");
    println!("wrote {}", path.display());
}
