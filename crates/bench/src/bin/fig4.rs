//! Regenerates Figure 4: search time vs |T| (t = 12:00 and 8:00).

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
    let fig = figures::fig4(&params);
    print!("{}", fig.table());
    let path = fig
        .write_csv(std::path::Path::new("results"))
        .expect("write csv");
    println!("wrote {}", path.display());
}
