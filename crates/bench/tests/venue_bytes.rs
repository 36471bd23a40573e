//! `IndoorSpace::heap_bytes` counts exactly the heap a built venue holds.
//!
//! The count sums the capacity of every buffer the venue owns, so it must
//! equal the live bytes the allocator sees held once `build_mall` returns.
//! The tracking allocator is this test binary's global allocator and counts
//! every thread, so the binary holds a single test.

use indoor_synthetic::{build_mall, HoursConfig, MallConfig, ShopHours};
use itspq_bench::TrackingAllocator;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

#[test]
fn heap_bytes_is_the_heap_a_built_venue_holds() {
    let hours = ShopHours::sample(&HoursConfig::default());
    for floors in [1, 5] {
        let band = MallConfig::paper_default().with_floors(floors);
        for (name, cfg) in [("band", band), ("comb", band.with_comb_corridors())] {
            // A first build leaves behind what the runtime keeps from first
            // use (the calling thread's handle, say); only the second is
            // counted.
            drop(build_mall(&cfg, &hours));
            let before = TrackingAllocator::live_bytes();
            let space = build_mall(&cfg, &hours);
            let held = TrackingAllocator::live_bytes() - before;
            assert_eq!(
                space.heap_bytes(),
                held,
                "{name} mall, {floors} floor(s): heap_bytes against the allocator's live bytes"
            );
        }
    }
}
