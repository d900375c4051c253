//! Steady-state backfill decisions allocate nothing.
//!
//! An open drive's memory is bounded by its queue depth, so once the
//! queue, the planner's timeline and the passes' buffers have grown to the
//! stream's working size, a further stretch of arrivals and completions
//! must not touch the allocator. A counting global allocator measures
//! that: two drives of the same stream that differ only in their
//! completion target may differ by a handful of allocations (the
//! completion accumulators grow geometrically), not by a number that
//! scales with the extra events.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lsps_core::policy::by_name;
use lsps_scenario::runner::des_online_open;
use lsps_scenario::spec::WorkloadSource;
use lsps_scenario::CampaignSpec;

/// Counts every allocation and reallocation, then defers to [`System`].
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A ρ = 0.9 Poisson stream of narrow and wide jobs on 64 processors.
const SPEC: &str = r#"{
    "name": "steady-allocs",
    "policies": ["backfill-easy", "backfill-conservative"],
    "executors": ["des-online"],
    "platforms": [{"name": "m64", "m": 64}],
    "workloads": [{"name": "rho-0.90", "source": {"Open": {
        "stream": {"rho": 0.9, "arrival": "Poisson", "classes": [
            {"name": "narrow", "mix": 3.0, "width": {"Fixed": 1.0}, "service_s": {"Exp": 120.0}},
            {"name": "wide", "mix": 1.0, "width": {"Uniform": [2.0, 16.0]}, "service_s": {"Exp": 600.0}}
        ]},
        "stop_completions": 2000}}}],
    "ctx": {"release_mode": "online", "estimate_factor": 1.0}
}"#;

/// Extra allocations a drive twice as long may make.
const SLACK: u64 = 32;

#[test]
fn open_backfill_drives_allocate_nothing_per_event_in_steady_state() {
    let spec: CampaignSpec = serde_json::from_str(SPEC).expect("spec parses");
    let WorkloadSource::Open(open) = &spec.workloads[0].source else {
        unreachable!("an open workload")
    };
    let m = spec.platforms[0].m;
    let ctx = spec.ctx.to_policy_ctx();
    for name in &spec.policies {
        let policy = by_name(name).expect("registered policy");
        let allocations = |completions: u64| {
            let mut open = open.clone();
            open.stop_completions = completions;
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let out = des_online_open(policy.as_ref(), &open, m, &ctx, 7);
            let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
            assert_eq!(out.completions, completions, "{name}");
            made
        };
        let short = allocations(2_000);
        let long = allocations(4_000);
        assert!(
            long <= short + SLACK,
            "{name}: 2000 more completions made {} more allocations \
             ({short} for 2000, {long} for 4000)",
            long.saturating_sub(short)
        );
    }
}
