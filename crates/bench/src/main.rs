//! `bench <name> [args]`: runs one figure, table or tool of
//! [`bench::figures::REGISTRY`]; `bench figures` runs the whole suite.

use bench::figures::fig13_metro::{LIVE_BYTES, PEAK_BYTES};
use bench::figures::{Run, REGISTRY};
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::Ordering;

/// [`System`] that keeps fig13's live and peak heap counters.
struct CountingAlloc;

// SAFETY: every call goes to `System` with the caller's arguments
// unchanged; the bookkeeping is two relaxed atomics that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let entry = args
        .first()
        .and_then(|arg| REGISTRY.iter().find(|(name, _)| name == arg));
    let Some((name, run)) = entry else {
        let names: Vec<&str> = REGISTRY.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "usage: bench <name> [args]\n       names: {}",
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let outcome = match run {
        Run::Figure(run) => run(),
        Run::Tool(run) => run(&args[1..]),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench {name}: {e}");
            ExitCode::FAILURE
        }
    }
}
