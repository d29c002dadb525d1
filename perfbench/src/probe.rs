//! Reads the engine's own `teemon_obs` probes and the kernel's per-process
//! I/O accounting from outside the program: a layer's work over an interval
//! is the difference of two snapshots taken around it.  Nothing here records
//! into the probes.

use teemon_obs::probes as p;

macro_rules! probe_snapshot {
    ($($field:ident => $read:expr,)*) => {
        /// One reading of every probe the benchmark attributes time or work
        /// with.  Counters and histogram sums only grow, so `since` yields
        /// the interval's work.
        #[derive(Clone, Copy, Debug, Default)]
        pub struct Probes {
            $(pub $field: u64,)*
            /// `syscw` of `/proc/self/io`: write-class syscalls of the whole
            /// process (read only when asked — it costs a file read).
            pub syscw: u64,
        }

        impl Probes {
            pub fn read(with_io: bool) -> Self {
                Self {
                    $($field: $read,)*
                    syscw: if with_io { proc_io_syscw() } else { 0 },
                }
            }

            pub fn since(&self, earlier: &Self) -> Self {
                Self {
                    $($field: self.$field.saturating_sub(earlier.$field),)*
                    syscw: self.syscw.saturating_sub(earlier.syscw),
                }
            }
        }
    };
}

probe_snapshot! {
    collect_ns => p::SCRAPE_COLLECT_NS.sum_ns(),
    walk_ns => p::SCRAPE_CACHE_WALK_NS.sum_ns(),
    append_ns => p::SCRAPE_APPEND_NS.sum_ns(),
    cache_hits => p::CACHE_HITS.get(),
    cache_rebuilds => p::CACHE_REBUILDS.get(),
    stale_handles => p::STALE_HANDLES.get(),
    wal_bytes => p::WAL_BYTES_WRITTEN.get(),
    fsync_ns => p::WAL_FSYNC_NS.sum_ns(),
    fsyncs => p::WAL_FSYNC_NS.count(),
    symbols_swept => p::SYMBOLS_SWEPT.get(),
    records_replayed => p::WAL_RECORDS_REPLAYED.get(),
    query_ns => p::QUERY_NS.sum_ns(),
    queries => p::QUERY_NS.count(),
    streamed => p::QUERY_STREAMED.get(),
    fallback => p::QUERY_FALLBACK.get(),
    window_rebuilds => p::QUERY_WINDOW_REBUILDS.get(),
    http_ns => p::HTTP_REQUEST_NS.sum_ns(),
    http_handled => p::HTTP_REQUEST_NS.count(),
    http_non2xx => p::HTTP_RESPONSES_4XX.get() + p::HTTP_RESPONSES_5XX.get(),
    http_shed => p::HTTP_SHED.get(),
    http_rate_limited => p::HTTP_RATE_LIMITED.get(),
    http_connections => p::HTTP_CONNECTIONS.get(),
}

fn proc_io_syscw() -> u64 {
    proc_field("/proc/self/io", "syscw:").unwrap_or(0)
}

/// glibc's `struct mallinfo2`.
#[repr(C)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    /// Bytes in chunks the allocator mmapped on their own.
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    /// Bytes in use in every arena.
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

/// Live heap in MiB: the bytes the process holds allocated right now, in
/// every arena and in mmapped chunks.  Unlike the resident size it leaves
/// out the free memory the allocator keeps, whose amount differs from
/// process to process with the order in which threads came and went.
/// Costs up to a millisecond: it walks every arena's free lists.
pub fn live_heap_mb() -> f64 {
    extern "C" {
        fn mallinfo2() -> MallInfo2;
    }
    // SAFETY: mallinfo2 takes no arguments and returns a plain struct.
    let info = unsafe { mallinfo2() };
    (info.uordblks + info.hblkhd) as f64 / (1024.0 * 1024.0)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// The first number after `key` in a `/proc` key-value file.
fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}
