//! Per-block tags: every block the benchmark is handed carries a tag
//! unique to it, written at both ends and checked before the block is
//! freed. Two live blocks that overlap, or one block handed out twice,
//! overwrite each other's tags.

/// Unique tags for one worker: the worker index in the top byte.
pub struct TagSource {
    next: u64,
}

impl TagSource {
    pub fn new(worker: usize) -> Self {
        TagSource {
            next: (worker as u64) << 56,
        }
    }

    pub fn next_tag(&mut self) -> u64 {
        self.next += 1;
        self.next
    }
}

/// Writes `tag` into the first and last 8 bytes of the `len`-byte block
/// at `addr` (`len >= 8`).
pub fn write_tags(addr: usize, len: usize, tag: u64) {
    debug_assert!(len >= 8);
    // SAFETY: the caller owns `len >= 8` writable bytes at `addr`.
    unsafe {
        (addr as *mut u64).write_unaligned(tag);
        ((addr + len - 8) as *mut u64).write_unaligned(tag);
    }
}

/// Checks the tags [`write_tags`] wrote.
pub fn check_tags(addr: usize, len: usize, tag: u64) -> Result<(), String> {
    // SAFETY: the caller still owns the `len`-byte block at `addr`.
    let (head, tail) = unsafe {
        (
            (addr as *const u64).read_unaligned(),
            ((addr + len - 8) as *const u64).read_unaligned(),
        )
    };
    if head == tag && tail == tag {
        Ok(())
    } else {
        Err(format!(
            "block {addr:#x} ({len} B) lost its tag {tag:#x}: found {head:#x} / {tail:#x}"
        ))
    }
}
