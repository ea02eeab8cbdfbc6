//! Memory-mapped file access for the storage tier — the only module in this
//! crate allowed to use `unsafe` (mirroring `mbi_math::simd`, the workspace's
//! other documented exception).
//!
//! The build environment vendors no `libc`/`memmap2`, so on x86-64 Linux the
//! `mmap`/`munmap` calls are issued as raw syscalls via
//! `core::arch::asm!`. Every other platform (and any map failure) falls back
//! to reading the whole file into an owned buffer, which keeps behaviour —
//! though not residency — identical.
//!
//! Two building blocks live here:
//!
//! * [`FileMap`] — a read-only mapping of one file. Its pages are clean and
//!   file-backed, so the kernel's page cache keeps or reclaims them; nothing
//!   here tracks or drops residency.
//! * [`Col<T>`] — an owned-**or**-mapped typed column. Sealed segments built
//!   in RAM own `Vec<T>`s; segments of a cold index view the mapped bytes in
//!   place (zero copy, checked by CRC on first read). Both deref to `[T]`,
//!   so every kernel downstream is oblivious to where the bytes live.

#![allow(unsafe_code)]

use std::fs::File;
use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

/// Page size assumed for alignment. Linux x86-64 uses 4 KiB pages; the
/// persist layer aligns leaf records to this.
pub const PAGE_SIZE: usize = 4096;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use std::arch::asm;
    use std::os::unix::io::RawFd;

    const SYS_MMAP: usize = 9;
    const SYS_MUNMAP: usize = 11;
    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    /// Raw 6-argument Linux syscall.
    ///
    /// # Safety
    ///
    /// The caller must uphold the contract of the specific syscall invoked.
    unsafe fn syscall6(
        nr: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") nr as isize => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                in("r10") d,
                in("r8") e,
                in("r9") f,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// Maps `len` bytes of `fd` read-only/private. Returns the address or
    /// `None` on failure (callers fall back to buffered reads).
    pub(super) fn map(fd: RawFd, len: usize) -> Option<*const u8> {
        let ret = unsafe { syscall6(SYS_MMAP, 0, len, PROT_READ, MAP_PRIVATE, fd as usize, 0) };
        // Errors come back as -errno in (-4095, 0).
        if (-4095..0).contains(&ret) {
            None
        } else {
            Some(ret as *const u8)
        }
    }

    /// Unmaps a range previously returned by [`map`].
    ///
    /// # Safety
    ///
    /// `addr..addr+len` must be exactly the mapping from [`map`] and must not
    /// be accessed afterwards.
    pub(super) unsafe fn unmap(addr: *const u8, len: usize) {
        unsafe {
            let _ = syscall6(SYS_MUNMAP, addr as usize, len, 0, 0, 0, 0);
        }
    }
}

/// How the file's bytes are held.
#[derive(Debug)]
enum Backing {
    /// Live `mmap` region (Linux x86-64 with a successful map).
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Mapped { addr: *const u8, len: usize },
    /// Whole file buffered in memory — the portable fallback: everything is
    /// always resident. The `len` bytes live in `u64`
    /// words so the base is 8-byte aligned like a mapping's page-aligned
    /// one: [`Col`] views `f32`/`i64` columns in place at offsets the
    /// format aligns relative to the file start.
    Buffered { words: Vec<u64>, len: usize },
}

// The mapped pointer is read-only and owned exclusively by this value; the
// region outlives every borrow because `bytes()` ties borrows to `&self`.
unsafe impl Send for Backing {}
unsafe impl Sync for Backing {}

/// A read-only view of one file, memory-mapped where the platform allows.
///
/// The storage tier maps checkpoint files that are only ever replaced
/// *atomically* (temp file + rename): the mapped inode keeps its bytes alive
/// even after a newer checkpoint replaces the directory entry, so a `FileMap`
/// never observes a file mutating under it.
#[derive(Debug)]
pub struct FileMap {
    backing: Backing,
}

impl FileMap {
    /// Opens and maps `path` read-only. Falls back to reading the whole file
    /// into memory when mapping is unavailable (non-Linux platform, empty
    /// file, or a failed `mmap`).
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<FileMap> {
        let file = File::open(path.as_ref())?;
        let len = file.metadata()?.len() as usize;
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            use std::os::unix::io::AsRawFd;
            if len > 0 {
                if let Some(addr) = sys::map(file.as_raw_fd(), len) {
                    // The fd can close now: the mapping holds its own
                    // reference to the inode.
                    return Ok(FileMap { backing: Backing::Mapped { addr, len } });
                }
            }
        }
        let mut buf = Vec::with_capacity(len);
        std::io::Read::read_to_end(&mut { file }, &mut buf)?;
        Ok(FileMap::from_bytes(buf))
    }

    /// Copies a byte buffer into an 8-byte-aligned one — used by tests and
    /// by callers that decoded from memory but want the same `Col` plumbing.
    pub fn from_bytes(bytes: Vec<u8>) -> FileMap {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        // SAFETY: `words` spans at least `bytes.len()` bytes, the two buffers
        // are distinct allocations, and every bit pattern is a valid `u64`.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), words.as_mut_ptr().cast(), bytes.len());
        }
        FileMap { backing: Backing::Buffered { words, len: bytes.len() } }
    }

    /// Total length in bytes.
    pub fn len(&self) -> usize {
        match &self.backing {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Backing::Mapped { len, .. } => *len,
            Backing::Buffered { len, .. } => *len,
        }
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the bytes are served by a live `mmap` (false on the buffered
    /// fallback — everything is then permanently resident).
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Backing::Mapped { .. } => true,
            Backing::Buffered { .. } => false,
        }
    }

    /// The full byte contents.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Backing::Mapped { addr, len } => {
                // Sound: the region is mapped readable for the lifetime of
                // `self`, and files are only replaced atomically (doc above).
                unsafe { std::slice::from_raw_parts(*addr, *len) }
            }
            // SAFETY: `words` holds at least `len` initialised bytes that live
            // as long as `self`, and `u8` needs no alignment.
            Backing::Buffered { words, len } => unsafe {
                std::slice::from_raw_parts(words.as_ptr().cast(), *len)
            },
        }
    }
}

impl Drop for FileMap {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if let Backing::Mapped { addr, len } = self.backing {
            unsafe { sys::unmap(addr, len) };
        }
    }
}

/// Marker for element types that may be reinterpreted from little-endian
/// file bytes: fixed layout, no padding, no invalid bit patterns. Sealed to
/// exactly the column types the persist format stores.
///
/// # Safety
///
/// Implementors must be plain-old-data: every bit pattern of `size_of::<T>()`
/// bytes is a valid value.
pub unsafe trait Plain: Copy + 'static {}
unsafe impl Plain for u8 {}
unsafe impl Plain for u32 {}
unsafe impl Plain for f32 {}
unsafe impl Plain for i64 {}

/// A typed column that either owns its elements (`Vec<T>`) or views them in
/// place inside a [`FileMap`]. Both forms deref to `[T]`, with bit-identical
/// contents — the persist format is little-endian and the zero-copy mapped
/// form is only constructed on little-endian targets (big-endian targets
/// decode into the owned form instead).
#[derive(Clone)]
pub enum Col<T: Plain> {
    /// Heap-owned elements (the historical representation).
    Owned(Vec<T>),
    /// `len` elements viewed at `byte_off` inside a shared mapping.
    Mapped {
        /// The mapping holding the bytes.
        map: Arc<FileMap>,
        /// Byte offset of element 0; its absolute address is always
        /// `align_of::<T>()`-aligned.
        byte_off: usize,
        /// Element count.
        len: usize,
    },
}

impl<T: Plain> Col<T> {
    /// A zero-copy column over `len` elements at `byte_off` of `map`.
    ///
    /// Fails (with a diagnostic) when the range is out of bounds or its
    /// absolute address is misaligned for `T`. On big-endian targets the
    /// bytes are decoded into an owned column instead, so callers never
    /// branch on endianness.
    pub fn mapped(map: Arc<FileMap>, byte_off: usize, len: usize) -> Result<Col<T>, String> {
        let elem = std::mem::size_of::<T>();
        let bytes = len.checked_mul(elem).ok_or("column length overflows")?;
        let end = byte_off.checked_add(bytes).ok_or("column offset overflows")?;
        if end > map.len() {
            return Err(format!("column [{byte_off}, {end}) exceeds the {}-byte file", map.len()));
        }
        let addr = (map.bytes().as_ptr() as usize).wrapping_add(byte_off);
        if !addr.is_multiple_of(std::mem::align_of::<T>()) {
            return Err(format!(
                "column offset {byte_off} (address {addr:#x}) is not aligned for {elem}-byte elements"
            ));
        }
        if cfg!(target_endian = "little") {
            Ok(Col::Mapped { map, byte_off, len })
        } else {
            // Big-endian fallback: byte-swap into an owned buffer. Kept
            // trivially simple — no supported target hits this today.
            let raw = &map.bytes()[byte_off..end];
            let mut out = Vec::with_capacity(len);
            for chunk in raw.chunks_exact(elem) {
                // Safety: `Plain` guarantees every bit pattern is valid.
                out.push(unsafe { std::ptr::read_unaligned(chunk.as_ptr() as *const T) });
            }
            Ok(Col::Owned(out))
        }
    }

    /// Bytes of *heap* memory this column owns (0 for mapped columns — their
    /// pages belong to the kernel's page cache).
    pub fn heap_bytes(&self) -> usize {
        match self {
            Col::Owned(v) => v.capacity() * std::mem::size_of::<T>(),
            Col::Mapped { .. } => 0,
        }
    }

    /// Whether the column views mapped file bytes rather than owning them.
    pub fn is_mapped(&self) -> bool {
        matches!(self, Col::Mapped { .. })
    }
}

impl<T: Plain> Deref for Col<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Col::Owned(v) => v,
            Col::Mapped { map, byte_off, len } => {
                let bytes = &map.bytes()[*byte_off..*byte_off + *len * std::mem::size_of::<T>()];
                // SAFETY: bounds and the absolute address's alignment were
                // validated in `mapped()` (the map never moves its bytes),
                // `Plain` admits every bit pattern, and the target is
                // little-endian (checked at construction).
                unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, *len) }
            }
        }
    }
}

impl<T: Plain + PartialEq> PartialEq for Col<T> {
    fn eq(&self, other: &Col<T>) -> bool {
        self[..] == other[..]
    }
}

impl<T: Plain> From<Vec<T>> for Col<T> {
    fn from(v: Vec<T>) -> Col<T> {
        Col::Owned(v)
    }
}

impl<T: Plain + std::fmt::Debug> std::fmt::Debug for Col<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Col::Owned(v) => f.debug_tuple("Owned").field(&v.len()).finish(),
            Col::Mapped { byte_off, len, .. } => {
                f.debug_struct("Mapped").field("byte_off", byte_off).field("len", len).finish()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("mbi_mapped_{tag}_{}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn mapped_file_matches_disk_bytes() {
        let data: Vec<u8> = (0..40_000u32).map(|i| (i * 7 + 13) as u8).collect();
        let path = temp_file("roundtrip", &data);
        let map = FileMap::open(&path).unwrap();
        assert_eq!(map.len(), data.len());
        assert_eq!(map.bytes(), &data[..]);
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        assert!(map.is_mapped(), "linux/x86-64 must take the real mmap path");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_uses_buffered_backing() {
        let path = temp_file("empty", &[]);
        let map = FileMap::open(&path).unwrap();
        assert!(map.is_empty());
        assert!(!map.is_mapped());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mapped_col_matches_owned_bitwise() {
        let vals: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut bytes = vec![0u8; 8]; // leading pad to test non-zero offsets
        for v in &vals {
            bytes.extend_from_slice(&v.to_le_bits_bytes());
        }
        let map = Arc::new(FileMap::from_bytes(bytes));
        let col = Col::<f32>::mapped(map, 8, vals.len()).unwrap();
        assert_eq!(col.len(), vals.len());
        for (a, b) in col.iter().zip(&vals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(col.heap_bytes(), 0);
        assert!(col.is_mapped());
        let owned: Col<f32> = vals.clone().into();
        assert_eq!(&owned[..], &vals[..]);
        assert!(owned.heap_bytes() >= vals.len() * 4);
    }

    #[test]
    fn buffered_bytes_start_8_aligned() {
        for len in 0..=64usize {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let map = FileMap::from_bytes(bytes.clone());
            assert!((map.bytes().as_ptr() as usize).is_multiple_of(8), "length {len}");
            assert_eq!(map.bytes(), &bytes[..]);
        }
        // A misaligned absolute address is refused whatever the offset.
        let map = Arc::new(FileMap::from_bytes(vec![0u8; 64]));
        for off in [1, 2, 3, 5] {
            assert!(Col::<f32>::mapped(Arc::clone(&map), off, 1).is_err(), "offset {off}");
        }
        assert!(Col::<f32>::mapped(map, 4, 1).is_ok());
    }

    #[test]
    fn mapped_col_rejects_bad_ranges() {
        let map = Arc::new(FileMap::from_bytes(vec![0u8; 64]));
        assert!(Col::<f32>::mapped(Arc::clone(&map), 0, 17).is_err(), "out of bounds");
        assert!(Col::<f32>::mapped(Arc::clone(&map), 2, 4).is_err(), "misaligned");
        assert!(Col::<i64>::mapped(Arc::clone(&map), 4, 2).is_err(), "misaligned for i64");
        assert!(Col::<u8>::mapped(map, 60, 4).is_ok());
    }

    trait ToLeBytes {
        fn to_le_bits_bytes(&self) -> [u8; 4];
    }
    impl ToLeBytes for f32 {
        fn to_le_bits_bytes(&self) -> [u8; 4] {
            self.to_bits().to_le_bytes()
        }
    }
}
