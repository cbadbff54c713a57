//! Storage backends: where table-space pages physically live.
//!
//! The buffer pool reads and writes whole pages through a [`StorageBackend`].
//! Two implementations are provided: a file backend (pread/pwrite at page
//! granularity, as a real table space would) and an in-memory backend for
//! tests and benchmarks that want to isolate CPU cost from the filesystem.

use crate::error::Result;
use crate::page::PAGE_SIZE;
use parking_lot::RwLock;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};

/// Physical page storage for one table space.
pub trait StorageBackend: Send + Sync {
    /// Read page `page_no` into `buf` (exactly [`PAGE_SIZE`] bytes).
    fn read_page(&self, page_no: u32, buf: &mut [u8]) -> Result<()>;
    /// Write page `page_no` from `buf` (exactly [`PAGE_SIZE`] bytes).
    fn write_page(&self, page_no: u32, buf: &[u8]) -> Result<()>;
    /// Number of pages currently materialized.
    fn page_count(&self) -> u32;
    /// Extend the backend so pages `0..n` exist (zero-filled).
    fn ensure_pages(&self, n: u32) -> Result<()>;
    /// Flush to durable storage (no-op for memory).
    fn sync(&self) -> Result<()>;
}

/// File-backed table space: page `i` lives at byte offset `i * PAGE_SIZE`.
pub struct FileBackend {
    file: File,
    pages: AtomicU32,
}

impl FileBackend {
    /// Open or create the backing file at `path`.
    pub fn open(path: &Path) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(FileBackend {
            file,
            pages: AtomicU32::new((len / PAGE_SIZE as u64) as u32),
        })
    }
}

impl StorageBackend for FileBackend {
    fn read_page(&self, page_no: u32, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        if page_no >= self.pages.load(Ordering::Acquire) {
            // Reading past EOF yields a zero page (freshly extended space).
            buf.fill(0);
            return Ok(());
        }
        self.file
            .read_exact_at(buf, page_no as u64 * PAGE_SIZE as u64)?;
        Ok(())
    }

    fn write_page(&self, page_no: u32, buf: &[u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        self.file
            .write_all_at(buf, page_no as u64 * PAGE_SIZE as u64)?;
        self.pages.fetch_max(page_no + 1, Ordering::AcqRel);
        Ok(())
    }

    fn page_count(&self) -> u32 {
        self.pages.load(Ordering::Acquire)
    }

    fn ensure_pages(&self, n: u32) -> Result<()> {
        let cur = self.pages.load(Ordering::Acquire);
        if n > cur {
            self.file.set_len(n as u64 * PAGE_SIZE as u64)?;
            self.pages.fetch_max(n, Ordering::AcqRel);
        }
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// In-memory table space for tests and CPU-bound benchmarks.
pub struct MemBackend {
    pages: RwLock<Vec<Box<[u8; PAGE_SIZE]>>>,
}

impl MemBackend {
    /// Create an empty in-memory space.
    pub fn new() -> Self {
        MemBackend {
            pages: RwLock::new(Vec::new()),
        }
    }
}

impl Default for MemBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl StorageBackend for MemBackend {
    fn read_page(&self, page_no: u32, buf: &mut [u8]) -> Result<()> {
        let pages = self.pages.read();
        match pages.get(page_no as usize) {
            Some(p) => buf.copy_from_slice(&p[..]),
            None => buf.fill(0),
        }
        Ok(())
    }

    fn write_page(&self, page_no: u32, buf: &[u8]) -> Result<()> {
        let mut pages = self.pages.write();
        while pages.len() <= page_no as usize {
            pages.push(Box::new([0u8; PAGE_SIZE]));
        }
        pages[page_no as usize].copy_from_slice(buf);
        Ok(())
    }

    fn page_count(&self) -> u32 {
        self.pages.read().len() as u32
    }

    fn ensure_pages(&self, n: u32) -> Result<()> {
        let mut pages = self.pages.write();
        while pages.len() < n as usize {
            pages.push(Box::new([0u8; PAGE_SIZE]));
        }
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(b: &dyn StorageBackend) {
        let mut w = [0u8; PAGE_SIZE];
        w[0] = 0xAA;
        w[PAGE_SIZE - 1] = 0x55;
        b.write_page(3, &w).unwrap();
        let mut r = [0u8; PAGE_SIZE];
        b.read_page(3, &mut r).unwrap();
        assert_eq!(r[0], 0xAA);
        assert_eq!(r[PAGE_SIZE - 1], 0x55);
        // Unwritten page reads as zeros.
        b.read_page(100, &mut r).unwrap();
        assert!(r.iter().all(|&x| x == 0));
        assert!(b.page_count() >= 4);
    }

    #[test]
    fn mem_backend_roundtrip() {
        roundtrip(&MemBackend::new());
    }

    #[test]
    fn file_backend_roundtrip() {
        let dir = std::env::temp_dir().join(format!("rxs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("space.dat");
        let _ = std::fs::remove_file(&path);
        roundtrip(&FileBackend::open(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_backend_persists() {
        let dir = std::env::temp_dir().join(format!("rxs-test-p-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("persist.dat");
        let _ = std::fs::remove_file(&path);
        {
            let b = FileBackend::open(&path).unwrap();
            let mut w = [7u8; PAGE_SIZE];
            w[9] = 9;
            b.write_page(0, &w).unwrap();
            b.sync().unwrap();
        }
        let b = FileBackend::open(&path).unwrap();
        assert_eq!(b.page_count(), 1);
        let mut r = [0u8; PAGE_SIZE];
        b.read_page(0, &mut r).unwrap();
        assert_eq!(r[9], 9);
        std::fs::remove_file(&path).unwrap();
    }
}
