//! On-disk page file with a checksummed header and per-page CRC trailers,
//! read back with positioned reads. Layout:
//!
//! ```text
//! offset 0            header page (magic "CCPG", version, page size,
//!                     page count; CRC-32 trailer like every page)
//! offset PAGE_SIZE    data page 0
//! offset 2*PAGE_SIZE  data page 1
//! ...
//! ```
//!
//! Every page is [`PAGE_SIZE`] bytes: [`PAYLOAD_BYTES`] of payload followed
//! by a 4-byte IEEE CRC-32 of the payload. The checksum is verified on
//! *every* read, so a torn page or flipped bit surfaces as a loud
//! [`std::io::ErrorKind::InvalidData`] error instead of silent corruption.
//!
//! Reads go through positioned I/O (`pread` via
//! `std::os::unix::fs::FileExt::read_exact_at` on Unix), which is safe,
//! lock-free, and shares one file descriptor across query threads. An
//! mmap-backed variant was considered and rejected: this crate is
//! `#![forbid(unsafe_code)]` and memory mapping cannot be expressed safely
//! without a new dependency (see `DESIGN.md` §12).

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::wal::crc32;
use crate::PAGE_SIZE;

/// Usable payload bytes per page (the last 4 bytes hold the CRC trailer).
pub const PAYLOAD_BYTES: usize = PAGE_SIZE - 4;

/// Magic bytes identifying a cc-storage disk page file.
const MAGIC: [u8; 4] = *b"CCPG";
/// On-disk format version. Version 2 holds ids-only posting pages
/// (`crate::paged_bucket`); a version-1 file is refused, not migrated.
const VERSION: u32 = 2;

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Seal a payload into a full page image by appending its CRC trailer.
fn seal(payload: &[u8]) -> [u8; PAGE_SIZE] {
    debug_assert!(payload.len() <= PAYLOAD_BYTES);
    let mut page = [0u8; PAGE_SIZE];
    page[..payload.len()].copy_from_slice(payload);
    let crc = crc32(&page[..PAYLOAD_BYTES]);
    page[PAYLOAD_BYTES..].copy_from_slice(&crc.to_le_bytes());
    page
}

/// Verify a page image's CRC trailer.
fn check(page: &[u8; PAGE_SIZE], what: &str) -> io::Result<()> {
    let stored = u32::from_le_bytes(page[PAYLOAD_BYTES..].try_into().unwrap());
    let actual = crc32(&page[..PAYLOAD_BYTES]);
    if stored != actual {
        return Err(bad_data(format!(
            "{what} checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )));
    }
    Ok(())
}

/// Sequential writer for a new disk page file.
///
/// Appends sealed pages and writes the checksummed header on
/// [`finish`](DiskPageFileWriter::finish), so a crash mid-build leaves a
/// file that [`DiskPageFile::open`] refuses to load.
pub struct DiskPageFileWriter {
    out: BufWriter<File>,
    path: PathBuf,
    pages: u64,
}

impl DiskPageFileWriter {
    /// Create (truncating) a page file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(&path)?;
        let mut out = BufWriter::new(file);
        // Placeholder header page; rewritten (with the real page count and a
        // valid CRC) by `finish`. Until then the file is unopenable.
        out.write_all(&[0u8; PAGE_SIZE])?;
        Ok(DiskPageFileWriter { out, path, pages: 0 })
    }

    /// Append one page; `payload` must be at most [`PAYLOAD_BYTES`] and is
    /// zero-padded. Returns the page number.
    pub fn append_page(&mut self, payload: &[u8]) -> io::Result<u32> {
        assert!(payload.len() <= PAYLOAD_BYTES, "payload exceeds page capacity");
        self.out.write_all(&seal(payload))?;
        let no = u32::try_from(self.pages).expect("page file exceeds u32 pages");
        self.pages += 1;
        Ok(no)
    }

    /// Number of data pages appended so far.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Flush everything, write the real header, fsync, and reopen the file
    /// as a read-only [`DiskPageFile`].
    pub fn finish(self) -> io::Result<DiskPageFile> {
        let DiskPageFileWriter { mut out, path, pages } = self;
        let mut header = [0u8; PAYLOAD_BYTES];
        header[0..4].copy_from_slice(&MAGIC);
        header[4..8].copy_from_slice(&VERSION.to_le_bytes());
        header[8..12].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
        header[12..20].copy_from_slice(&pages.to_le_bytes());
        out.flush()?;
        let mut file = out.into_inner().map_err(|e| e.into_error())?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&seal(&header))?;
        file.sync_all()?;
        DiskPageFile::open(path)
    }
}

/// Read-only handle to a finished disk page file.
///
/// Cheap positioned reads verify the page CRC on every access and count
/// physical reads in an atomic, so callers (the buffer pool, the bench
/// harness) can report true I/O-per-query figures.
#[derive(Debug)]
pub struct DiskPageFile {
    file: File,
    #[cfg(not(unix))]
    seek_lock: parking_lot::Mutex<()>,
    path: PathBuf,
    pages: u32,
    reads: AtomicU64,
}

impl DiskPageFile {
    /// Open and validate an existing page file.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let len = file.metadata()?.len();
        if len < PAGE_SIZE as u64 {
            return Err(bad_data(format!("page file too short for a header: {len} bytes")));
        }
        let mut header = [0u8; PAGE_SIZE];
        file.read_exact(&mut header)?;
        check(&header, "header page")?;
        if header[0..4] != MAGIC {
            return Err(bad_data("bad magic: not a cc-storage page file".into()));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(bad_data(format!("unsupported page file version {version}")));
        }
        let page_size = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if page_size as usize != PAGE_SIZE {
            return Err(bad_data(format!(
                "page size mismatch: file {page_size}, build {PAGE_SIZE}"
            )));
        }
        let pages = u64::from_le_bytes(header[12..20].try_into().unwrap());
        let expect = (pages + 1) * PAGE_SIZE as u64;
        if len != expect {
            return Err(bad_data(format!(
                "page file length {len} does not match header ({pages} pages, expected {expect})"
            )));
        }
        let pages = u32::try_from(pages).map_err(|_| bad_data("page count exceeds u32".into()))?;
        Ok(DiskPageFile {
            file,
            #[cfg(not(unix))]
            seek_lock: parking_lot::Mutex::new(()),
            path,
            pages,
            reads: AtomicU64::new(0),
        })
    }

    /// Number of data pages.
    pub fn pages(&self) -> u32 {
        self.pages
    }

    /// Total file size in bytes, header included.
    pub fn size_bytes(&self) -> u64 {
        (u64::from(self.pages) + 1) * PAGE_SIZE as u64
    }

    /// Path this file was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Physical page reads performed so far.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Reset the physical read counter (between bench phases).
    pub fn reset_reads(&self) {
        self.reads.store(0, Ordering::Relaxed);
    }

    #[cfg(unix)]
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, offset)
    }

    #[cfg(not(unix))]
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        use std::io::Read;
        let _guard = self.seek_lock.lock();
        let mut f = &self.file;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }

    /// Read one data page's payload into `out` (resized to
    /// [`PAYLOAD_BYTES`]), verifying the checksum.
    pub fn read_payload(&self, page_no: u32, out: &mut Vec<u8>) -> io::Result<()> {
        if page_no >= self.pages {
            return Err(bad_data(format!("page {page_no} out of range ({} pages)", self.pages)));
        }
        let mut page = [0u8; PAGE_SIZE];
        let offset = (u64::from(page_no) + 1) * PAGE_SIZE as u64;
        self.read_at(&mut page, offset)?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        check(&page, &format!("page {page_no}"))?;
        out.clear();
        out.extend_from_slice(&page[..PAYLOAD_BYTES]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::scratch_dir;

    #[test]
    fn write_read_round_trip() {
        let dir = scratch_dir("diskfile_rt");
        let path = dir.join("pages.ccpg");
        let mut w = DiskPageFileWriter::create(&path).unwrap();
        for i in 0..5u8 {
            let payload = vec![i; (i as usize + 1) * 100];
            assert_eq!(w.append_page(&payload).unwrap(), u32::from(i));
        }
        let f = w.finish().unwrap();
        assert_eq!(f.pages(), 5);
        assert_eq!(f.size_bytes(), 6 * PAGE_SIZE as u64);
        let mut buf = Vec::new();
        for i in 0..5u8 {
            f.read_payload(u32::from(i), &mut buf).unwrap();
            assert_eq!(buf.len(), PAYLOAD_BYTES);
            assert!(buf[..(i as usize + 1) * 100].iter().all(|&b| b == i));
            assert!(buf[(i as usize + 1) * 100..].iter().all(|&b| b == 0));
        }
        assert_eq!(f.reads(), 5);
        assert!(f.read_payload(5, &mut buf).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_1_file_is_refused() {
        let dir = scratch_dir("diskfile_v1");
        let path = dir.join("pages.ccpg");
        let mut w = DiskPageFileWriter::create(&path).unwrap();
        w.append_page(&[1, 2, 3]).unwrap();
        drop(w.finish().unwrap());
        // The same file under a sound version-1 header.
        let mut header = [0u8; PAYLOAD_BYTES];
        header[0..4].copy_from_slice(&MAGIC);
        header[4..8].copy_from_slice(&1u32.to_le_bytes());
        header[8..12].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
        header[12..20].copy_from_slice(&1u64.to_le_bytes());
        let mut file = OpenOptions::new().write(true).open(&path).unwrap();
        file.write_all(&seal(&header)).unwrap();
        drop(file);
        let err = DiskPageFile::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 1"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unfinished_file_is_rejected() {
        let dir = scratch_dir("diskfile_unfinished");
        let path = dir.join("pages.ccpg");
        let mut w = DiskPageFileWriter::create(&path).unwrap();
        w.append_page(&[1, 2, 3]).unwrap();
        // Simulate a crash before finish(): flush data but never the header.
        w.out.flush().unwrap();
        drop(w.out);
        let err = DiskPageFile::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }
}
