//! The one on-disk codec: CRC32, the frame layout every durable file
//! uses, and the atomic write that replaces files (DESIGN.md §12, §14).
//!
//! A file is a header followed by one or more frames:
//!
//! ```text
//! [ magic [u8; 4] | version u32 LE ]
//! [ len u64 LE | crc32 u32 LE | payload ]   (once per frame)
//! ```
//!
//! Three magics share the layout: `TWCK` (the online checkpoint, one
//! frame), `TWSM` (the archive manifest, one frame) and `TWSG` (a segment:
//! a body frame and a footer-index frame). The decoder checks each claimed
//! length against the bytes left in the file before it allocates or seeks,
//! and every malformed file is a typed [`StoreError`], never a panic.

use serde::{Deserialize, Serialize};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Format version shared by every magic.
const VERSION: u32 = 1;
/// magic + version.
pub(crate) const FILE_HEADER_LEN: usize = 8;
/// len + crc in front of each frame.
pub(crate) const FRAME_HEADER_LEN: usize = 12;

/// Why a framed file could not be read: every failure is a clean reason,
/// never a panic, and never trusted data.
#[derive(Debug)]
pub enum StoreError {
    /// The file does not exist.
    Missing,
    /// Filesystem error.
    Io(std::io::Error),
    /// Wrong leading magic.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// Shorter than the header or a declared frame length.
    Truncated,
    /// Frame CRC32 mismatch (torn or bit-rotted write).
    BadCrc,
    /// Frame failed to parse/deserialize, or bytes follow the last frame.
    BadPayload(String),
}

impl StoreError {
    /// Metric/report label: "missing", "io" or "corrupt".
    pub fn reason(&self) -> &'static str {
        match self {
            StoreError::Missing => "missing",
            StoreError::Io(_) => "io",
            StoreError::BadMagic
            | StoreError::BadVersion(_)
            | StoreError::Truncated
            | StoreError::BadCrc
            | StoreError::BadPayload(_) => "corrupt",
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Missing => write!(f, "file missing"),
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::BadMagic => write!(f, "bad magic"),
            StoreError::BadVersion(v) => write!(f, "unsupported version {v}"),
            StoreError::Truncated => write!(f, "truncated file"),
            StoreError::BadCrc => write!(f, "crc mismatch"),
            StoreError::BadPayload(e) => write!(f, "bad payload: {e}"),
        }
    }
}

/// CRC32 (IEEE 802.3 polynomial, reflected), table-driven.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    });
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc = table[((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    crc ^ 0xffff_ffff
}

/// Write a whole file to `w`: the `magic | version` header, then one
/// `len | crc | payload` frame per payload.
pub fn encode(w: &mut impl Write, magic: [u8; 4], payloads: &[&[u8]]) -> std::io::Result<()> {
    w.write_all(&magic)?;
    w.write_all(&VERSION.to_le_bytes())?;
    for payload in payloads {
        w.write_all(&(payload.len() as u64).to_le_bytes())?;
        w.write_all(&crc32(payload).to_le_bytes())?;
        w.write_all(payload)?;
    }
    Ok(())
}

/// Atomically replace `path` with a framed file (streamed, never copied
/// into one buffer). Returns the file's size in bytes.
pub fn write_file(path: &Path, magic: [u8; 4], payloads: &[&[u8]]) -> std::io::Result<u64> {
    atomic_write(path, |file| {
        let mut w = std::io::BufWriter::new(file);
        encode(&mut w, magic, payloads)?;
        w.flush()
    })?;
    let frames: usize = payloads.iter().map(|p| FRAME_HEADER_LEN + p.len()).sum();
    Ok((FILE_HEADER_LEN + frames) as u64)
}

/// Atomically replace `path`: `write` fills the sibling `<path>.tmp`
/// (same directory, so the rename never crosses filesystems), which is
/// fsynced and renamed over `path`. Readers observe either the old
/// complete file or the new complete file, never a torn one. The parent
/// directory is fsynced after the rename, so once this returns `Ok` a
/// crash cannot bring back the older file.
pub fn atomic_write(
    path: &Path,
    write: impl FnOnce(&mut std::fs::File) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = std::fs::File::create(&tmp)?;
    write(&mut file)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}

/// Serialize `value` as JSON bytes (a frame payload).
pub(crate) fn to_json<T: Serialize + ?Sized>(value: &T) -> std::io::Result<Vec<u8>> {
    serde_json::to_string(value)
        .map(String::into_bytes)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// Parse a JSON frame payload.
pub(crate) fn parse_json<T: for<'de> Deserialize<'de>>(payload: &[u8]) -> Result<T, StoreError> {
    let text = std::str::from_utf8(payload).map_err(|e| StoreError::BadPayload(e.to_string()))?;
    serde_json::from_str(text).map_err(|e| StoreError::BadPayload(e.to_string()))
}

/// Atomically write `value` as a single-frame JSON file.
pub fn save<T: Serialize + ?Sized>(path: &Path, magic: [u8; 4], value: &T) -> std::io::Result<()> {
    write_file(path, magic, &[&to_json(value)?]).map(drop)
}

/// Read and parse a single-frame JSON file written by [`save`].
pub fn load<T: for<'de> Deserialize<'de>>(path: &Path, magic: [u8; 4]) -> Result<T, StoreError> {
    let mut reader = FrameReader::open(path, magic)?;
    let payload = reader.frame()?;
    reader.finish()?;
    parse_json(&payload)
}

/// Reads a framed file front to back. The header is checked on open; each
/// frame's claimed length is checked against the bytes left before
/// anything is allocated or skipped.
pub struct FrameReader<R> {
    inner: R,
    left: u64,
}

impl FrameReader<std::fs::File> {
    /// Open `path` and check its header ([`StoreError::Missing`] when the
    /// file does not exist).
    pub fn open(path: &Path, magic: [u8; 4]) -> Result<Self, StoreError> {
        match std::fs::File::open(path) {
            Ok(file) => FrameReader::new(file, magic),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(StoreError::Missing),
            Err(e) => Err(StoreError::Io(e)),
        }
    }
}

impl<R: Read + Seek> FrameReader<R> {
    /// Check the `magic | version` header at the start of `inner`.
    pub fn new(mut inner: R, magic: [u8; 4]) -> Result<Self, StoreError> {
        let left = inner.seek(SeekFrom::End(0)).map_err(StoreError::Io)?;
        inner.rewind().map_err(StoreError::Io)?;
        let mut reader = FrameReader { inner, left };
        let mut header = [0u8; FILE_HEADER_LEN];
        reader.read_exact(&mut header)?;
        if header[..4] != magic {
            return Err(StoreError::BadMagic);
        }
        let version = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(StoreError::BadVersion(version));
        }
        Ok(reader)
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), StoreError> {
        if buf.len() as u64 > self.left {
            return Err(StoreError::Truncated);
        }
        self.inner.read_exact(buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                StoreError::Truncated
            } else {
                StoreError::Io(e)
            }
        })?;
        self.left -= buf.len() as u64;
        Ok(())
    }

    /// The next frame's `(len, crc)`, with `len` no larger than what is left.
    fn frame_header(&mut self) -> Result<(u64, u32), StoreError> {
        let mut header = [0u8; FRAME_HEADER_LEN];
        self.read_exact(&mut header)?;
        let len = u64::from_le_bytes(header[..8].try_into().expect("8 bytes"));
        if len > self.left {
            return Err(StoreError::Truncated);
        }
        Ok((
            len,
            u32::from_le_bytes(header[8..].try_into().expect("4 bytes")),
        ))
    }

    /// The next frame's payload, CRC-checked.
    pub fn frame(&mut self) -> Result<Vec<u8>, StoreError> {
        let (len, crc) = self.frame_header()?;
        let mut payload = vec![0u8; len as usize];
        self.read_exact(&mut payload)?;
        if crc32(&payload) != crc {
            return Err(StoreError::BadCrc);
        }
        Ok(payload)
    }

    /// Seek past the next frame without reading or CRC-checking it.
    pub fn skip_frame(&mut self) -> Result<(), StoreError> {
        let (len, _) = self.frame_header()?;
        self.inner
            .seek(SeekFrom::Current(len as i64))
            .map_err(StoreError::Io)?;
        self.left -= len;
        Ok(())
    }

    /// Reject bytes after the last frame: no writer produces them.
    pub fn finish(self) -> Result<(), StoreError> {
        if self.left == 0 {
            Ok(())
        } else {
            Err(StoreError::BadPayload("trailing bytes".to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn atomic_write_replaces_the_file_and_reports_errors() {
        let dir = std::env::temp_dir().join(format!("twframe-aw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.bin");
        for body in [&b"old"[..], &b"new"[..]] {
            atomic_write(&path, |f| f.write_all(body)).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), body);
        }
        assert!(!dir.join("doc.bin.tmp").exists(), "temp file renamed away");
        // A failed write leaves the previous file in place.
        let err = atomic_write(&path, |_| Err(std::io::Error::other("boom"))).unwrap_err();
        assert_eq!(err.to_string(), "boom");
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
