//! The error type of on-disk index I/O. The one file format — the
//! artifact `init(indexFile, ...)` loads into the SCM pool (Section IV-D)
//! — is the segment format of [`crate::segment`].

use crate::segment::SEG_VERSION;
use crate::Error;

/// Errors while reading or writing index files.
#[derive(Debug)]
#[non_exhaustive]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the BOSS index magic.
    BadMagic,
    /// The file's format version is not supported.
    BadVersion {
        /// Version found in the file.
        found: u32,
    },
    /// The body failed to decode.
    Corrupt(String),
    /// The decoded index is internally inconsistent.
    Invalid(Error),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "index file I/O error: {e}"),
            IoError::BadMagic => write!(f, "not a BOSS index file (bad magic)"),
            IoError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported index file version {found} (supported: {SEG_VERSION})"
                )
            }
            IoError::Corrupt(m) => write!(f, "corrupt index file: {m}"),
            IoError::Invalid(e) => write!(f, "index file contains an invalid index: {e}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(IoError::BadMagic.to_string().contains("magic"));
        assert!(IoError::BadVersion { found: 3 }.to_string().contains('3'));
    }
}
