//! File I/O for the persistent characterization cache (`--library-cache`).
//!
//! The on-disk format itself (`sna-libcache-v1`) lives in
//! [`sna_core::library::cache`]; this module is the thin, *forgiving*
//! layer between that format and the filesystem. The contract is that a
//! cache file can never make a run fail or lie:
//!
//! * a missing file means a cold start (first run, or the file was
//!   deleted) — not an error;
//! * a structurally corrupt file (bad magic, wrong version, truncation)
//!   is reported as a diagnostic and ignored — the run proceeds cold and
//!   rewrites a good file on exit;
//! * entries whose fingerprints do not match their payload are rejected
//!   individually inside the decoder (counted as `stale_rejected`) and
//!   simply recomputed.
//!
//! Only *writing* the cache can error (the caller asked for persistence
//! and did not get it), and even that is surfaced by the CLI as a warning
//! rather than a failed analysis.

use std::path::Path;

use sna_core::library::cache::SCHEMA;
use sna_core::library::NoiseModelLibrary;
use sna_spice::error::{Error, Result};

use crate::cli::{CliConfig, LogLevel};

/// What loading a cache file did, for the CLI's stderr diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheLoad {
    /// Entries adopted into the library.
    pub entries: usize,
    /// Entries whose stored fingerprint did not match their payload.
    pub stale_rejected: usize,
    /// One human-readable line describing what happened.
    pub message: String,
}

/// Load `path` into `library`, tolerating every way the file can be bad.
///
/// Never errors: a missing or corrupt file degrades to a cold start with
/// an explanatory [`CacheLoad::message`].
pub fn load_library_cache(path: &Path, library: &NoiseModelLibrary) -> CacheLoad {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return CacheLoad {
                entries: 0,
                stale_rejected: 0,
                message: format!(
                    "library cache '{}' not found, starting cold",
                    path.display()
                ),
            }
        }
        Err(e) => {
            return CacheLoad {
                entries: 0,
                stale_rejected: 0,
                message: format!(
                    "cannot read library cache '{}' ({e}), starting cold",
                    path.display()
                ),
            }
        }
    };
    match library.load_cache_bytes(&bytes) {
        Ok(stats) => CacheLoad {
            entries: stats.loaded,
            stale_rejected: stats.stale_rejected,
            message: format!(
                "library cache '{}': loaded {} entries ({} stale rejected)",
                path.display(),
                stats.loaded,
                stats.stale_rejected
            ),
        },
        Err(e) => CacheLoad {
            entries: 0,
            stale_rejected: 0,
            message: format!(
                "library cache '{}' is not a valid {SCHEMA} file ({e}), starting cold",
                path.display()
            ),
        },
    }
}

/// Serialize `library` to `path`, returning the bytes written.
///
/// Because the load step ran first, the library is a superset of the old
/// file's valid entries, so overwriting never loses information.
///
/// # Errors
///
/// Fails only on filesystem errors (unwritable path, full disk).
pub fn save_library_cache(path: &Path, library: &NoiseModelLibrary) -> Result<usize> {
    let bytes = library.to_cache_bytes();
    std::fs::write(path, &bytes).map_err(|e| {
        Error::InvalidAnalysis(format!(
            "cannot write library cache '{}': {e}",
            path.display()
        ))
    })?;
    Ok(bytes.len())
}

/// A library warmed from `cfg.library_cache`, if the run has one, with
/// the load's diagnostic on stderr at the normal log level.
pub fn open_configured_library(cfg: &CliConfig) -> NoiseModelLibrary {
    let library = NoiseModelLibrary::new();
    if let Some(path) = &cfg.library_cache {
        let load = load_library_cache(Path::new(path), &library);
        if cfg.log_level >= LogLevel::Normal {
            eprintln!("{}", load.message);
        }
    }
    library
}

/// Save `library` to `cfg.library_cache`, if the run has one. A failed
/// save is a warning on stderr, not an error: the analysis it follows is
/// already complete and correct.
pub fn save_configured_library(cfg: &CliConfig, library: &NoiseModelLibrary) {
    if let Some(path) = &cfg.library_cache {
        match save_library_cache(Path::new(path), library) {
            Ok(bytes) => {
                if cfg.log_level >= LogLevel::Normal {
                    eprintln!("library cache '{path}': wrote {bytes} bytes");
                }
            }
            Err(e) => eprintln!("warning: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sna_cells::{Cell, Technology};
    use sna_spice::solver::SolverKind;
    use sna_spice::units::PS;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("sna_flow_cache_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn seeded_library() -> NoiseModelLibrary {
        let lib = NoiseModelLibrary::new();
        let tech = Technology::cmos130();
        let widths = [100.0 * PS, 200.0 * PS, 400.0 * PS];
        lib.nrc(&Cell::inv(tech, 1.0), true, &widths, SolverKind::Auto)
            .expect("nrc characterization");
        lib
    }

    #[test]
    fn missing_file_is_a_cold_start_not_an_error() {
        let lib = NoiseModelLibrary::new();
        let load = load_library_cache(Path::new("/nonexistent/sna.libcache"), &lib);
        assert_eq!(load.entries, 0);
        assert!(load.message.contains("not found"), "{}", load.message);
    }

    #[test]
    fn save_then_load_round_trips_with_diagnostics() {
        let path = tmp("round_trip.libcache");
        let lib = seeded_library();
        let bytes = save_library_cache(&path, &lib).expect("save");
        assert!(bytes > 0);
        let warm = NoiseModelLibrary::new();
        let load = load_library_cache(&path, &warm);
        assert_eq!(load.entries, 1);
        assert_eq!(load.stale_rejected, 0);
        assert!(
            load.message.contains("loaded 1 entries"),
            "{}",
            load.message
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_file_degrades_to_cold_start() {
        let path = tmp("corrupt.libcache");
        std::fs::write(&path, b"definitely not a cache file").unwrap();
        let lib = NoiseModelLibrary::new();
        let load = load_library_cache(&path, &lib);
        assert_eq!(load.entries, 0);
        assert!(load.message.contains(SCHEMA), "{}", load.message);
        assert!(load.message.contains("starting cold"), "{}", load.message);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unwritable_path_errors_on_save() {
        let lib = NoiseModelLibrary::new();
        let err = save_library_cache(Path::new("/nonexistent/dir/sna.libcache"), &lib);
        assert!(err.is_err());
    }
}
