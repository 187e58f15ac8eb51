//! The corpus runner's error type.

use ia_dse::DseError;
use ia_netlist::NetlistError;
use ia_rank::canon::BindError;
use ia_wld::WldError;

/// Anything that can go wrong between parsing a corpus spec and
/// finishing a run: spec validation, design ingestion, WLD generation
/// or degradation, configuration binding, run-store I/O, a corrupt
/// store, or a lost worker.
#[derive(Debug, Clone, PartialEq)]
pub enum CorpusError {
    /// The corpus spec is malformed or inconsistent.
    Spec(String),
    /// A design failed to materialize or ingest.
    Design {
        /// The design's spec name.
        design: String,
        /// What went wrong, verbatim from the netlist layer.
        message: String,
    },
    /// A stochastic backend or degradation transform rejected its
    /// parameters.
    Wld(WldError),
    /// A point's configuration failed to bind or solve.
    Bind(BindError),
    /// A run-store filesystem operation failed.
    Io {
        /// The path the operation touched.
        path: String,
        /// The underlying I/O message.
        message: String,
    },
    /// The run store exists but its contents are not readable as a
    /// corpus run (bad manifest, mid-file log corruption, spec
    /// mismatch).
    Corrupt {
        /// The offending file.
        path: String,
        /// What failed to parse or validate.
        message: String,
    },
    /// A scheduler worker thread panicked.
    WorkerPanicked,
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::Spec(message) => write!(f, "invalid corpus spec: {message}"),
            CorpusError::Design { design, message } => {
                write!(f, "design `{design}`: {message}")
            }
            CorpusError::Wld(e) => write!(f, "{e}"),
            CorpusError::Bind(e) => write!(f, "{e}"),
            CorpusError::Io { path, message } => write!(f, "{path}: {message}"),
            CorpusError::Corrupt { path, message } => {
                write!(f, "corrupt corpus run at {path}: {message}")
            }
            CorpusError::WorkerPanicked => write!(f, "a corpus worker thread panicked"),
        }
    }
}

impl std::error::Error for CorpusError {}

impl From<WldError> for CorpusError {
    fn from(e: WldError) -> Self {
        CorpusError::Wld(e)
    }
}

/// The shared run store and executor report in [`DseError`]; every
/// variant has a corpus counterpart.
impl From<DseError> for CorpusError {
    fn from(e: DseError) -> Self {
        match e {
            DseError::Spec(message) => CorpusError::Spec(message),
            DseError::Bind(e) => CorpusError::Bind(e),
            DseError::Io { path, message } => CorpusError::Io { path, message },
            DseError::Corrupt { path, message } => CorpusError::Corrupt { path, message },
            DseError::WorkerPanicked => CorpusError::WorkerPanicked,
        }
    }
}

impl From<BindError> for CorpusError {
    fn from(e: BindError) -> Self {
        CorpusError::Bind(e)
    }
}

impl CorpusError {
    /// Wraps an I/O error with the path it happened on.
    pub(crate) fn io(path: &std::path::Path, e: &std::io::Error) -> Self {
        CorpusError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        }
    }

    /// Wraps a netlist failure with the design it struck.
    pub(crate) fn design(design: &str, e: &NetlistError) -> Self {
        CorpusError::Design {
            design: design.to_owned(),
            message: e.to_string(),
        }
    }
}
