//! The `lcp-serve` wire protocol: length-prefixed JSON frames and the
//! typed request surface.
//!
//! A frame is a 4-byte big-endian length followed by that many bytes of
//! UTF-8 JSON ([`read_frame`] / [`write_frame`]); both directions use
//! the same framing. Requests are objects with an `"op"` field drawn
//! from [`REQUEST_NAMES`]; responses carry `"ok": true` plus
//! op-specific fields, or `"ok": false` with an `"error"` kind from the
//! `ERR_*` constants and a human-readable `"detail"`. The full format,
//! with an example per request, lives in `docs/PROTOCOL.md` — kept
//! honest by the `protocol_doc_sync` test, which asserts the documented
//! names and [`REQUEST_NAMES`] are the same set.
//!
//! Everything here parses with [`lcp_core::json`] and renders by hand —
//! no serialization framework, so the daemon builds offline like the
//! rest of the workspace.

use lcp_core::json::{escape, Json};
use lcp_core::BitString;
use lcp_graph::families::GraphFamily;
use lcp_schemes::registry::Polarity;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Upper bound on a frame payload (16 MiB): large enough for a long
/// churn trace, small enough that a corrupt length prefix cannot ask
/// the peer to allocate gigabytes.
pub const MAX_FRAME: usize = 16 << 20;

/// Upper bound on the forged proof a `verify` soundness probe may
/// allocate, in 64-bit words (32 MiB): a no-instance of `n` nodes takes
/// `n · ⌈size_budget / 64⌉` words, and a request above the bound is a
/// `bad-request` instead of an allocation the daemon cannot make.
pub const MAX_FORGED_PROOF_WORDS: usize = 1 << 22;

/// Upper bound on a cell coordinate's requested `n` (2²⁰ nodes): a
/// request above it is a `bad-request` instead of a registry build the
/// daemon cannot finish, or a size its builders' rounding would wrap.
pub const MAX_CELL_NODES: usize = 1 << 20;

/// Upper bound on a `churn` request's `steps` (default 64). A trace
/// entry renders to at most 123 bytes (the longest kind, three counts
/// under 10⁷, two `false`s), so the longest reply fits in [`MAX_FRAME`].
pub const MAX_CHURN_STEPS: usize = 1 << 16;
const _: () = assert!(MAX_CHURN_STEPS * 128 < MAX_FRAME);

/// Upper bound on a `tamper-probe` request's `trials` (default 64); the
/// probe takes no `budget_ms`, so this cap is what bounds its run.
pub const MAX_TAMPER_TRIALS: usize = 1 << 16;

/// Upper bound on a `verify` request's `iterations` (default 256).
pub const MAX_SEARCH_ITERATIONS: usize = 1 << 16;

/// How long a frame that has started arriving may go without a new
/// byte (2 s). A reader with a read timeout gives up on the frame after
/// this long with [`io::ErrorKind::TimedOut`], and the daemon answers
/// `bad-request` and closes the connection, so a client that stalls
/// mid-frame cannot pin a worker or hang the drain. The wait for a
/// frame's first byte is not bounded: a session may idle between
/// requests.
pub const FRAME_STALL: Duration = Duration::from_secs(2);

/// Every request name the dispatch table accepts, in documentation
/// order. `docs/PROTOCOL.md` documents exactly this set (pinned by the
/// doc-sync test).
pub const REQUEST_NAMES: [&str; 10] = [
    "prepare",
    "verify",
    "tamper-probe",
    "stats",
    "metrics",
    "session-open",
    "mutate",
    "churn",
    "session-close",
    "shutdown",
];

/// Error kind: a frame that is not valid JSON or not a request object.
pub const ERR_BAD_REQUEST: &str = "bad-request";
/// Error kind: the `"op"` is not in [`REQUEST_NAMES`].
pub const ERR_UNKNOWN_OP: &str = "unknown-op";
/// Error kind: the scheme id is not in the registry.
pub const ERR_UNKNOWN_SCHEME: &str = "unknown-scheme";
/// Error kind: the graph family name did not parse.
pub const ERR_UNKNOWN_FAMILY: &str = "unknown-family";
/// Error kind: the builder cannot realize this `(family, polarity)`.
pub const ERR_INAPPLICABLE: &str = "inapplicable";
/// Error kind: worker pool and waiting room are full — retry later.
/// Written by the acceptor itself, so a saturated server answers
/// immediately instead of hanging the client.
pub const ERR_BUSY: &str = "busy";
/// Error kind: the per-request `budget_ms` expired before a verdict.
pub const ERR_DEADLINE: &str = "deadline";
/// Error kind: a session request arrived on a connection without one.
pub const ERR_NO_SESSION: &str = "no-session";
/// Error kind: `session-open` on a connection that already has one.
pub const ERR_SESSION_ACTIVE: &str = "session-active";
/// Error kind: the cell refused a mutation (the instance is untouched).
pub const ERR_MUTATION: &str = "mutation";
/// Error kind: a `node-label-change` label type does not match the
/// sealed scheme's node type (the instance is untouched).
pub const ERR_LABEL_TYPE: &str = "label-type";

/// A protocol-level failure: an error kind (one of the `ERR_*`
/// constants) plus a human-readable detail string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError {
    /// Stable error kind, one of the `ERR_*` constants.
    pub kind: &'static str,
    /// Human-readable detail (never parsed by clients).
    pub detail: String,
}

impl ProtoError {
    /// Builds an error with the given kind and detail.
    pub fn new(kind: &'static str, detail: impl Into<String>) -> Self {
        ProtoError {
            kind,
            detail: detail.into(),
        }
    }

    /// Renders the `{"ok":false,...}` response payload.
    pub fn render(&self) -> String {
        format!(
            "{{\"ok\":false,\"error\":{},\"detail\":{}}}",
            escape(self.kind),
            escape(&self.detail)
        )
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

impl std::error::Error for ProtoError {}

/// The coordinates of one registry cell — the addressing scheme shared
/// with the conformance campaign (see `lcp_schemes::registry`): equal
/// coordinates name equal instances in every process.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CellCoord {
    /// Registry scheme id (`lcp_schemes::registry::find`).
    pub scheme: String,
    /// Graph family to draw the instance from.
    pub family: GraphFamily,
    /// Requested size (builders may round; read the real size off the
    /// response).
    pub n: usize,
    /// Seed of the family's RNG stream.
    pub seed: u64,
    /// Which side of the matrix to build.
    pub polarity: Polarity,
}

impl CellCoord {
    /// Renders the coordinate fields (no braces) for request payloads.
    pub fn render_fields(&self) -> String {
        format!(
            "\"scheme\":{},\"family\":{},\"n\":{},\"seed\":{},\"polarity\":{}",
            escape(&self.scheme),
            escape(self.family.name()),
            self.n,
            self.seed,
            escape(self.polarity.name())
        )
    }

    fn parse(doc: &Json) -> Result<CellCoord, ProtoError> {
        let scheme = str_field(doc, "scheme")?.to_string();
        let family_name = str_field(doc, "family")?;
        let family = GraphFamily::parse(family_name).ok_or_else(|| {
            ProtoError::new(
                ERR_UNKNOWN_FAMILY,
                format!("unknown family {family_name:?}"),
            )
        })?;
        let polarity = match str_field(doc, "polarity")? {
            "yes" => Polarity::Yes,
            "no" => Polarity::No,
            other => {
                return Err(ProtoError::new(
                    ERR_BAD_REQUEST,
                    format!("polarity must be \"yes\" or \"no\", got {other:?}"),
                ))
            }
        };
        let n = usize_field(doc, "n")?;
        if n > MAX_CELL_NODES {
            return Err(ProtoError::new(
                ERR_BAD_REQUEST,
                format!("n = {n} exceeds the ceiling of {MAX_CELL_NODES} nodes"),
            ));
        }
        Ok(CellCoord {
            scheme,
            family,
            n,
            seed: u64_field(doc, "seed")?,
            polarity,
        })
    }
}

/// A node input label crossing the wire, tagged with its concrete type.
///
/// Only the label types that appear on wire-addressable schemes are
/// representable; cells whose node type is richer (e.g. `StMark`)
/// refuse wire label changes with [`ERR_LABEL_TYPE`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireLabel {
    /// The unit label of unlabeled instances.
    Unit,
    /// A boolean label.
    Bool(bool),
    /// A `u8` label.
    U8(u8),
    /// A `u64` label.
    U64(u64),
}

impl WireLabel {
    fn render(&self) -> String {
        match self {
            WireLabel::Unit => "{\"type\":\"unit\"}".to_string(),
            WireLabel::Bool(b) => format!("{{\"type\":\"bool\",\"value\":{b}}}"),
            WireLabel::U8(x) => format!("{{\"type\":\"u8\",\"value\":{x}}}"),
            WireLabel::U64(x) => format!("{{\"type\":\"u64\",\"value\":{x}}}"),
        }
    }

    fn parse(doc: &Json) -> Result<WireLabel, ProtoError> {
        match str_field(doc, "type")? {
            "unit" => Ok(WireLabel::Unit),
            "bool" => Ok(WireLabel::Bool(
                doc.get("value").and_then(Json::as_bool).ok_or_else(|| {
                    ProtoError::new(ERR_BAD_REQUEST, "bool label needs a boolean \"value\"")
                })?,
            )),
            "u8" => {
                let v = u64_field(doc, "value")?;
                u8::try_from(v).map(WireLabel::U8).map_err(|_| {
                    ProtoError::new(ERR_BAD_REQUEST, format!("u8 label out of range: {v}"))
                })
            }
            "u64" => Ok(WireLabel::U64(u64_field(doc, "value")?)),
            other => Err(ProtoError::new(
                ERR_BAD_REQUEST,
                format!("unsupported label type {other:?}"),
            )),
        }
    }
}

/// One mutation crossing the wire — the four churn events of
/// `lcp_dynamic::Mutation`, with label values made explicit (the in-
/// process `Mutation::NodeLabelChange` records only the node).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireMutation {
    /// Insert edge `{u, v}`.
    EdgeInsert(usize, usize),
    /// Delete edge `{u, v}`.
    EdgeDelete(usize, usize),
    /// Replace node `v`'s proof string with the given bits.
    ProofRewrite(usize, BitString),
    /// Replace node `v`'s input label.
    NodeLabelChange(usize, WireLabel),
}

impl WireMutation {
    /// The stable kind name (same vocabulary as `Mutation::kind`).
    pub fn kind(&self) -> &'static str {
        match self {
            WireMutation::EdgeInsert(..) => "edge-insert",
            WireMutation::EdgeDelete(..) => "edge-delete",
            WireMutation::ProofRewrite(..) => "proof-rewrite",
            WireMutation::NodeLabelChange(..) => "node-label-change",
        }
    }

    /// Renders the mutation fields (no braces) for a `mutate` payload.
    pub fn render_fields(&self) -> String {
        match self {
            WireMutation::EdgeInsert(u, v) | WireMutation::EdgeDelete(u, v) => {
                format!("\"kind\":{},\"u\":{u},\"v\":{v}", escape(self.kind()))
            }
            WireMutation::ProofRewrite(v, bits) => format!(
                "\"kind\":\"proof-rewrite\",\"v\":{v},\"bits\":{}",
                escape(&render_bits(bits))
            ),
            WireMutation::NodeLabelChange(v, label) => format!(
                "\"kind\":\"node-label-change\",\"v\":{v},\"label\":{}",
                label.render()
            ),
        }
    }

    fn parse(doc: &Json) -> Result<WireMutation, ProtoError> {
        match str_field(doc, "kind")? {
            "edge-insert" => Ok(WireMutation::EdgeInsert(
                usize_field(doc, "u")?,
                usize_field(doc, "v")?,
            )),
            "edge-delete" => Ok(WireMutation::EdgeDelete(
                usize_field(doc, "u")?,
                usize_field(doc, "v")?,
            )),
            "proof-rewrite" => Ok(WireMutation::ProofRewrite(
                usize_field(doc, "v")?,
                parse_bits(str_field(doc, "bits")?)?,
            )),
            "node-label-change" => {
                let label = doc.get("label").ok_or_else(|| {
                    ProtoError::new(ERR_BAD_REQUEST, "node-label-change needs a \"label\"")
                })?;
                Ok(WireMutation::NodeLabelChange(
                    usize_field(doc, "v")?,
                    WireLabel::parse(label)?,
                ))
            }
            other => Err(ProtoError::new(
                ERR_BAD_REQUEST,
                format!("unknown mutation kind {other:?}"),
            )),
        }
    }
}

/// Renders a proof string as `'0'`/`'1'` characters, index order.
pub fn render_bits(bits: &BitString) -> String {
    bits.iter().map(|b| if b { '1' } else { '0' }).collect()
}

/// Parses a `'0'`/`'1'` string into a proof string.
pub fn parse_bits(s: &str) -> Result<BitString, ProtoError> {
    let mut bits = Vec::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '0' => bits.push(false),
            '1' => bits.push(true),
            _ => {
                return Err(ProtoError::new(
                    ERR_BAD_REQUEST,
                    format!("proof bits must be '0'/'1', got {c:?}"),
                ))
            }
        }
    }
    Ok(BitString::from_bits(bits))
}

/// One parsed request — the serve dispatch table. Every variant's op
/// name is listed in [`REQUEST_NAMES`].
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Materialize a cell into the instance table and warm its
    /// skeletons.
    Prepare(CellCoord),
    /// Full verdict on a resident cell: completeness sweep on
    /// yes-instances, seeded soundness probe on no-instances.
    Verify {
        /// The cell to verify.
        coord: CellCoord,
        /// Optional wall budget in milliseconds.
        budget_ms: Option<u64>,
        /// Adversarial iterations on no-instances (default 256).
        iterations: usize,
        /// Adversarial per-node proof-size budget in bits (default 2).
        size_budget: usize,
        /// Seed of the adversarial search (default 0).
        seed: u64,
    },
    /// Seeded single-bit tamper probe against the honest proof.
    TamperProbe {
        /// The cell to probe.
        coord: CellCoord,
        /// Single-bit flips to attempt.
        trials: usize,
        /// Seed of the flip stream.
        seed: u64,
    },
    /// Instance-table and skeleton-cache counters.
    Stats,
    /// Prometheus-style text export of the daemon's whole metric
    /// registry (per-op latencies, queue depth, plus the engine and
    /// dynamic catalogs).
    Metrics,
    /// Open a churn session over a private copy of a resident cell.
    SessionOpen(CellCoord),
    /// Apply one mutation to the session and re-verify incrementally.
    Mutate(WireMutation),
    /// Run a seeded churn stream inside the session, one incremental
    /// verdict per step.
    Churn {
        /// Seed of the mutation stream.
        seed: u64,
        /// Mutations to apply.
        steps: usize,
        /// Cross-check against full evaluation every this many steps
        /// (`0` = final step only).
        check_every: usize,
        /// Optional wall budget in milliseconds.
        budget_ms: Option<u64>,
    },
    /// Drop the connection's session.
    SessionClose,
    /// Ask the daemon to drain and exit.
    Shutdown,
}

impl Request {
    /// The request's op name as listed in [`REQUEST_NAMES`].
    pub fn op(&self) -> &'static str {
        match self {
            Request::Prepare(_) => "prepare",
            Request::Verify { .. } => "verify",
            Request::TamperProbe { .. } => "tamper-probe",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::SessionOpen(_) => "session-open",
            Request::Mutate(_) => "mutate",
            Request::Churn { .. } => "churn",
            Request::SessionClose => "session-close",
            Request::Shutdown => "shutdown",
        }
    }

    /// Parses one frame payload into a request.
    ///
    /// # Errors
    ///
    /// [`ERR_BAD_REQUEST`] for malformed JSON or missing fields,
    /// [`ERR_UNKNOWN_OP`] for an op outside [`REQUEST_NAMES`], and the
    /// coordinate errors of [`CellCoord`]; a work count above its `MAX_*`
    /// ceiling is [`ERR_BAD_REQUEST`].
    pub fn parse(payload: &str) -> Result<Request, ProtoError> {
        let doc = Json::parse(payload)
            .map_err(|e| ProtoError::new(ERR_BAD_REQUEST, format!("invalid JSON: {e}")))?;
        match str_field(&doc, "op")? {
            "prepare" => Ok(Request::Prepare(CellCoord::parse(&doc)?)),
            "verify" => Ok(Request::Verify {
                coord: CellCoord::parse(&doc)?,
                budget_ms: opt_u64_field(&doc, "budget_ms")?,
                iterations: capped_field(&doc, "iterations", 256, MAX_SEARCH_ITERATIONS)?,
                size_budget: opt_usize_field(&doc, "size_budget")?.unwrap_or(2),
                seed: opt_u64_field(&doc, "seed")?.unwrap_or(0),
            }),
            "tamper-probe" => Ok(Request::TamperProbe {
                coord: CellCoord::parse(&doc)?,
                trials: capped_field(&doc, "trials", 64, MAX_TAMPER_TRIALS)?,
                seed: opt_u64_field(&doc, "seed")?.unwrap_or(0),
            }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "session-open" => Ok(Request::SessionOpen(CellCoord::parse(&doc)?)),
            "mutate" => Ok(Request::Mutate(WireMutation::parse(&doc)?)),
            "churn" => Ok(Request::Churn {
                seed: opt_u64_field(&doc, "seed")?.unwrap_or(0),
                steps: capped_field(&doc, "steps", 64, MAX_CHURN_STEPS)?,
                check_every: opt_usize_field(&doc, "check_every")?.unwrap_or(0),
                budget_ms: opt_u64_field(&doc, "budget_ms")?,
            }),
            "session-close" => Ok(Request::SessionClose),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtoError::new(
                ERR_UNKNOWN_OP,
                format!("unknown op {other:?}"),
            )),
        }
    }
}

fn str_field<'j>(doc: &'j Json, key: &str) -> Result<&'j str, ProtoError> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::new(ERR_BAD_REQUEST, format!("missing string field {key:?}")))
}

fn u64_field(doc: &Json, key: &str) -> Result<u64, ProtoError> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ProtoError::new(ERR_BAD_REQUEST, format!("missing integer field {key:?}")))
}

fn usize_field(doc: &Json, key: &str) -> Result<usize, ProtoError> {
    doc.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| ProtoError::new(ERR_BAD_REQUEST, format!("missing integer field {key:?}")))
}

fn opt_u64_field(doc: &Json, key: &str) -> Result<Option<u64>, ProtoError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            ProtoError::new(ERR_BAD_REQUEST, format!("field {key:?} must be an integer"))
        }),
    }
}

fn opt_usize_field(doc: &Json, key: &str) -> Result<Option<usize>, ProtoError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_usize().map(Some).ok_or_else(|| {
            ProtoError::new(ERR_BAD_REQUEST, format!("field {key:?} must be an integer"))
        }),
    }
}

/// An optional work count: `default` when absent, [`ERR_BAD_REQUEST`]
/// above `cap`.
fn capped_field(doc: &Json, key: &str, default: usize, cap: usize) -> Result<usize, ProtoError> {
    let value = opt_usize_field(doc, key)?.unwrap_or(default);
    if value > cap {
        return Err(ProtoError::new(
            ERR_BAD_REQUEST,
            format!("{key} = {value} exceeds the ceiling of {cap}"),
        ));
    }
    Ok(value)
}

/// Writes one frame: 4-byte big-endian length, then the UTF-8 payload.
///
/// # Errors
///
/// Propagates I/O errors; payloads over [`MAX_FRAME`] are refused with
/// [`io::ErrorKind::InvalidInput`].
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Reads one frame, returning `Ok(None)` on a clean close: EOF at a
/// frame boundary, or `should_stop` turning true while no frame bytes
/// have arrived (the server's drain poll — readers without timeouts can
/// pass `&|| false`).
///
/// Read timeouts (`WouldBlock`/`TimedOut`) at a frame boundary re-poll
/// `should_stop`; once any byte of a frame has arrived it is no longer
/// polled and the frame is read to completion, so an in-flight request
/// survives a shutdown signal and gets its response — unless the frame
/// makes no progress for [`FRAME_STALL`].
///
/// # Errors
///
/// EOF inside a frame is [`io::ErrorKind::UnexpectedEof`]; a length
/// prefix over [`MAX_FRAME`] or a non-UTF-8 payload is
/// [`io::ErrorKind::InvalidData`]; a started frame that stalls for
/// [`FRAME_STALL`] is [`io::ErrorKind::TimedOut`].
pub fn read_frame(r: &mut impl Read, should_stop: &dyn Fn() -> bool) -> io::Result<Option<String>> {
    read_frame_bytes(r, should_stop)?
        .map(|payload| {
            String::from_utf8(payload).map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidData, "frame payload is not UTF-8")
            })
        })
        .transpose()
}

/// [`read_frame`] without the UTF-8 check: the server reads a complete
/// frame this way, so a payload that is not UTF-8 gets a `bad-request`
/// answer instead of a dropped connection.
///
/// # Errors
///
/// As [`read_frame`], less the UTF-8 case.
pub(crate) fn read_frame_bytes(
    r: &mut impl Read,
    should_stop: &dyn Fn() -> bool,
) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    if read_full(r, &mut header, true, should_stop)?.is_none() {
        return Ok(None);
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    if read_full(r, &mut payload, false, should_stop)?.is_none() {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(Some(payload))
}

/// Fills `buf` completely. `Ok(None)` only when `at_boundary` and the
/// connection closed (or `should_stop` fired) before any byte arrived.
/// Once the frame has started (`!at_boundary`, or a byte arrived), a
/// read timeout more than [`FRAME_STALL`] after the last progress is an
/// [`io::ErrorKind::TimedOut`] error.
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    at_boundary: bool,
    should_stop: &dyn Fn() -> bool,
) -> io::Result<Option<()>> {
    let mut filled = 0;
    let mut progressed = Instant::now();
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if at_boundary && filled == 0 {
                    Ok(None)
                } else {
                    Err(io::ErrorKind::UnexpectedEof.into())
                };
            }
            Ok(k) => {
                filled += k;
                progressed = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if at_boundary && filled == 0 {
                    if should_stop() {
                        return Ok(None);
                    }
                } else if progressed.elapsed() >= FRAME_STALL {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!(
                            "frame stalled: no byte for {} ms after {filled} of {}",
                            FRAME_STALL.as_millis(),
                            buf.len()
                        ),
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Some(()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\":\"stats\"}").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = io::Cursor::new(buf);
        let never = || false;
        assert_eq!(
            read_frame(&mut r, &never).unwrap().as_deref(),
            Some("{\"op\":\"stats\"}")
        );
        assert_eq!(read_frame(&mut r, &never).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r, &never).unwrap(), None, "clean EOF");
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\":\"stats\"}").unwrap();
        buf.truncate(buf.len() - 3);
        let mut r = io::Cursor::new(buf);
        let err = read_frame(&mut r, &|| false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        let mut oversized = io::Cursor::new((MAX_FRAME as u32 + 1).to_be_bytes().to_vec());
        let err = read_frame(&mut oversized, &|| false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn every_listed_op_parses_into_the_dispatch_table() {
        let coord =
            "\"scheme\":\"bipartite\",\"family\":\"cycle\",\"n\":8,\"seed\":1,\"polarity\":\"yes\"";
        let minimal: Vec<String> = vec![
            format!("{{\"op\":\"prepare\",{coord}}}"),
            format!("{{\"op\":\"verify\",{coord}}}"),
            format!("{{\"op\":\"tamper-probe\",{coord}}}"),
            "{\"op\":\"stats\"}".into(),
            "{\"op\":\"metrics\"}".into(),
            format!("{{\"op\":\"session-open\",{coord}}}"),
            "{\"op\":\"mutate\",\"kind\":\"edge-insert\",\"u\":0,\"v\":2}".into(),
            "{\"op\":\"churn\",\"seed\":7,\"steps\":4,\"check_every\":2}".into(),
            "{\"op\":\"session-close\"}".into(),
            "{\"op\":\"shutdown\"}".into(),
        ];
        assert_eq!(minimal.len(), REQUEST_NAMES.len());
        for (payload, name) in minimal.iter().zip(REQUEST_NAMES) {
            let req = Request::parse(payload).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(req.op(), name);
        }
        assert_eq!(
            Request::parse("{\"op\":\"frobnicate\"}").unwrap_err().kind,
            ERR_UNKNOWN_OP
        );
    }

    #[test]
    fn mutations_and_labels_round_trip() {
        let cases = [
            WireMutation::EdgeInsert(3, 9),
            WireMutation::EdgeDelete(0, 1),
            WireMutation::ProofRewrite(4, parse_bits("0110").unwrap()),
            WireMutation::NodeLabelChange(2, WireLabel::Unit),
            WireMutation::NodeLabelChange(2, WireLabel::Bool(true)),
            WireMutation::NodeLabelChange(5, WireLabel::U8(255)),
            WireMutation::NodeLabelChange(5, WireLabel::U64(u64::MAX)),
        ];
        for m in cases {
            let payload = format!("{{\"op\":\"mutate\",{}}}", m.render_fields());
            match Request::parse(&payload).unwrap() {
                Request::Mutate(parsed) => assert_eq!(parsed, m),
                other => panic!("parsed {other:?}"),
            }
        }
        assert_eq!(
            render_bits(&parse_bits("10011").unwrap()),
            "10011",
            "bit strings round-trip"
        );
    }
}
