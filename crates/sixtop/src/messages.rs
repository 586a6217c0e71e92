//! 6P message types and wire format.
//!
//! The wire layout follows RFC 8480 §3.2 (and the paper's Fig. 4 for
//! `ASK-CHANNEL`): a common header of Version/Type, Code, SFID and SeqNum,
//! followed by a command-specific body. Encoding exists so the frame-size
//! accounting and the round-trip property tests exercise a real codec, not
//! just Rust structs.

use std::fmt;

/// The Scheduling Function Identifier GT-TSCH registers with 6P.
pub const SIXP_SFID_GT_TSCH: u8 = 0xA1;

/// 6P protocol version implemented (RFC 8480 defines version 0).
const SIXP_VERSION: u8 = 0;

/// Message type nibble (RFC 8480 §3.2.1).
const TYPE_REQUEST: u8 = 0;
const TYPE_RESPONSE: u8 = 1;

/// Command / return codes (RFC 8480 §3.2.2–3.2.3, plus the paper's 0x0A).
const CMD_ADD: u8 = 0x01;
const CMD_DELETE: u8 = 0x02;
const CMD_CLEAR: u8 = 0x05;
const CMD_ASK_CHANNEL: u8 = 0x0A;

/// Which kind of cells an ADD/DELETE transaction negotiates.
///
/// RFC 8480 carries a CellOptions field in ADD/DELETE requests; this
/// reproduction needs only the distinction GT-TSCH makes in §IV between
/// *Unicast-6P* timeslots (rule 2) and *Unicast-Data* timeslots (rule 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SixpCellKind {
    /// Unicast-Data timeslots (child → parent data forwarding).
    Data,
    /// Unicast-6P timeslots (the reliable channel for 6P itself).
    SixP,
}

impl SixpCellKind {
    fn to_wire(self) -> u8 {
        match self {
            SixpCellKind::Data => 0,
            SixpCellKind::SixP => 1,
        }
    }

    fn from_wire(raw: u8) -> Option<Self> {
        match raw {
            0 => Some(SixpCellKind::Data),
            1 => Some(SixpCellKind::SixP),
            _ => None,
        }
    }
}

impl fmt::Display for SixpCellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SixpCellKind::Data => f.write_str("data"),
            SixpCellKind::SixP => f.write_str("6p"),
        }
    }
}

/// A (slot offset, channel offset) pair in a 6P CellList.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellSpec {
    /// Slot offset within the slotframe.
    pub slot: u16,
    /// Channel offset.
    pub channel_offset: u8,
}

impl CellSpec {
    /// Creates a cell spec.
    pub const fn new(slot: u16, channel_offset: u8) -> Self {
        CellSpec {
            slot,
            channel_offset,
        }
    }
}

impl fmt::Display for CellSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.slot, self.channel_offset)
    }
}

/// 6P response return codes (subset of RFC 8480 Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReturnCode {
    /// Operation succeeded.
    Success,
    /// Generic error.
    Err,
    /// Sequence number mismatch (peer reset).
    ErrSeqnum,
    /// Requester is busy (transaction already in flight).
    ErrBusy,
    /// No cells available to satisfy the request.
    ErrNoCells,
}

impl ReturnCode {
    fn to_wire(self) -> u8 {
        match self {
            ReturnCode::Success => 0x00,
            ReturnCode::Err => 0x01,
            ReturnCode::ErrSeqnum => 0x07,
            ReturnCode::ErrBusy => 0x08,
            ReturnCode::ErrNoCells => 0x0B,
        }
    }

    fn from_wire(raw: u8) -> Option<Self> {
        Some(match raw {
            0x00 => ReturnCode::Success,
            0x01 => ReturnCode::Err,
            0x07 => ReturnCode::ErrSeqnum,
            0x08 => ReturnCode::ErrBusy,
            0x0B => ReturnCode::ErrNoCells,
            _ => return None,
        })
    }

    /// True for [`ReturnCode::Success`].
    pub fn is_success(self) -> bool {
        self == ReturnCode::Success
    }
}

impl fmt::Display for ReturnCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReturnCode::Success => "RC_SUCCESS",
            ReturnCode::Err => "RC_ERR",
            ReturnCode::ErrSeqnum => "RC_ERR_SEQNUM",
            ReturnCode::ErrBusy => "RC_ERR_BUSY",
            ReturnCode::ErrNoCells => "RC_ERR_NOCELLS",
        };
        f.write_str(s)
    }
}

/// The command-specific part of a 6P message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SixpBody {
    /// Request to add `num_cells` Tx cells, proposing candidates.
    AddRequest {
        /// What the cells will carry.
        kind: SixpCellKind,
        /// Number of cells the child needs (the game solution `l_tx_i`).
        num_cells: u16,
        /// Candidate cells proposed by the requester.
        cells: Vec<CellSpec>,
    },
    /// Response carrying the accepted subset of the proposal.
    AddResponse {
        /// Outcome.
        code: ReturnCode,
        /// Cells the responder actually reserved.
        cells: Vec<CellSpec>,
    },
    /// Request to delete the listed cells.
    DeleteRequest {
        /// What the cells carried.
        kind: SixpCellKind,
        /// Cells to release.
        cells: Vec<CellSpec>,
    },
    /// Response confirming the deletion.
    DeleteResponse {
        /// Outcome.
        code: ReturnCode,
        /// Cells released.
        cells: Vec<CellSpec>,
    },
    /// Wipe all cells scheduled with the peer (RFC 8480 CLEAR).
    ClearRequest,
    /// Response to CLEAR.
    ClearResponse {
        /// Outcome.
        code: ReturnCode,
    },
    /// The paper's ASK-CHANNEL request (Fig. 4a): "which channel may I
    /// use towards my children?"
    AskChannelRequest,
    /// The paper's ASK-CHANNEL response (Fig. 4b) carrying the allocated
    /// channel offset.
    AskChannelResponse {
        /// Outcome.
        code: ReturnCode,
        /// Channel offset `f_{i,cs_i}` allocated to the requester.
        channel_offset: u8,
    },
}

impl SixpBody {
    /// True for the request variants.
    pub fn is_request(&self) -> bool {
        matches!(
            self,
            SixpBody::AddRequest { .. }
                | SixpBody::DeleteRequest { .. }
                | SixpBody::ClearRequest
                | SixpBody::AskChannelRequest
        )
    }

    fn command_code(&self) -> u8 {
        match self {
            SixpBody::AddRequest { .. } | SixpBody::AddResponse { .. } => CMD_ADD,
            SixpBody::DeleteRequest { .. } | SixpBody::DeleteResponse { .. } => CMD_DELETE,
            SixpBody::ClearRequest | SixpBody::ClearResponse { .. } => CMD_CLEAR,
            SixpBody::AskChannelRequest | SixpBody::AskChannelResponse { .. } => CMD_ASK_CHANNEL,
        }
    }

    /// The response's return code, if this is a response.
    pub fn return_code(&self) -> Option<ReturnCode> {
        match self {
            SixpBody::AddResponse { code, .. }
            | SixpBody::DeleteResponse { code, .. }
            | SixpBody::ClearResponse { code }
            | SixpBody::AskChannelResponse { code, .. } => Some(*code),
            _ => None,
        }
    }
}

/// A complete 6P message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SixpMessage {
    /// Scheduling function id (GT-TSCH uses [`SIXP_SFID_GT_TSCH`]).
    pub sfid: u8,
    /// Transaction sequence number (per neighbor pair).
    pub seqnum: u8,
    /// The command body.
    pub body: SixpBody,
}

/// Error produced by [`SixpMessage::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SixpDecodeError {
    /// The buffer ended before the message was complete.
    Truncated,
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown type nibble.
    BadType(u8),
    /// Unknown command code.
    BadCommand(u8),
    /// Unknown return code.
    BadReturnCode(u8),
    /// Unknown cell kind in an ADD/DELETE request.
    BadCellKind(u8),
}

impl fmt::Display for SixpDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SixpDecodeError::Truncated => f.write_str("truncated 6P message"),
            SixpDecodeError::BadVersion(v) => write!(f, "unsupported 6P version {v}"),
            SixpDecodeError::BadType(t) => write!(f, "unknown 6P type {t}"),
            SixpDecodeError::BadCommand(c) => write!(f, "unknown 6P command {c:#04x}"),
            SixpDecodeError::BadReturnCode(c) => write!(f, "unknown 6P return code {c:#04x}"),
            SixpDecodeError::BadCellKind(c) => write!(f, "unknown 6P cell kind {c}"),
        }
    }
}

impl std::error::Error for SixpDecodeError {}

impl SixpMessage {
    /// Creates a message with the GT-TSCH SFID.
    pub fn new(seqnum: u8, body: SixpBody) -> Self {
        SixpMessage {
            sfid: SIXP_SFID_GT_TSCH,
            seqnum,
            body,
        }
    }

    /// Encodes to the RFC 8480-style wire format.
    ///
    /// Layout: `[version<<4 | type, code, sfid, seqnum, body…]`, cell
    /// lists as `count:u16` then `(slot:u16, chan:u8)` entries, all
    /// big-endian.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16);
        let type_nibble = if self.body.is_request() {
            TYPE_REQUEST
        } else {
            TYPE_RESPONSE
        };
        buf.push((SIXP_VERSION << 4) | type_nibble);
        // Requests carry the command code; responses the return code.
        match self.body.return_code() {
            Some(rc) => buf.push(rc.to_wire()),
            None => buf.push(self.body.command_code()),
        }
        buf.push(self.sfid);
        buf.push(self.seqnum);
        // Responses also need the command code to be self-describing
        // (RFC 8480 infers it from transaction state; carrying it keeps
        // the codec stateless).
        buf.push(self.body.command_code());

        fn put_cells(buf: &mut Vec<u8>, cells: &[CellSpec]) {
            buf.extend_from_slice(&(cells.len() as u16).to_be_bytes());
            for c in cells {
                buf.extend_from_slice(&c.slot.to_be_bytes());
                buf.push(c.channel_offset);
            }
        }

        match &self.body {
            SixpBody::AddRequest {
                kind,
                num_cells,
                cells,
            } => {
                buf.push(kind.to_wire());
                buf.extend_from_slice(&num_cells.to_be_bytes());
                put_cells(&mut buf, cells);
            }
            SixpBody::AddResponse { cells, .. } => put_cells(&mut buf, cells),
            SixpBody::DeleteRequest { kind, cells } => {
                buf.push(kind.to_wire());
                put_cells(&mut buf, cells);
            }
            SixpBody::DeleteResponse { cells, .. } => put_cells(&mut buf, cells),
            SixpBody::ClearRequest | SixpBody::ClearResponse { .. } => {}
            SixpBody::AskChannelRequest => {}
            SixpBody::AskChannelResponse { channel_offset, .. } => {
                buf.push(*channel_offset);
            }
        }
        buf
    }

    /// Decodes a message encoded by [`SixpMessage::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`SixpDecodeError`] on truncation or unknown fields.
    pub fn decode(data: &[u8]) -> Result<Self, SixpDecodeError> {
        let mut data = Reader(data);
        let [vt, code, sfid, seqnum, command] = data.array()?;
        let version = vt >> 4;
        if version != SIXP_VERSION {
            return Err(SixpDecodeError::BadVersion(version));
        }
        let msg_type = vt & 0x0F;

        fn get_cells(data: &mut Reader<'_>) -> Result<Vec<CellSpec>, SixpDecodeError> {
            let count = u16::from_be_bytes(data.array()?);
            let raw = data.take(usize::from(count) * 3)?;
            Ok(raw
                .chunks_exact(3)
                .map(|c| CellSpec::new(u16::from_be_bytes([c[0], c[1]]), c[2]))
                .collect())
        }

        let body = match (msg_type, command) {
            (TYPE_REQUEST, CMD_ADD) => {
                let [kind_raw, n_hi, n_lo] = data.array()?;
                let kind = SixpCellKind::from_wire(kind_raw)
                    .ok_or(SixpDecodeError::BadCellKind(kind_raw))?;
                SixpBody::AddRequest {
                    kind,
                    num_cells: u16::from_be_bytes([n_hi, n_lo]),
                    cells: get_cells(&mut data)?,
                }
            }
            (TYPE_RESPONSE, CMD_ADD) => SixpBody::AddResponse {
                code: ReturnCode::from_wire(code).ok_or(SixpDecodeError::BadReturnCode(code))?,
                cells: get_cells(&mut data)?,
            },
            (TYPE_REQUEST, CMD_DELETE) => {
                let [kind_raw] = data.array()?;
                let kind = SixpCellKind::from_wire(kind_raw)
                    .ok_or(SixpDecodeError::BadCellKind(kind_raw))?;
                SixpBody::DeleteRequest {
                    kind,
                    cells: get_cells(&mut data)?,
                }
            }
            (TYPE_RESPONSE, CMD_DELETE) => SixpBody::DeleteResponse {
                code: ReturnCode::from_wire(code).ok_or(SixpDecodeError::BadReturnCode(code))?,
                cells: get_cells(&mut data)?,
            },
            (TYPE_REQUEST, CMD_CLEAR) => SixpBody::ClearRequest,
            (TYPE_RESPONSE, CMD_CLEAR) => SixpBody::ClearResponse {
                code: ReturnCode::from_wire(code).ok_or(SixpDecodeError::BadReturnCode(code))?,
            },
            (TYPE_REQUEST, CMD_ASK_CHANNEL) => SixpBody::AskChannelRequest,
            (TYPE_RESPONSE, CMD_ASK_CHANNEL) => {
                let [channel_offset] = data.array()?;
                SixpBody::AskChannelResponse {
                    code: ReturnCode::from_wire(code)
                        .ok_or(SixpDecodeError::BadReturnCode(code))?,
                    channel_offset,
                }
            }
            (TYPE_REQUEST | TYPE_RESPONSE, c) => return Err(SixpDecodeError::BadCommand(c)),
            (t, _) => return Err(SixpDecodeError::BadType(t)),
        };

        Ok(SixpMessage { sfid, seqnum, body })
    }
}

/// Bounds-checked reader over the bytes of a message not yet decoded.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// The next `n` bytes, or [`SixpDecodeError::Truncated`].
    fn take(&mut self, n: usize) -> Result<&'a [u8], SixpDecodeError> {
        if self.0.len() < n {
            return Err(SixpDecodeError::Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], SixpDecodeError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }
}

impl fmt::Display for SixpMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match &self.body {
            SixpBody::AddRequest {
                kind, num_cells, ..
            } => format!("ADD.req({kind}, n={num_cells})"),
            SixpBody::AddResponse { code, cells } => {
                format!("ADD.rsp({code}, {} cells)", cells.len())
            }
            SixpBody::DeleteRequest { kind, cells } => {
                format!("DELETE.req({kind}, {} cells)", cells.len())
            }
            SixpBody::DeleteResponse { code, .. } => format!("DELETE.rsp({code})"),
            SixpBody::ClearRequest => "CLEAR.req".to_string(),
            SixpBody::ClearResponse { code } => format!("CLEAR.rsp({code})"),
            SixpBody::AskChannelRequest => "ASK-CHANNEL.req".to_string(),
            SixpBody::AskChannelResponse {
                code,
                channel_offset,
            } => {
                format!("ASK-CHANNEL.rsp({code}, co={channel_offset})")
            }
        };
        write!(f, "6P[sf={:#04x} seq={} {kind}]", self.sfid, self.seqnum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(body: SixpBody) {
        let msg = SixpMessage::new(7, body);
        let encoded = msg.encode();
        let decoded = SixpMessage::decode(&encoded).expect("decodes");
        assert_eq!(decoded, msg);
    }

    #[test]
    fn add_request_round_trip() {
        round_trip(SixpBody::AddRequest {
            kind: SixpCellKind::Data,
            num_cells: 3,
            cells: vec![
                CellSpec::new(4, 1),
                CellSpec::new(9, 2),
                CellSpec::new(11, 1),
            ],
        });
        round_trip(SixpBody::AddRequest {
            kind: SixpCellKind::SixP,
            num_cells: 2,
            cells: vec![],
        });
    }

    #[test]
    fn add_response_round_trip() {
        round_trip(SixpBody::AddResponse {
            code: ReturnCode::Success,
            cells: vec![CellSpec::new(4, 1)],
        });
        round_trip(SixpBody::AddResponse {
            code: ReturnCode::ErrNoCells,
            cells: vec![],
        });
    }

    #[test]
    fn delete_round_trip() {
        round_trip(SixpBody::DeleteRequest {
            kind: SixpCellKind::Data,
            cells: vec![CellSpec::new(30, 7)],
        });
        round_trip(SixpBody::DeleteResponse {
            code: ReturnCode::Success,
            cells: vec![CellSpec::new(30, 7)],
        });
    }

    #[test]
    fn clear_round_trip() {
        round_trip(SixpBody::ClearRequest);
        round_trip(SixpBody::ClearResponse {
            code: ReturnCode::Success,
        });
    }

    #[test]
    fn ask_channel_round_trip() {
        round_trip(SixpBody::AskChannelRequest);
        round_trip(SixpBody::AskChannelResponse {
            code: ReturnCode::Success,
            channel_offset: 5,
        });
    }

    #[test]
    fn truncated_rejected() {
        let msg = SixpMessage::new(
            1,
            SixpBody::AddRequest {
                kind: SixpCellKind::Data,
                num_cells: 2,
                cells: vec![CellSpec::new(1, 1), CellSpec::new(2, 2)],
            },
        );
        let bytes = msg.encode();
        for cut in 0..bytes.len() {
            let err = SixpMessage::decode(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn bad_version_rejected() {
        let msg = SixpMessage::new(0, SixpBody::ClearRequest);
        let mut bytes = msg.encode();
        bytes[0] = (3 << 4) | (bytes[0] & 0x0F);
        assert_eq!(
            SixpMessage::decode(&bytes),
            Err(SixpDecodeError::BadVersion(3))
        );
    }

    #[test]
    fn bad_command_rejected() {
        let msg = SixpMessage::new(0, SixpBody::ClearRequest);
        let mut bytes = msg.encode();
        bytes[4] = 0x7F;
        assert_eq!(
            SixpMessage::decode(&bytes),
            Err(SixpDecodeError::BadCommand(0x7F))
        );
    }

    #[test]
    fn bad_return_code_rejected() {
        let msg = SixpMessage::new(
            0,
            SixpBody::ClearResponse {
                code: ReturnCode::Success,
            },
        );
        let mut bytes = msg.encode();
        bytes[1] = 0x6E;
        assert_eq!(
            SixpMessage::decode(&bytes),
            Err(SixpDecodeError::BadReturnCode(0x6E))
        );
    }

    #[test]
    fn display_is_informative() {
        let msg = SixpMessage::new(
            9,
            SixpBody::AskChannelResponse {
                code: ReturnCode::Success,
                channel_offset: 3,
            },
        );
        let s = msg.to_string();
        assert!(s.contains("ASK-CHANNEL"), "{s}");
        assert!(s.contains("seq=9"), "{s}");
    }

    #[test]
    fn request_predicate() {
        assert!(SixpBody::AskChannelRequest.is_request());
        assert!(!SixpBody::ClearResponse {
            code: ReturnCode::Err
        }
        .is_request());
    }
}
