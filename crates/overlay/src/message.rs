//! Gnutella-style wire messages.
//!
//! ACE's overhead accounting is message-size aware: a neighbor cost table
//! with 20 entries costs more to ship than a probe. Messages are encoded
//! to a compact binary wire format (via `bytes`) and the *encoded length*
//! drives the cost model, so overhead numbers follow real payload sizes
//! instead of hand-picked constants.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use ace_topology::Delay;

use crate::peer::PeerId;

/// Size (bytes) of a baseline query message; one "size unit" of traffic.
/// Matches a small Gnutella QUERY descriptor (23-byte header + short
/// search string).
pub const QUERY_BASE_SIZE: usize = 40;

/// A protocol message exchanged between logical neighbors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Keep-alive / discovery probe.
    Ping,
    /// Ping response advertising known peer addresses.
    Pong {
        /// Addresses the sender shares from its cache.
        addrs: Vec<PeerId>,
    },
    /// A flooded search query.
    Query {
        /// Globally unique query id (for duplicate suppression).
        id: u64,
        /// Remaining hops.
        ttl: u8,
        /// Requested object.
        object: u32,
    },
    /// A query hit traveling back along the inverse query path.
    QueryHit {
        /// Id of the query being answered.
        id: u64,
        /// The responder.
        responder: PeerId,
    },
    /// ACE phase-1 delay probe (routing message type added to Gnutella).
    Probe {
        /// Echo nonce.
        nonce: u64,
    },
    /// Reply to [`Message::Probe`].
    ProbeReply {
        /// Echoed nonce.
        nonce: u64,
    },
    /// ACE neighbor cost table exchange.
    CostTable {
        /// Table owner.
        owner: PeerId,
        /// `(neighbor, cost)` entries.
        entries: Vec<(PeerId, Delay)>,
    },
    /// ACE phase-3 connection request.
    Connect,
    /// Acceptance of a [`Message::Connect`].
    ConnectOk,
    /// Notice that the sender is dropping the connection.
    Disconnect,
    /// ACE: ask a neighbor to probe the given peers and report the costs
    /// (how a peer learns the pairwise costs among its own neighbors).
    ProbeRequest {
        /// Peers the receiver should measure.
        targets: Vec<PeerId>,
    },
    /// ACE: "your link to me is on my spanning tree — relay my queries".
    ForwardRequest,
    /// ACE: withdraw a previous [`Message::ForwardRequest`].
    ForwardCancel,
}

impl Message {
    /// Wire tag for encoding.
    fn tag(&self) -> u8 {
        match self {
            Message::Ping => 0,
            Message::Pong { .. } => 1,
            Message::Query { .. } => 2,
            Message::QueryHit { .. } => 3,
            Message::Probe { .. } => 4,
            Message::ProbeReply { .. } => 5,
            Message::CostTable { .. } => 6,
            Message::Connect => 7,
            Message::ConnectOk => 8,
            Message::Disconnect => 9,
            Message::ProbeRequest { .. } => 10,
            Message::ForwardRequest => 11,
            Message::ForwardCancel => 12,
        }
    }

    /// Encodes the message to its binary wire form.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(32);
        b.put_u8(self.tag());
        match self {
            Message::Ping
            | Message::Connect
            | Message::ConnectOk
            | Message::Disconnect
            | Message::ForwardRequest
            | Message::ForwardCancel => {}
            Message::ProbeRequest { targets } => {
                b.put_u16(targets.len() as u16);
                for t in targets {
                    b.put_u32(t.raw());
                }
            }
            Message::Pong { addrs } => {
                b.put_u16(addrs.len() as u16);
                for a in addrs {
                    b.put_u32(a.raw());
                }
            }
            Message::Query { id, ttl, object } => {
                b.put_u64(*id);
                b.put_u8(*ttl);
                b.put_u32(*object);
                // Pad to the Gnutella-like baseline query size.
                let used = b.len();
                if used < QUERY_BASE_SIZE {
                    b.put_bytes(0, QUERY_BASE_SIZE - used);
                }
            }
            Message::QueryHit { id, responder } => {
                b.put_u64(*id);
                b.put_u32(responder.raw());
            }
            Message::Probe { nonce } | Message::ProbeReply { nonce } => {
                b.put_u64(*nonce);
            }
            Message::CostTable { owner, entries } => {
                b.put_u32(owner.raw());
                b.put_u16(entries.len() as u16);
                for (p, c) in entries {
                    b.put_u32(p.raw());
                    b.put_u32(*c);
                }
            }
        }
        b.freeze()
    }

    /// Decodes a message previously produced by [`Self::encode`].
    ///
    /// # Errors
    ///
    /// Returns a description of the problem on truncated or unknown input.
    pub fn decode(mut buf: Bytes) -> Result<Message, String> {
        fn need(buf: &Bytes, n: usize) -> Result<(), String> {
            if buf.remaining() < n {
                Err(format!("truncated: need {n} more bytes"))
            } else {
                Ok(())
            }
        }
        need(&buf, 1)?;
        let tag = buf.get_u8();
        let msg = match tag {
            0 => Message::Ping,
            1 => {
                need(&buf, 2)?;
                let n = buf.get_u16() as usize;
                need(&buf, 4 * n)?;
                let addrs = (0..n).map(|_| PeerId::new(buf.get_u32())).collect();
                Message::Pong { addrs }
            }
            2 => {
                need(&buf, 13)?;
                let id = buf.get_u64();
                let ttl = buf.get_u8();
                let object = buf.get_u32();
                Message::Query { id, ttl, object }
            }
            3 => {
                need(&buf, 12)?;
                Message::QueryHit {
                    id: buf.get_u64(),
                    responder: PeerId::new(buf.get_u32()),
                }
            }
            4 => {
                need(&buf, 8)?;
                Message::Probe {
                    nonce: buf.get_u64(),
                }
            }
            5 => {
                need(&buf, 8)?;
                Message::ProbeReply {
                    nonce: buf.get_u64(),
                }
            }
            6 => {
                need(&buf, 6)?;
                let owner = PeerId::new(buf.get_u32());
                let n = buf.get_u16() as usize;
                need(&buf, 8 * n)?;
                let entries = (0..n)
                    .map(|_| {
                        let p = PeerId::new(buf.get_u32());
                        let c = buf.get_u32();
                        (p, c)
                    })
                    .collect();
                Message::CostTable { owner, entries }
            }
            7 => Message::Connect,
            8 => Message::ConnectOk,
            9 => Message::Disconnect,
            10 => {
                need(&buf, 2)?;
                let n = buf.get_u16() as usize;
                need(&buf, 4 * n)?;
                let targets = (0..n).map(|_| PeerId::new(buf.get_u32())).collect();
                Message::ProbeRequest { targets }
            }
            11 => Message::ForwardRequest,
            12 => Message::ForwardCancel,
            t => return Err(format!("unknown tag {t}")),
        };
        Ok(msg)
    }

    /// Encoded size in bytes.
    pub fn wire_size(&self) -> usize {
        self.encode().len()
    }

    /// Message size expressed in query-size units (>= a small floor so
    /// control messages are never free). This is the factor that scales
    /// the physical link cost when charging traffic/overhead.
    pub fn size_units(&self) -> f64 {
        (self.wire_size() as f64 / QUERY_BASE_SIZE as f64).max(0.25)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(m: Message) {
        let enc = m.encode();
        let back = Message::decode(enc).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn all_variants_round_trip() {
        round_trip(Message::Ping);
        round_trip(Message::Pong {
            addrs: vec![PeerId::new(1), PeerId::new(9)],
        });
        round_trip(Message::Query {
            id: 77,
            ttl: 7,
            object: 1234,
        });
        round_trip(Message::QueryHit {
            id: 77,
            responder: PeerId::new(4),
        });
        round_trip(Message::Probe { nonce: 0xdead });
        round_trip(Message::ProbeReply { nonce: 0xdead });
        round_trip(Message::CostTable {
            owner: PeerId::new(2),
            entries: vec![(PeerId::new(3), 120), (PeerId::new(5), 4)],
        });
        round_trip(Message::Connect);
        round_trip(Message::ConnectOk);
        round_trip(Message::Disconnect);
        round_trip(Message::ProbeRequest {
            targets: vec![PeerId::new(2), PeerId::new(8)],
        });
        round_trip(Message::ForwardRequest);
        round_trip(Message::ForwardCancel);
    }

    #[test]
    fn query_is_exactly_one_size_unit() {
        let q = Message::Query {
            id: 1,
            ttl: 7,
            object: 0,
        };
        assert_eq!(q.wire_size(), QUERY_BASE_SIZE);
        assert!((q.size_units() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cost_table_grows_with_entries() {
        let small = Message::CostTable {
            owner: PeerId::new(0),
            entries: vec![(PeerId::new(1), 5)],
        };
        let big = Message::CostTable {
            owner: PeerId::new(0),
            entries: (0..20).map(|i| (PeerId::new(i), 5)).collect(),
        };
        assert!(big.wire_size() > small.wire_size());
        assert!(big.size_units() > small.size_units());
    }

    #[test]
    fn control_messages_have_floor_cost() {
        assert!(Message::Ping.size_units() >= 0.25);
        assert!(Message::Connect.size_units() >= 0.25);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Message::decode(Bytes::from_static(&[42])).is_err());
        assert!(Message::decode(Bytes::from_static(&[2, 0])).is_err()); // truncated query
        assert!(Message::decode(Bytes::new()).is_err());
    }

    /// Builds one message of every variant from drawn fields; list
    /// lengths come from `len`, so a caller can force the `u16` count
    /// field's full range.
    fn message_of(tag: u8, word: u64, len: usize) -> Message {
        let peers = || {
            (0..len)
                .map(|i| PeerId::new(word as u32 ^ i as u32))
                .collect()
        };
        match tag % 13 {
            0 => Message::Ping,
            1 => Message::Pong { addrs: peers() },
            2 => Message::Query {
                id: word,
                ttl: (word >> 8) as u8,
                object: (word >> 32) as u32,
            },
            3 => Message::QueryHit {
                id: word,
                responder: PeerId::new(word as u32),
            },
            4 => Message::Probe { nonce: word },
            5 => Message::ProbeReply { nonce: word },
            6 => Message::CostTable {
                owner: PeerId::new((word >> 32) as u32),
                entries: (0..len)
                    .map(|i| (PeerId::new(i as u32), word as u32 ^ i as u32))
                    .collect(),
            },
            7 => Message::Connect,
            8 => Message::ConnectOk,
            9 => Message::Disconnect,
            10 => Message::ProbeRequest { targets: peers() },
            11 => Message::ForwardRequest,
            _ => Message::ForwardCancel,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// `decode` never panics on arbitrary input: the first byte is
        /// drawn near the tag range so every variant's length checks
        /// see truncated and over-long bodies, not just unknown tags.
        #[test]
        fn decode_never_panics(
            tag in 0u8..16,
            body in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
        ) {
            let mut bytes = vec![tag];
            bytes.extend_from_slice(&body);
            let _ = Message::decode(Bytes::from(bytes));
        }

        /// `encode` → `decode` is the identity for every variant with
        /// short lists.
        #[test]
        fn encode_decode_round_trips(
            tag in 0u8..13,
            word in proptest::prelude::any::<u64>(),
            len in 0usize..40,
        ) {
            let m = message_of(tag, word, len);
            proptest::prop_assert_eq!(Message::decode(m.encode()), Ok(m));
        }
    }

    /// The count field's ceiling: lists of exactly `u16::MAX` entries
    /// round-trip too.
    #[test]
    fn longest_lists_round_trip() {
        for tag in [1, 6, 10] {
            round_trip(message_of(
                tag,
                0xABCD_1234_5678_9EF0,
                usize::from(u16::MAX),
            ));
        }
    }
}
