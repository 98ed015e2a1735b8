//! Line-oriented PMI-1-style wire protocol.
//!
//! Each message is a single text line of `key=value` pairs introduced by a
//! `cmd=<name>` pair, e.g.:
//!
//! ```text
//! cmd=put key=bc.3 value=127.0.0.1%3A40112
//! ```
//!
//! Keys and values are percent-escaped so that spaces, `=`, `%`, and
//! newlines cannot break the framing. This mirrors how real PMI-1 restricts
//! its value alphabet, while letting us carry arbitrary business cards.

use std::fmt;

/// Errors produced while parsing a wire line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The line had no `cmd=` pair.
    MissingCommand,
    /// A field required by the command was absent.
    MissingField(&'static str),
    /// The command name was not recognized.
    UnknownCommand(String),
    /// A `key=value` pair was malformed.
    BadPair(String),
    /// A numeric field failed to parse.
    BadNumber(String),
    /// Percent-escape decoding failed.
    BadEscape(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::MissingCommand => write!(f, "line has no cmd= field"),
            WireError::MissingField(field) => write!(f, "missing field {field}"),
            WireError::UnknownCommand(c) => write!(f, "unknown command {c}"),
            WireError::BadPair(p) => write!(f, "malformed pair {p}"),
            WireError::BadNumber(n) => write!(f, "bad number {n}"),
            WireError::BadEscape(s) => write!(f, "bad escape in {s}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A PMI protocol message, either direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Rank announces itself: `cmd=init rank=<r> size=<n> jobid=<j>`.
    Init {
        /// The announcing rank.
        rank: u32,
        /// World size of the job.
        size: u32,
        /// Job identifier.
        jobid: String,
    },
    /// Server acknowledges init.
    InitAck,
    /// Publish a key into the job's key-value space.
    Put {
        /// Key to publish.
        key: String,
        /// Value to store.
        value: String,
    },
    /// Server acknowledges a put.
    PutAck,
    /// Look up a key.
    Get {
        /// Key to look up.
        key: String,
    },
    /// Successful lookup.
    GetAck {
        /// The stored value.
        value: String,
    },
    /// Key not present.
    GetFail {
        /// The missing key.
        key: String,
    },
    /// Enter the KVS fence (collective barrier over all ranks).
    Fence,
    /// All ranks have fenced; puts made before the fence are now globally
    /// visible. Carries what the job committed since the previous fence
    /// (`key=<k> value=<v>` repeated) — what a Hydra proxy caches after a
    /// fence — so the `get`s that follow are local.
    FenceAck {
        /// The key-value pairs this fence made visible.
        pairs: Vec<(String, String)>,
    },
    /// Orderly rank exit.
    Finalize,
    /// Server acknowledges finalize; the rank may disconnect.
    FinalizeAck,
    /// Abort the whole job.
    Abort {
        /// Human-readable cause.
        reason: String,
    },
}

/// Percent-escape a string for embedding in a wire line.
///
/// Escapes `%`, space, `=`, CR and LF; everything else passes through.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'%' | b' ' | b'=' => encode_byte(&mut out, b),
            // Printable ASCII passes through; control characters and
            // UTF-8 continuation bytes must be encoded byte-by-byte or
            // they would be misread as Latin-1 on decode.
            0x21..=0x7e => out.push(b as char),
            _ => encode_byte(&mut out, b),
        }
    }
    out
}

fn encode_byte(out: &mut String, b: u8) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('%');
    out.push(HEX[usize::from(b >> 4)].into());
    out.push(HEX[usize::from(b & 0xf)].into());
}

/// Reverse of [`escape`].
pub fn unescape(s: &str) -> Result<String, WireError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if i + 2 >= bytes.len() {
                return Err(WireError::BadEscape(s.to_string()));
            }
            let hi = from_hex(bytes[i + 1]).ok_or_else(|| WireError::BadEscape(s.to_string()))?;
            let lo = from_hex(bytes[i + 2]).ok_or_else(|| WireError::BadEscape(s.to_string()))?;
            out.push((hi << 4) | lo);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| WireError::BadEscape(s.to_string()))
}

fn from_hex(b: u8) -> Option<u8> {
    (b as char).to_digit(16).map(|d| d as u8)
}

impl Message {
    /// Encode the message as a single wire line (without trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Message::Init { rank, size, jobid } => {
                format!("cmd=init rank={rank} size={size} jobid={}", escape(jobid))
            }
            Message::InitAck => "cmd=init_ack".to_string(),
            Message::Put { key, value } => {
                format!("cmd=put key={} value={}", escape(key), escape(value))
            }
            Message::PutAck => "cmd=put_ack".to_string(),
            Message::Get { key } => format!("cmd=get key={}", escape(key)),
            Message::GetAck { value } => format!("cmd=get_ack value={}", escape(value)),
            Message::GetFail { key } => format!("cmd=get_fail key={}", escape(key)),
            Message::Fence => "cmd=fence".to_string(),
            Message::FenceAck { pairs } => {
                let mut line = "cmd=fence_ack".to_string();
                for (key, value) in pairs {
                    line.push_str(" key=");
                    line.push_str(&escape(key));
                    line.push_str(" value=");
                    line.push_str(&escape(value));
                }
                line
            }
            Message::Finalize => "cmd=finalize".to_string(),
            Message::FinalizeAck => "cmd=finalize_ack".to_string(),
            Message::Abort { reason } => format!("cmd=abort reason={}", escape(reason)),
        }
    }

    /// Parse a wire line (trailing newline permitted) back into a message.
    pub fn decode(line: &str) -> Result<Message, WireError> {
        let line = line.trim_end_matches(['\r', '\n']);
        let mut cmd: Option<String> = None;
        let mut fields: Vec<(String, String)> = Vec::new();
        for pair in line.split(' ').filter(|p| !p.is_empty()) {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| WireError::BadPair(pair.to_string()))?;
            if k == "cmd" {
                cmd = Some(v.to_string());
            } else {
                fields.push((k.to_string(), unescape(v)?));
            }
        }
        let cmd = cmd.ok_or(WireError::MissingCommand)?;
        let field = |name: &'static str| -> Result<String, WireError> {
            fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
                .ok_or(WireError::MissingField(name))
        };
        let num = |name: &'static str| -> Result<u32, WireError> {
            let v = field(name)?;
            v.parse().map_err(|_| WireError::BadNumber(v))
        };
        let pair = |kv: &[(String, String)]| match kv {
            [(k, key), (v, value)] if k == "key" && v == "value" => {
                Ok((key.clone(), value.clone()))
            }
            _ => Err(WireError::MissingField("value")),
        };
        match cmd.as_str() {
            "init" => Ok(Message::Init {
                rank: num("rank")?,
                size: num("size")?,
                jobid: field("jobid")?,
            }),
            "init_ack" => Ok(Message::InitAck),
            "put" => Ok(Message::Put {
                key: field("key")?,
                value: field("value")?,
            }),
            "put_ack" => Ok(Message::PutAck),
            "get" => Ok(Message::Get { key: field("key")? }),
            "get_ack" => Ok(Message::GetAck {
                value: field("value")?,
            }),
            "get_fail" => Ok(Message::GetFail { key: field("key")? }),
            "fence" => Ok(Message::Fence),
            "fence_ack" => Ok(Message::FenceAck {
                pairs: fields.chunks(2).map(pair).collect::<Result<_, _>>()?,
            }),
            "finalize" => Ok(Message::Finalize),
            "finalize_ack" => Ok(Message::FinalizeAck),
            "abort" => Ok(Message::Abort {
                reason: field("reason")?,
            }),
            other => Err(WireError::UnknownCommand(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_specials() {
        let s = "a b=c%d\ne";
        assert_eq!(unescape(&escape(s)).unwrap(), s);
    }

    #[test]
    fn escape_leaves_plain_text_alone() {
        assert_eq!(escape("bc.17"), "bc.17");
        assert_eq!(escape("127.0.0.1:40112"), "127.0.0.1:40112");
    }

    #[test]
    fn unescape_rejects_truncated_escape() {
        assert!(matches!(unescape("abc%4"), Err(WireError::BadEscape(_))));
        assert!(matches!(unescape("abc%"), Err(WireError::BadEscape(_))));
    }

    #[test]
    fn unescape_rejects_non_hex() {
        assert!(matches!(unescape("%zz"), Err(WireError::BadEscape(_))));
    }

    #[test]
    fn init_round_trip() {
        let m = Message::Init {
            rank: 3,
            size: 64,
            jobid: "job-00017".to_string(),
        };
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn put_with_hostile_value_round_trips() {
        let m = Message::Put {
            key: "bc.0".to_string(),
            value: "spaces and = and %\nnewline".to_string(),
        };
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn decode_tolerates_trailing_newline() {
        let line = "cmd=fence\n";
        assert_eq!(Message::decode(line).unwrap(), Message::Fence);
    }

    #[test]
    fn decode_rejects_missing_cmd() {
        assert_eq!(
            Message::decode("key=a value=b"),
            Err(WireError::MissingCommand)
        );
    }

    #[test]
    fn decode_rejects_unknown_command() {
        assert!(matches!(
            Message::decode("cmd=launch"),
            Err(WireError::UnknownCommand(_))
        ));
    }

    #[test]
    fn decode_rejects_missing_field() {
        assert_eq!(
            Message::decode("cmd=put key=a"),
            Err(WireError::MissingField("value"))
        );
    }

    #[test]
    fn decode_rejects_bad_number() {
        assert!(matches!(
            Message::decode("cmd=init rank=x size=4 jobid=j"),
            Err(WireError::BadNumber(_))
        ));
    }

    #[test]
    fn all_simple_messages_round_trip() {
        for m in [
            Message::InitAck,
            Message::PutAck,
            Message::Fence,
            Message::FenceAck { pairs: Vec::new() },
            Message::Finalize,
            Message::FinalizeAck,
        ] {
            assert_eq!(Message::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn fence_ack_carries_pairs_in_order() {
        let m = Message::FenceAck {
            pairs: vec![
                ("bc.0".to_string(), "10.0.0.1:4000/7".to_string()),
                ("odd key".to_string(), "a=b %\n".to_string()),
            ],
        };
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
        assert_eq!(
            Message::decode("cmd=fence_ack key=a"),
            Err(WireError::MissingField("value"))
        );
    }

    #[test]
    fn abort_round_trip() {
        let m = Message::Abort {
            reason: "proxy 3 died: connection reset".to_string(),
        };
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }
}
