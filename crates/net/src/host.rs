//! Typed `host:port` list parsing for `prism grid --hosts`: a
//! comma-separated list, e.g. `127.0.0.1:7761,box2:7761`.

use std::fmt;

/// One remote worker endpoint (`host:port`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostSpec {
    /// Hostname or IP address (never empty).
    pub host: String,
    /// TCP port of the `prism worker --listen` daemon.
    pub port: u16,
}

impl HostSpec {
    /// The dialable `host:port` address string.
    #[must_use]
    pub fn addr(&self) -> String {
        format!("{}:{}", self.host, self.port)
    }
}

impl fmt::Display for HostSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.host, self.port)
    }
}

/// Why a `--hosts` value failed to parse. Mirrors the
/// typed-error style of the fault-spec parsers: each variant names the
/// offending entry so the message is actionable without a stack trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostSpecError {
    /// The whole list was empty (or only commas/whitespace).
    Empty,
    /// One comma-separated entry was empty.
    EmptyEntry {
        /// 0-based position of the empty entry in the list.
        index: usize,
    },
    /// An entry had no `:port` suffix.
    MissingPort(String),
    /// An entry's host part was empty (e.g. `:7761`).
    MissingHost(String),
    /// An entry's port was not a valid non-zero u16.
    BadPort(String),
    /// The same `host:port` appeared twice.
    Duplicate(String),
}

impl fmt::Display for HostSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostSpecError::Empty => write!(f, "empty host list"),
            HostSpecError::EmptyEntry { index } => {
                write!(f, "empty host entry at position {index}")
            }
            HostSpecError::MissingPort(entry) => {
                write!(f, "missing `:port` in host entry `{entry}`")
            }
            HostSpecError::MissingHost(entry) => {
                write!(f, "missing host in entry `{entry}`")
            }
            HostSpecError::BadPort(entry) => {
                write!(f, "bad port in host entry `{entry}` (want 1-65535)")
            }
            HostSpecError::Duplicate(entry) => {
                write!(f, "duplicate host entry `{entry}`")
            }
        }
    }
}

impl std::error::Error for HostSpecError {}

/// Parses a comma-separated `host:port` list. Entries are trimmed; the
/// list must be non-empty, every entry must name a host and a non-zero
/// port, and duplicates are rejected (a duplicate shard would silently
/// halve the intended capacity).
///
/// # Errors
///
/// Returns a [`HostSpecError`] naming the first offending entry.
pub fn parse_hosts(text: &str) -> Result<Vec<HostSpec>, HostSpecError> {
    // A fully blank value (only commas/whitespace) is `Empty`; an empty
    // slot inside an otherwise populated list is a typo worth naming.
    if text.split(',').all(|raw| raw.trim().is_empty()) {
        return Err(HostSpecError::Empty);
    }
    let mut hosts: Vec<HostSpec> = Vec::new();
    for (index, raw) in text.split(',').enumerate() {
        let entry = raw.trim();
        if entry.is_empty() {
            return Err(HostSpecError::EmptyEntry { index });
        }
        let (host, port) = entry
            .rsplit_once(':')
            .ok_or_else(|| HostSpecError::MissingPort(entry.to_string()))?;
        let host = host.trim();
        if host.is_empty() {
            return Err(HostSpecError::MissingHost(entry.to_string()));
        }
        let port: u16 = port
            .trim()
            .parse()
            .ok()
            .filter(|&p| p != 0)
            .ok_or_else(|| HostSpecError::BadPort(entry.to_string()))?;
        let spec = HostSpec {
            host: host.to_string(),
            port,
        };
        if hosts.contains(&spec) {
            return Err(HostSpecError::Duplicate(entry.to_string()));
        }
        hosts.push(spec);
    }
    Ok(hosts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_host_list() {
        let hosts = parse_hosts(" 127.0.0.1:7761 , box2:80 ").unwrap();
        assert_eq!(
            hosts,
            vec![
                HostSpec {
                    host: "127.0.0.1".into(),
                    port: 7761
                },
                HostSpec {
                    host: "box2".into(),
                    port: 80
                },
            ]
        );
        assert_eq!(hosts[0].addr(), "127.0.0.1:7761");
        assert_eq!(hosts[1].to_string(), "box2:80");
    }

    #[test]
    fn empty_list_is_a_typed_error() {
        assert_eq!(parse_hosts(""), Err(HostSpecError::Empty));
        assert_eq!(parse_hosts("  , ,"), Err(HostSpecError::Empty));
    }

    #[test]
    fn empty_entry_inside_a_list_is_rejected() {
        assert_eq!(
            parse_hosts("a:1,,b:2"),
            Err(HostSpecError::EmptyEntry { index: 1 })
        );
    }

    #[test]
    fn missing_or_bad_parts_are_typed_errors() {
        assert_eq!(
            parse_hosts("justahost"),
            Err(HostSpecError::MissingPort("justahost".into()))
        );
        assert_eq!(
            parse_hosts(":7761"),
            Err(HostSpecError::MissingHost(":7761".into()))
        );
        for bad in ["h:0", "h:65536", "h:port", "h:"] {
            assert_eq!(
                parse_hosts(bad),
                Err(HostSpecError::BadPort(bad.into())),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn duplicates_are_rejected() {
        assert_eq!(
            parse_hosts("a:1,b:2,a:1"),
            Err(HostSpecError::Duplicate("a:1".into()))
        );
    }

    #[test]
    fn error_messages_name_the_entry() {
        let msg = HostSpecError::BadPort("h:99999".into()).to_string();
        assert!(msg.contains("h:99999"), "{msg}");
        let msg = HostSpecError::Duplicate("a:1".into()).to_string();
        assert!(msg.contains("a:1"), "{msg}");
    }
}
