//! Node addresses.
//!
//! P2 identifies nodes by network addresses (e.g. `"planetlab3:10000"`).
//! By convention the **first field of every tuple is the address of the
//! node where the tuple lives** — the planner and the network layer route
//! tuples by inspecting that field. We represent addresses as cheap,
//! interned, immutable strings.

use std::fmt;
use std::sync::Arc;

/// A node address.
///
/// Addresses are opaque to the query engine: the only operations it needs
/// are equality, ordering (for deterministic iteration), hashing (for
/// routing tables), and display.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(Arc<str>);

impl Addr {
    /// Create an address from any string-like value.
    pub fn new(s: impl AsRef<str>) -> Self {
        Addr(Arc::from(s.as_ref()))
    }

    /// The address as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

impl From<&str> for Addr {
    fn from(s: &str) -> Self {
        Addr::new(s)
    }
}

impl From<Arc<str>> for Addr {
    fn from(s: Arc<str>) -> Self {
        Addr(s)
    }
}

impl From<String> for Addr {
    fn from(s: String) -> Self {
        Addr::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_and_order() {
        let a = Addr::new("n1");
        let b = Addr::new("n1");
        let c = Addr::new("n2");
        assert_eq!(a, b);
        assert!(a < c);
        assert_eq!(a.to_string(), "n1");
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let a = Addr::new("host:1234");
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.as_str(), "host:1234");
    }
}
