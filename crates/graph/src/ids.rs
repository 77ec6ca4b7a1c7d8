//! Index newtypes used throughout the workspace.
//!
//! All graph entities live in arenas and are referred to by dense indices.
//! Newtypes keep the different index spaces from being mixed up
//! (C-NEWTYPE).

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $repr:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub(crate) $repr);

        impl $name {
            /// Creates an id from a raw index.
            #[inline]
            pub fn from_index(index: usize) -> Self {
                Self(index as $repr)
            }

            /// Returns the raw index backing this id.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

id_type!(
    /// Identifier of an [`Op`](crate::Op) inside a [`Graph`](crate::Graph).
    OpId,
    u32,
    "op"
);
id_type!(
    /// Identifier of a model parameter (a trainable tensor).
    ParamId,
    u32,
    "p"
);
id_type!(
    /// Identifier of a device (worker or parameter server).
    DeviceId,
    u16,
    "dev"
);
id_type!(
    /// Identifier of a communication channel (one per worker–PS pair).
    ChannelId,
    u32,
    "ch"
);
id_type!(
    /// Identifier of an op inside a [`ModelGraph`](crate::ModelGraph).
    ModelOpId,
    u32,
    "mop"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_index() {
        let id = OpId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(usize::from(id), 42);
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(OpId::from_index(3).to_string(), "op3");
        assert_eq!(ParamId::from_index(0).to_string(), "p0");
        assert_eq!(DeviceId::from_index(7).to_string(), "dev7");
        assert_eq!(ChannelId::from_index(1).to_string(), "ch1");
        assert_eq!(ModelOpId::from_index(9).to_string(), "mop9");
    }

    #[test]
    fn ordering_follows_indices() {
        assert!(OpId::from_index(1) < OpId::from_index(2));
        assert_eq!(OpId::from_index(5), OpId::from_index(5));
    }
}
