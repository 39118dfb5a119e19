//! Zero-cost typed identifiers.
//!
//! A production grid is full of numeric handles — sites, worker nodes,
//! jobs, logical files, transfers, users, certificates. Using raw `usize`
//! for all of them invites cross-wiring (submitting a *file* id to a batch
//! queue). Each handle gets its own newtype via the `define_id!` macro.

/// Define a `Copy` newtype identifier around `u32` with a short display
/// prefix, plus a matching allocator type `<Name>Gen`.
#[macro_export]
macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $gen:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
            serde::Serialize, serde::Deserialize,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }

        /// Monotonic allocator for fresh ids of this type.
        #[derive(Debug, Default, Clone, serde::Serialize, serde::Deserialize)]
        pub struct $gen {
            next: u32,
        }

        impl $gen {
            /// A generator starting at id 0.
            pub fn new() -> Self {
                Self::default()
            }

            /// Allocate the next id.
            pub fn next_id(&mut self) -> $name {
                let id = $name(self.next);
                self.next += 1;
                id
            }

            /// How many ids have been handed out.
            pub fn issued(&self) -> u32 {
                self.next
            }
        }
    };
}

define_id!(
    /// A grid site (one of the 27 Grid3 facilities).
    SiteId,
    SiteIdGen,
    "site-"
);

define_id!(
    /// A worker node (batch slot host) inside a site's cluster.
    NodeId,
    NodeIdGen,
    "node-"
);

define_id!(
    /// A computational job, from submission through completion/failure.
    JobId,
    JobIdGen,
    "job-"
);

define_id!(
    /// A logical file known to the replica location service.
    FileId,
    FileIdGen,
    "lfn-"
);

define_id!(
    /// A GridFTP transfer.
    TransferId,
    TransferIdGen,
    "xfer-"
);

define_id!(
    /// A registered grid user (holder of an X.509 certificate).
    UserId,
    UserIdGen,
    "user-"
);

define_id!(
    /// A workflow (DAG) instance.
    WorkflowId,
    WorkflowIdGen,
    "wf-"
);

define_id!(
    /// A trouble ticket at the operations center.
    TicketId,
    TicketIdGen,
    "tkt-"
);

define_id!(
    /// One grid within a federation (grid 0 is the sole grid of a
    /// non-federated run).
    GridId,
    GridIdGen,
    "grid-"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_monotonic_and_dense() {
        let mut g = JobIdGen::new();
        let a = g.next_id();
        let b = g.next_id();
        assert_eq!(a, JobId(0));
        assert_eq!(b, JobId(1));
        assert_eq!(g.issued(), 2);
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(SiteId(3).to_string(), "site-3");
        assert_eq!(FileId(12).to_string(), "lfn-12");
        assert_eq!(TicketId(0).to_string(), "tkt-0");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let set: BTreeSet<JobId> = [JobId(3), JobId(1), JobId(2)].into_iter().collect();
        let v: Vec<u32> = set.into_iter().map(|j| j.0).collect();
        assert_eq!(v, vec![1, 2, 3]);
    }
}
