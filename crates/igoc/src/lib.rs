//! # grid3-igoc
//!
//! The iVDGL Grid Operations Center (§5.4): "The iGOC hosted centralized
//! services, including the Pacman cache, the top-level MDS index server,
//! the Site Status Catalog, the MonALISA central repositories, and web
//! services for Ganglia. A simple trouble ticket system was used
//! intermittently during the project. An acceptable use policy modeled
//! after that used by the LCG was adopted."
//!
//! * [`tickets`] — the trouble-ticket system with effort accounting (the
//!   §7 operations-support-load metric: target < 2 FTE, observed
//!   "typically 10 part-time" people during ramp-up, < 2 FTE steady
//!   state).
//! * [`policy`] — the acceptable-use policy and per-user acceptance.
//! * [`center`] — the operations center aggregate: central services, site
//!   onboarding (install → certify → register), support-load reporting.

#![warn(missing_docs)]

pub mod center;
pub mod policy;
pub mod tickets;

pub use center::OperationsCenter;
pub use tickets::{Ticket, TicketKind, TicketStatus};
