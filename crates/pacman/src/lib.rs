//! # grid3-pacman
//!
//! The Pacman packaging and site-installation substrate of §5.1:
//!
//! > "Procedures for installation, configuration, post-installation
//! > testing, and certification of the basic middleware services were
//! > devised and documented. The Pacman packaging and configuration tool
//! > was used extensively to facilitate the process. A Pacman package
//! > encoded the basic VDT-based Grid3 installation …"
//!
//! * [`package`] — package definitions, the iGOC package cache, and
//!   dependency resolution (topological install order, cycle detection).
//! * [`install`] — the four-stage site pipeline (install → configure →
//!   post-install test → certify), with misconfiguration injection: §6.2
//!   observes that site efficiency only reaches the >90 % regime "once
//!   sites are fully validated", which is exactly what certification
//!   models.

#![warn(missing_docs)]

pub mod install;
pub mod package;

pub use install::{InstallPipeline, InstallReport};
pub use package::{grid3_package_cache, PackageCache};
