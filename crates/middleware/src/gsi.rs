//! Grid Security Infrastructure: certificates and grid-map files.
//!
//! §5.1 installs "The Globus Toolkit's Grid security infrastructure (GSI),
//! GRAM, and GridFTP services"; §5.3 generates "local grid-map files that
//! map user identities presented in X509 certificates to local accounts".
//! This module models the identity layer: a certificate authority signs
//! user certificates carrying a distinguished name (DN); sites hold a
//! grid-map file mapping DNs to the per-VO Unix group accounts.
//!
//! No real cryptography is involved — what the simulation needs is the
//! *authorization semantics*: who is admitted where, and what breaks when
//! a certificate expires or a DN is missing from the map.

use grid3_simkit::hash::FastMap;
use grid3_simkit::ids::UserId;
use grid3_simkit::time::SimTime;
use grid3_site::vo::Vo;
use serde::{Deserialize, Serialize};

/// An X.509-style identity certificate (semantics only, no crypto).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Certificate {
    /// The subject distinguished name, e.g.
    /// `/DC=org/DC=doegrids/OU=People/CN=Jane Doe 12345`.
    pub subject_dn: String,
    /// Issuing CA's DN.
    pub issuer_dn: String,
    /// The holder.
    pub user: UserId,
    /// Expiry instant; operations after this fail authentication.
    pub not_after: SimTime,
}

impl Certificate {
    /// Whether the certificate is valid at `now`.
    pub(crate) fn is_valid(&self, now: SimTime) -> bool {
        now < self.not_after
    }
}

/// A certificate authority (DOEGrids CA stood behind Grid3 identities).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CertificateAuthority {
    /// The CA's own DN, stamped into every issued certificate.
    pub dn: String,
    issued: Vec<Certificate>,
}

impl CertificateAuthority {
    /// A CA with the given DN.
    pub fn new(dn: impl Into<String>) -> Self {
        CertificateAuthority {
            dn: dn.into(),
            issued: Vec::new(),
        }
    }

    /// Issue a certificate for `user` with the given subject, valid until
    /// `not_after`.
    pub fn issue(
        &mut self,
        user: UserId,
        subject_dn: impl Into<String>,
        not_after: SimTime,
    ) -> Certificate {
        let cert = Certificate {
            subject_dn: subject_dn.into(),
            issuer_dn: self.dn.clone(),
            user,
            not_after,
        };
        self.issued.push(cert.clone());
        cert
    }

    /// Whether this CA issued the certificate (trust-chain check).
    pub fn verify(&self, cert: &Certificate) -> bool {
        cert.issuer_dn == self.dn && self.issued.iter().any(|c| c == cert)
    }

    /// Number of certificates issued.
    pub fn issued_count(&self) -> usize {
        self.issued.len()
    }
}

/// Why gate-keeping rejected a credential.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AuthError {
    /// Certificate expired.
    Expired,
    /// DN not present in the grid-map file.
    NotMapped,
    /// Certificate not signed by a trusted CA.
    UntrustedIssuer,
}

impl std::fmt::Display for AuthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuthError::Expired => write!(f, "certificate expired"),
            AuthError::NotMapped => write!(f, "DN not present in the grid-map file"),
            AuthError::UntrustedIssuer => write!(f, "certificate not signed by a trusted CA"),
        }
    }
}

impl std::error::Error for AuthError {}

/// A site's grid-map file: DN → local (group) account.
///
/// §5.3: "We also used group accounts at sites, with a naming convention
/// for each VO" — so every mapped DN lands in its VO's group account.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GridMapFile {
    entries: FastMap<String, Vo>,
}

impl GridMapFile {
    /// An empty grid-map file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Map a DN to a VO's group account (one line of the file).
    pub(crate) fn add_entry(&mut self, dn: impl Into<String>, vo: Vo) {
        self.entries.insert(dn.into(), vo);
    }

    /// Number of mapped DNs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no DN is mapped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The local account a DN maps to, if any.
    pub fn lookup(&self, dn: &str) -> Option<Vo> {
        self.entries.get(dn).copied()
    }

    /// Full authentication + authorization: verify trust and expiry, then
    /// map to a local account. Returns the Unix group account name.
    pub fn authorize(
        &self,
        cert: &Certificate,
        ca: &CertificateAuthority,
        now: SimTime,
    ) -> Result<&'static str, AuthError> {
        if !ca.verify(cert) {
            return Err(AuthError::UntrustedIssuer);
        }
        if !cert.is_valid(now) {
            return Err(AuthError::Expired);
        }
        match self.lookup(&cert.subject_dn) {
            Some(vo) => Ok(vo.group_account()),
            None => Err(AuthError::NotMapped),
        }
    }

    /// Render the file in the classic `"DN" account` format (useful in
    /// examples and debugging).
    pub fn render(&self) -> String {
        let mut lines: Vec<String> = self
            .entries
            .iter()
            .map(|(dn, vo)| format!("\"{}\" {}", dn, vo.group_account()))
            .collect();
        lines.sort();
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid3_simkit::time::SimDuration;

    fn ca() -> CertificateAuthority {
        CertificateAuthority::new("/DC=org/DC=DOEGrids/OU=Certificate Authorities/CN=DOEGrids CA 1")
    }

    #[test]
    fn issue_and_verify() {
        let mut ca = ca();
        let cert = ca.issue(UserId(1), "/CN=Jane Doe", SimTime::from_days(365));
        assert!(ca.verify(&cert));
        assert_eq!(ca.issued_count(), 1);
        // A forged certificate with the right issuer string still fails.
        let forged = Certificate {
            subject_dn: "/CN=Mallory".into(),
            issuer_dn: ca.dn.clone(),
            user: UserId(99),
            not_after: SimTime::from_days(365),
        };
        assert!(!ca.verify(&forged));
    }

    #[test]
    fn expiry_is_enforced() {
        let mut ca = ca();
        let cert = ca.issue(UserId(1), "/CN=Jane Doe", SimTime::from_days(30));
        assert!(cert.is_valid(SimTime::from_days(29)));
        assert!(!cert.is_valid(SimTime::from_days(30)));

        let mut map = GridMapFile::new();
        map.add_entry("/CN=Jane Doe", Vo::Usatlas);
        assert_eq!(
            map.authorize(&cert, &ca, SimTime::from_days(31)),
            Err(AuthError::Expired)
        );
    }

    #[test]
    fn authorization_maps_to_group_account() {
        let mut ca = ca();
        let cert = ca.issue(UserId(1), "/CN=Jane Doe", SimTime::from_days(365));
        let mut map = GridMapFile::new();
        map.add_entry("/CN=Jane Doe", Vo::Uscms);
        assert_eq!(map.authorize(&cert, &ca, SimTime::EPOCH), Ok("uscms"));
    }

    #[test]
    fn unmapped_dn_rejected() {
        let mut ca = ca();
        let cert = ca.issue(UserId(1), "/CN=Stranger", SimTime::from_days(365));
        let map = GridMapFile::new();
        assert_eq!(
            map.authorize(&cert, &ca, SimTime::EPOCH),
            Err(AuthError::NotMapped)
        );
    }

    #[test]
    fn untrusted_issuer_rejected() {
        let good_ca = ca();
        let mut rogue_ca = CertificateAuthority::new("/CN=Rogue CA");
        let cert = rogue_ca.issue(UserId(1), "/CN=Jane Doe", SimTime::from_days(365));
        let mut map = GridMapFile::new();
        map.add_entry("/CN=Jane Doe", Vo::Ligo);
        assert_eq!(
            map.authorize(&cert, &good_ca, SimTime::EPOCH),
            Err(AuthError::UntrustedIssuer)
        );
    }

    #[test]
    fn render_is_sorted_and_formatted() {
        let mut map = GridMapFile::new();
        map.add_entry("/CN=Zed", Vo::Btev);
        map.add_entry("/CN=Amy", Vo::Sdss);
        let r = map.render();
        assert_eq!(r, "\"/CN=Amy\" sdss\n\"/CN=Zed\" btev");
    }

    #[test]
    fn validity_window_arithmetic() {
        let mut ca = ca();
        let start = SimTime::from_days(10);
        let cert = ca.issue(UserId(3), "/CN=Short", start + SimDuration::from_days(7));
        assert!(cert.is_valid(start));
        assert!(!cert.is_valid(start + SimDuration::from_days(7)));
    }
}
