//! Virtual Organization Management System (VOMS).
//!
//! §5.3: "we deployed EDG's Virtual Organization Management System (VOMS)
//! … We generated the local grid-map files that map user identities
//! presented in X509 certificates to local accounts by calling an EDG
//! script to contact each VO's VOMS server." One server per VO holds the
//! membership list; sites periodically regenerate their grid-map by
//! querying all six servers (`edg-mkgridmap`).
//!
//! §7 counts users through exactly this database: "more than 102 users are
//! authorized to use Grid3 resources through their respective VOMS
//! services."

use crate::gsi::GridMapFile;
use grid3_simkit::ids::UserId;
use grid3_simkit::time::SimTime;
use grid3_site::vo::Vo;
use serde::{Deserialize, Serialize};

/// Role a member holds inside a VO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VoRole {
    /// Regular member: may run jobs.
    Member,
    /// Application administrator: performs most production submissions
    /// (§7: "about 10 % of users are application administrators who
    /// perform most job submissions").
    AppAdmin,
    /// Software/VO administrator: manages membership and installs.
    VoAdmin,
}

/// One VOMS membership entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Membership {
    /// The member.
    pub user: UserId,
    /// Subject DN on the member's certificate.
    pub dn: String,
    /// Role held.
    pub role: VoRole,
    /// When the member was registered.
    pub registered: SimTime,
}

/// A single VO's VOMS server.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VomsServer {
    /// The VO this server manages.
    pub vo: Vo,
    members: Vec<Membership>,
}

impl VomsServer {
    /// An empty server for `vo`.
    pub fn new(vo: Vo) -> Self {
        VomsServer {
            vo,
            members: Vec::new(),
        }
    }

    /// Register a member. Re-registering a DN updates the role instead of
    /// duplicating the entry.
    pub fn register(&mut self, user: UserId, dn: impl Into<String>, role: VoRole, now: SimTime) {
        let dn = dn.into();
        if let Some(m) = self.members.iter_mut().find(|m| m.dn == dn) {
            m.role = role;
            m.user = user;
            return;
        }
        self.members.push(Membership {
            user,
            dn,
            role,
            registered: now,
        });
    }

    /// Whether a DN is a member.
    #[cfg(test)]
    fn is_member(&self, dn: &str) -> bool {
        self.members.iter().any(|m| m.dn == dn)
    }

    /// All members.
    pub fn members(&self) -> &[Membership] {
        &self.members
    }

    /// Number of members.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Number of application administrators.
    #[cfg(test)]
    fn app_admin_count(&self) -> usize {
        self.members
            .iter()
            .filter(|m| m.role == VoRole::AppAdmin)
            .count()
    }
}

/// The `edg-mkgridmap` procedure of §5.3: query every VO's VOMS server and
/// regenerate a site's grid-map file, honouring the site's admitted-VO
/// policy.
pub fn mkgridmap(servers: &[VomsServer], admitted: impl Fn(Vo) -> bool) -> GridMapFile {
    let mut map = GridMapFile::new();
    for server in servers {
        if !admitted(server.vo) {
            continue;
        }
        for m in server.members() {
            map.add_entry(m.dn.clone(), server.vo);
        }
    }
    map
}

/// Total distinct users across a set of VOMS servers (the §7 user metric).
/// A user enrolled in two VOs counts once.
pub fn total_distinct_users(servers: &[VomsServer]) -> usize {
    let mut dns: Vec<&str> = servers
        .iter()
        .flat_map(|s| s.members().iter().map(|m| m.dn.as_str()))
        .collect();
    dns.sort_unstable();
    dns.dedup();
    dns.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server_with(vo: Vo, n: usize) -> VomsServer {
        let mut s = VomsServer::new(vo);
        for i in 0..n {
            s.register(
                UserId(i as u32),
                format!("/CN={} user {}", vo.name(), i),
                if i == 0 {
                    VoRole::AppAdmin
                } else {
                    VoRole::Member
                },
                SimTime::EPOCH,
            );
        }
        s
    }

    #[test]
    fn register_and_query() {
        let s = server_with(Vo::Usatlas, 5);
        assert_eq!(s.member_count(), 5);
        assert!(s.is_member("/CN=USATLAS user 3"));
        assert!(!s.is_member("/CN=stranger"));
        assert_eq!(s.app_admin_count(), 1);
    }

    #[test]
    fn reregistration_updates_in_place() {
        let mut s = VomsServer::new(Vo::Ligo);
        s.register(UserId(1), "/CN=X", VoRole::Member, SimTime::EPOCH);
        s.register(UserId(1), "/CN=X", VoRole::AppAdmin, SimTime::from_days(1));
        assert_eq!(s.member_count(), 1);
        assert_eq!(s.app_admin_count(), 1);
        // Original registration date preserved.
        assert_eq!(s.members()[0].registered, SimTime::EPOCH);
    }

    #[test]
    fn mkgridmap_merges_all_admitted_vos() {
        let servers = vec![server_with(Vo::Usatlas, 3), server_with(Vo::Uscms, 2)];
        let map = mkgridmap(&servers, |_| true);
        assert_eq!(map.len(), 5);
        assert_eq!(map.lookup("/CN=USATLAS user 0"), Some(Vo::Usatlas));
        assert_eq!(map.lookup("/CN=USCMS user 1"), Some(Vo::Uscms));
    }

    #[test]
    fn mkgridmap_honours_site_policy() {
        let servers = vec![server_with(Vo::Usatlas, 3), server_with(Vo::Btev, 4)];
        let map = mkgridmap(&servers, |vo| vo == Vo::Btev);
        assert_eq!(map.len(), 4);
        assert_eq!(map.lookup("/CN=USATLAS user 0"), None);
    }

    #[test]
    fn distinct_user_count_dedups_across_vos() {
        let mut a = VomsServer::new(Vo::Usatlas);
        let mut b = VomsServer::new(Vo::Ivdgl);
        a.register(UserId(1), "/CN=Shared", VoRole::Member, SimTime::EPOCH);
        b.register(UserId(1), "/CN=Shared", VoRole::Member, SimTime::EPOCH);
        b.register(UserId(2), "/CN=Only iVDGL", VoRole::Member, SimTime::EPOCH);
        assert_eq!(total_distinct_users(&[a, b]), 2);
    }

    #[test]
    fn paper_scale_user_population() {
        // §7: 102 authorized users, ≈10 % app admins, across six VOs.
        let servers: Vec<VomsServer> = Vo::ALL.iter().map(|vo| server_with(*vo, 17)).collect();
        assert_eq!(total_distinct_users(&servers), 102);
        let admins: usize = servers.iter().map(|s| s.app_admin_count()).sum();
        assert_eq!(admins, 6); // one per VO in this synthetic population
    }
}
