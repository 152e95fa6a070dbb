//! The per-dataset server table: every distinct server address, once.
//!
//! The paper asks its per-server questions of a few thousand servers but
//! hundreds of thousands of flows: Table I counts distinct servers,
//! Table II maps each server to its AS, Section V groups servers into /24
//! data centers, and Figures 15–16 rank per-server load. A
//! [`ServerTable`] interns the addresses once per dataset — the sorted
//! distinct addresses, a dense `u32` server id per flow, and each
//! server's flow and byte totals — so every per-server question indexes a
//! `Vec` by id instead of filling an address-keyed map per flow.
//!
//! Ids follow address order. Walking ids `0..len` therefore visits the
//! servers in the order a `BTreeMap<Ipv4Addr, _>` over the same flows
//! iterates, which keeps every report built from the table byte-identical
//! to one built from such a map, and the servers of one /24 are one
//! contiguous run of ids.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::ops::Range;

use ytcdn_tstat::Dataset;

/// The distinct servers of one dataset and each flow's server id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerTable {
    /// Distinct server addresses, ascending; a server's id is its position.
    ips: Vec<Ipv4Addr>,
    /// Per flow, in record order: the id of its server.
    flow_server: Vec<u32>,
    /// Per server: flows it answered.
    flows: Vec<u64>,
    /// Per server: bytes it sent.
    bytes: Vec<u64>,
    /// The first id of every /24 run, then `ips.len()`.
    block_starts: Vec<usize>,
}

impl ServerTable {
    /// Interns the servers of `dataset`: one pass gives each flow a
    /// first-seen id through a hash map, one sort of the few thousand
    /// distinct addresses turns those into address-ordered ids, and one
    /// more pass sums flows and bytes per server.
    ///
    /// # Panics
    ///
    /// Panics if the dataset has more than `u32::MAX` records.
    pub fn build(dataset: &Dataset) -> Self {
        let records = dataset.records();
        assert!(
            u32::try_from(records.len()).is_ok(),
            "server ids must fit u32"
        );
        // First-seen ids. The map is only probed, never iterated, so its
        // hash order cannot reach the table; the default hasher keeps
        // crafted addresses in a trace from degrading the probes.
        let mut first_seen: Vec<u32> = Vec::new();
        let mut id_of: HashMap<u32, u32> = HashMap::new();
        let mut flow_server: Vec<u32> = records
            .iter()
            .map(|r| {
                let addr = u32::from(r.server_ip);
                *id_of.entry(addr).or_insert_with(|| {
                    first_seen.push(addr);
                    (first_seen.len() - 1) as u32
                })
            })
            .collect();

        let mut order: Vec<u32> = (0..first_seen.len() as u32).collect();
        order.sort_unstable_by_key(|&f| first_seen[f as usize]);
        let mut rank = vec![0u32; order.len()];
        for (id, &f) in order.iter().enumerate() {
            rank[f as usize] = id as u32;
        }
        for s in &mut flow_server {
            *s = rank[*s as usize];
        }
        let ips: Vec<Ipv4Addr> = order
            .iter()
            .map(|&f| Ipv4Addr::from(first_seen[f as usize]))
            .collect();

        let mut flows = vec![0u64; ips.len()];
        let mut bytes = vec![0u64; ips.len()];
        for (r, &s) in records.iter().zip(&flow_server) {
            flows[s as usize] += 1;
            bytes[s as usize] += r.bytes;
        }

        let mut block_starts: Vec<usize> = (0..ips.len())
            .filter(|&s| s == 0 || slash24(ips[s - 1]) != slash24(ips[s]))
            .collect();
        block_starts.push(ips.len());
        Self {
            ips,
            flow_server,
            flows,
            bytes,
            block_starts,
        }
    }

    /// Number of distinct servers.
    pub fn len(&self) -> usize {
        self.ips.len()
    }

    /// Whether the dataset had no flows.
    pub fn is_empty(&self) -> bool {
        self.ips.is_empty()
    }

    /// The distinct server addresses, ascending — indexed by server id.
    pub fn ips(&self) -> &[Ipv4Addr] {
        &self.ips
    }

    /// Per flow, in record order: its server id.
    pub fn flow_servers(&self) -> &[u32] {
        &self.flow_server
    }

    /// The server id of flow `i`.
    pub fn server_of_flow(&self, i: usize) -> usize {
        self.flow_server[i] as usize
    }

    /// The id of a server address, `None` when no flow went to it.
    pub fn id_of(&self, ip: Ipv4Addr) -> Option<usize> {
        self.ips.binary_search(&ip).ok()
    }

    /// Per server id: flows answered.
    pub fn flows(&self) -> &[u64] {
        &self.flows
    }

    /// Per server id: bytes sent.
    pub fn bytes(&self) -> &[u64] {
        &self.bytes
    }

    /// The /24 runs: one id range per /24 holding at least one server,
    /// in address order.
    pub fn blocks(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.block_starts.windows(2).map(|w| w[0]..w[1])
    }
}

/// The /24 network of an address, as a sortable integer.
fn slash24(ip: Ipv4Addr) -> u32 {
    u32::from(ip) & 0xffff_ff00
}

#[cfg(test)]
mod tests {
    use super::*;
    use ytcdn_tstat::{DatasetName, FlowRecord, Resolution, VideoId};

    fn flow(server: &str, bytes: u64) -> FlowRecord {
        FlowRecord {
            client_ip: "10.0.0.1".parse().unwrap(),
            server_ip: server.parse().unwrap(),
            start_ms: 0,
            end_ms: 10,
            bytes,
            video_id: VideoId::from_index(1),
            resolution: Resolution::ALL[0],
        }
    }

    fn table(servers: &[(&str, u64)]) -> ServerTable {
        let records = servers.iter().map(|&(ip, b)| flow(ip, b)).collect();
        ServerTable::build(&Dataset::from_records(DatasetName::Eu2, records))
    }

    #[test]
    fn empty_dataset_has_no_servers() {
        let t = ServerTable::build(&Dataset::new(DatasetName::Eu2));
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.flow_servers().is_empty());
        assert_eq!(t.blocks().count(), 0);
        assert_eq!(t.id_of("1.2.3.4".parse().unwrap()), None);
    }

    #[test]
    fn one_flow_is_one_server_and_one_block() {
        let t = table(&[("74.125.0.9", 700)]);
        assert_eq!(t.ips(), &["74.125.0.9".parse::<Ipv4Addr>().unwrap()]);
        assert_eq!(t.flow_servers(), &[0]);
        assert_eq!((t.flows(), t.bytes()), (&[1][..], &[700][..]));
        assert_eq!(t.blocks().collect::<Vec<_>>(), vec![0..1]);
    }

    #[test]
    fn extreme_addresses_sort_to_the_ends() {
        let t = table(&[
            ("255.255.255.255", 1),
            ("0.0.0.0", 2),
            ("255.255.255.255", 3),
        ]);
        assert_eq!(
            t.ips(),
            &[Ipv4Addr::UNSPECIFIED, Ipv4Addr::BROADCAST],
            "ascending"
        );
        assert_eq!(t.flow_servers(), &[1, 0, 1]);
        assert_eq!(t.flows(), &[1, 2]);
        assert_eq!(t.bytes(), &[2, 4]);
        assert_eq!(t.blocks().collect::<Vec<_>>(), vec![0..1, 1..2]);
        assert_eq!(t.id_of(Ipv4Addr::BROADCAST), Some(1));
    }

    #[test]
    fn servers_sharing_a_slash24_form_one_run() {
        let t = table(&[
            ("74.125.0.200", 10),
            ("74.125.1.3", 20),
            ("74.125.0.7", 30),
            ("74.125.0.200", 40),
        ]);
        let ips: Vec<String> = t.ips().iter().map(ToString::to_string).collect();
        assert_eq!(ips, ["74.125.0.7", "74.125.0.200", "74.125.1.3"]);
        assert_eq!(t.blocks().collect::<Vec<_>>(), vec![0..2, 2..3]);
        assert_eq!(t.flow_servers(), &[1, 2, 0, 1]);
        assert_eq!(t.bytes(), &[30, 50, 20]);
        for (i, &s) in t.flow_servers().iter().enumerate() {
            assert_eq!(t.server_of_flow(i), s as usize);
        }
    }

    #[test]
    fn thousands_of_servers_each_get_one_id() {
        // Thousands of distinct addresses, each seen twice and out of
        // order.
        let addrs: Vec<u32> = (0..6000u32)
            .map(|i| i.wrapping_mul(2_654_435_761) ^ (i << 8))
            .collect();
        let records = addrs
            .iter()
            .chain(addrs.iter().rev())
            .map(|&a| flow(&Ipv4Addr::from(a).to_string(), u64::from(a % 7)))
            .collect();
        let ds = Dataset::from_records(DatasetName::Eu2, records);
        let t = ServerTable::build(&ds);
        let distinct: Vec<Ipv4Addr> = ds.server_ips().into_iter().collect();
        assert_eq!(t.ips(), distinct.as_slice());
        for (r, &id) in ds.iter().zip(t.flow_servers()) {
            assert_eq!(t.ips()[id as usize], r.server_ip);
        }
        assert!(t.flows().iter().all(|&n| n == 2));
    }

    #[test]
    fn ips_equal_the_datasets_distinct_servers() {
        use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.004, 42));
        for name in DatasetName::ALL {
            let ds = s.run(name);
            let t = ServerTable::build(&ds);
            let distinct: Vec<Ipv4Addr> = ds.server_ips().into_iter().collect();
            assert_eq!(t.ips(), distinct.as_slice(), "{name}");
            for (r, &id) in ds.iter().zip(t.flow_servers()) {
                assert_eq!(t.ips()[id as usize], r.server_ip, "{name}");
            }
            assert_eq!(t.flows().iter().sum::<u64>(), ds.len() as u64);
            assert_eq!(t.bytes().iter().sum::<u64>(), ds.total_bytes());
        }
    }
}
