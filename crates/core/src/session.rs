//! Video-session grouping — the paper's key analysis device.
//!
//! Section VI-A: "A video session aggregates all flows that i) have the same
//! source IP address and VideoID, and ii) are overlapped in time. In
//! particular, we consider two flows to overlap in time if the end of the
//! first flow and the beginning of the second flow are separated by less
//! than T seconds." The paper settles on `T = 1 s` after the sensitivity
//! analysis of Figure 5.
//!
//! Grouping related flows is what lets the analysis tell *DNS-caused*
//! non-preferred accesses (a session that starts at the non-preferred data
//! center) apart from *application-layer redirections* (a session whose
//! first, control flow goes to the preferred data center and whose video
//! flow does not).

use std::collections::HashMap;
use std::net::Ipv4Addr;

use ytcdn_tstat::{Dataset, FlowRecord, VideoId};

/// The sessions of one dataset at one gap threshold, held as flat columns.
///
/// A compressed-sparse-row table: `flows` concatenates every session's
/// member flow indices (each session's in start-time order), sessions in
/// the canonical `(start_ms, end_ms, client_ip, video_id)` order;
/// `offsets[s]` is where session `s` starts in `flows` (it runs to the
/// next session's offset, the last one to the end); `end_ms[s]` is its
/// latest flow end. Client, video and start are the head record's, so
/// they are read off the dataset rather than stored. The store costs
/// 4 bytes per flow plus 12 per session in three allocations, whatever
/// the number of sessions.
///
/// `u32` indices are safe: [`crate::index::SessionGaps::build`] asserts a
/// dataset has fewer than `u32::MAX` records, and the direct grouper does
/// the same.
///
/// Read a session through [`Sessions::iter`] or [`Sessions::get`], which
/// resolve it against its dataset as a [`SessionRef`]; the member lists
/// alone need no dataset ([`Sessions::flow_lists`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sessions {
    /// Per session: the position of its first member in `flows`.
    offsets: Vec<u32>,
    /// Every session's member flow indices, concatenated.
    flows: Vec<u32>,
    /// Per session: the latest end of its flows, ms.
    end_ms: Vec<u64>,
}

impl Sessions {
    /// Builds the store from one key per session in canonical order, each
    /// session's end, and `members`, which expands a key into the
    /// session's flow indices in start order. `keys` becomes the offsets
    /// column in place, and `flows` is sized for `flow_count` members up
    /// front, so the store takes no allocation per session.
    pub(crate) fn from_keys<I>(
        mut keys: Vec<u32>,
        end_ms: Vec<u64>,
        flow_count: usize,
        members: impl Fn(u32) -> I,
    ) -> Self
    where
        I: Iterator<Item = u32>,
    {
        debug_assert_eq!(keys.len(), end_ms.len());
        let mut flows = Vec::with_capacity(flow_count);
        for slot in &mut keys {
            let key = *slot;
            *slot = flows.len() as u32;
            flows.extend(members(key));
        }
        debug_assert_eq!(flows.len(), flow_count, "sessions must partition the flows");
        Self {
            offsets: keys,
            flows,
            end_ms,
        }
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether there are no sessions.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// The member flow indices of session `s`, in start-time order.
    ///
    /// # Panics
    ///
    /// Panics if `s >= self.len()`.
    pub fn flow_indices(&self, s: usize) -> &[u32] {
        let start = self.offsets[s] as usize;
        let end = self
            .offsets
            .get(s + 1)
            .map_or(self.flows.len(), |&o| o as usize);
        &self.flows[start..end]
    }

    /// Every session's member flow indices, sessions in canonical order —
    /// the view that needs no dataset.
    pub fn flow_lists(&self) -> impl DoubleEndedIterator<Item = &[u32]> + ExactSizeIterator + '_ {
        (0..self.len()).map(|s| self.flow_indices(s))
    }

    /// Session `s`, resolved against its dataset.
    ///
    /// # Panics
    ///
    /// Panics if `s >= self.len()`, or (on use) if `dataset` is not the
    /// dataset the sessions were grouped from.
    pub fn get<'a>(&'a self, dataset: &'a Dataset, s: usize) -> SessionRef<'a> {
        SessionRef {
            records: dataset.records(),
            flow_indices: self.flow_indices(s),
            end_ms: self.end_ms[s],
        }
    }

    /// The sessions in canonical order, resolved against their dataset.
    ///
    /// # Panics
    ///
    /// Panics (on use) if `dataset` is not the dataset the sessions were
    /// grouped from.
    pub fn iter<'a>(
        &'a self,
        dataset: &'a Dataset,
    ) -> impl ExactSizeIterator<Item = SessionRef<'a>> + 'a {
        (0..self.len()).map(move |s| self.get(dataset, s))
    }
}

/// One session of a [`Sessions`] store: one user's attempt to watch one
/// video. A `Copy` view; the client, video and start are its first flow's.
#[derive(Clone, Copy)]
pub struct SessionRef<'a> {
    records: &'a [FlowRecord],
    flow_indices: &'a [u32],
    end_ms: u64,
}

impl<'a> SessionRef<'a> {
    /// The first flow, which opened the session.
    pub fn head(&self) -> &'a FlowRecord {
        &self.records[self.flow_indices[0] as usize]
    }

    /// The client address.
    pub fn client_ip(&self) -> Ipv4Addr {
        self.head().client_ip
    }

    /// The video requested.
    pub fn video_id(&self) -> VideoId {
        self.head().video_id
    }

    /// Session start (first flow's start), ms.
    pub fn start_ms(&self) -> u64 {
        self.head().start_ms
    }

    /// Session end (latest flow end), ms.
    pub fn end_ms(&self) -> u64 {
        self.end_ms
    }

    /// Indices of the member flows in the dataset, in start-time order.
    pub fn flow_indices(&self) -> &'a [u32] {
        self.flow_indices
    }

    /// Number of flows in the session.
    pub fn flow_count(&self) -> usize {
        self.flow_indices.len()
    }

    /// The member flows in start-time order, without allocating.
    pub fn flows(&self) -> impl Iterator<Item = &'a FlowRecord> + 'a {
        let records = self.records;
        self.flow_indices.iter().map(move |&i| &records[i as usize])
    }
}

/// Groups a dataset's flows into video sessions with gap threshold
/// `gap_ms` (the paper's `T`, in milliseconds).
///
/// Returns sessions in canonical order: by `(start_ms, end_ms, client_ip,
/// video_id)`. The key is unique per session — two sessions of the same
/// (client, video) bucket are separated by more than the gap, so their
/// starts differ — so the order never depends on how sessions were
/// produced. This is the direct definition; the analysis index derives the
/// same store from its gap columns ([`crate::index::SessionGaps`]), and the
/// tests hold the two equal.
///
/// # Panics
///
/// Panics if the dataset has `u32::MAX` records or more.
pub fn group_sessions(dataset: &Dataset, gap_ms: u64) -> Sessions {
    let records = dataset.records();
    assert!(
        records.len() < u32::MAX as usize,
        "flow indices must fit u32"
    );
    // Bucket flow indices by (client, video). Records are already sorted by
    // start time, so each bucket is too.
    let mut buckets: HashMap<(Ipv4Addr, VideoId), Vec<u32>> = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        buckets
            .entry((r.client_ip, r.video_id))
            .or_default()
            .push(i as u32);
    }

    // Per session: its canonical key `(start_ms, end_ms, client_ip,
    // video_id)` and its members.
    type Key = (u64, u64, Ipv4Addr, VideoId);
    let mut sessions: Vec<(Key, Vec<u32>)> = Vec::new();
    for ((client_ip, video_id), indices) in buckets {
        let mut current: Option<(u64, u64, Vec<u32>)> = None;
        for idx in indices {
            let r = &records[idx as usize];
            match current.as_mut() {
                Some((_, end, members)) if r.start_ms <= end.saturating_add(gap_ms) => {
                    members.push(idx);
                    *end = (*end).max(r.end_ms);
                }
                _ => {
                    if let Some((start, end, members)) = current.take() {
                        sessions.push(((start, end, client_ip, video_id), members));
                    }
                    current = Some((r.start_ms, r.end_ms, vec![idx]));
                }
            }
        }
        if let Some((start, end, members)) = current.take() {
            sessions.push(((start, end, client_ip, video_id), members));
        }
    }
    sessions.sort_unstable_by_key(|&(key, _)| key);

    let end_ms = sessions.iter().map(|&((_, end, _, _), _)| end).collect();
    let keys = (0..sessions.len() as u32).collect();
    Sessions::from_keys(keys, end_ms, records.len(), |k| {
        sessions[k as usize].1.iter().copied()
    })
}

/// The distribution of flows-per-session for a dataset at one gap threshold
/// — one curve of the paper's Figures 5 and 6.
pub fn flows_per_session(dataset: &Dataset, gap_ms: u64) -> crate::stats::Cdf {
    crate::stats::Cdf::from_values(
        group_sessions(dataset, gap_ms)
            .flow_lists()
            .map(|flows| flows.len() as f64),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{SessionGaps, DEFAULT_GAP_MS};
    use ytcdn_tstat::{DatasetName, Resolution};

    fn flow(client: &str, video: u64, start: u64, end: u64, bytes: u64) -> FlowRecord {
        FlowRecord {
            client_ip: client.parse().unwrap(),
            server_ip: "74.125.0.1".parse().unwrap(),
            start_ms: start,
            end_ms: end,
            bytes,
            video_id: VideoId::from_index(video),
            resolution: Resolution::R360,
        }
    }

    fn ds(records: Vec<FlowRecord>) -> Dataset {
        Dataset::from_records(DatasetName::UsCampus, records)
    }

    /// The store's heap footprint, counted from the columns' capacities.
    fn heap_bytes(sessions: &Sessions) -> usize {
        4 * sessions.offsets.capacity()
            + 4 * sessions.flows.capacity()
            + 8 * sessions.end_ms.capacity()
    }

    /// Both builders agree on `d` at `gap_ms`, and return it.
    fn grouped(d: &Dataset, gap_ms: u64) -> Sessions {
        let direct = group_sessions(d, gap_ms);
        assert_eq!(SessionGaps::build(d).sessions(d, gap_ms), direct);
        direct
    }

    #[test]
    fn close_flows_group() {
        let d = ds(vec![
            flow("10.0.0.1", 1, 0, 100, 500),
            flow("10.0.0.1", 1, 600, 5000, 1_000_000),
        ]);
        let sessions = group_sessions(&d, 1_000);
        assert_eq!(sessions.len(), 1);
        let s = sessions.get(&d, 0);
        assert_eq!(s.flow_count(), 2);
        assert_eq!(s.start_ms(), 0);
        assert_eq!(s.end_ms(), 5000);
    }

    #[test]
    fn gap_splits_sessions() {
        let d = ds(vec![
            flow("10.0.0.1", 1, 0, 100, 500),
            flow("10.0.0.1", 1, 1_200, 5_000, 1_000_000),
        ]);
        assert_eq!(group_sessions(&d, 1_000).len(), 2);
        // A larger T merges them (the Figure 5 sensitivity).
        assert_eq!(group_sessions(&d, 5_000).len(), 1);
    }

    #[test]
    fn different_videos_never_group() {
        let d = ds(vec![
            flow("10.0.0.1", 1, 0, 100, 500),
            flow("10.0.0.1", 2, 150, 5_000, 1_000_000),
        ]);
        assert_eq!(group_sessions(&d, 1_000).len(), 2);
    }

    #[test]
    fn different_clients_never_group() {
        let d = ds(vec![
            flow("10.0.0.1", 1, 0, 100, 500),
            flow("10.0.0.2", 1, 150, 5_000, 1_000_000),
        ]);
        assert_eq!(group_sessions(&d, 1_000).len(), 2);
    }

    #[test]
    fn overlapping_flows_group() {
        // Second flow starts before the first ends.
        let d = ds(vec![
            flow("10.0.0.1", 1, 0, 10_000, 500),
            flow("10.0.0.1", 1, 2_000, 4_000, 1_000_000),
        ]);
        assert_eq!(group_sessions(&d, 1_000).len(), 1);
    }

    #[test]
    fn gap_measured_from_max_end() {
        // Flow B is contained in flow A; flow C starts within T of A's end
        // even though it is far past B's end.
        let d = ds(vec![
            flow("10.0.0.1", 1, 0, 10_000, 500),
            flow("10.0.0.1", 1, 1_000, 2_000, 700),
            flow("10.0.0.1", 1, 10_500, 12_000, 1_000_000),
        ]);
        let sessions = group_sessions(&d, 1_000);
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions.get(&d, 0).flow_count(), 3);
    }

    #[test]
    fn boundary_gap_exactly_t_groups() {
        // "separated by less than T seconds" — we group at <= T since times
        // are integer ms; the boundary case is vanishingly rare in data.
        let d = ds(vec![
            flow("10.0.0.1", 1, 0, 100, 500),
            flow("10.0.0.1", 1, 1_100, 2_000, 900),
        ]);
        assert_eq!(group_sessions(&d, 1_000).len(), 1);
    }

    #[test]
    fn sessions_sorted_by_start() {
        let d = ds(vec![
            flow("10.0.0.2", 9, 5_000, 6_000, 100),
            flow("10.0.0.1", 1, 0, 100, 500),
            flow("10.0.0.3", 4, 2_000, 3_000, 100),
        ]);
        let sessions = group_sessions(&d, 1_000);
        let starts: Vec<_> = sessions.iter(&d).map(|s| s.start_ms()).collect();
        assert_eq!(starts, vec![0, 2_000, 5_000]);
    }

    #[test]
    fn flows_resolve_in_order() {
        let d = ds(vec![
            flow("10.0.0.1", 1, 600, 5_000, 1_000_000),
            flow("10.0.0.1", 1, 0, 100, 500),
        ]);
        let sessions = group_sessions(&d, 1_000);
        let flows: Vec<&FlowRecord> = sessions.get(&d, 0).flows().collect();
        assert_eq!(flows[0].start_ms, 0);
        assert_eq!(flows[1].start_ms, 600);
    }

    #[test]
    fn empty_dataset_no_sessions() {
        let d = ds(vec![]);
        let sessions = grouped(&d, 1_000);
        assert!(sessions.is_empty());
        assert_eq!(sessions, Sessions::default());
        assert_eq!(sessions.iter(&d).count(), 0);
        assert_eq!(sessions.flow_lists().count(), 0);
        assert_eq!(heap_bytes(&sessions), 0);
        assert!(flows_per_session(&d, 1_000).is_empty());
    }

    #[test]
    fn one_flow_dataset_is_one_session() {
        let d = ds(vec![flow("10.0.0.9", 7, 40, 90, 1_234)]);
        for gap_ms in [0, 1_000, u64::MAX] {
            let sessions = grouped(&d, gap_ms);
            assert_eq!(sessions.len(), 1);
            assert_eq!(sessions.flow_indices(0), &[0]);
            let s = sessions.get(&d, 0);
            assert_eq!(s.client_ip(), "10.0.0.9".parse::<Ipv4Addr>().unwrap());
            assert_eq!(s.video_id(), VideoId::from_index(7));
            assert_eq!((s.start_ms(), s.end_ms()), (40, 90));
            assert_eq!(s.head(), &d.records()[0]);
        }
    }

    #[test]
    fn flows_iter_matches_flows() {
        let d = ds(vec![
            flow("10.0.0.1", 1, 600, 5_000, 1_000_000),
            flow("10.0.0.1", 1, 0, 100, 500),
            flow("10.0.0.2", 2, 50, 900, 700),
        ]);
        let sessions = group_sessions(&d, 1_000);
        for (s, members) in sessions.iter(&d).zip(sessions.flow_lists()) {
            assert_eq!(s.flow_indices(), members);
            let collected: Vec<&FlowRecord> = s.flows().collect();
            let resolved: Vec<&FlowRecord> =
                members.iter().map(|&i| &d.records()[i as usize]).collect();
            assert_eq!(collected, resolved);
        }
    }

    #[test]
    fn start_ties_keep_canonical_order() {
        // Six sessions opening at the same millisecond: they differ in end,
        // then client, then video, and must come out in exactly that
        // order from both builders, whatever order the records sit in.
        let d = ds(vec![
            flow("10.0.0.2", 5, 100, 900, 1),
            flow("10.0.0.1", 9, 100, 900, 1),
            flow("10.0.0.1", 3, 100, 900, 1),
            flow("10.0.0.3", 1, 100, 400, 1),
            flow("10.0.0.1", 1, 100, 700, 1),
            flow("10.0.0.1", 2, 100, 700, 1),
            flow("10.0.0.1", 1, 50, 60, 1),
        ]);
        let sessions = grouped(&d, 10);
        let keys: Vec<(u64, u64, Ipv4Addr, u64)> = sessions
            .iter(&d)
            .map(|s| {
                (
                    s.start_ms(),
                    s.end_ms(),
                    s.client_ip(),
                    s.video_id().index(),
                )
            })
            .collect();
        let ip = |s: &str| s.parse::<Ipv4Addr>().unwrap();
        assert_eq!(
            keys,
            vec![
                (50, 60, ip("10.0.0.1"), 1),
                (100, 400, ip("10.0.0.3"), 1),
                (100, 700, ip("10.0.0.1"), 1),
                (100, 700, ip("10.0.0.1"), 2),
                (100, 900, ip("10.0.0.1"), 3),
                (100, 900, ip("10.0.0.1"), 9),
                (100, 900, ip("10.0.0.2"), 5),
            ]
        );
    }

    #[test]
    fn nested_short_flow_stays_in_its_session() {
        // A short flow inside a long one; the session ends with the long
        // flow, and a flow just past that end joins while one past the gap
        // opens a new session.
        let d = ds(vec![
            flow("10.0.0.1", 1, 0, 10_000, 500),
            flow("10.0.0.1", 1, 2_000, 2_500, 700),
            flow("10.0.0.1", 1, 11_000, 12_000, 900),
            flow("10.0.0.1", 1, 13_001, 14_000, 900),
        ]);
        let sessions = grouped(&d, 1_000);
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions.flow_indices(0), &[0, 1, 2]);
        assert_eq!(sessions.get(&d, 0).end_ms(), 12_000);
        assert_eq!(sessions.flow_indices(1), &[3]);
        assert_eq!(sessions.get(&d, 1).start_ms(), 13_001);
    }

    #[test]
    fn store_fits_its_byte_budget() {
        // At most 4 B per flow plus 12 B per session, whichever builder: a
        // heap object per session would blow this at any scale.
        let scenario = ytcdn_cdnsim::StandardScenario::build(
            ytcdn_cdnsim::ScenarioConfig::with_scale(0.01, 42),
        );
        for name in DatasetName::ALL {
            let d = scenario.run(name);
            let sessions = grouped(&d, DEFAULT_GAP_MS);
            assert!(sessions.len() > 100, "{name}: {} sessions", sessions.len());
            let budget = 4 * d.len() + 12 * sessions.len();
            assert!(
                heap_bytes(&sessions) <= budget,
                "{name}: {} B for {} flows and {} sessions",
                heap_bytes(&sessions),
                d.len(),
                sessions.len()
            );
        }
    }

    #[test]
    fn flows_per_session_cdf() {
        let d = ds(vec![
            flow("10.0.0.1", 1, 0, 100, 500),
            flow("10.0.0.1", 1, 300, 900, 1_000_000),
            flow("10.0.0.2", 2, 0, 100, 1_000_000),
        ]);
        let cdf = flows_per_session(&d, 1_000);
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.5);
        assert_eq!(cdf.fraction_at_or_below(2.0), 1.0);
    }
}
