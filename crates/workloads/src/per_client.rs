//! Per-client generator state, for the whole client population or for one
//! client's share ([`RequestGenerator::for_client`]).
//!
//! [`RequestGenerator::for_client`]: hcc_core::RequestGenerator::for_client

use hcc_common::CachePadded;

/// One `T` per client, indexed by client id. A generator built for the
/// whole population holds every client's entry; [`share`](Self::share)
/// cuts out one client's entry as the state of that client's share. Each
/// entry owns its cache line, so a share allocated next to another
/// client's shares no line with it.
pub(crate) struct PerClient<T> {
    /// Id of the first client held: 0 for the population, the client's
    /// own id for a share.
    first: u32,
    entries: Vec<CachePadded<T>>,
}

impl<T> PerClient<T> {
    /// Entries for clients `0..clients`, `init(c)` for client `c`.
    pub fn new(clients: u32, mut init: impl FnMut(u32) -> T) -> Self {
        PerClient {
            first: 0,
            entries: (0..clients).map(|c| CachePadded::new(init(c))).collect(),
        }
    }

    /// Client `client`'s entry. A client this value does not hold (another
    /// client, asked of a share) indexes past the end and panics.
    #[inline]
    pub fn get(&mut self, client: u32) -> &mut T {
        &mut self.entries[client.wrapping_sub(self.first) as usize]
    }
}

impl<T: Clone> PerClient<T> {
    /// `client`'s entry alone, in its current state.
    pub fn share(&mut self, client: u32) -> Self {
        PerClient {
            first: client,
            entries: vec![CachePadded::new(self.get(client).clone())],
        }
    }
}
