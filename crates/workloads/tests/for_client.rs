//! The `RequestGenerator::for_client` contract, for every shipped
//! generator: a client's share yields exactly the requests the whole
//! generator would have yielded for that client, in the same order,
//! whichever order the clients draw in and whenever the split happens.
//!
//! Requests are compared as bytes: a single-partition fragment by its
//! `LogEncode` encoding, a multi-partition procedure by the encodings of
//! its first round (`procedure.step(&[])`).

use hcc_common::{ClientId, LogEncode, PartitionId, TxnId};
use hcc_core::{ExecutionEngine, Request, RequestGenerator, Step};
use hcc_workloads::{
    MicroConfig, MicroWorkload, PhasedMicroWorkload, TpccConfig, TpccWorkload, YcsbConfig,
    YcsbEConfig, YcsbEWorkload, YcsbWorkload,
};

const CLIENTS: u32 = 6;
/// Requests drawn per client.
const DRAWS: usize = 90;
/// Rounds the whole generator serves before a late split.
const BEFORE_SPLIT: usize = 7;

type Fragment<G> = <<G as RequestGenerator>::Engine as ExecutionEngine>::Fragment;

fn partition(out: &mut Vec<u8>, p: PartitionId) {
    out.extend_from_slice(&p.0.to_le_bytes());
}

/// One request as bytes.
fn encode<F: LogEncode, R>(request: Request<F, R>) -> Vec<u8> {
    let mut out = Vec::new();
    match request {
        Request::SinglePartition {
            partition: p,
            fragment,
            can_abort,
        } => {
            out.extend_from_slice(&[0, can_abort as u8]);
            partition(&mut out, p);
            fragment.encode(&mut out);
        }
        Request::MultiPartition {
            procedure,
            can_abort,
        } => {
            out.extend_from_slice(&[1, can_abort as u8]);
            let Step::Round {
                fragments,
                is_final,
            } = procedure.step(&[])
            else {
                panic!("a multi-partition procedure finished before its first round");
            };
            out.push(is_final as u8);
            for (p, fragment) in &fragments {
                partition(&mut out, *p);
                fragment.encode(&mut out);
            }
        }
    }
    out
}

/// Draw one request for `client` from `g`, report it committed, and
/// record it.
fn draw<G: RequestGenerator>(g: &mut G, client: u32, round: usize, streams: &mut [Vec<Vec<u8>>])
where
    Fragment<G>: LogEncode,
{
    let c = ClientId(client);
    streams[client as usize].push(encode(g.next_request(c)));
    g.on_result(c, TxnId::new(c, round as u32 + 1), !round.is_multiple_of(5));
}

/// The orders clients draw in within one round.
fn orders() -> [(&'static str, Vec<u32>); 2] {
    [
        ("round-robin", (0..CLIENTS).collect()),
        ("reversed", (0..CLIENTS).rev().collect()),
    ]
}

/// Every client's stream from one whole generator, clients drawing in
/// `order` each round.
fn whole<G: RequestGenerator>(mut g: G, order: &[u32]) -> Vec<Vec<Vec<u8>>>
where
    Fragment<G>: LogEncode,
{
    let mut streams = vec![Vec::new(); CLIENTS as usize];
    for round in 0..DRAWS {
        for &c in order {
            draw(&mut g, c, round, &mut streams);
        }
    }
    streams
}

/// Every client's stream when the whole generator serves `before` rounds
/// in `order`, then splits (asked in `order`) and each share serves the
/// rest — one client after another, so no share's calls interleave with
/// another's the way they did on the whole generator.
fn split<G: RequestGenerator>(mut g: G, order: &[u32], before: usize) -> Vec<Vec<Vec<u8>>>
where
    Fragment<G>: LogEncode,
{
    let mut streams = vec![Vec::new(); CLIENTS as usize];
    for round in 0..before {
        for &c in order {
            draw(&mut g, c, round, &mut streams);
        }
    }
    let shares: Vec<(u32, G)> = order
        .iter()
        .map(|&c| {
            (
                c,
                g.for_client(ClientId(c))
                    .expect("a shipped generator splits"),
            )
        })
        .collect();
    for (c, mut share) in shares {
        for round in before..DRAWS {
            draw(&mut share, c, round, &mut streams);
        }
    }
    streams
}

/// The contract for one generator, `make` building a fresh instance whose
/// stream holds multi-partition requests if `mp`.
fn check<G: RequestGenerator>(name: &str, mp: bool, make: impl Fn() -> G)
where
    Fragment<G>: LogEncode,
{
    let reference = whole(make(), &orders()[0].1);
    let drew_mp = reference.iter().flatten().any(|r| r[0] == 1);
    assert_eq!(drew_mp, mp, "{name}: multi-partition requests drawn");
    for (label, order) in orders() {
        assert!(
            whole(make(), &order) == reference,
            "{name}: the whole generator's per-client streams depend on the {label} order"
        );
        for before in [0, BEFORE_SPLIT] {
            let streams = split(make(), &order, before);
            for c in 0..CLIENTS as usize {
                let at = streams[c]
                    .iter()
                    .zip(&reference[c])
                    .position(|(a, b)| a != b);
                assert!(
                    at.is_none(),
                    "{name}: client {c}'s share, split in {label} order after {before} rounds, \
                     departs from the whole generator at request {}",
                    at.unwrap_or(0)
                );
            }
        }
    }
}

fn micro(mutate: impl Fn(&mut MicroConfig)) -> impl Fn() -> MicroWorkload {
    let mut cfg = MicroConfig {
        partitions: 2,
        clients: CLIENTS,
        ..Default::default()
    };
    mutate(&mut cfg);
    move || MicroWorkload::new(cfg)
}

#[test]
fn micro_single_partition_shares_match() {
    check("micro single-partition", false, micro(|_| {}));
}

#[test]
fn micro_multi_partition_shares_match() {
    // Conflicts pin clients 0 and 1, aborts add the abort side's draw.
    check(
        "micro multi-partition",
        true,
        micro(|c| {
            c.mp_fraction = 0.5;
            c.conflict_prob = 0.3;
            c.abort_prob = 0.1;
        }),
    );
}

#[test]
fn micro_two_round_shares_match() {
    check(
        "micro two-round",
        true,
        micro(|c| {
            c.mp_fraction = 0.5;
            c.two_round = true;
        }),
    );
}

#[test]
fn micro_affinity_group_shares_match() {
    check(
        "micro affinity groups",
        true,
        micro(|c| {
            c.partitions = 6;
            c.affinity_groups = 2;
            c.mp_fraction = 0.5;
        }),
    );
}

#[test]
fn ycsb_shares_match() {
    let cfg = YcsbConfig {
        partitions: 3,
        clients: CLIENTS,
        keys_per_partition: 1024,
        mp_fraction: 0.3,
        ..Default::default()
    };
    check("YCSB", true, || YcsbWorkload::new(cfg));
}

#[test]
fn ycsb_e_shares_match() {
    let cfg = YcsbEConfig {
        partitions: 2,
        clients: CLIENTS,
        keys_per_partition: 1024,
        mp_fraction: 0.3,
        ..Default::default()
    };
    check("YCSB-E", true, || YcsbEWorkload::new(cfg));
}

#[test]
fn tpcc_standard_mix_shares_match() {
    let mut cfg = TpccConfig::new(4, 2);
    // More remote lines and payments than the spec's, so the streams hold
    // every multi-partition shape.
    cfg.remote_item_prob = 0.1;
    check("TPC-C", true, || TpccWorkload::new(cfg));
}

#[test]
fn phased_shares_match() {
    // 30 requests per phase: every client crosses both phase boundaries,
    // one of them after a late split.
    check("phased", true, || {
        PhasedMicroWorkload::standard(2, CLIENTS, 7, DRAWS as u64 / 3)
    });
}
