//! Captured transcripts of every transport's sender over one scripted
//! channel.
//!
//! A 40-packet flow crosses a fixed-delay channel that loses psn 3 and
//! psn 17 once each, delivers one acknowledgement late (reordered), and
//! holds the reverse path back for a blackout long enough for one
//! retransmission timeout. Every poll answer, every acknowledgement and
//! timer expiry fed in, and every timer request drained is one line;
//! the expected lines under `tests/fixtures/` were captured from
//! `SenderQp` and `TcpSender` as they stood before the shared sender
//! core and the `Sender` / `Receiver` seam existed, so a refactor that
//! moves one poll, one `is_retx` mark or one timer arm fails here with
//! the first differing line.

use std::fmt::Write as _;

use irn_net::{FlowId, HostId, Packet, PacketKind};
use irn_sim::{Duration, Time};
use irn_transport::cc::CcKind;
use irn_transport::config::{TransportConfig, TransportKind};
use irn_transport::{endpoints, SenderPoll, TimerCmd};

/// One scripted run.
struct Case {
    name: &'static str,
    kind: TransportKind,
    pfc: bool,
    cc: CcKind,
    /// `(psn, n)`: the n-th transmission of `psn` is lost. Go-back-N
    /// resends psn 17 inside the rewind psn 3 causes, so its *second*
    /// transmission is the one that shows a second loss episode.
    drops: [(u32, u32); 2],
}

const SACK_DROPS: [(u32, u32); 2] = [(3, 1), (17, 1)];
const GBN_DROPS: [(u32, u32); 2] = [(3, 1), (17, 2)];

const CASES: [Case; 7] = [
    Case {
        name: "irn",
        kind: TransportKind::Irn,
        pfc: false,
        cc: CcKind::None,
        drops: SACK_DROPS,
    },
    Case {
        name: "irn-timely",
        kind: TransportKind::Irn,
        pfc: false,
        cc: CcKind::Timely,
        drops: SACK_DROPS,
    },
    Case {
        name: "roce-pfc",
        kind: TransportKind::Roce,
        pfc: true,
        cc: CcKind::None,
        drops: GBN_DROPS,
    },
    Case {
        name: "roce-nopfc",
        kind: TransportKind::Roce,
        pfc: false,
        cc: CcKind::None,
        drops: GBN_DROPS,
    },
    Case {
        name: "irn-gbn",
        kind: TransportKind::IrnGoBackN,
        pfc: false,
        cc: CcKind::None,
        drops: GBN_DROPS,
    },
    Case {
        name: "irn-nobdpfc",
        kind: TransportKind::IrnNoBdpFc,
        pfc: false,
        cc: CcKind::None,
        drops: SACK_DROPS,
    },
    Case {
        name: "iwarp",
        kind: TransportKind::IwarpTcp,
        pfc: false,
        cc: CcKind::None,
        drops: SACK_DROPS,
    },
];

/// Channel constants: 6 µs each way, one MTU frame per 210 ns on the
/// sender's link. The control frame answering the first arrival of
/// psn 8 takes 1 µs longer (it lands behind its successors), and every
/// control frame due at the sender inside the blackout lands at its end.
const ONE_WAY: Duration = Duration::micros(6);
const LINK_GAP: Duration = Duration::nanos(210);
const LATE_ACK_FOR_PSN: u32 = 8;
const LATE_BY: Duration = Duration::micros(1);
const BLACKOUT: (Time, Time) = (Time::from_nanos(22_000), Time::from_nanos(350_000));

fn timer_text(cmd: Option<TimerCmd>) -> String {
    match cmd {
        None => "-".to_string(),
        Some(TimerCmd::Arm(t)) => format!("arm@{}", t.as_nanos()),
        Some(TimerCmd::Cancel) => "cancel".to_string(),
    }
}

fn transcript(case: &Case) -> String {
    let mut tcfg = TransportConfig::preset(case.kind, case.pfc);
    tcfg.cc = case.cc;
    // A cap below the flow length, so BDP-FC is what blocks the capped
    // presets and its absence is what the uncapped ones show.
    tcfg.bdp_cap = tcfg.bdp_cap.map(|_| 16);
    let (src, dst) = (HostId(0), HostId(1));
    let (mut sender, mut receiver) =
        endpoints(case.kind, &tcfg, FlowId(0), src, dst, 40_000, Time::ZERO);

    let mut out = String::new();
    let mut transmissions = [0u32; 40];
    let mut late_ack_spent = false;
    // In flight, each way: (arrival time, send order, frame).
    let mut data: Vec<(Time, u64, Packet)> = Vec::new();
    let mut ctl: Vec<(Time, u64, Packet)> = Vec::new();
    let mut order = 0u64;
    let mut deadline: Option<Time> = None;
    let mut link_free = Time::ZERO;
    // When the sender is next polled; `None` once it answered `Blocked`,
    // until an acknowledgement or a timer expiry is fed in.
    let mut poll_at = Some(Time::ZERO);

    fn pop_due(q: &mut Vec<(Time, u64, Packet)>, now: Time) -> Option<Packet> {
        let i = (0..q.len()).min_by_key(|&i| (q[i].0, q[i].1))?;
        (q[i].0 == now).then(|| q.remove(i).2)
    }

    for _ in 0..10_000 {
        let now = [
            data.iter().map(|x| x.0).min(),
            ctl.iter().map(|x| x.0).min(),
            deadline,
            poll_at,
        ]
        .into_iter()
        .flatten()
        .min()
        .unwrap_or_else(|| panic!("{}: wedged — nothing in flight, no timer\n{out}", case.name));
        let t = now.as_nanos();

        if let Some(pkt) = pop_due(&mut data, now) {
            let replies = receiver.on_data(now, &pkt);
            for reply in [replies.ack, replies.cnp].into_iter().flatten() {
                let mut at = now + ONE_WAY;
                if pkt.psn == LATE_ACK_FOR_PSN && !late_ack_spent {
                    late_ack_spent = true;
                    at += LATE_BY;
                }
                if at >= BLACKOUT.0 && at < BLACKOUT.1 {
                    at = BLACKOUT.1;
                }
                order += 1;
                ctl.push((at, order, reply));
            }
        } else if let Some(pkt) = pop_due(&mut ctl, now) {
            let kind = match pkt.kind {
                PacketKind::Ack => "ack",
                PacketKind::Nack => "nack",
                other => panic!("{}: unexpected control frame {other:?}", case.name),
            };
            let done = sender.on_ack_packet(now, &pkt);
            let cmd = sender.take_timer_request();
            writeln!(
                out,
                "t={t} {kind} cum={} sack={} -> done={} timer={}",
                pkt.psn,
                pkt.sack,
                done as u8,
                timer_text(cmd)
            )
            .unwrap();
            match cmd {
                Some(TimerCmd::Arm(d)) => deadline = Some(d),
                Some(TimerCmd::Cancel) => deadline = None,
                None => {}
            }
            poll_at = Some(link_free.max(now));
        } else if deadline == Some(now) {
            deadline = None;
            let acted = sender.on_timer(now);
            let cmd = sender.take_timer_request();
            writeln!(
                out,
                "t={t} timer -> acted={} timer={}",
                acted as u8,
                timer_text(cmd)
            )
            .unwrap();
            if let Some(TimerCmd::Arm(d)) = cmd {
                deadline = Some(d);
            }
            if acted {
                poll_at = Some(link_free.max(now));
            }
        } else {
            let poll = sender.poll(now);
            let cmd = sender.take_timer_request();
            match poll {
                SenderPoll::Packet(pkt) => {
                    let nth = &mut transmissions[pkt.psn as usize];
                    *nth += 1;
                    let lost = case.drops.contains(&(pkt.psn, *nth));
                    writeln!(
                        out,
                        "t={t} poll -> packet psn={} retx={} last={} wire={}{} timer={}",
                        pkt.psn,
                        pkt.is_retx as u8,
                        pkt.is_last as u8,
                        pkt.wire_bytes,
                        if lost { " LOST" } else { "" },
                        timer_text(cmd)
                    )
                    .unwrap();
                    if !lost {
                        order += 1;
                        data.push((now + ONE_WAY, order, pkt));
                    }
                    link_free = now + LINK_GAP;
                    poll_at = Some(link_free);
                }
                SenderPoll::Wait(until) => {
                    assert!(until > now, "{}: Wait must name a later time", case.name);
                    writeln!(out, "t={t} poll -> wait until={}", until.as_nanos()).unwrap();
                    poll_at = Some(until);
                }
                SenderPoll::Blocked => {
                    writeln!(out, "t={t} poll -> blocked").unwrap();
                    poll_at = None;
                }
                SenderPoll::Done => {
                    writeln!(out, "t={t} poll -> done").unwrap();
                    return out;
                }
            }
            if let Some(TimerCmd::Arm(d)) = cmd {
                deadline = Some(d);
            }
        }
    }
    panic!("{}: no completion within the step budget\n{out}", case.name);
}

fn fixture_path(name: &str) -> String {
    format!(
        "{}/tests/fixtures/transcript-{name}.txt",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn every_transport_matches_its_captured_transcript() {
    for case in &CASES {
        let got = transcript(case);
        let path = fixture_path(case.name);
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "{}: line {} differs", case.name, i + 1);
        }
        assert_eq!(
            got.lines().count(),
            want.lines().count(),
            "{}: transcript length",
            case.name
        );
    }
}

/// The script exercises what it claims to: both losses, a timeout on
/// every transport that runs a timer, pacing waits under Timely, and a
/// window stall wherever a window exists.
#[test]
fn the_script_reaches_every_answer_and_timer_command() {
    for case in &CASES {
        let text = transcript(case);
        let count = |needle: &str| text.lines().filter(|l| l.contains(needle)).count();
        assert_eq!(count(" LOST"), 2, "{}: both drops happen", case.name);
        assert!(count("retx=1") >= 2, "{}: losses are repaired", case.name);
        let timers = !(case.kind == TransportKind::Roce && case.pfc);
        let cancels = usize::from(timers);
        assert_eq!(count("timer=cancel"), cancels, "{}: one cancel", case.name);
        assert_eq!(count("timer -> acted=1") > 0, timers, "{}: RTO", case.name);
        assert_eq!(count("arm@") > 0, timers, "{}: timer armed", case.name);
        assert_eq!(
            count("poll -> wait") > 0,
            case.cc == CcKind::Timely,
            "{}: only pacing waits",
            case.name
        );
        assert!(text.ends_with("poll -> done\n"), "{}", case.name);
    }
}
